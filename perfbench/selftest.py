"""Self-test of the benchmark at tiny sizes (n=8, grid 5); takes about a minute.

    python3 perfbench/selftest.py

Checks, for every workload, traced and untraced:

* every metric BENCHMARK.json names is emitted, with its unit, and no other;
* ops are scaled as their workload says: ft-sweep ops by the calibration
  run before and after each, conv-sine ops by a speed meter, ft-n64 ops
  not at all;
* the outputs pass goldens captured at the same tiny sizes;
* each traced op's per-layer self times add up to its span, which lies
  within the op's measured time;
* a perturbed golden makes every op count as failed, with a reason;
* another ft-sweep seed, drawing the pool in another order, passes;
* without wg4 sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import workloads
from capture_goldens import capture
from run import run_benchmark
from spans import SELF_TIME_METRICS, SOLVE_TIME_METRICS, layer_metrics, spans_by_op
from workloads import BENCH_DIR, GOLDEN_DIR, ROOT, STATE_DIR, TINY_WORKLOADS

WORK = STATE_DIR / "selftest"
SECONDS = 1.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_units(result: dict, specs: list[dict], label: str) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in specs}
    expect(emitted == wanted, f"{label}: emitted {emitted}, BENCHMARK.json names {wanted}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], float), f"{label}: {name} is not a number")


def check_self_times(name: str) -> None:
    stem = f"{name}-seed{workloads.DEFAULT_SEED}-trace1"
    spans = json.loads((STATE_DIR / "out" / f"{stem}-spans.json").read_text())
    ops = json.loads((STATE_DIR / "out" / f"{stem}.json").read_text())["record"]["ops"]
    per_op = spans_by_op(spans)
    expect(bool(per_op), f"{name}: no traced op")
    for op, group in per_op.items():
        metrics = layer_metrics(group)
        total = sum(metrics[m] for m in (*SELF_TIME_METRICS.values(), *SOLVE_TIME_METRICS))
        root = [s for s in group if s[3] is None]
        expect(len(root) == 1 and root[0][0] == "cli", f"{name} op {op}: one cli root span")
        span = root[0][2] - root[0][1]
        expect(abs(total - span) <= 1e-9 + 1e-9 * span,
               f"{name} op {op}: self times sum to {total}, span is {span}")
        expect(span <= ops[op]["seconds"],
               f"{name} op {op}: span {span} longer than the op's {ops[op]['seconds']} s")


def perturb(golden_dir, name: str) -> None:
    """Move a golden just outside what its check allows: two units in the
    last printed place of one table cell, or a field scaled by
    1 + 2 (rtol + atol)."""
    wl = TINY_WORKLOADS[name]
    if wl.grid == 0:
        path = golden_dir / f"{name}.csv"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        mantissa, exponent = cells[2].split("e")
        cells[2] = f"{float(mantissa) + 2e-5:.5f}e{exponent}"
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return
    tol = json.loads((golden_dir / "tolerance.json").read_text())[name]
    scale = np.float32(1 + 2 * (tol["rtol"] + tol["atol"]))
    if wl.kind == "process":
        path = golden_dir / f"{name}.npy"
        np.save(path, np.load(path) * scale)
    else:
        path = golden_dir / f"{name}-pool.npz"
        stored = dict(np.load(path))
        stored["fields"] = stored["fields"] * scale
        np.savez_compressed(path, **stored)


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = spec["workloads"][0]["name"]
    proc = subprocess.run(
        [*spec["command"], "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect('"correct"' not in proc.stdout, "bare directory: printed a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} <= set(TINY_WORKLOADS),
           "every BENCHMARK.json workload has a tiny variant")
    golden = WORK / "golden"
    shutil.rmtree(WORK, ignore_errors=True)
    capture(golden, TINY_WORKLOADS)
    shutil.copyfile(GOLDEN_DIR / "tolerance.json", golden / "tolerance.json")

    for name in TINY_WORKLOADS:
        for trace, specs in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, record = run_benchmark(name, workloads.DEFAULT_SEED, SECONDS, trace,
                                           TINY_WORKLOADS, golden, probe=False)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: failures {record['failures']}")
            check_units(result, specs, label)
            wl = TINY_WORKLOADS[name]
            expect(all((op["calib_s"] is not None) == (wl.kind == "sweep")
                       and (op["scaled_s"] is not None) == (wl.kind == "sweep" or wl.meter)
                       for op in record["ops"]),
                   f"{label}: ops scaled, or not, against their workload's rule")
        check_self_times(name)
        print(f"ok   {name}: metrics, units, goldens and self times")

    # Long enough to draw the tiny pool, with a calibration after every op.
    result, record = run_benchmark("ft-sweep", workloads.DEFAULT_SEED + 1, 3 * SECONDS, False,
                                   TINY_WORKLOADS, golden, probe=False)
    expect(result["correct"], f"ft-sweep another seed: {record['failures']}")
    expect(len({op["pool_index"] for op in record["ops"]}) == TINY_WORKLOADS["ft-sweep"].pool,
           "ft-sweep another seed: the run did not draw the whole pool")
    print("ok   ft-sweep another seed draws the pool in another order and passes")

    for name in TINY_WORKLOADS:
        perturb(golden, name)
        result, record = run_benchmark(name, workloads.DEFAULT_SEED, SECONDS, False,
                                       TINY_WORKLOADS, golden, probe=False)
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"{name}: perturbed golden gave {result['failed']} of "
               f"{result['attempted']} failed, expected all")
        expect(all(f["reason"] for f in record["failures"]), f"{name}: failure without reason")
        print(f"ok   {name}: perturbed golden fails every op ({record['failures'][0]['reason']})")

    check_bare_directory()
    print("ok   without wg4 sources: non-zero exit, no result")
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
