"""The wg4 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (conv-sine, ft-n64 or ft-sweep; see README.md) from the
root of a checkout as a single closed-loop client: the next op starts when
the last one has returned and been checked against its golden.  Every
child process has BLAS/OpenMP threads pinned to 1.

With ``--trace 0`` it prints the end-to-end metrics: set-up time, the
median and tail op time, and the peak RSS of the processes that ran the
ops.  Set-up and op times are scaled to the reference machine speed (see
calibrate.py): set-up samples and ft-sweep ops by the calibration run
just before and after each, conv-sine ops by a speed meter running beside
them; ft-n64 ops are reported as measured.
With ``--trace 1`` it alternates untraced and traced ops and prints
per-layer self times and counts of the traced ops, plus the tracing
overhead, on the plain clock.
Each metric is printed as ``name value unit``, then one ``record`` line
(environment, per-op times, failures, known-failure probe), and last one
JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The record and the spans are also written under ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibrate import CalibrationProcess, SpeedMeter, scaled
from check import Goldens, compare_field, compare_table, field_guarantees, read_field
from spans import PER_LAYER_UNITS, SELF_TIME_METRICS, SOLVE_TIME_METRICS, layer_metrics, spans_by_op
from workloads import GOLDEN_DIR, ROOT, SRC, STATE_DIR, WORKLOADS, run_worker

#: Every run ends within this many seconds of its start.
RUN_LIMIT_S = 170.0

#: Fresh-interpreter imports per run; set-up time is their median.
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wg4").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned": workloads.PINNED_THREADS,
        "seed": seed,
        "git_commit": commit,
        "wg4_source_sha256": source_digest(),
    }


def measure_setup(samples: int, timeout: float,
                  calibrate: CalibrationProcess) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to ``import wg4.cli`` done,
    read on the system-wide monotonic clock, scaled to the reference speed
    by the calibration run before and after each import, and as measured.
    One unmeasured import first writes the bytecode cache, which users do
    not pay on every run."""
    code = "import time, wg4.cli; print(time.monotonic())"

    def import_seconds() -> float:
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                              check=True)
        return float(proc.stdout.split()[-1]) - t0

    import_seconds()
    times, raw = [], []
    before = calibrate()
    for _ in range(samples):
        seconds = import_seconds()
        after = calibrate()
        times.append(scaled(seconds, before, after))
        raw.append(seconds)
        before = after
    return times, raw


def known_failure_probe(timeout: float) -> dict:
    """The poly-bump study, untimed.  Its outcome depends only on the wg4
    sources and the numerical stack, so it is run once per source tree and
    kept under .perfbench/."""
    import numpy
    import scipy

    key = hashlib.sha256(
        f"{source_digest()} {workloads.PROBE_CASE} {workloads.PROBE_LEVELS} {sys.version} "
        f"{numpy.__version__} {scipy.__version__}".encode()
    ).hexdigest()[:16]
    path = STATE_DIR / f"probe-{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    proc = run_worker(["probe"], timeout)
    if proc.returncode != 0:
        probe = {"outcome": "probe crashed", "stderr": proc.stderr[-2000:]}
    else:
        levels = json.loads(proc.stdout.splitlines()[-1])["levels"]
        last = levels[-1]
        outcome = "passed" if last["ok"] and len(levels) == len(workloads.PROBE_LEVELS) \
            else f"failed at n={last['n']}: {last.get('message')}"
        probe = {"case": workloads.PROBE_CASE, "levels": levels, "outcome": outcome,
                 "final_residual": last["residual"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(probe))
    return probe


def tail(values: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile that still has at least ten
    samples beyond it, and that percentile.  With ten samples or fewer no
    percentile has, and the maximum (p100) stands in; with 11 to 19 the
    percentile would fall below the median, and the median (p50) stands in."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    if len(ordered) < 20:
        return statistics.median(ordered), 50.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Runner:
    """One benchmark invocation: runs ops, checks outputs, keeps the record."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 table=WORKLOADS, golden_dir: Path = GOLDEN_DIR):
        self.workload = table[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.goldens = Goldens(golden_dir)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tmp = STATE_DIR / "tmp" / f"{name}-{os.getpid()}"
        self.ops: list[dict] = []
        self.meter_runs: list[tuple[float, float]] = []
        self.spans: dict[int, list[list]] = {}

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def check(self, op: dict) -> str | None:
        """Why an op's output is wrong, or None."""
        wl = self.workload
        if op.get("error"):
            return op["error"]
        if op["rc"] != 0:
            return f"exit code {op['rc']}: {op['stderr'].strip()[-300:]}"
        if wl.grid == 0:
            return compare_table(Path(op["out"]).read_text(), self.goldens.table(wl.name))
        values = read_field(op["out"], wl.grid)
        if wl.kind == "process":
            golden = self.goldens.field(wl.name)
        else:
            golden = self.goldens.sweep(wl.name, op["pool_index"], op["source"])
        reason = field_guarantees(values, op["stdout"])
        if reason is None:
            reason = compare_field(values, golden, self.goldens.tolerance[wl.name])
        return reason

    def record_op(self, op: dict, spans: list[list]) -> None:
        index = len(self.ops)
        try:
            reason = self.check(op)
        except (OSError, ValueError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if op.get("traced") and reason is None:
            self.spans[index] = spans
        calib = op.get("calib_s")  # ft-sweep ops; metered ops are scaled later
        self.ops.append({"start": op["start"], "seconds": op["seconds"], "calib_s": calib,
                         "scaled_s": scaled(op["seconds"], *calib) if calib else None,
                         "traced": op.get("traced", False),
                         "peak_rss_mb": op.get("peak_rss_mb"), "pool_index": op.get("pool_index"),
                         "ok": reason is None, "reason": reason})

    def crashed(self, what: str, detail: str) -> None:
        self.ops.append({"seconds": None, "traced": False, "peak_rss_mb": None,
                         "ok": False, "reason": f"{what}: {detail[-500:]}"})

    def run_process_ops(self) -> None:
        wl = self.workload
        min_ops = 2 if self.trace else 1
        start = time.monotonic()
        lengths: list[float] = []
        meter = SpeedMeter(workloads.child_env()) if wl.meter else contextlib.nullcontext()
        with meter:
            while workloads.keep_going(time.monotonic() - start, lengths, self.seconds, min_ops):
                t0 = time.monotonic()
                traced = self.trace and len(self.ops) % 2 == 1
                out = str(self.tmp / f"op-{len(self.ops)}.csv")
                try:
                    proc = run_worker(["op", "--trace", str(int(traced)), "--",
                                       *wl.argv, "--out", out], self.remaining())
                except subprocess.TimeoutExpired:
                    self.crashed("timeout",
                                 f"op still running at the {RUN_LIMIT_S:.0f} s run limit")
                    break
                if proc.returncode == 0:
                    op = json.loads(proc.stdout.splitlines()[-1])
                    op.update(out=out, traced=traced)
                    self.record_op(op, op["spans"])
                    Path(out).unlink(missing_ok=True)
                else:
                    self.crashed("worker exited with code %d" % proc.returncode, proc.stderr)
                lengths.append(time.monotonic() - t0)
        if wl.meter:
            for op in self.ops:
                if op["seconds"] is not None:
                    op["scaled_s"] = meter.scaled(op["start"], op["seconds"])
            self.meter_runs = meter.runs

    def run_sweep_ops(self) -> None:
        wl = self.workload
        args = ["sweep", "--pool", str(wl.pool), "--seed", str(self.seed),
                "--seconds", str(self.seconds),
                "--trace", str(int(self.trace)), "--min-ops", "2" if self.trace else "1",
                "--n", str(wl.n), "--grid", str(wl.grid), "--out-dir", str(self.tmp)]
        try:
            proc = run_worker(args, self.remaining())
        except subprocess.TimeoutExpired:
            self.crashed("timeout", f"sweep still running at the {RUN_LIMIT_S:.0f} s run limit")
            return
        if proc.returncode != 0:
            self.crashed("worker exited with code %d" % proc.returncode, proc.stderr)
            return
        result = json.loads(proc.stdout.splitlines()[-1])
        per_op = spans_by_op(result["spans"])
        for j, op in enumerate(result["ops"]):
            op["peak_rss_mb"] = result["peak_rss_mb"]
            self.record_op(op, per_op.get(j, []))
            Path(op["out"]).unlink(missing_ok=True)

    def run_ops(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)
        try:
            if self.workload.kind == "process":
                self.run_process_ops()
            else:
                self.run_sweep_ops()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def end_to_end(self, setup: list[float]) -> tuple[dict, dict]:
        untraced = [op for op in self.ops if op["ok"] and not op["traced"]]
        if not untraced:
            return {}, {}
        times = [op["seconds"] if op["scaled_s"] is None else op["scaled_s"] for op in untraced]
        rss = [op["peak_rss_mb"] for op in untraced]
        tail_value, percentile = tail(times)
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_value,
            "peak_rss_mb": statistics.median(rss),
        }
        return metrics, {"tail_percentile": percentile, "samples": len(times),
                         "raw_op_p50_s": statistics.median(op["seconds"] for op in untraced)}

    def per_layer(self) -> tuple[dict, dict]:
        """Per-op means over the traced ops, so the self times sum to
        trace.op_s; the overhead compares traced and untraced medians."""
        traced = [i for i, op in enumerate(self.ops) if op["ok"] and op["traced"]]
        untraced = [op["seconds"] for op in self.ops if op["ok"] and not op["traced"]]
        if not traced or not untraced:
            return {}, {}
        per_op = [layer_metrics(self.spans[i]) for i in traced]
        metrics = {name: statistics.fmean(m[name] for m in per_op) for name in per_op[0]}
        traced_times = [self.ops[i]["seconds"] for i in traced]
        metrics["trace.op_s"] = statistics.fmean(traced_times)
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced)
        self_sum = sum(metrics[name] for name in (*SELF_TIME_METRICS.values(), *SOLVE_TIME_METRICS))
        return metrics, {"traced_ops": len(traced), "untraced_ops": len(untraced),
                         "self_time_sum_s": self_sum}


def merged_spans(per_op: dict[int, list[list]]) -> list[list]:
    """All ops' spans as (name, start, end, parent, op id, counts) rows,
    parents indexing the merged list."""
    rows: list[list] = []
    for op, group in sorted(per_op.items()):
        base = len(rows)
        rows.extend([s[0], s[1], s[2], None if s[3] is None else base + s[3], op, s[5]]
                    for s in group)
    return rows


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  table=WORKLOADS, golden_dir: Path = GOLDEN_DIR,
                  probe: bool = True) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record)."""
    runner = Runner(name, seed, seconds, trace, table, golden_dir)
    record = {"workload": name, "seconds": seconds, "trace": trace,
              "environment": environment(seed)}
    if probe:
        record["known_failure_probe"] = known_failure_probe(runner.remaining())
    setup, raw_setup = [], []
    if not trace:
        with CalibrationProcess(workloads.child_env()) as calibrate:
            setup, raw_setup = measure_setup(SETUP_SAMPLES, runner.remaining(), calibrate)
    runner.run_ops()
    if trace:
        metrics, summary = runner.per_layer()
    else:
        metrics, summary = runner.end_to_end(setup)
        record["setup_samples_s"] = setup
        record["raw_setup_samples_s"] = raw_setup
    failed = sum(not op["ok"] for op in runner.ops)
    record.update(summary)
    record["ops"] = runner.ops
    record["meter_runs"] = runner.meter_runs
    record["fail_ratio"] = failed / len(runner.ops)
    record["failures"] = [{"op": i, "reason": op["reason"]}
                          for i, op in enumerate(runner.ops) if not op["ok"]]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = STATE_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"result": result, "record": record}))
    if trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(merged_spans(runner.spans)))
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="wg4 benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wg4" / "cli.py").is_file():
        print(f"error: no wg4 sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
