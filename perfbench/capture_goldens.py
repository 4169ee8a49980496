"""Capture the golden outputs the benchmark checks every op against.

    python3 perfbench/capture_goldens.py

Writes into ``perfbench/golden/``: the conv-sine table as the CLI prints
it, the ft-n64 field, and the field of every source in the ft-sweep
pool.  Fields are stored as float32, which holds the CLI's six
printed digits exactly.  Run it only at a commit whose outputs are known
to be right; ``golden/tolerance.json`` is written by hand.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from check import read_field
from workloads import GOLDEN_DIR, STATE_DIR, WORKLOADS, run_worker

TIMEOUT_S = 900


def _worker_json(args: list[str]) -> dict:
    proc = run_worker(args, TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _checked(op: dict) -> dict:
    if op["error"] or op["rc"] != 0:
        raise RuntimeError(f"op failed: {op['error'] or op['stderr']}")
    return op


def capture(golden_dir: Path, table=WORKLOADS) -> None:
    tmp = STATE_DIR / "tmp" / "capture"
    tmp.mkdir(parents=True, exist_ok=True)
    golden_dir.mkdir(parents=True, exist_ok=True)
    try:
        for wl in table.values():
            if wl.kind == "process":
                out = tmp / f"{wl.name}.csv"
                _checked(_worker_json(["op", "--", *wl.argv, "--out", str(out)]))
                if wl.grid == 0:
                    shutil.copyfile(out, golden_dir / f"{wl.name}.csv")
                else:
                    np.save(golden_dir / f"{wl.name}.npy",
                            read_field(out, wl.grid).astype(np.float32))
                continue
            result = _worker_json([
                "sweep", "--pool", str(wl.pool), "--min-ops", str(wl.pool),
                "--n", str(wl.n), "--grid", str(wl.grid), "--out-dir", str(tmp),
            ])
            ops = [_checked(op) for op in result["ops"]]
            np.savez_compressed(
                golden_dir / f"{wl.name}-pool.npz",
                sources=np.array([op["source"] for op in ops]),
                fields=np.array([read_field(op["out"], wl.grid) for op in ops], dtype=np.float32),
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    capture(GOLDEN_DIR)
