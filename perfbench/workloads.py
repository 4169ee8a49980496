"""Workload definitions shared by run.py, its worker and the
golden capture.

Every path is resolved from this file, so the benchmark runs from any
checkout of the repository.  Everything the benchmark writes goes under
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
GOLDEN_DIR = BENCH_DIR / "golden"
STATE_DIR = ROOT / ".perfbench"

#: BLAS/OpenMP thread counts for every child process: the plain
#: single-threaded baseline, so timings measure wg4 and not the scheduler.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: The ||b||-relative residual the solver guarantees (SolverConfig default).
RESIDUAL_CONTRACT = 1e-10

#: Seed of a run when none is given.
DEFAULT_SEED = 0

#: ft-sweep draws its Gaussian sources from one fixed pool, uniform on the
#: 50 x 50 domain, whose fields are all stored as goldens; a run's seed
#: picks the order in which its ops draw from the pool, so every op of
#: every seed is checked against a golden.  A run at the benchmark's
#: length makes at most about 30 ops; a longer one starts the order again.
SWEEP_POOL_SEED = 0
SWEEP_POOL_SIZE = 48

FT_DOMAIN_SIDE = 50.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is "process" (one fresh process per op, running ``wg4 argv``
    through ``cli.main``) or "sweep" (one long-lived process calling
    ``cli.run`` once per Gaussian source drawn from its ``pool`` of
    sources in the seed's order).  ``grid`` is the side of the sampled
    field, 0 for a table.  Sweep ops are scaled by the calibration run
    before and after each; process ops with ``meter`` set by a speed meter
    running beside them (see calibrate.py), and other process ops not at
    all: the meter does not see what slows ft-n64's ops, so scaling them
    only adds its noise.
    """

    name: str
    kind: str
    argv: tuple[str, ...] = ()
    n: int = 0
    grid: int = 0
    pool: int = 0
    meter: bool = False


WORKLOADS = {
    "conv-sine": Workload(
        "conv-sine", "process",
        argv=("convergence", "--case", "sine", "--levels", "8,16,32,64"),
        meter=True,
    ),
    "ft-n64": Workload(
        "ft-n64", "process",
        argv=("ft-demo", "--scenario", "boundary-indicator", "--n", "64", "--grid", "101"),
        grid=101,
    ),
    "ft-sweep": Workload("ft-sweep", "sweep", n=32, grid=101, pool=SWEEP_POOL_SIZE),
}

#: The same workloads at sizes that run in about a second, for the self-test.
TINY_WORKLOADS = {
    "conv-sine": Workload(
        "conv-sine", "process",
        argv=("convergence", "--case", "sine", "--levels", "4,8"),
        meter=True,
    ),
    "ft-n64": Workload(
        "ft-n64", "process",
        argv=("ft-demo", "--scenario", "boundary-indicator", "--n", "8", "--grid", "5"),
        grid=5,
    ),
    # A pool smaller than a three-second run's ops, so the order restarts.
    "ft-sweep": Workload("ft-sweep", "sweep", n=8, grid=5, pool=4),
}

#: The known-failure probe: the poly-bump study, which stalls at n=64.
PROBE_CASE = "poly-bump"
PROBE_LEVELS = (8, 16, 32, 64)


def keep_going(elapsed: float, op_seconds: list[float], seconds: float, min_ops: int) -> bool:
    """Whether a run that has spent ``elapsed`` of its ``seconds`` starts
    another op: it does while it has fewer than ``min_ops`` ops, or while
    the next op, at the median length so far, would end closer to the
    target than stopping now."""
    if len(op_seconds) < min_ops:
        return True
    return elapsed + statistics.median(op_seconds) / 2 < seconds


def sweep_pool(size: int) -> list[tuple[float, float]]:
    """The ft-sweep source pool: ``size`` points uniform on the 50 x 50
    domain.  A larger pool extends a smaller one."""
    rng = random.Random(SWEEP_POOL_SEED)
    return [
        (round(rng.uniform(0.0, FT_DOMAIN_SIDE), 6), round(rng.uniform(0.0, FT_DOMAIN_SIDE), 6))
        for _ in range(size)
    ]


def sweep_order(seed: int | None, size: int) -> list[int]:
    """The pool indices in the order a run of ``seed`` draws them; with no
    seed, the pool's own order (used to capture the goldens)."""
    order = list(range(size))
    if seed is not None:
        random.Random(seed).shuffle(order)
    return order


def sweep_config(source: tuple[float, float], n: int, grid: int, out: str) -> dict:
    """The ft-demo run configuration of one ft-sweep op."""
    return {
        "command": "ft-demo",
        "scenario": "gaussian-source",
        "n": n,
        "grid": grid,
        "source": list(source),
        "out": out,
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``perfbench/worker.py`` with pinned threads and wait for it.

    On timeout the child is killed and reaped before TimeoutExpired is
    raised.
    """
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
