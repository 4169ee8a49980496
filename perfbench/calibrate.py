"""Machine-speed calibration of the benchmark's times.

The shared VM the benchmark was tuned on changes speed by up to 1.6x for
tens of seconds at a time, in CPU time as well as wall time, so a run's
median op time mostly measures how busy the host was.  The calibration
is a fixed piece of work that does not touch wg4: a pure-Python dict and
tuple loop (the interpreter), arithmetic and a gather over 32 MB arrays
(memory bandwidth) and a SuperLU factorization of a fixed 2-D Laplacian
(sparse factorization), the three kinds of work a wg4 op does.  A
scaled time is the measured time times ``REFERENCE_S`` over the
calibration time measured with it: the time at the speed the machine had
when the calibration took ``REFERENCE_S``.  Because the calibration
never calls wg4, a change to wg4 moves scaled times as much as raw ones.

Short timings, the set-up imports and ft-sweep's 2 s ops, are bracketed
by a :class:`CalibrationProcess`: the calibration runs just before and
just after each, between ops, and the mean of the two is used.  The
machine's speed changes within seconds, so the ends of a 12 to 15 s
conv-sine op say little about its middle.  For those a
:class:`SpeedMeter` runs the calibration over and over beside the op, on
the second core, pausing ``GAP_S`` between runs, and the op is scaled by
the median of the runs that overlapped it.  ft-n64's ops are not scaled
(see workloads.py).

Either way the calibration runs in a process of its own, so its memory
shows neither in the peak RSS of the process that runs the ops nor in
that process's heap:

    python3 perfbench/calibrate.py           # one calibration per line read
                                             # from stdin, its seconds to stdout
    python3 perfbench/calibrate.py --meter   # calibrate until stdin closes,
                                             # one "start seconds" line per run
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: Median calibration time on the machine the benchmark was tuned on
#: (2-core Intel Xeon VM, see README.md), so scaled times there read
#: close to wall times.
REFERENCE_S = 0.23

#: Pause between a speed meter's calibration runs, seconds.
GAP_S = 0.5

_ARRAY_SIZE = 4_000_000
_GRID = 150


class Calibrator:
    """Builds the calibration's inputs once; each call runs the fixed
    work and returns its wall time in seconds."""

    def __init__(self) -> None:
        self.array = np.arange(_ARRAY_SIZE, dtype=float)
        self.gather = (np.arange(0, _ARRAY_SIZE, 7) * 13) % _ARRAY_SIZE
        eye = sp.identity(_GRID, format="csc")
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.rhs = np.ones(self.matrix.shape[0])

    def __call__(self) -> float:
        t0 = time.perf_counter()
        table: dict[tuple[int, int], float] = {}
        for i in range(120_000):
            key = (i % 997, i % 991)
            table[key] = table.get(key, 0.0) + i * 0.5
        sorted(table.values())
        for _ in range(4):
            (self.array * 1.0001 + self.array).sum()
            np.take(self.array, self.gather)
        splu(self.matrix).solve(self.rhs)
        return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the calibration times
    measured just before and just after."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class CalibrationProcess:
    """A calibration process, idle between calls; each call has it run the
    calibration once and returns its seconds.  Use as a context manager:
    leaving it closes the process's stdin and waits for it to end."""

    def __init__(self, env: dict[str, str] | None = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with code {self.proc.wait()}")
        return float(line)

    def __enter__(self) -> "CalibrationProcess":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class SpeedMeter:
    """The calibration running over and over in a process of its own from
    construction until the end of a ``with`` block, which waits for the
    process to end and collects its runs."""

    def __init__(self, env: dict[str, str] | None = None) -> None:
        self.runs: list[tuple[float, float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--meter"], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # The first run ends after the meter's start-up, which thus
        # overlaps nothing timed.
        self.first = self.proc.stdout.readline()

    def __enter__(self) -> "SpeedMeter":
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.runs = [tuple(map(float, line.split()))
                     for line in (self.first + out).splitlines()]

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds``, spent from monotonic time ``start`` on, at the
        reference speed: scaled by the median of the runs that overlapped
        it, or by the run nearest to it if none did.  The median, because
        the op itself now and then slows a run sharply, as when it faults
        in hundreds of MB."""
        overlapping = [d for s, d in self.runs if s < start + seconds and s + d > start]
        if not overlapping:
            middle = start + seconds / 2
            overlapping = [min(self.runs, key=lambda r: abs(r[0] + r[1] / 2 - middle))[1]]
        return seconds * REFERENCE_S / statistics.median(overlapping)


def main(argv: list[str]) -> int:
    calibrate = Calibrator()
    if argv != ["--meter"]:
        for _ in sys.stdin:
            sys.stdout.write(f"{calibrate()!r}\n")
            sys.stdout.flush()
        return 0
    while True:
        start = time.monotonic()
        seconds = calibrate()
        sys.stdout.write(f"{start!r} {seconds!r}\n")
        sys.stdout.flush()
        readable, _, _ = select.select([sys.stdin], [], [], GAP_S)
        if readable and not sys.stdin.readline():
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
