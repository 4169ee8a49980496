"""Output checks of the benchmark: goldens and the program's guarantees.

Every check returns None when the output passes and a one-line reason
when it does not.

* The conv-sine table must match its golden to the printed digits: each
  number may differ by one unit in the last printed place.
* Every sampled field must have what the program guarantees: grid x grid
  finite samples, and a printed ||b||-relative residual within the
  solver's contract.
* Every sampled field must also match its golden within the workload's
  tolerance in ``golden/tolerance.json``, which states its reason.  An
  ft-sweep op's golden is the stored field of its source in the pool.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import workloads

_RESIDUAL = re.compile(r"residual=(\S+)")
_SCIENTIFIC = re.compile(r"-?\d\.\d+e[+-]\d+")


def read_field(path: str | Path, grid: int) -> np.ndarray:
    """The u0 column of an ft-demo CSV, checked for shape."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "x,y,u0":
        raise ValueError(f"{path}: missing x,y,u0 header")
    values = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    if values.shape != (grid * grid,):
        raise ValueError(f"{path}: {values.size} samples, expected {grid * grid}")
    return values


def _last_place(cell: str) -> float:
    mantissa, _, exponent = cell.partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent) - decimals)


def compare_table(text: str, golden: str) -> str | None:
    """Compare a CSV table cell by cell; numbers in scientific notation may
    differ by one unit in the golden's last printed place, any other cell
    must be equal."""
    rows, gold = text.splitlines(), golden.splitlines()
    if len(rows) != len(gold):
        return f"table has {len(rows)} lines, golden {len(gold)}"
    for r, (row, grow) in enumerate(zip(rows, gold)):
        cells, gcells = row.split(","), grow.split(",")
        if len(cells) != len(gcells):
            return f"line {r + 1}: {len(cells)} cells, golden {len(gcells)}"
        for c, (cell, gcell) in enumerate(zip(cells, gcells)):
            if _SCIENTIFIC.fullmatch(gcell):
                try:
                    diff = abs(float(cell) - float(gcell))
                except ValueError:
                    return f"line {r + 1} cell {c + 1}: {cell!r} is not a number"
                if diff > _last_place(gcell) * (1 + 1e-9):
                    return f"line {r + 1} cell {c + 1}: {cell} against golden {gcell}"
            elif cell != gcell:
                return f"line {r + 1} cell {c + 1}: {cell!r} against golden {gcell!r}"
    return None


def compare_field(values: np.ndarray, golden: np.ndarray, tolerance: dict) -> str | None:
    """|u - g| <= rtol |g| + atol max|g| at every sample."""
    if values.shape != golden.shape:
        return f"field has {values.size} samples, golden {golden.size}"
    if not np.isfinite(values).all():
        return "field has non-finite samples"
    golden = golden.astype(float)
    allowed = tolerance["rtol"] * np.abs(golden) + tolerance["atol"] * np.abs(golden).max()
    excess = np.abs(values - golden) - allowed
    worst = int(np.argmax(excess))
    if excess[worst] > 0:
        return (f"sample {worst}: {values[worst]:.6e} against golden {golden[worst]:.6e} "
                f"(allowed {allowed[worst]:.1e})")
    return None


def field_guarantees(values: np.ndarray, stdout: str) -> str | None:
    """Finite samples and a printed residual within the solver's contract."""
    if not np.isfinite(values).all():
        return "field has non-finite samples"
    match = _RESIDUAL.search(stdout)
    if match is None:
        return "no residual printed"
    residual = float(match.group(1))
    if not residual <= workloads.RESIDUAL_CONTRACT:
        return f"residual {residual:.3e} above the contract {workloads.RESIDUAL_CONTRACT:.0e}"
    return None


class Goldens:
    """Golden outputs of one directory, loaded on first use."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.tolerance = json.loads((self.directory / "tolerance.json").read_text())
        self._pools: dict[str, dict] = {}

    def table(self, name: str) -> str:
        return (self.directory / f"{name}.csv").read_text()

    def field(self, name: str) -> np.ndarray:
        return np.load(self.directory / f"{name}.npy")

    def sweep(self, name: str, index: int, source) -> np.ndarray:
        """The golden field of source ``index`` of a sweep's pool."""
        if name not in self._pools:
            self._pools[name] = dict(np.load(self.directory / f"{name}-pool.npz"))
        stored = self._pools[name]
        if index >= len(stored["sources"]):
            raise ValueError(f"{name}: no golden for pool source {index}")
        if not np.allclose(stored["sources"][index], source, rtol=0, atol=1e-9):
            raise ValueError(f"{name}: golden of pool source {index} was taken at another source")
        return stored["fields"][index]
