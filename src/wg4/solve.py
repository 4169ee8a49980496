"""Sparse SPD solves with a controlled residual.

The global system is factored by ``wg4.cholesky``, a multifrontal
Cholesky factorization A = L L^T in numpy on the tree of the nested
dissection that numbers the rows (George, SIAM J. Numer. Anal. 10,
1973), in the order the rows come in.  It stores L only, where an LU
stores U as well, and takes no pivoting: the matrix is symmetric
positive definite, so every diagonal pivot of a symmetric permutation
is positive and no growth can occur (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 10).  The smallest pivot of
boundary-indicator at n=64, the hardest system of the catalog, is
6.1e-10 of its row's diagonal entry; on sine it is 9.1e-2.  A front
that rounding leaves without a positive pivot fails the factorization,
and the iterative refinement and the backward-error test below guard
the result should rounding make a pivot small.

A solve stops as soon as the relative residual ||A x - b|| / ||b|| meets
the tolerance, after ``min_steps`` refinement steps at the earliest.
In float64 that residual cannot drop below about
eps * ||A|| ||x|| / ||b||, which grows like h^-4, so on fine meshes the
target can lie out of reach of any solver.  When refinement ends above
it, the solve is still accepted if x has a normwise backward error
||r||_inf / (||A||_inf ||x||_inf + ||b||_inf) within the same tolerance
(Rigal & Gaches 1967; Higham, Accuracy and Stability of Numerical
Algorithms, sec. 7.1): x is then the exact solution of a system within
that relative distance of the one posed.  Otherwise SolverError is raised,
and it is raised whatever the backward error when refinement ends with
a relative residual above 1: such an x is worse than x = 0.  A huge
||A|| ||x|| can make the backward error tiny for a field that has
diverged, as a whole-domain diffusion of 1e-8 at mu = 0 does; at 1e-9
and below, a front is no longer positive definite in float64.

A solve whose problem has an exact solution takes one step at least
(``wg4.harness.ForwardModel.solve`` decides it from the spec): its
printed error norms are about 1e-3 of |u|, so they magnify the solve's
rounding about 1000-fold, and which way the last digit of the sine
table's n=64 ``eg`` rounds would otherwise depend on the elimination
order.  One step of refinement in working precision makes the
elimination componentwise backward stable (Skeel, Math. Comp. 35, 1980);
it puts that ``eg`` 2.9e-13 from a reference refined in extended
precision, which lies 9.3e-12 from the rounding tie.  A field solve prints
u_h itself and accepts at step 0.

An assembled system's operator (see ``wg4.assembly``), which a
``wg4.harness.ForwardModel`` hands on to the system of each later source
point on the medium it laid once, is A element by element: the solve
forms its residuals with ``Operator.product``, and the factor is made by
``wg4.cholesky`` from the operator's element classes on the fronts of
its dissection, built with the operator.  No global matrix is kept:
only the backward-error fallback builds the reduced matrix, for its
exact ||A||_inf.  Of the catalog's solves only poly-bump's can take
that fallback, from n=64 on, where its residual floor meets the default
target.  The factor is kept on the operator, read-only: the first solve
makes it, and every later solve on the operator only runs the
triangular solves, the refinement and the acceptance tests above.  The
report says whether the solve made the factor, in how many seconds, and
how many floats the factor keeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cholesky

__all__ = ["SolverConfig", "SolveReport", "SolverError", "solve_spd"]

_REFINEMENT_STEPS = 3


def __getattr__(name: str):
    """``spla``, scipy.sparse.linalg, imported on first access: only
    perfbench/spans.py reads it, and patches it, until ROADMAP item 11."""
    if name == "spla":
        import scipy.sparse.linalg as spla

        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(RuntimeError):
    def __init__(self, message: str, residual_history: list[float] | None = None):
        super().__init__(message)
        self.residual_history = residual_history or []


@dataclass(frozen=True)
class SolverConfig:
    # relative residual target; a solve that cannot reach it is accepted
    # on a normwise backward error within the same bound
    tolerance: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")


@dataclass
class SolveReport:
    iterations: int
    residual: float  # ||A x - b|| / ||b|| of the returned x
    residual_history: list[float] = field(default_factory=list)
    # ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf); None when the returned
    # x met the relative-residual tolerance and it was not needed
    backward_error: float | None = None
    factored: bool = False  # this solve made the operator's factor
    factor_s: float = 0.0  # seconds it took; 0.0 when the factor was reused
    factor_nnz: int = 0  # floats the operator's factor keeps


def solve_spd(system, config: SolverConfig = SolverConfig(), min_steps: int = 0):
    """Solve an AssembledSystem, whose matrix is symmetric positive definite.

    Returns (free-dof vector, SolveReport).  The relative residual
    ||A x - b|| / ||b|| is at or below the configured tolerance, or, when
    refinement cannot reach it, the normwise backward error of x is, and
    the report's ``backward_error`` says so; a final relative residual
    above 1 is never accepted.  An x is accepted on its residual after
    ``min_steps`` refinement steps at the earliest.  Failure raises
    SolverError carrying the residual history.  The factor is read from
    the system's operator, or made and stored there on first use.
    """
    operator, rhs = system.operator, system.rhs

    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros_like(rhs), SolveReport(iterations=0, residual=0.0)

    factor, start = operator.factor, time.perf_counter()
    factored = factor is None
    if factored:
        try:
            factor = cholesky.factor(operator)
        except np.linalg.LinAlgError as exc:  # a front that is not positive definite
            raise SolverError(f"factorization failed (matrix not SPD?): {exc}") from exc
        operator.factor = factor
    made = {"factored": factored, "factor_s": time.perf_counter() - start if factored else 0.0,
            "factor_nnz": factor.nnz}
    x = factor.solve(rhs)
    history = []
    for step in range(_REFINEMENT_STEPS + 1):
        # x at each element's dofs, 0 at its boundary dofs, which sit on the spare row
        r = rhs - operator.product(np.append(x, 0.0)[operator.element_rows])
        rel = float(np.linalg.norm(r)) / bnorm
        history.append(rel)
        if not np.isfinite(rel):
            raise SolverError("non-finite residual; assembled matrix is defective", history)
        if rel <= config.tolerance and step >= min_steps:
            return x, SolveReport(iterations=step, residual=rel, residual_history=history, **made)
        if step == _REFINEMENT_STEPS:
            break
        x = x + factor.solve(r)
    if rel > 1.0:  # x is worse than x = 0: no backward error can vouch for it
        raise SolverError(f"refinement diverged to relative residual {rel:.3e}, "
                          f"above that of x = 0", history)
    # the relative-residual target is out of reach: accept the last x if it
    # solves a nearby system
    backward = _backward_error(operator.matrix, rhs, x, r)
    if backward <= config.tolerance:
        return x, SolveReport(
            iterations=_REFINEMENT_STEPS,
            residual=rel,
            residual_history=history,
            backward_error=backward,
            **made,
        )
    raise SolverError(
        f"direct solve stalled at relative residual {history[-1]:.3e}, "
        f"backward error {backward:.3e} (tolerance {config.tolerance:.3e})",
        history,
    )


def _backward_error(matrix, rhs, x, r) -> float:
    """Normwise backward error of ``x`` in the infinity norm."""
    anorm = float(abs(matrix).sum(axis=1).max())
    denom = anorm * float(np.abs(x).max()) + float(np.abs(rhs).max())
    return float(np.abs(r).max()) / denom
