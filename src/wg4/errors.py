"""Error norms of a discrete solution against a projected exact solution.

All norms act on the difference e = P(u) - u_h between the projection of
the exact solution into the discrete space and the computed solution:

* ``l2_e0``: L2 norm of the interior component over the domain,
* ``tbar``: the discrete energy norm (square root of the assembled
  quadratic form),
* ``eb_edge`` / ``eg_edge``: edge-length-weighted L2 norms of the trace
  and flux-trace components, (sum_T h_T ||.||_dT^2)^(1/2), counted once
  per element-edge incidence.

Boundary blocks of e are set to zero before any norm is taken: boundary
data enters the scheme through the same projections, so e lies in the
zero-trace subspace by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import assembly, poly, weakops
from .assembly import ProblemSpec
from .mesh import Mesh
from .weakops import WeakFunction

__all__ = ["ErrorReport", "error_report", "check_doubling", "convergence_orders",
           "orders_from_values"]

NORM_FIELDS = ("l2_e0", "tbar", "eb_edge", "eg_edge")


@dataclass(frozen=True)
class ErrorReport:
    n: int
    h: float  # the domain's longer side over n
    l2_e0: float
    tbar: float
    eb_edge: float
    eg_edge: float

    def __post_init__(self):
        for name in NORM_FIELDS:
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def error_report(mesh: Mesh, spec: ProblemSpec, u_h: WeakFunction) -> ErrorReport:
    if not spec.has_exact:
        raise ValueError("error_report requires an exact solution on the problem spec")
    mesh.check_elements("solution", u_h.n_elements)
    projected = weakops.project_Qh(mesh, spec.exact_u, spec.exact_grad, spec.coeff.kappa)
    e = WeakFunction(projected.coeffs - u_h.coeffs, mesh.n_elements)
    e.edges[mesh.boundary] = 0.0

    # An element's Gram matrix is 2|T| times the reference triangle's, an
    # edge's |e| times the unit edge's.
    d0 = e.interior
    mass0 = poly.reference_mass(weakops.INTERIOR_DEGREE)
    l2_sq = float(np.sum(2.0 * mesh.areas * np.einsum("ei,ij,ej->e", d0, mass0, d0)))

    # Each edge counts once per adjacent element T, weighted by h_T, the
    # shortest side of T.
    h_t = mesh.edge_lengths[mesh.element_edges].min(axis=1)
    weight = np.bincount(mesh.element_edges.ravel(), weights=np.repeat(h_t, 3),
                         minlength=mesh.n_edges) * mesh.edge_lengths
    edge_blocks = e.edges.reshape(mesh.n_edges, 2, 2)
    emass = poly.edge_mass(weakops.EDGE_DEGREE)
    eb_sq, eg_sq = weight @ np.einsum("eki,ij,ekj->ek", edge_blocks, emass, edge_blocks)

    x0, y0, x1, y1 = mesh.domain
    return ErrorReport(
        n=mesh.n,
        h=max(x1 - x0, y1 - y0) / mesh.n,
        l2_e0=math.sqrt(max(l2_sq, 0.0)),
        tbar=assembly.triple_bar_norm(mesh, spec.coeff, e),
        eb_edge=math.sqrt(max(eb_sq, 0.0)),
        eg_edge=math.sqrt(max(eg_sq, 0.0)),
    )


def orders_from_values(values: Sequence[float]) -> list[float]:
    """log2 ratios of successive errors over halving mesh sizes.

    A zero finer error (it underflows to exactly zero) is reported as
    ``math.inf``, printed downstream as "exact"; an error that grows from
    exactly zero is reported as ``-math.inf`` and printed as such.
    """
    orders = []
    for coarse, fine in zip(values, values[1:]):
        if fine == 0.0:
            orders.append(math.inf)
        elif coarse == 0.0:
            orders.append(-math.inf)
        else:
            orders.append(math.log2(coarse / fine))
    return orders


def check_doubling(levels: Sequence[int]) -> None:
    """Raise ValueError unless there are levels and each subdivision
    count doubles the last."""
    if len(levels) == 0:
        raise ValueError("no levels given")
    for a, b in zip(levels, levels[1:]):
        if b != 2 * a:
            raise ValueError(f"levels must double: got n={a} followed by n={b}")


def convergence_orders(reports: Sequence[ErrorReport]) -> dict[str, list[float]]:
    """Per-norm orders between consecutive reports, whose levels must double."""
    check_doubling([r.n for r in reports])
    return {
        name: orders_from_values([getattr(r, name) for r in reports]) for name in NORM_FIELDS
    }
