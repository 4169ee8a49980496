"""Discrete weak operators and local L2 projections.

A discrete unknown on one element is a triple {v0, vb, vg}: an interior
polynomial v0 in P2(T), an edge trace vb in P1(e) per edge, and an edge
conormal-flux trace vg in P1(e) per edge.  vg coefficients are stored
with respect to the edge's *global* normal; the element-outward trace on
edge e is sigma_T(e) * vg, which makes the flux unknown single-valued
per edge while the two adjacent elements see opposite signs.

Two element-local operators act on these triples:

* the weak second-order elliptic operator, a constant per element
  defined by duality against P0(T); after integration by parts only the
  boundary integral of the outward flux trace survives:
      (Ew v) * |T| = sum_e sigma_T(e) * int_e vg ds
* the weak gradient, a vector polynomial in [P1(T)]^2 defined by
      (grad_w v, psi)_T = (grad v0, psi)_T - <v0 - vb, psi . n>_dT
  for every psi in [P1(T)]^2, with n the element-outward unit normal.

Both are linear in the 18 local coefficients.  Each is one array kernel
that returns the operator matrices of a batch of C triangles, given by
their vertices (C, 3, 2), the signs sigma (C, 3) of their local edges and
flags ``flipped`` (C, 3), set when edge k is parameterized p1 -> p2 from
local vertex k + 1 to k instead of from k to k + 1.  Edge lengths and
outward normals follow from the vertices.  Every integral comes from
tables on the reference triangle under the affine map x = v0 + J X: the
affine-mapped bases take the reference values at the mapped points,
their gradients map by J^-T, and their traces on a local edge depend only
on the edge and its orientation.  Loads and projections are batched the
same way over all elements or edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import poly
from .mesh import Mesh, _outward_normals

__all__ = [
    "INTERIOR_DEGREE",
    "EDGE_DEGREE",
    "N_LOCAL",
    "DofMap",
    "WeakFunction",
    "weak_laplacian_matrix",
    "weak_gradient_matrix",
    "interior_moments",
    "project_Qb",
    "project_Qg",
    "project_Qh",
]

INTERIOR_DEGREE = 2  # v0 in P2(T) -> 6 coefficients
EDGE_DEGREE = 1  # vb, vg in P1(e) -> 2 coefficients each
GRADIENT_DEGREE = 1  # grad_w lands in [P1(T)]^2
N_INTERIOR = 6
N_PER_EDGE = 2 * (EDGE_DEGREE + 1)
N_LOCAL = N_INTERIOR + 3 * N_PER_EDGE  # 18


@dataclass(frozen=True)
class DofMap:
    """Global layout: per-element blocks of 6, then per-edge blocks of 4.

    Edge block e holds [vb_0, vb_1, vg_0, vg_1] at offset 6*E + 4*e.
    """

    n_elements: int
    n_edges: int

    @classmethod
    def for_mesh(cls, mesh: Mesh) -> "DofMap":
        return cls(n_elements=mesh.n_elements, n_edges=mesh.n_edges)

    @property
    def size(self) -> int:
        return N_INTERIOR * self.n_elements + 4 * self.n_edges

    def local_dofs(self, mesh: Mesh) -> np.ndarray:
        """Global indices (E, 18) of every element's local dofs: the 6
        interior dofs, then vb (2) and vg (2) of each local edge."""
        base = N_INTERIOR * self.n_elements
        interior = np.arange(base).reshape(-1, N_INTERIOR)
        edges = base + 4 * mesh.element_edges[:, :, None] + np.arange(4)
        return np.hstack([interior, edges.reshape(-1, 3 * N_PER_EDGE)])

    def boundary_mask(self, mesh: Mesh) -> np.ndarray:
        """True for every vb/vg dof living on a boundary edge."""
        mask = np.zeros(self.size, dtype=bool)
        mask[N_INTERIOR * self.n_elements :].reshape(-1, 4)[mesh.boundary] = True
        return mask


@dataclass
class WeakFunction:
    """Global coefficient vector over a DofMap."""

    coeffs: np.ndarray
    dofmap: DofMap

    @classmethod
    def zeros(cls, dofmap: DofMap) -> "WeakFunction":
        return cls(coeffs=np.zeros(dofmap.size), dofmap=dofmap)


# ---------------------------------------------------------------------------
# weak operators
# ---------------------------------------------------------------------------


def _local_rows(interior: np.ndarray, vb: np.ndarray, vg: np.ndarray) -> np.ndarray:
    """Rows (..., 18) in local dof order from an interior part (..., 6) and
    per-edge vb and vg parts (..., 3, 2) of the same leading shape."""
    edges = np.concatenate([vb, vg], axis=-1)
    return np.concatenate([interior, edges.reshape(*edges.shape[:-2], 3 * N_PER_EDGE)], axis=-1)


def _sides(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths (C, 3) and outward unit normals (C, 3, 2) of the sides from
    local vertex k to k + 1 of the triangles ``points`` (C, 3, 2)."""
    return np.linalg.norm(np.roll(points, -1, axis=1) - points, axis=-1), _outward_normals(points)


def _segment_rule() -> tuple[np.ndarray, np.ndarray]:
    """Weights (m,) of the segment rule and the edge basis (m, 2) at its points."""
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    return rule.weights, poly.edge_basis(EDGE_DEGREE, rule.points)


@lru_cache(maxsize=None)
def _edge_traces() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P2 values (3, 2, m, 6), P2 gradients (3, 2, m, 6, 2) and P1 values
    (3, 2, m, 3) of the reference bases at the segment rule's points on
    local edge k, indexed [k, flipped]."""
    t = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS).points
    ref = poly.REFERENCE_VERTICES
    start = np.stack([ref, np.roll(ref, -1, axis=0)], axis=1)  # [k, flipped]
    end = start[:, ::-1]
    pts = 0.5 * (start + end)[:, :, None] + t[:, None] * (end - start)[:, :, None]
    tables = (poly.reference_basis(INTERIOR_DEGREE, pts),
              poly.reference_gradients(INTERIOR_DEGREE, pts),
              poly.reference_basis(GRADIENT_DEGREE, pts))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _on_edges(table: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """The rows (C, 3, ...) of a table indexed [k, flipped] that each
    triangle's edges ``flipped`` (C, 3) select."""
    return table[np.arange(3), np.asarray(flipped, dtype=np.intp)]


@lru_cache(maxsize=None)
def _gradient_moments() -> np.ndarray:
    """Moments (2, 3, 6) of the reference P1 basis against each component
    of the reference P2 gradients over the reference triangle."""
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    moments = np.einsum("q,qa,qib->bai", rule.weights,
                        poly.reference_basis(GRADIENT_DEGREE, rule.points),
                        poly.reference_gradients(INTERIOR_DEGREE, rule.points))
    moments.flags.writeable = False  # shared by every caller
    return moments


def weak_laplacian_matrix(points: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Rows (C, 18) with Ew v = row @ coeffs, Ew v in P0(T), one per
    triangle ``points`` (C, 3, 2) with edge signs ``signs`` (C, 3).

    Only the flux traces enter: testing against constants kills both the
    interior term and the vb term, leaving the boundary integral of the
    outward flux trace divided by |T|.
    """
    w, trace_b = _segment_rule()
    lengths, _ = _sides(points)
    vg = (signs * lengths)[..., None] * (w @ trace_b)
    rows = _local_rows(np.zeros((len(points), N_INTERIOR)), np.zeros_like(vg), vg)
    return rows / (0.5 * poly.jacobian_determinants(points))[:, None]


def weak_gradient_matrix(points: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """Matrices G (C, 6, 18) with grad_w v = G @ coeffs in [P1(T)]^2, one
    per triangle ``points`` (C, 3, 2) with edge orientations ``flipped``
    (C, 3).

    Coefficient ordering: x-component coefficients (3) then y-component
    coefficients (3), both in the affine-mapped P1 basis of ``wg4.poly``.
    """
    det = poly.jacobian_determinants(points)
    lengths, normals = _sides(points)
    # (grad v0, psi)_T, with the gradients mapped by J^-T
    interior = det[:, None, None, None] * np.einsum(
        "cbd,bai->cdai", poly.inverse_jacobians(points), _gradient_moments())
    # -<v0 - vb, psi . n>_dT, with n |e| per side and component
    w, trace_b = _segment_rule()
    trace0, _, trace1 = _edge_traces()
    scaled = lengths[..., None] * normals
    mixed0 = _on_edges(np.einsum("q,koqa,koqi->koai", w, trace1, trace0), flipped)
    mixed_b = _on_edges(np.einsum("q,koqa,qj->koaj", w, trace1, trace_b), flipped)
    interior -= np.einsum("ckd,ckai->cdai", scaled, mixed0)
    vb = np.einsum("ckd,ckaj->cdakj", scaled, mixed_b)
    rhs = _local_rows(interior, vb, np.zeros_like(vb))  # (C, 2, 3, 18)
    mass = poly.reference_mass(GRADIENT_DEGREE)
    return (np.linalg.solve(mass, rhs) / det[:, None, None, None]).reshape(-1, 6, N_LOCAL)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _weighted_interior_basis() -> np.ndarray:
    """The P2 basis at the reference triangle's quadrature points times
    their weights (q, 6).  The affine-mapped basis takes the same values
    at the mapped points of every element."""
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    table = poly.reference_basis(INTERIOR_DEGREE, rule.points) * rule.weights[:, None]
    table.flags.writeable = False  # shared by every caller
    return table


def interior_moments(points: np.ndarray, u) -> np.ndarray:
    """Moments (E, 6) of ``u`` against the P2 basis of each triangle
    ``points`` (E, 3, 2), divided by the triangle's 2|T|."""
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts = poly.map_to_triangles(rule, points)
    return u(pts[..., 0], pts[..., 1]) @ _weighted_interior_basis()


@lru_cache(maxsize=None)
def _edge_projector() -> np.ndarray:
    """Matrix (2, m) from values at the segment rule's points to P1(e)
    coefficients; the edge length cancels, so it serves every edge."""
    w, trace_b = _segment_rule()
    projector = np.linalg.solve(poly.edge_mass(EDGE_DEGREE), (trace_b * w[:, None]).T)
    projector.flags.writeable = False  # shared by every caller
    return projector


def project_Qb(segments: np.ndarray, u) -> np.ndarray:
    """L2 projections (F, 2) onto P1(e) of a function along each edge of
    ``segments`` (F, 2, 2), given by its endpoints p1, p2.

    ``project_Qb`` projects a trace u; ``project_Qg`` is the same function
    under a second name and projects a conormal flux g, the scalar flux
    along each edge's own (global) normal.  Both stay module attributes,
    so each can be wrapped on its own.
    """
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    p1, p2 = segments[:, 0, None], segments[:, 1, None]
    pts = 0.5 * (p1 + p2) + rule.points[:, None] * (p2 - p1)
    return u(pts[..., 0], pts[..., 1]) @ _edge_projector().T


project_Qg = project_Qb


def project_Qh(mesh: Mesh, u, grad_u, kappa) -> WeakFunction:
    """Project a smooth function into the weak finite element space.

    Per element the interior block is the P2 projection of ``u``; per edge
    the vb block projects the trace of ``u`` and the vg block projects the
    conormal flux kappa grad(u) . n_e along the edge's global normal.

    ``kappa`` is either a single 2x2 matrix or an array (n_elements, 2, 2);
    on interior edges where kappa jumps, the flux uses the coefficient of
    the lower-indexed adjacent element (the side the global normal points
    from).  ``u`` and ``grad_u(x, y)``, which returns a pair, are evaluated
    on arrays of points, one row per element or edge.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.ndim == 3:
        kappa = kappa[mesh.edge_elements[:, 0]]
    k = np.broadcast_to(kappa, (mesh.n_edges, 2, 2))[:, :, :, None]
    nx, ny = mesh.edge_normals[:, :, None].transpose(1, 0, 2)

    def flux(x, y):
        gx, gy = grad_u(x, y)
        return nx * (k[:, 0, 0] * gx + k[:, 0, 1] * gy) + ny * (k[:, 1, 0] * gx + k[:, 1, 1] * gy)

    dofmap = DofMap.for_mesh(mesh)
    out = WeakFunction.zeros(dofmap)
    interior = out.coeffs[: N_INTERIOR * mesh.n_elements].reshape(-1, N_INTERIOR)
    mass = poly.reference_mass(INTERIOR_DEGREE)
    interior[:] = np.linalg.solve(mass, interior_moments(mesh.element_points(), u).T).T
    edges = out.coeffs[N_INTERIOR * mesh.n_elements :].reshape(-1, 4)
    segments = mesh.edge_points()
    edges[:, :2] = project_Qb(segments, u)
    edges[:, 2:] = project_Qg(segments, flux)
    return out
