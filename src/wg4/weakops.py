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

Both are linear in the 18 local coefficients and are exposed as operator
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import poly
from .mesh import Mesh
from .poly import EdgeBasis, ElementBasis, Triangle

__all__ = [
    "INTERIOR_DEGREE",
    "EDGE_DEGREE",
    "N_LOCAL",
    "EdgeView",
    "ElementGeometry",
    "DofMap",
    "WeakFunction",
    "element_geometry",
    "standalone_element",
    "weak_laplacian_matrix",
    "weak_gradient_matrix",
    "interior_moments",
    "project_Q0",
    "project_Qb",
    "project_Qg",
    "project_calQh",
    "project_calQ1",
    "project_Qh",
]

INTERIOR_DEGREE = 2  # v0 in P2(T) -> 6 coefficients
EDGE_DEGREE = 1  # vb, vg in P1(e) -> 2 coefficients each
GRADIENT_DEGREE = 1  # grad_w lands in [P1(T)]^2
N_INTERIOR = 6
N_PER_EDGE = 2 * (EDGE_DEGREE + 1)
N_LOCAL = N_INTERIOR + 3 * N_PER_EDGE  # 18

_EDGE_BASIS = EdgeBasis(EDGE_DEGREE)


def _vb_slice(k: int) -> slice:
    return slice(N_INTERIOR + 4 * k, N_INTERIOR + 4 * k + 2)


def _vg_slice(k: int) -> slice:
    return slice(N_INTERIOR + 4 * k + 2, N_INTERIOR + 4 * k + 4)


@dataclass(frozen=True)
class EdgeView:
    """One edge as seen from an element.

    ``p1 -> p2`` is the edge's global parameterization (shared by both
    sides), ``normal`` the element-outward unit normal and ``sigma`` the
    sign relating the stored vg coefficients to the outward trace.
    """

    p1: np.ndarray
    p2: np.ndarray
    length: float
    midpoint: np.ndarray
    normal: np.ndarray
    sigma: int

    def quad_points(self, rule: poly.QuadratureRule):
        """Physical points, weights and arc-length parameters on this edge."""
        t = rule.points
        pts = self.midpoint + t[:, None] * (self.p2 - self.p1)
        return pts, rule.weights * self.length, t


@dataclass(frozen=True)
class ElementGeometry:
    tri: Triangle
    edges: tuple[EdgeView, EdgeView, EdgeView]


def element_geometry(mesh: Mesh, index: int) -> ElementGeometry:
    """Geometry of one mesh element, for the single-element kernels."""
    tri = poly.make_triangle(mesh.element_points(index))
    ends = mesh.edge_points(mesh.element_edges[index])
    views = []
    for k, e in enumerate(mesh.element_edges[index]):
        sigma = int(mesh.element_signs[index, k])
        views.append(
            EdgeView(
                p1=ends[k, 0],
                p2=ends[k, 1],
                length=float(mesh.edge_lengths[e]),
                midpoint=0.5 * (ends[k, 0] + ends[k, 1]),
                normal=sigma * mesh.edge_normals[e],
                sigma=sigma,
            )
        )
    return ElementGeometry(tri=tri, edges=tuple(views))


def standalone_element(vertices: np.ndarray) -> ElementGeometry:
    """Geometry for a single free-standing triangle (tests, local studies).

    Edges are parameterized in local counterclockwise order and all sigma
    signs are +1, i.e. global normals coincide with outward normals.
    """
    tri = poly.make_triangle(vertices)
    views = []
    for k in range(3):
        p1, p2 = tri.vertices[k], tri.vertices[(k + 1) % 3]
        d = p2 - p1
        length = float(np.linalg.norm(d))
        views.append(
            EdgeView(
                p1=p1,
                p2=p2,
                length=length,
                midpoint=0.5 * (p1 + p2),
                normal=np.array([d[1], -d[0]]) / length,
                sigma=1,
            )
        )
    return ElementGeometry(tri=tri, edges=tuple(views))


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

    def element_block(self, i: int) -> np.ndarray:
        return np.arange(N_INTERIOR * i, N_INTERIOR * (i + 1))

    def edge_vb(self, e: int) -> np.ndarray:
        base = N_INTERIOR * self.n_elements + 4 * e
        return np.arange(base, base + 2)

    def edge_vg(self, e: int) -> np.ndarray:
        base = N_INTERIOR * self.n_elements + 4 * e
        return np.arange(base + 2, base + 4)

    def local_dofs(self, mesh: Mesh) -> np.ndarray:
        """Global indices (E, 18) of every element's local dofs, in
        LocalWeakFunction order."""
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


def weak_laplacian_matrix(geom: ElementGeometry) -> np.ndarray:
    """Row vector r (length 18) with Ew v = r @ coeffs, Ew v in P0(T).

    Only the flux traces enter: testing against constants kills both the
    interior term and the vb term, leaving the boundary integral of the
    outward flux trace divided by |T|.
    """
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    row = np.zeros(N_LOCAL)
    for k, view in enumerate(geom.edges):
        _, w, t = view.quad_points(rule)
        row[_vg_slice(k)] = view.sigma * (w @ _EDGE_BASIS.eval(t))
    return row / geom.tri.area


def weak_gradient_matrix(geom: ElementGeometry) -> np.ndarray:
    """Matrix G (6 x 18) with grad_w v = G @ coeffs in [P1(T)]^2.

    Coefficient ordering: x-component coefficients (3) then y-component
    coefficients (3), both in the affine-mapped P1 monomial basis of
    ``poly.ElementBasis``.
    """
    tri = geom.tri
    basis0 = ElementBasis.for_triangle(tri, INTERIOR_DEGREE)
    basis1 = ElementBasis.for_triangle(tri, GRADIENT_DEGREE)
    mass_vec = poly.element_mass_matrix(tri, GRADIENT_DEGREE, weight=np.eye(2))

    rhs = np.zeros((2 * basis1.dim, N_LOCAL))
    tri_rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = poly.map_to_triangle(tri_rule, tri)
    grads0 = basis0.grad(pts)  # (m, 6, 2)
    vals1 = basis1.eval(pts)  # (m, 3)
    # (grad v0, psi)_T
    rhs[: basis1.dim, :N_INTERIOR] = np.einsum("q,qa,qi->ai", w, vals1, grads0[:, :, 0])
    rhs[basis1.dim :, :N_INTERIOR] = np.einsum("q,qa,qi->ai", w, vals1, grads0[:, :, 1])

    edge_rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    for k, view in enumerate(geom.edges):
        pts_e, w_e, t = view.quad_points(edge_rule)
        trace0 = basis0.eval(pts_e)  # (m, 6)
        trace1 = basis1.eval(pts_e)  # (m, 3)
        trace_b = _EDGE_BASIS.eval(t)  # (m, 2)
        for comp in range(2):
            nc = view.normal[comp]
            block = slice(comp * basis1.dim, (comp + 1) * basis1.dim)
            # -<v0 - vb, psi . n>_dT
            rhs[block, :N_INTERIOR] -= nc * np.einsum("q,qa,qi->ai", w_e, trace1, trace0)
            rhs[block, _vb_slice(k)] += nc * np.einsum("q,qa,qj->aj", w_e, trace1, trace_b)
    return np.linalg.solve(mass_vec, rhs)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def project_Q0(geom_or_tri, u, degree: int = INTERIOR_DEGREE) -> np.ndarray:
    """L2 projection of ``u`` onto P_degree(T); returns basis coefficients."""
    tri = geom_or_tri.tri if isinstance(geom_or_tri, ElementGeometry) else geom_or_tri
    basis = ElementBasis.for_triangle(tri, degree)
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = poly.map_to_triangle(rule, tri)
    vals = basis.eval(pts)
    rhs = vals.T @ (w * u(pts[:, 0], pts[:, 1]))
    return np.linalg.solve(poly.element_mass_matrix(tri, degree), rhs)


@lru_cache(maxsize=None)
def _weighted_interior_basis() -> np.ndarray:
    """The P2 basis at the reference triangle's quadrature points times
    their weights (q, 6).  The affine-mapped basis takes the same values
    at the mapped points of every element."""
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    basis = ElementBasis.for_triangle(poly.REFERENCE_TRIANGLE, INTERIOR_DEGREE)
    table = basis.eval(rule.points) * rule.weights[:, None]
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
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    weighted = _EDGE_BASIS.eval(rule.points) * rule.weights[:, None]
    projector = np.linalg.solve(poly.edge_mass_matrix(1.0, EDGE_DEGREE), weighted.T)
    projector.flags.writeable = False  # shared by every caller
    return projector


def _project_edges(segments: np.ndarray, u) -> np.ndarray:
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    p1, p2 = segments[:, 0, None], segments[:, 1, None]
    pts = 0.5 * (p1 + p2) + rule.points[:, None] * (p2 - p1)
    return u(pts[..., 0], pts[..., 1]) @ _edge_projector().T


def project_Qb(segments: np.ndarray, u) -> np.ndarray:
    """L2 projections (F, 2) of a trace function onto P1(e) of each edge
    ``segments`` (F, 2, 2), given by its endpoints p1, p2."""
    return _project_edges(segments, u)


def project_Qg(segments: np.ndarray, g) -> np.ndarray:
    """L2 projections (F, 2) of a conormal-flux function onto P1(e).

    ``g`` is the scalar flux along each edge's own (global) normal.
    """
    return _project_edges(segments, g)


def project_calQh(geom_or_tri, u) -> float:
    """L2 projection onto P0(T): the mean value of ``u`` over the element."""
    tri = geom_or_tri.tri if isinstance(geom_or_tri, ElementGeometry) else geom_or_tri
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = poly.map_to_triangle(rule, tri)
    return float(w @ u(pts[:, 0], pts[:, 1])) / tri.area


def project_calQ1(geom_or_tri, field) -> np.ndarray:
    """Componentwise L2 projection of a vector field onto [P1(T)]^2.

    ``field(x, y)`` must return a pair (fx, fy) of arrays.  Coefficients
    come back in the weak-gradient ordering (x block then y block).
    """
    tri = geom_or_tri.tri if isinstance(geom_or_tri, ElementGeometry) else geom_or_tri
    basis = ElementBasis.for_triangle(tri, GRADIENT_DEGREE)
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = poly.map_to_triangle(rule, tri)
    vals = basis.eval(pts)
    fx, fy = field(pts[:, 0], pts[:, 1])
    mass = poly.element_mass_matrix(tri, GRADIENT_DEGREE)
    cx = np.linalg.solve(mass, vals.T @ (w * fx))
    cy = np.linalg.solve(mass, vals.T @ (w * fy))
    return np.concatenate([cx, cy])


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
    mass = poly.element_mass_matrix(poly.REFERENCE_TRIANGLE, INTERIOR_DEGREE)
    interior[:] = np.linalg.solve(mass, interior_moments(mesh.element_points(), u).T).T
    edges = out.coeffs[N_INTERIOR * mesh.n_elements :].reshape(-1, 4)
    segments = mesh.edge_points()
    edges[:, :2] = project_Qb(segments, u)
    edges[:, 2:] = project_Qg(segments, flux)
    return out
