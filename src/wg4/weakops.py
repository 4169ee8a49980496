"""Discrete weak operators, the element kernel and local L2 projections.

A discrete unknown on one element is a triple {v0, vb, vg}: an interior
polynomial v0 in P2(T), an edge trace vb in P1(e) per edge, and an edge
conormal-flux trace vg in P1(e) per edge.  vg coefficients are stored
with respect to the edge's *global* normal; the element-outward trace on
edge e is sigma_T(e) * vg, which makes the flux unknown single-valued
per edge while the two adjacent elements see opposite signs.

This module owns the global layout: per-element blocks of 6, then
per-edge blocks [vb_0, vb_1, vg_0, vg_1] of 4, edge block e at offset
6*E + 4*e.  A ``WeakFunction`` has writable views of both parts; the
layout's size, each element's 18 dofs and the boundary dofs are
``dof_count``, ``local_dofs`` and ``boundary_mask``.  The global system
numbers its free dofs in another order, ``solve_order``: a nested
dissection of the cell grid over the element and interior-edge blocks,
each kept whole.  Each cut's edge blocks come after both halves it
splits, and ``wg4.cholesky`` factors the system on the tree of that
dissection, which ``solve_order`` returns with the order.

Two element-local operators act on these triples:

* the weak second-order elliptic operator, a constant per element
  defined by duality against P0(T); after integration by parts only the
  boundary integral of the outward flux trace survives:
      (Ew v) * |T| = sum_e sigma_T(e) * int_e vg ds
* the weak gradient, a vector polynomial in [P1(T)]^2 defined by
      (grad_w v, psi)_T = (grad v0, psi)_T - <v0 - vb, psi . n>_dT
  for every psi in [P1(T)]^2, with n the element-outward unit normal.

Both are linear in the 18 local coefficients.  ``local_system`` builds
from them the element matrix of the bilinear form on two triples u, v,

    (Ew u, Ew v)_h + 2 mu (kappa grad_w u, grad_w v)_h
        + mu^2 (u0, v0) + s(u, v)

with the edge stabilizer

    s(u, v) = sum_T h_T^-1 <kappa grad u0 . n - ug, kappa grad v0 . n - vg>_dT
            + sum_T h_T^-3 <Pb(u0) - ub, Pb(v0) - vb>_dT

where h_T is the local mesh-size scale (shortest side) and Pb is the L2
projection of the interior trace onto the edge trace space P1(e).  The
flux factor needs no projection: for v0 in P2(T) and elementwise-constant
kappa, kappa grad v0 . n is already linear along each edge.  Projecting
the jump factor keeps the scheme exact for globally quadratic solutions,
which the raw trace difference would break by penalizing the quadratic
Legendre moment the edge space cannot represent.

The two operators and ``local_system`` are array kernels over a batch of
C triangles, given by their vertices (C, 3, 2), the signs sigma (C, 3)
of their local edges and flags ``flipped`` (C, 3), set when edge k is
parameterized p1 -> p2 from local vertex k + 1 to k instead of from k
to k + 1.  Side lengths and outward normals come from ``poly.sides``.
Every integral comes from tables on the reference triangle under the
affine map x = v0 + J X: the affine-mapped bases take the reference
values at the mapped points, their gradients map by J^-T, and their
traces on a local edge depend only on the edge and its orientation.
Loads (``local_load``) and projections are batched the same way over all
elements or edges.  A load takes the source at the triangle rule's points
mapped onto each element, from ``load_quadrature``, which depends only on
the mesh: a caller that loads many sources on one mesh can keep those
points and their determinants and pay only for the source's values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import poly
from .mesh import Mesh

__all__ = [
    "INTERIOR_DEGREE",
    "EDGE_DEGREE",
    "N_LOCAL",
    "WeakFunction",
    "dof_count",
    "local_dofs",
    "boundary_mask",
    "solve_order",
    "weak_laplacian_matrix",
    "weak_gradient_matrix",
    "AssemblyError",
    "local_system",
    "load_quadrature",
    "local_load",
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


class AssemblyError(RuntimeError):
    """A degenerate element, or data that projects to non-finite values."""


def dof_count(mesh: Mesh) -> int:
    return N_INTERIOR * mesh.n_elements + N_PER_EDGE * mesh.n_edges


@dataclass
class WeakFunction:
    """Global coefficient vector in the layout of the module docstring."""

    coeffs: np.ndarray
    n_elements: int

    @classmethod
    def zeros(cls, mesh: Mesh) -> "WeakFunction":
        return cls(coeffs=np.zeros(dof_count(mesh)), n_elements=mesh.n_elements)

    @property
    def interior(self) -> np.ndarray:
        """Writable view (E, 6) of the interior coefficients."""
        return self.coeffs[: N_INTERIOR * self.n_elements].reshape(-1, N_INTERIOR)

    @property
    def edges(self) -> np.ndarray:
        """Writable view (F, 4) of the edge blocks [vb_0, vb_1, vg_0, vg_1]."""
        return self.coeffs[N_INTERIOR * self.n_elements :].reshape(-1, N_PER_EDGE)


def local_dofs(mesh: Mesh) -> np.ndarray:
    """Global indices (E, 18) of every element's local dofs: the 6
    interior dofs, then vb (2) and vg (2) of each local edge."""
    base = N_INTERIOR * mesh.n_elements
    interior = np.arange(base).reshape(-1, N_INTERIOR)
    edges = base + N_PER_EDGE * mesh.element_edges[:, :, None] + np.arange(N_PER_EDGE)
    return np.hstack([interior, edges.reshape(-1, 3 * N_PER_EDGE)])


def boundary_mask(mesh: Mesh) -> np.ndarray:
    """True for every vb/vg dof living on a boundary edge."""
    mask = WeakFunction(np.zeros(dof_count(mesh), dtype=bool), mesh.n_elements)
    mask.edges[mesh.boundary] = True
    return mask.coeffs


def solve_order(mesh: Mesh) -> tuple[np.ndarray, list[np.ndarray]]:
    """The free dofs, all but ``boundary_mask``'s, in the order the global
    system numbers them, a nested dissection of the cell grid, and the
    tree of that dissection.

    The element blocks and the interior-edge blocks each stay whole, with
    their dofs in layout order.  The grid is bisected across its longer
    side (across x on a tie) at the middle mesh line; both halves are
    numbered first, then the edge blocks on that line, and each half
    recursively.  A 1 x 1 cell numbers its two elements by index, then
    its diagonal.  Each pass of the loop below is one level of that tree
    over every block at once.  A block's digit is 0 or 1 for the half it
    falls in and 2 on the cut; in a single cell, 0 for an element and 1
    for the diagonal; and 0 once it is placed.  The base-3 numbers of
    the digits sort the blocks into place, and blocks with equal
    numbers, the edges of one cut, stay in layout order.

    A tree node is a region of cells: a cut, or a single cell.  It is
    named by the level L at which its blocks are placed and their number
    P there, before the digit of that level, so the parent of (L, P) is
    (L - 1, P // 3) and it is the region's half P % 3.  The tree's level
    L is an int array (k, 5) with one row per node, in increasing P:
    P and the region [lx, hx) x [ly, hy) in cells, as (P, lx, ly, hx, hy).
    """
    x0, y0, x1, y1 = mesh.domain
    interior = np.flatnonzero(~mesh.boundary)
    centres = np.vstack([mesh.centroids, mesh.edge_points(interior).mean(axis=1)])
    # centres in half cells: odd x and y inside a cell, one even coordinate on a mesh line
    x, y = np.rint(2 * mesh.n * (centres - (x0, y0)) / (x1 - x0, y1 - y0)).T.astype(np.int32)
    element = np.arange(len(centres)) < mesh.n_elements
    lx, ly = np.zeros_like(x), np.zeros_like(y)  # each block's region [lx, hx) x [ly, hy) in cells
    hx, hy = np.full_like(x, mesh.n), np.full_like(y, mesh.n)
    key = np.zeros(len(centres), dtype=np.int64)  # 3^(2 log2 n + 1) fits for any n < 2^19
    done = np.zeros(len(centres), dtype=bool)
    levels = []
    while not done.all():
        w, h = hx - lx, hy - ly
        across = w >= h  # cut the x-extent, along a vertical mesh line
        mid = np.where(across, lx + w // 2, ly + h // 2)
        side = np.where(across, x, y) - 2 * mid  # < 0 first half, 0 on the cut, > 0 second
        leaf = w + h == 2
        cut = side == 0
        placed = np.flatnonzero(~done & (leaf | cut))
        _, node = np.unique(key[placed], return_index=True)
        node = placed[node]  # one block of each node placed at this level
        levels.append(np.column_stack([key[node], lx[node], ly[node], hx[node], hy[node]]))
        digit = np.where(leaf, ~element, (side > 0) + 2 * cut)
        digit[done] = 0
        key = 3 * key + digit
        first, second = ~leaf & (side < 0), ~leaf & (side > 0)
        hx = np.where(first & across, mid, hx)
        hy = np.where(first & ~across, mid, hy)
        lx = np.where(second & across, mid, lx)
        ly = np.where(second & ~across, mid, ly)
        done |= leaf | cut
    blocks = np.argsort(key, kind="stable")
    base = N_INTERIOR * mesh.n_elements
    dofs = np.full((len(centres), N_INTERIOR), -1)  # one row per block, edge rows padded
    dofs[: mesh.n_elements] = np.arange(base).reshape(-1, N_INTERIOR)
    edges = base + N_PER_EDGE * interior[:, None] + np.arange(N_PER_EDGE)
    dofs[mesh.n_elements :, :N_PER_EDGE] = edges
    order = dofs[blocks].ravel()
    return order[order >= 0], levels


# ---------------------------------------------------------------------------
# weak operators
# ---------------------------------------------------------------------------


def _local_rows(interior: np.ndarray, vb: np.ndarray, vg: np.ndarray) -> np.ndarray:
    """Rows (..., 18) in local dof order from an interior part (..., 6) and
    per-edge vb and vg parts (..., 3, 2) of the same leading shape."""
    edges = np.concatenate([vb, vg], axis=-1)
    return np.concatenate([interior, edges.reshape(*edges.shape[:-2], 3 * N_PER_EDGE)], axis=-1)


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
    lengths, _ = poly.sides(points)
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
    lengths, normals = poly.sides(points)
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


def local_system(points: np.ndarray, signs: np.ndarray, flipped: np.ndarray,
                 kappa: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Symmetric positive semidefinite 18 x 18 element matrices (C, 18, 18)
    of the triangles ``points`` (C, 3, 2), with edge ``signs`` and
    ``flipped`` flags (C, 3) as in the module docstring and coefficients
    ``kappa`` (C, 2, 2) and ``mu`` (C,)."""
    det = poly.jacobian_determinants(points)
    if (det <= 0).any():
        raise AssemblyError(f"element {np.flatnonzero(det <= 0)[0]} of the batch is degenerate")
    lengths, normals = poly.sides(points)
    h = lengths.min(axis=1)
    scale = det[:, None, None]

    ew = weak_laplacian_matrix(points, signs)
    A = 0.5 * scale * ew[:, :, None] * ew[:, None, :]
    G = weak_gradient_matrix(points, flipped)
    mass1 = poly.reference_mass(GRADIENT_DEGREE)
    kmass = scale * (kappa[:, :, None, :, None] * mass1[:, None, :]).reshape(-1, 6, 6)
    A += 2.0 * mu[:, None, None] * G.transpose(0, 2, 1) @ kmass @ G
    mass0 = poly.reference_mass(INTERIOR_DEGREE)
    A[:, :N_INTERIOR, :N_INTERIOR] += (mu * mu)[:, None, None] * scale * mass0

    # Penalty rows at every edge point, each on its own edge's dofs:
    # flux, kappa grad v0 . n_out - sigma * vg, and jump, the P1(e)
    # projection of the v0 trace - vb.
    w, trace_b = _segment_rule()
    trace0, grads0, _ = _edge_traces()
    own = np.eye(3)[:, None, :, None] * trace_b[:, None, :]  # (3, m, 3, 2)
    zero = np.zeros((len(points), *own.shape))
    conormal = np.einsum("cab,cdb,ckd->cka", poly.inverse_jacobians(points), kappa, normals)
    flux = np.einsum("ckqia,cka->ckqi", _on_edges(grads0, flipped), conormal)
    jump = _on_edges(trace_b @ _edge_projector() @ trace0, flipped)
    for rows, weight in (
        (_local_rows(flux, zero, -signs[:, :, None, None, None] * own), 1.0 / h),
        (_local_rows(jump, np.broadcast_to(-own, zero.shape), zero), h**-3.0),
    ):
        rows = rows.reshape(len(points), -1, N_LOCAL)
        weights = (weight[:, None, None] * lengths[:, :, None] * w).reshape(len(points), -1)
        A += (rows * weights[:, :, None]).transpose(0, 2, 1) @ rows
    return 0.5 * (A + A.transpose(0, 2, 1))


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


def load_quadrature(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``local_load`` needs of the triangles ``points`` (E, 3, 2):
    their 2|T| (E,) and the triangle rule's points mapped onto them
    (E, q, 2).  None of it depends on the source, so a caller that loads
    many sources on one mesh may keep it."""
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    return poly.jacobian_determinants(points), poly.map_to_triangles(rule, points)


def interior_moments(mapped: np.ndarray, u) -> np.ndarray:
    """Moments (E, 6) of ``u`` against the P2 basis of each triangle,
    divided by the triangle's 2|T|, from the quadrature points ``mapped``
    (E, q, 2) of ``load_quadrature``.  ``u`` may return a constant."""
    values = np.broadcast_to(u(mapped[..., 0], mapped[..., 1]), mapped.shape[:-1])
    return values @ _weighted_interior_basis()


def local_load(quadrature: tuple[np.ndarray, np.ndarray], f) -> np.ndarray:
    """Load vectors (E, 6) of the source against the interior basis of
    each triangle, from its ``load_quadrature``."""
    det, mapped = quadrature
    return det[:, None] * interior_moments(mapped, f)


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
    so each can be wrapped on its own.  The function may return a constant.
    """
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    p1, p2 = segments[:, 0, None], segments[:, 1, None]
    pts = 0.5 * (p1 + p2) + rule.points[:, None] * (p2 - p1)
    values = np.broadcast_to(u(pts[..., 0], pts[..., 1]), pts.shape[:-1])
    return values @ _edge_projector().T


project_Qg = project_Qb


def project_Qh(mesh: Mesh, u, grad_u, kappa) -> WeakFunction:
    """Project a smooth function into the weak finite element space.

    Per element the interior block is the P2 projection of ``u``; per edge
    the vb block projects the trace of ``u`` and the vg block projects the
    conormal flux kappa grad(u) . n_e along the edge's global normal.

    ``kappa`` (n_elements, 2, 2) holds one matrix per element; on interior
    edges where kappa jumps, the flux uses the coefficient of the
    lower-indexed adjacent element (the side the global normal points
    from).  ``u`` and ``grad_u(x, y)``, which returns a pair, are evaluated
    on arrays of points, one row per element or edge.
    """
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    if kappa.shape != (mesh.n_elements, 2, 2):
        raise ValueError(f"coefficient field has {len(kappa)} elements, mesh has "
                         f"{mesh.n_elements}; kappa must have shape (E, 2, 2), got {kappa.shape}")
    k = kappa[mesh.edge_elements[:, 0], :, :, None]
    nx, ny = mesh.edge_normals[:, :, None].transpose(1, 0, 2)

    def flux(x, y):
        gx, gy = grad_u(x, y)
        return nx * (k[:, 0, 0] * gx + k[:, 0, 1] * gy) + ny * (k[:, 1, 0] * gx + k[:, 1, 1] * gy)

    out = WeakFunction.zeros(mesh)
    mass = poly.reference_mass(INTERIOR_DEGREE)
    mapped = load_quadrature(mesh.element_points())[1]
    out.interior[:] = np.linalg.solve(mass, interior_moments(mapped, u).T).T
    segments = mesh.edge_points()
    out.edges[:, :2] = project_Qb(segments, u)
    out.edges[:, 2:] = project_Qg(segments, flux)
    return out
