"""Global assembly of the stabilized weak Galerkin system.

The bilinear form on two triples u, v is

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

Element matrices come from one call of the array kernel
``local_system`` on a batch of triangles, with every integral taken from
reference-triangle tables under the affine map (see ``wg4.weakops``).
The batch holds one representative of each class of elements that share
their local geometry (centroid-relative vertices, each edge's p1 -> p2
orientation and sigma sign) and their kappa and mu: on a structured mesh
with uniform coefficients there are five such classes, and with
per-element coefficients every element is its own class.  Loads and
boundary projections are batched over all elements or edges.

Dirichlet and Neumann data enter as essential constraints: every vb/vg
block of a boundary edge is fixed to the projected boundary data and
eliminated symmetrically.

An assembled system has two parts.  The operator depends only on the
mesh and the coefficient field: the DofMap, the free-dof mask, the
reduced matrix, its coupling block to the boundary dofs, the class
matrices, and the SuperLU factorization of the reduced matrix, which
``solve.solve_spd`` fills in on first use.  The load depends on the
problem's data: the interior load vector, the boundary Qb/Qg values and
the reduced right-hand side, lifted by the coupling block.  Tomography
solves one problem per source on one medium, so the last operator
assembled is kept in one process-wide slot, keyed on the mesh's domain
and subdivision count and on exact equality of kappa and mu.
``assemble`` and ``triple_bar_norm`` reuse it while the key matches; a
miss empties the slot before assembling, so at most one factorization is
alive.  The slot's arrays are shared by every caller and are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import poly, weakops
from .mesh import Mesh
from .weakops import N_INTERIOR, N_LOCAL, DofMap, WeakFunction

__all__ = [
    "Region",
    "CoefficientField",
    "ProblemSpec",
    "Operator",
    "AssembledSystem",
    "AssemblyError",
    "local_system",
    "local_load",
    "assemble",
    "reusable_mesh",
    "empty_slot",
    "triple_bar_norm",
]


class AssemblyError(RuntimeError):
    pass


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle or disk carrying coefficient values."""

    shape: str  # "rect" | "disk"
    kappa: np.ndarray  # (2, 2) SPD
    mu: float
    bounds: tuple[float, float, float, float] | None = None  # rect: x0, y0, x1, y1
    center: tuple[float, float] | None = None  # disk
    radius: float | None = None  # disk

    def __post_init__(self):
        if self.shape == "rect":
            if self.bounds is None:
                raise ValueError("rect region requires bounds")
            x0, y0, x1, y1 = self.bounds
            if not (np.isfinite(self.bounds).all() and x0 < x1 and y0 < y1):
                raise ValueError(f"bounds must be finite, x0 < x1, y0 < y1; got {self.bounds}")
        elif self.shape == "disk":
            if self.center is None or self.radius is None:
                raise ValueError("disk region requires center and radius")
            if not (np.isfinite([*self.center, self.radius]).all() and self.radius > 0):
                raise ValueError("disk center must be finite and radius finite and positive")
        else:
            raise ValueError(f"unknown region shape {self.shape!r}")
        _check_spd(np.asarray(self.kappa, dtype=float))
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")

    def contains(self, x, y):
        """Whether the points (x, y), scalars or arrays, lie in the region."""
        if self.shape == "rect":
            x0, y0, x1, y1 = self.bounds
            return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        cx, cy = self.center
        return (x - cx) ** 2 + (y - cy) ** 2 <= self.radius**2


def _check_spd(kappa: np.ndarray, name: str = "kappa") -> None:
    """Raise ValueError unless every 2x2 matrix of the stack ``kappa`` is
    symmetric positive definite; the message names the first that is not,
    as ``name[i]`` for a stack of shape (m, 2, 2)."""
    if kappa.shape[-2:] != (2, 2) or kappa.ndim not in (2, 3):
        raise ValueError(f"{name} must be 2x2 or a stack of 2x2 matrices, got shape {kappa.shape}")
    stack = kappa.reshape(-1, 2, 2)
    finite = np.isfinite(stack).all(axis=(1, 2))
    symmetric = np.isclose(stack, stack.transpose(0, 2, 1), atol=1e-14).all(axis=(1, 2))
    ok = finite & symmetric
    definite = np.linalg.eigvalsh(np.where(ok[:, None, None], stack, np.eye(2))).min(axis=1) > 0
    bad = np.flatnonzero(~(ok & definite))
    if len(bad):
        i = bad[0]
        where = f"{name}[{i}]" if kappa.ndim == 3 else name
        reason = ("not finite" if not finite[i] else "not symmetric" if not symmetric[i]
                  else "not positive definite")
        raise ValueError(f"{where}: {reason}")


@dataclass(frozen=True)
class CoefficientField:
    """Piecewise-constant diffusion matrix and reaction scalar per element."""

    kappa: np.ndarray  # (n_elements, 2, 2)
    mu: np.ndarray  # (n_elements,)

    def __post_init__(self):
        _check_spd(self.kappa)
        bad = np.flatnonzero(~(self.mu >= 0))
        if len(bad):
            raise ValueError(f"mu[{bad[0]}]: must be nonnegative, got {self.mu[bad[0]]}")

    @classmethod
    def uniform(cls, mesh: Mesh, kappa, mu: float) -> "CoefficientField":
        kappa = np.asarray(kappa, dtype=float)
        return cls(
            kappa=np.broadcast_to(kappa, (mesh.n_elements, 2, 2)).copy(),
            mu=np.full(mesh.n_elements, float(mu)),
        )

    @classmethod
    def from_regions(
        cls, mesh: Mesh, kappa, mu: float, regions: list[Region]
    ) -> "CoefficientField":
        """Background values overridden per region, sampled at element
        centroids; later regions win."""
        kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (mesh.n_elements, 2, 2))
        return _overridden(mesh, kappa, np.full(mesh.n_elements, float(mu)), regions)

    def with_regions(self, mesh: Mesh, regions) -> "CoefficientField":
        """A copy with each region's values at the elements whose centroid
        it contains; later regions win."""
        return _overridden(mesh, self.kappa, self.mu, regions)


def _overridden(mesh: Mesh, kappa: np.ndarray, mu: np.ndarray, regions) -> CoefficientField:
    """The field of copies of ``kappa`` and ``mu`` with each region's
    values at the elements whose centroid it contains; later regions win."""
    kappa, mu = kappa.copy(), mu.copy()
    cx, cy = mesh.centroids.T
    for region in regions:
        inside = region.contains(cx, cy)
        kappa[inside] = region.kappa
        mu[inside] = region.mu
    return CoefficientField(kappa=kappa, mu=mu)


@dataclass(frozen=True)
class ProblemSpec:
    """Source, boundary data and coefficients for one boundary value problem.

    ``nu`` is the conormal flux kappa grad(u) . n with the domain-outward
    normal.  ``exact_u``/``exact_grad`` enable error reporting.
    """

    f: object
    xi: object
    nu: object
    coeff: CoefficientField
    exact_u: object | None = None
    exact_grad: object | None = None

    @property
    def has_exact(self) -> bool:
        return self.exact_u is not None and self.exact_grad is not None


@dataclass(eq=False)
class Operator:
    """The part of an assembled system fixed by the mesh and the
    coefficient field; see the module docstring."""

    mesh: Mesh
    kappa: np.ndarray  # the coefficient field it was assembled for
    mu: np.ndarray
    dofmap: DofMap
    free: np.ndarray  # boolean mask over all dofs
    matrix: sp.csr_matrix  # free x free, symmetric positive definite
    coupling: sp.csr_matrix  # free x boundary, lifts the boundary values
    class_matrices: np.ndarray  # (C, 18, 18), one per element class
    classes: np.ndarray  # (E,), each element's class
    lu: object = None  # SuperLU factorization of ``matrix``, set by solve.solve_spd

    def matches(self, mesh: Mesh, coeff: CoefficientField) -> bool:
        return (
            self.mesh.domain == mesh.domain
            and self.mesh.n == mesh.n
            and np.array_equal(self.kappa, coeff.kappa)
            and np.array_equal(self.mu, coeff.mu)
        )


@dataclass
class AssembledSystem:
    """One problem's system: the operator and the problem's load."""

    operator: Operator
    rhs: np.ndarray  # b[free] - coupling @ boundary_values[~free]
    boundary_values: np.ndarray  # full-length, nonzero only on boundary dofs

    @property
    def matrix(self) -> sp.csr_matrix:
        return self.operator.matrix

    @property
    def dofmap(self) -> DofMap:
        return self.operator.dofmap

    @property
    def free(self) -> np.ndarray:
        return self.operator.free

    def expand(self, x_free: np.ndarray) -> WeakFunction:
        """Recombine a free-dof solution with the boundary values."""
        coeffs = self.boundary_values.copy()
        coeffs[self.free] = x_free
        return WeakFunction(coeffs=coeffs, dofmap=self.dofmap)


def local_system(points: np.ndarray, signs: np.ndarray, flipped: np.ndarray,
                 kappa: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Symmetric positive semidefinite 18 x 18 element matrices (C, 18, 18)
    of the triangles ``points`` (C, 3, 2), with edge ``signs`` and
    ``flipped`` flags (C, 3) as in ``wg4.weakops`` and coefficients
    ``kappa`` (C, 2, 2) and ``mu`` (C,)."""
    det = poly.jacobian_determinants(points)
    if (det <= 0).any():
        raise AssemblyError(f"element {np.flatnonzero(det <= 0)[0]} of the batch is degenerate")
    lengths, normals = weakops._sides(points)
    h = lengths.min(axis=1)
    scale = det[:, None, None]

    ew = weakops.weak_laplacian_matrix(points, signs)
    A = 0.5 * scale * ew[:, :, None] * ew[:, None, :]
    G = weakops.weak_gradient_matrix(points, flipped)
    mass1 = poly.reference_mass(weakops.GRADIENT_DEGREE)
    kmass = scale * (kappa[:, :, None, :, None] * mass1[:, None, :]).reshape(-1, 6, 6)
    A += 2.0 * mu[:, None, None] * G.transpose(0, 2, 1) @ kmass @ G
    mass0 = poly.reference_mass(weakops.INTERIOR_DEGREE)
    A[:, :N_INTERIOR, :N_INTERIOR] += (mu * mu)[:, None, None] * scale * mass0

    # Penalty rows at every edge point, each on its own edge's dofs:
    # flux, kappa grad v0 . n_out - sigma * vg, and jump, the P1(e)
    # projection of the v0 trace - vb.
    w, trace_b = weakops._segment_rule()
    trace0, grads0, _ = weakops._edge_traces()
    own = np.eye(3)[:, None, :, None] * trace_b[:, None, :]  # (3, m, 3, 2)
    zero = np.zeros((len(points), *own.shape))
    conormal = np.einsum("cab,cdb,ckd->cka", poly.inverse_jacobians(points), kappa, normals)
    flux = np.einsum("ckqia,cka->ckqi", weakops._on_edges(grads0, flipped), conormal)
    jump = weakops._on_edges(trace_b @ weakops._edge_projector() @ trace0, flipped)
    for rows, weight in (
        (weakops._local_rows(flux, zero, -signs[:, :, None, None, None] * own), 1.0 / h),
        (weakops._local_rows(jump, np.broadcast_to(-own, zero.shape), zero), h**-3.0),
    ):
        rows = rows.reshape(len(points), -1, N_LOCAL)
        weights = (weight[:, None, None] * lengths[:, :, None] * w).reshape(len(points), -1)
        A += (rows * weights[:, :, None]).transpose(0, 2, 1) @ rows
    return 0.5 * (A + A.transpose(0, 2, 1))


def local_load(points: np.ndarray, f) -> np.ndarray:
    """Load vectors (E, 6) of the source against the interior basis of
    each triangle ``points`` (E, 3, 2)."""
    return poly.jacobian_determinants(points)[:, None] * weakops.interior_moments(points, f)


def _element_classes(mesh: Mesh, coeff: CoefficientField,
                     flipped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One representative element per class of elements sharing their
    local geometry and coefficients, and each element's class.

    The geometry is the centroid-relative vertices, rounded at 1e-12 of
    the domain's size, and each local edge's p1 -> p2 orientation and
    sigma sign; the representative is the class's first element.
    """
    x0, y0, x1, y1 = mesh.domain
    rel = mesh.element_points() - mesh.centroids[:, None, :]
    rows = np.hstack([
        np.round(rel.reshape(-1, 6) / max(x1 - x0, y1 - y0), 12),
        ~flipped,  # p1 is local vertex k
        mesh.element_signs,
        coeff.kappa.reshape(-1, 4),
        coeff.mu[:, None],
    ])
    _, first, classes = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, classes.reshape(-1)


def _class_matrices(mesh: Mesh, coeff: CoefficientField) -> tuple[np.ndarray, np.ndarray]:
    """Element matrices (C, 18, 18), one per class, from one ``local_system``
    call on the class representatives, and each element's class."""
    verts = mesh.element_vertices
    flipped = verts > np.roll(verts, -1, axis=1)  # p1 is local vertex k + 1
    first, classes = _element_classes(mesh, coeff, flipped)
    mats = local_system(mesh.element_points(first), mesh.element_signs[first], flipped[first],
                        coeff.kappa[first], coeff.mu[first])
    return mats, classes


#: The last operator assembled; see the module docstring.
_slot: Operator | None = None


def reusable_mesh(domain, n: int) -> Mesh | None:
    """The slot's mesh if it was built on ``domain`` with ``n`` subdivisions."""
    if _slot is not None and _slot.mesh.domain == tuple(domain) and _slot.mesh.n == n:
        return _slot.mesh
    return None


def empty_slot() -> None:
    """Drop the slot's operator, and with it its factorization."""
    global _slot
    _slot = None


def _operator(mesh: Mesh, coeff: CoefficientField) -> Operator:
    """The operator of (mesh, coeff): the slot's if it matches, otherwise
    a new one, which takes the slot."""
    global _slot
    if _slot is not None and _slot.matches(mesh, coeff):
        return _slot
    _slot = None  # free the old factorization before building the next
    dofmap = DofMap.for_mesh(mesh)
    size = dofmap.size
    idx = dofmap.local_dofs(mesh)
    mats, classes = _class_matrices(mesh, coeff)
    rows = np.repeat(idx[:, :, None], N_LOCAL, axis=2).ravel()
    cols = np.repeat(idx[:, None, :], N_LOCAL, axis=1).ravel()
    full = sp.coo_matrix((mats[classes].ravel(), (rows, cols)), shape=(size, size)).tocsr()
    del rows, cols  # 2 x 324 indices per element; free them before the slicing below
    free = ~dofmap.boundary_mask(mesh)
    free_rows = full[free]
    del full
    matrix, coupling = free_rows[:, free].tocsr(), free_rows[:, ~free].tocsr()
    op = Operator(mesh=mesh, kappa=coeff.kappa.copy(), mu=coeff.mu.copy(), dofmap=dofmap,
                  free=free, matrix=matrix, coupling=coupling, class_matrices=mats,
                  classes=classes)
    shared = (op.kappa, op.mu, free, mats, classes, matrix.data, matrix.indices, matrix.indptr,
              coupling.data, coupling.indices, coupling.indptr)
    for array in shared:
        array.flags.writeable = False
    _slot = op
    return op


def assemble(mesh: Mesh, spec: ProblemSpec) -> AssembledSystem:
    """The system of ``spec`` on ``mesh`` with boundary dofs eliminated
    symmetrically: the operator of (mesh, spec.coeff), from the slot when
    it matches, and the load of the problem's data."""
    op = _operator(mesh, spec.coeff)
    size = op.dofmap.size
    b = np.zeros(size)
    b[: N_INTERIOR * mesh.n_elements] = local_load(mesh.element_points(), spec.f).ravel()

    boundary_values = np.zeros(size)
    boundary = np.flatnonzero(mesh.boundary)
    blocks = boundary_values[N_INTERIOR * mesh.n_elements :].reshape(-1, 4)
    segments = mesh.edge_points(boundary)
    blocks[boundary, :2] = weakops.project_Qb(segments, spec.xi)
    blocks[boundary, 2:] = weakops.project_Qg(segments, spec.nu)
    if not np.isfinite(boundary_values).all():
        raise AssemblyError("boundary data projection produced non-finite values")

    rhs = b[op.free] - op.coupling @ boundary_values[~op.free]
    return AssembledSystem(operator=op, rhs=rhs, boundary_values=boundary_values)


def triple_bar_norm(mesh: Mesh, coeff: CoefficientField, w) -> float:
    """Discrete energy norm: square root of the assembled quadratic form,
    summed class by class with the slot's class matrices when the slot
    holds the operator of (mesh, coeff).

    ``w`` is a WeakFunction or a full-length coefficient vector (boundary
    blocks included; they are zero for error functions).
    """
    coeffs = w.coeffs if isinstance(w, WeakFunction) else np.asarray(w, dtype=float)
    dofmap = DofMap.for_mesh(mesh)
    if coeffs.shape != (dofmap.size,):
        raise ValueError(f"expected coefficient vector of length {dofmap.size}")
    local = coeffs[dofmap.local_dofs(mesh)]
    if _slot is not None and _slot.matches(mesh, coeff):
        mats, classes = _slot.class_matrices, _slot.classes
    else:
        mats, classes = _class_matrices(mesh, coeff)
    total = 0.0
    for c, mat in enumerate(mats):
        members = local[classes == c]
        total += float(np.sum((members @ mat) * members))
    return float(np.sqrt(max(total, 0.0)))
