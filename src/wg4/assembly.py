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

Element matrices are computed once per class of elements that share
their local geometry (centroid-relative vertices, each edge's p1 -> p2
orientation and sigma sign) and their kappa and mu; on a structured mesh
with uniform coefficients there are five such classes.  Loads and
boundary projections are batched over all elements or edges.

Dirichlet and Neumann data enter as essential constraints: every vb/vg
block of a boundary edge is fixed to the projected boundary data and
eliminated symmetrically.

An assembled system has two parts.  The operator depends only on the
mesh and the coefficient field: the DofMap, the free-dof mask, the full
and the reduced matrix, the class matrices, and the SuperLU factorization
of the reduced matrix, which ``solve.solve_spd`` fills in on first use.
The load depends on the problem's data: the interior load vector, the
boundary Qb/Qg values and the reduced right-hand side.  Tomography solves
one problem per source on one medium, so the last operator assembled is
kept in one process-wide slot, keyed on the mesh's domain and subdivision
count and on exact equality of kappa and mu.  ``assemble`` and
``triple_bar_norm`` reuse it while the key matches; a miss empties the
slot before assembling, so at most one factorization is alive.  The
slot's arrays are shared by every caller and are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import poly, weakops
from .mesh import Mesh
from .poly import ElementBasis
from .weakops import (
    N_INTERIOR,
    N_LOCAL,
    DofMap,
    ElementGeometry,
    WeakFunction,
    _EDGE_BASIS,
    _vb_slice,
    _vg_slice,
)

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
        elif self.shape == "disk":
            if self.center is None or self.radius is None:
                raise ValueError("disk region requires center and radius")
        else:
            raise ValueError(f"unknown region shape {self.shape!r}")
        _check_spd(np.asarray(self.kappa, dtype=float))
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")

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
        return cls.uniform(mesh, kappa, mu).with_regions(mesh, regions)

    def with_regions(self, mesh: Mesh, regions) -> "CoefficientField":
        """A copy with each region's values at the elements whose centroid
        it contains; later regions win."""
        kappa, mu = self.kappa.copy(), self.mu.copy()
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
    full_matrix: sp.csr_matrix  # all dofs, no constraints applied
    matrix: sp.csr_matrix  # free x free, symmetric positive definite
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
    rhs: np.ndarray  # (b - full_matrix @ boundary_values)[free]
    boundary_values: np.ndarray  # full-length, nonzero only on boundary dofs

    @property
    def matrix(self) -> sp.csr_matrix:
        return self.operator.matrix

    @property
    def full_matrix(self) -> sp.csr_matrix:
        return self.operator.full_matrix

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


def _trace_projector(view: weakops.EdgeView, basis0: ElementBasis) -> np.ndarray:
    """Matrix (2 x 6) mapping interior coefficients to the P1(e) projection
    of their trace on this edge."""
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    pts, w, t = view.quad_points(rule)
    mixed = (_EDGE_BASIS.eval(t) * w[:, None]).T @ basis0.eval(pts)
    return np.linalg.solve(poly.edge_mass_matrix(view.length, weakops.EDGE_DEGREE), mixed)


def local_system(geom: ElementGeometry, kappa: np.ndarray, mu: float) -> np.ndarray:
    """Symmetric positive semidefinite 18 x 18 element matrix."""
    tri = geom.tri
    if tri.area <= 0:
        raise AssemblyError("degenerate element")
    kappa = np.asarray(kappa, dtype=float)
    h = poly.mesh_size(tri)

    ew = weakops.weak_laplacian_matrix(geom)
    A = tri.area * np.outer(ew, ew)

    if mu != 0.0:
        G = weakops.weak_gradient_matrix(geom)
        kmass = poly.element_mass_matrix(tri, weakops.GRADIENT_DEGREE, weight=kappa)
        A += 2.0 * mu * G.T @ kmass @ G
        mass0 = poly.element_mass_matrix(tri, weakops.INTERIOR_DEGREE)
        A[:N_INTERIOR, :N_INTERIOR] += mu * mu * mass0

    basis0 = ElementBasis.for_triangle(tri, weakops.INTERIOR_DEGREE)
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    for k, view in enumerate(geom.edges):
        pts, w, t = view.quad_points(rule)
        trace_b = _EDGE_BASIS.eval(t)  # (m, 2)

        # flux penalty rows: kappa grad v0 . n_out - sigma * vg
        grads = basis0.grad(pts)  # (m, 6, 2)
        flux = np.einsum("qic,c->qi", grads @ kappa.T, view.normal)
        rows = np.zeros((len(t), N_LOCAL))
        rows[:, :N_INTERIOR] = flux
        rows[:, _vg_slice(k)] = -view.sigma * trace_b
        A += (rows * (w / h)[:, None]).T @ rows

        # jump penalty rows: P1(e) projection of the v0 trace - vb
        rows = np.zeros((len(t), N_LOCAL))
        rows[:, :N_INTERIOR] = trace_b @ _trace_projector(view, basis0)
        rows[:, _vb_slice(k)] = -trace_b
        A += (rows * (w / h**3)[:, None]).T @ rows

    return 0.5 * (A + A.T)


def local_load(points: np.ndarray, f) -> np.ndarray:
    """Load vectors (E, 6) of the source against the interior basis of
    each triangle ``points`` (E, 3, 2)."""
    return poly.jacobian_determinants(points)[:, None] * weakops.interior_moments(points, f)


def _element_classes(mesh: Mesh, coeff: CoefficientField) -> tuple[np.ndarray, np.ndarray]:
    """One representative element per class of elements sharing their
    local geometry and coefficients, and each element's class.

    The geometry is the centroid-relative vertices, rounded at 1e-12 of
    the domain's size, and each local edge's p1 -> p2 orientation and
    sigma sign; the representative is the class's first element.
    """
    x0, y0, x1, y1 = mesh.domain
    rel = mesh.element_points() - mesh.centroids[:, None, :]
    verts = mesh.element_vertices
    rows = np.hstack([
        np.round(rel.reshape(-1, 6) / max(x1 - x0, y1 - y0), 12),
        verts < np.roll(verts, -1, axis=1),  # p1 is local vertex k
        mesh.element_signs,
        coeff.kappa.reshape(-1, 4),
        coeff.mu[:, None],
    ])
    _, first, classes = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, classes.reshape(-1)


def _class_matrices(mesh: Mesh, coeff: CoefficientField) -> tuple[np.ndarray, np.ndarray]:
    """Element matrices (C, 18, 18), one per class, and each element's class."""
    first, classes = _element_classes(mesh, coeff)
    mats = [
        local_system(weakops.element_geometry(mesh, i), coeff.kappa[i], float(coeff.mu[i]))
        for i in first
    ]
    return np.stack(mats), classes


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
    matrix = full[free][:, free].tocsr()
    op = Operator(mesh=mesh, kappa=coeff.kappa.copy(), mu=coeff.mu.copy(), dofmap=dofmap,
                  free=free, full_matrix=full, matrix=matrix, class_matrices=mats,
                  classes=classes)
    shared = (op.kappa, op.mu, free, mats, classes,
              full.data, full.indices, full.indptr, matrix.data, matrix.indices, matrix.indptr)
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

    rhs = (b - op.full_matrix @ boundary_values)[op.free]
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
