"""Global assembly of the stabilized weak Galerkin system.

Element matrices come from one call of ``wg4.weakops.local_system``, the
kernel of the bilinear form, on a batch of triangles.  The batch holds
one representative of each class of elements that share their local
geometry (centroid-relative vertices, each edge's p1 -> p2 orientation
and sigma sign) and their kappa and mu: on a structured mesh with uniform
coefficients there are five such classes, and with per-element
coefficients every element is its own class.  Loads (``local_load``) and
boundary projections are batched over all elements or edges.  Both
kernels are called as attributes of this module, so a wrapper set there
sees every call.

Dirichlet and Neumann data enter as essential constraints: every vb/vg
block of a boundary edge is fixed to the projected boundary data and
eliminated symmetrically.

An assembled system has two parts.  The operator depends only on the
mesh and the coefficient field: the free-dof mask, the order of the free
dofs (``weakops.solve_order``), the reduced matrix in that order, its
coupling block to the boundary dofs, the class matrices, and the SuperLU
factorization of the reduced matrix, which ``solve.solve_spd`` fills in
on first use.  The element matrices are summed straight into a numbering
with the free dofs first, in that order, and the boundary dofs last, in
layout order, so the reduced matrix and the coupling block are its
leading rows, cut at the first boundary column.  The load depends on the
problem's data: the interior load vector, the boundary Qb/Qg values and
the reduced right-hand side, lifted by the coupling block.  Tomography
solves one problem per source on one medium, so the last operator
assembled is kept in one process-wide slot, keyed on the mesh object
(``wg4.harness`` hands every solve on one domain and n the same mesh)
and on exact equality of kappa and mu.  ``assemble`` and
``triple_bar_norm`` reuse it while the key matches; a miss empties the
slot before assembling, so at most one factorization is alive.  The
slot's arrays are shared by every caller and are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import weakops
from .mesh import Mesh, check_rectangle
from .weakops import N_LOCAL, AssemblyError, WeakFunction, local_load, local_system

__all__ = [
    "Region",
    "CoefficientField",
    "ProblemSpec",
    "Operator",
    "AssembledSystem",
    "AssemblyError",
    "assemble",
    "empty_slot",
    "triple_bar_norm",
]


#: Bounds of kappa's eigenvalues and of a positive mu, so that the squares
#: and products of coefficients that the element kernel forms stay finite
#: and nonzero in float64.  The range says nothing of the powers of h that
#: scale them, nor of how well the assembled system can be solved.
COEFFICIENT_RANGE = (1e-100, 1e100)


def _check_coefficients(kappa: np.ndarray, mu: np.ndarray, indexed: bool = True) -> None:
    """Every kappa (E, 2, 2) must be symmetric with eigenvalues in
    COEFFICIENT_RANGE, and every mu (E,) 0 or in COEFFICIENT_RANGE; the
    message names the first element that is not, as ``kappa[i]`` or,
    unless ``indexed``, as ``kappa``."""

    def name(what: str, i: int) -> str:
        return f"{what}[{i}]" if indexed else what

    if np.shape(kappa)[1:] != (2, 2) or np.shape(mu) != (len(kappa),):
        raise ValueError(f"kappa must have shape (E, 2, 2) and mu shape (E,); got "
                         f"{np.shape(kappa)} and {np.shape(mu)}")
    finite = np.isfinite(kappa).all(axis=(1, 2))
    symmetric = np.isclose(kappa, kappa.transpose(0, 2, 1), atol=1e-14).all(axis=(1, 2))
    ok = finite & symmetric
    safe = np.where(ok[:, None, None], kappa, np.eye(2))  # eigvalsh needs finite input
    eigenvalues = np.linalg.eigvalsh(safe)  # ascending
    definite = eigenvalues[:, 0] > 0
    low, high = COEFFICIENT_RANGE
    in_range = (low <= eigenvalues[:, 0]) & (eigenvalues[:, 1] <= high)
    bad = np.flatnonzero(~(ok & in_range))
    if len(bad):
        i = bad[0]
        extreme = eigenvalues[i, 0] if eigenvalues[i, 0] < low else eigenvalues[i, 1]
        reason = ("not finite" if not finite[i] else "not symmetric" if not symmetric[i]
                  else "not positive definite" if not definite[i]
                  else f"eigenvalue {extreme:g} outside [{low:g}, {high:g}]")
        raise ValueError(f"{name('kappa', i)}: {reason}")
    bad = np.flatnonzero(~((mu == 0) | ((low <= mu) & (mu <= high))))
    if len(bad):
        value = mu[bad[0]]
        need = ("finite" if not np.isfinite(value) else "nonnegative" if value < 0
                else f"0 or in [{low:g}, {high:g}]")
        raise ValueError(f"{name('mu', bad[0])}: must be {need}, got {value}")


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
        keys = {"rect": ("bounds",), "disk": ("center", "radius")}.get(self.shape)
        if keys is None:
            raise ValueError(f"unknown region shape {self.shape!r}")
        for key in ("bounds", "center", "radius"):  # the shape's keys, and no other
            given = getattr(self, key) is not None
            if given != (key in keys):
                raise ValueError(f"{self.shape} region {'takes no' if given else 'requires'} {key}")
        if self.shape == "rect":
            check_rectangle(self.bounds)
        elif not (np.isfinite([*self.center, self.radius]).all() and self.radius > 0):
            raise ValueError("disk center must be finite and radius finite and positive")
        # the field's checks, on the region's one kappa and mu
        _check_coefficients(np.asarray(self.kappa, dtype=float)[None], np.atleast_1d(self.mu),
                            indexed=False)

    def contains(self, x, y):
        """Whether the points (x, y), scalars or arrays, lie in the region."""
        if self.shape == "rect":
            x0, y0, x1, y1 = self.bounds
            return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        cx, cy = self.center
        return np.hypot(x - cx, y - cy) <= self.radius


@dataclass(frozen=True)
class CoefficientField:
    """Piecewise-constant diffusion matrix and reaction scalar per element."""

    kappa: np.ndarray  # (n_elements, 2, 2)
    mu: np.ndarray  # (n_elements,)

    def __post_init__(self):
        _check_coefficients(self.kappa, self.mu)

    @classmethod
    def from_regions(cls, mesh: Mesh, kappa, mu, regions=()) -> "CoefficientField":
        """The background ``kappa`` (2x2 or one per element) and ``mu``
        (scalar or one per element), with each region's values at the
        elements whose centroid it contains; later regions win."""
        kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (mesh.n_elements, 2, 2)).copy()
        mu = np.broadcast_to(np.asarray(mu, dtype=float), (mesh.n_elements,)).copy()
        cx, cy = mesh.centroids.T
        for region in regions:
            inside = region.contains(cx, cy)
            kappa[inside] = region.kappa
            mu[inside] = region.mu
        return cls(kappa=kappa, mu=mu)


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
    free: np.ndarray  # boolean mask over all dofs
    order: np.ndarray  # the free dofs, in the order of matrix's rows
    matrix: sp.csr_matrix  # free x free, symmetric positive definite
    coupling: sp.csr_matrix  # free x boundary, lifts the boundary values
    class_matrices: np.ndarray  # (C, 18, 18), one per element class
    classes: np.ndarray  # (E,), each element's class
    lu: object = None  # SuperLU factorization of ``matrix``, set by solve.solve_spd
    norm_inf: float | None = None  # ||matrix||_inf, set by solve.solve_spd on a fallback

    def matches(self, mesh: Mesh, coeff: CoefficientField) -> bool:
        return (self.mesh is mesh and np.array_equal(self.kappa, coeff.kappa)
                and np.array_equal(self.mu, coeff.mu))


@dataclass
class AssembledSystem:
    """One problem's system: the operator and the problem's load."""

    operator: Operator
    rhs: np.ndarray  # b[order] - coupling @ boundary_values[~free]
    boundary_values: np.ndarray  # full-length, nonzero only on boundary dofs

    @property
    def matrix(self) -> sp.csr_matrix:
        return self.operator.matrix

    @property
    def free(self) -> np.ndarray:
        return self.operator.free

    def expand(self, x_free: np.ndarray) -> WeakFunction:
        """Recombine a free-dof solution with the boundary values."""
        coeffs = self.boundary_values.copy()
        coeffs[self.operator.order] = x_free
        return WeakFunction(coeffs=coeffs, n_elements=self.operator.mesh.n_elements)


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


#: The last operator assembled; see the module docstring.
_slot: Operator | None = None


def empty_slot() -> None:
    """Drop the slot's operator, and with it its factorization."""
    global _slot
    _slot = None


def _operator(mesh: Mesh, coeff: CoefficientField) -> Operator:
    """The operator of (mesh, coeff): the slot's if it matches, otherwise
    a new one, which takes the slot."""
    global _slot
    mesh.check_elements("coefficient field", len(coeff.kappa))
    if _slot is not None and _slot.matches(mesh, coeff):
        return _slot
    _slot = None  # free the old factorization before building the next
    size = weakops.dof_count(mesh)
    free = ~weakops.boundary_mask(mesh)
    order = weakops.solve_order(mesh)
    k = len(order)
    numbering = np.empty(size, dtype=np.intp)  # each dof's row in the global system
    numbering[order] = np.arange(k)
    numbering[~free] = np.arange(k, size)
    idx = numbering[weakops.local_dofs(mesh)]
    verts = mesh.element_vertices
    flipped = verts > np.roll(verts, -1, axis=1)  # p1 is local vertex k + 1
    first, classes = _element_classes(mesh, coeff, flipped)
    mats = local_system(mesh.element_points(first), mesh.element_signs[first], flipped[first],
                        coeff.kappa[first], coeff.mu[first])
    rows = np.repeat(idx[:, :, None], N_LOCAL, axis=2).ravel()
    cols = np.repeat(idx[:, None, :], N_LOCAL, axis=1).ravel()
    full = sp.coo_matrix((mats[classes].ravel(), (rows, cols)), shape=(size, size)).tocsr()
    del rows, cols  # 2 x 324 indices per element; free them before the slicing below
    matrix, coupling = full[:k, :k], full[:k, k:]
    del full
    op = Operator(mesh=mesh, kappa=coeff.kappa.copy(), mu=coeff.mu.copy(), free=free,
                  order=order, matrix=matrix, coupling=coupling, class_matrices=mats,
                  classes=classes)
    shared = (op.kappa, op.mu, free, order, mats, classes, matrix.data, matrix.indices,
              matrix.indptr, coupling.data, coupling.indices, coupling.indptr)
    for array in shared:
        array.flags.writeable = False
    _slot = op
    return op


def assemble(mesh: Mesh, spec: ProblemSpec) -> AssembledSystem:
    """The system of ``spec`` on ``mesh`` with boundary dofs eliminated
    symmetrically: the operator of (mesh, spec.coeff), from the slot when
    it matches, and the load of the problem's data."""
    op = _operator(mesh, spec.coeff)
    b = WeakFunction.zeros(mesh)
    b.interior[:] = local_load(mesh.element_points(), spec.f)
    if not np.isfinite(b.coeffs).all():
        raise AssemblyError("source projection produced non-finite values")

    values = WeakFunction.zeros(mesh)
    boundary = np.flatnonzero(mesh.boundary)
    segments = mesh.edge_points(boundary)
    values.edges[boundary, :2] = weakops.project_Qb(segments, spec.xi)
    values.edges[boundary, 2:] = weakops.project_Qg(segments, spec.nu)
    if not np.isfinite(values.coeffs).all():
        raise AssemblyError("boundary data projection produced non-finite values")

    rhs = b.coeffs[op.order] - op.coupling @ values.coeffs[~op.free]
    return AssembledSystem(operator=op, rhs=rhs, boundary_values=values.coeffs)


def triple_bar_norm(mesh: Mesh, coeff: CoefficientField, w) -> float:
    """Discrete energy norm: square root of the assembled quadratic form,
    summed class by class with the class matrices of the operator of
    (mesh, coeff).

    ``w`` is a WeakFunction or a full-length coefficient vector (boundary
    blocks included; they are zero for error functions).
    """
    coeffs = w.coeffs if isinstance(w, WeakFunction) else np.asarray(w, dtype=float)
    size = weakops.dof_count(mesh)
    if coeffs.shape != (size,):
        raise ValueError(f"expected coefficient vector of length {size}")
    local = coeffs[weakops.local_dofs(mesh)]
    op = _operator(mesh, coeff)
    total = 0.0
    for c, mat in enumerate(op.class_matrices):
        members = local[op.classes == c]
        total += float(np.sum((members @ mat) * members))
    return float(np.sqrt(max(total, 0.0)))
