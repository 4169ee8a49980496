"""Global assembly of the stabilized weak Galerkin system.

Element matrices come from one call of ``wg4.weakops.local_system``, the
kernel of the bilinear form, on a batch of triangles.  The batch holds
one representative of each class of elements that share their local
geometry (centroid-relative vertices, each edge's p1 -> p2 orientation
and sigma sign) and their kappa and mu: on a structured mesh with uniform
coefficients there are five such classes, and with per-element
coefficients every element is its own class.  The operator is the one
source of the element matrices: the function that builds it holds the
class derivation, and the solve, the lift of the boundary values and the
energy norm ``triple_bar_norm`` all read the matrices it keeps.  Loads
(``local_load``) and boundary projections are batched over all elements
or edges.  Both kernels are called as attributes of this module, so a
wrapper set there sees every call.

Dirichlet and Neumann data enter as essential constraints: every vb/vg
block of a boundary edge is fixed to the projected boundary data and
eliminated symmetrically.

An assembled system has two parts.  The operator depends only on the
mesh and the coefficient field, and it is A in one form only, element by
element: the element matrix of each class, each element's class, and
each element's 18 rows in the solve numbering, which the nested
dissection of the mesh (``cholesky.dissect``) gives: the free dofs in
the dissection's order, and one spare row past them for every boundary
dof.  ``Operator.product`` forms the free rows of A v from each
element's 18 values of v, with one ``np.einsum`` per class size,
summed into the rows; it gives the refinement's residuals in
``solve.solve_spd`` and the lift of the boundary values here.  The
operator also keeps the dissection, which shapes the fronts of the
Cholesky factor that ``solve.solve_spd`` makes from the classes on first
use.  The load depends on the problem's data: the interior load vector,
the boundary Qb/Qg values and the reduced right-hand side, b minus the
product of the boundary values, lifted only if one of them is nonzero.
``assemble`` builds the operator, or takes one built for the same mesh
and coefficient field objects, as ``wg4.harness.ForwardModel`` does for
each source point: the model lays its coefficient field once, and each
source's spec shares it and differs only in ``f``; an operator of
another mesh or field raises ValueError.  An operator taken factored
also keeps the load's source-independent ``weakops.load_quadrature``
(0.8 MB at n=32), so each later load only evaluates its source, while a
one-shot solve keeps nothing extra through its factorization.  An
operator's arrays, its dissection's and its factor's included, are
shared by its systems and are read-only.  No global matrix is kept: the
reduced matrix in CSR, ``Operator.matrix``, is built only on request,
for the backward-error fallback's ||A||_inf and the benchmark's tracer
(ROADMAP item 11), and only that builds it with scipy.

A ``Region`` is checked when it is built: each of its numbers must have
its field's shape, and a ValueError names the field that does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cholesky, weakops
from .mesh import Mesh, check_rectangle
from .weakops import N_LOCAL, AssemblyError, WeakFunction, local_load, local_system

__all__ = [
    "Region",
    "RegionError",
    "CoefficientField",
    "ProblemSpec",
    "Operator",
    "AssembledSystem",
    "AssemblyError",
    "assemble",
    "triple_bar_norm",
]


#: Bounds of kappa's eigenvalues and of a positive mu, so that the squares
#: and products of coefficients that the element kernel forms stay finite
#: and nonzero in float64.  The range says nothing of the powers of h that
#: scale them, nor of how well the assembled system can be solved.
COEFFICIENT_RANGE = (1e-100, 1e100)


def _check_coefficients(kappa: np.ndarray, mu: np.ndarray, indexed: bool = True) -> None:
    """Every kappa (E, 2, 2) must be symmetric, by ``np.isclose`` of it
    and its transpose, with ``np.linalg.eigvalsh`` eigenvalues in
    COEFFICIENT_RANGE, and every mu (E,) 0 or in COEFFICIENT_RANGE; the
    message names the first element that is not, as ``kappa[i]`` or,
    unless ``indexed``, as ``kappa``.  A run of equal consecutive kappa
    is judged by its first element, so a piecewise-constant field costs
    one eigenvalue problem per run.
    """

    def name(what: str, i: int) -> str:
        return f"{what}[{i}]" if indexed else what

    if np.shape(kappa)[1:] != (2, 2) or np.shape(mu) != (len(kappa),):
        raise ValueError(f"kappa must have shape (E, 2, 2) and mu shape (E,); got "
                         f"{np.shape(kappa)} and {np.shape(mu)}")
    low, high = COEFFICIENT_RANGE
    starts = np.ones(len(kappa), dtype=bool)  # the first element of each run
    starts[1:] = (kappa[1:] != kappa[:-1]).any(axis=(1, 2))
    first = np.flatnonzero(starts)
    runs = kappa[first]
    finite = np.isfinite(runs).all(axis=(1, 2))
    symmetric = np.isclose(runs, runs.transpose(0, 2, 1), atol=1e-14).all(axis=(1, 2))
    ok = finite & symmetric
    # eigvalsh needs finite input: the identity stands in for a bad kappa
    smallest, largest = np.linalg.eigvalsh(np.where(ok[:, None, None], runs, np.eye(2))).T
    bad = np.flatnonzero(~(ok & (low <= smallest) & (largest <= high)))
    if len(bad):
        j = bad[0]
        extreme = smallest[j] if smallest[j] < low else largest[j]
        reason = ("not finite" if not finite[j] else "not symmetric" if not symmetric[j]
                  else "not positive definite" if not smallest[j] > 0
                  else f"eigenvalue {extreme:g} outside [{low:g}, {high:g}]")
        raise ValueError(f"{name('kappa', first[j])}: {reason}")
    bad = np.flatnonzero(~((mu == 0) | ((low <= mu) & (mu <= high))))
    if len(bad):
        value = mu[bad[0]]
        need = ("finite" if not np.isfinite(value) else "nonnegative" if value < 0
                else f"0 or in [{low:g}, {high:g}]")
        raise ValueError(f"{name('mu', bad[0])}: must be {need}, got {value}")


#: Each number field of a region: its shape, and what a message calls it.
_REGION_NUMBERS = {"kappa": ((2, 2), "a 2x2 matrix of numbers"), "mu": ((), "a number"),
                   "bounds": ((4,), "four numbers"), "center": ((2,), "two numbers"),
                   "radius": ((), "a number")}


def _region_floats(key: str, value):
    """A region's field ``key`` as a float, or as tuples of floats so
    that equal regions compare equal and hash alike; a ValueError names
    the field unless ``value`` holds numbers of the field's shape."""
    shape, what = _REGION_NUMBERS[key]
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = np.asarray(None)
    if array.shape != shape or array.dtype.kind not in "iuf":
        raise ValueError(f"{key}: expected {what}, got {value!r}")
    floats = array.astype(float)
    if floats.ndim == 2:
        return tuple(map(tuple, floats.tolist()))
    return tuple(floats.tolist()) if floats.ndim else float(floats)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle or disk carrying coefficient values."""

    shape: str  # "rect" | "disk"
    kappa: tuple[tuple[float, float], tuple[float, float]]  # SPD; any 2x2 array will do
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
        for key in ("kappa", "mu", *keys):
            object.__setattr__(self, key, _region_floats(key, getattr(self, key)))
        if self.shape == "rect":
            object.__setattr__(self, "bounds", check_rectangle(self.bounds))
        elif not (np.isfinite([*self.center, self.radius]).all() and self.radius > 0):
            raise ValueError("disk center must be finite and radius finite and positive")
        # the field's checks, on the region's one kappa and mu
        _check_coefficients(np.array(self.kappa)[None], np.array([self.mu]), indexed=False)

    def contains(self, x, y):
        """Whether the points (x, y), scalars or arrays, lie in the region."""
        if self.shape == "rect":
            x0, y0, x1, y1 = self.bounds
            return (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        cx, cy = self.center
        return np.hypot(x - cx, y - cy) <= self.radius


class RegionError(ValueError):
    """A region that holds no element centroid; ``index`` is its place in
    the caller's list."""

    def __init__(self, index: int):
        super().__init__(f"regions[{index}]: holds no element centroid")
        self.index = index


@dataclass(frozen=True)
class CoefficientField:
    """Piecewise-constant diffusion matrix and reaction scalar per element."""

    kappa: np.ndarray  # (n_elements, 2, 2)
    mu: np.ndarray  # (n_elements,)

    def __post_init__(self):
        for name in ("kappa", "mu"):  # float arrays; any nested sequence of numbers will do
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: expected an array of numbers; {exc}") from exc
        _check_coefficients(self.kappa, self.mu)

    @classmethod
    def from_regions(cls, mesh: Mesh, kappa, mu, regions=()) -> "CoefficientField":
        """The background ``kappa`` (2x2 or one per element) and ``mu``
        (scalar or one per element), with each region's values at the
        elements whose centroid it contains; later regions win.  A region
        that contains no centroid raises RegionError."""
        kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (mesh.n_elements, 2, 2)).copy()
        mu = np.broadcast_to(np.asarray(mu, dtype=float), (mesh.n_elements,)).copy()
        cx, cy = mesh.centroids.T
        for i, region in enumerate(regions):
            inside = region.contains(cx, cy)
            if not inside.any():
                raise RegionError(i)
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
    coeff: CoefficientField  # the field it was built for, as ``assemble`` checks
    # (E, 18) the solve row of each element's dofs; len(dissection.order), the
    # spare row, for a boundary dof
    element_rows: np.ndarray
    class_matrices: np.ndarray  # (C, 18, 18) element matrix of each class
    classes: np.ndarray  # (E,) each element's class
    dissection: cholesky.Dissection  # the mesh's: orders the free dofs, shapes the factor
    # (its classes (k,), their elements (k, m)) of each class size m
    class_groups: list
    factor: object = None  # cholesky.Factor of the classes on dissection, set by solve.solve_spd
    load_quadrature: tuple | None = None  # weakops.load_quadrature, kept once factored

    def product(self, values: np.ndarray) -> np.ndarray:
        """The free rows of A v, in the solve order, from v's values at
        each element's 18 dofs (E, 18): A_e v_e by one ``np.einsum`` per
        class size, summed into the rows by ``np.bincount``.  A solve's
        residual at its float64 floor is mostly rounding, and einsum's
        sums of 18 products round 0.5-0.6 times as much as a CSR mat-vec
        or a BLAS product (sine, n=64), so the refinement step that
        corrects x by the residual lands closer."""
        terms = _apply(self.class_matrices, self.class_groups, values)
        size = len(self.dissection.order)
        return np.bincount(self.element_rows.ravel(), terms.ravel(), minlength=size + 1)[:size]

    @property
    def matrix(self):
        """The reduced matrix as a coalesced ``scipy.sparse`` CSR matrix,
        built on each call and kept nowhere.  Only the backward-error
        fallback's ||A||_inf and the benchmark's tracer read it, until
        ROADMAP item 11 moves the tracer onto a run record."""
        import scipy.sparse as sp

        size = len(self.dissection.order)
        rows = np.repeat(self.element_rows[:, :, None], N_LOCAL, axis=2)
        cols = rows.transpose(0, 2, 1)
        free = (rows < size) & (cols < size)
        return sp.csr_matrix((self.class_matrices[self.classes][free], (rows[free], cols[free])),
                             shape=(size, size))


@dataclass
class AssembledSystem:
    """One problem's system: the operator and the problem's load."""

    operator: Operator
    rhs: np.ndarray  # b - A boundary_values, in the solve order
    boundary_values: np.ndarray  # full-length, nonzero only on boundary dofs

    @property
    def matrix(self):
        """The operator's reduced matrix, built on each call (ROADMAP item 11)."""
        return self.operator.matrix

    def expand(self, x_free: np.ndarray) -> WeakFunction:
        """Recombine a free-dof solution with the boundary values."""
        coeffs = self.boundary_values.copy()
        coeffs[self.operator.dissection.order] = x_free
        return WeakFunction(coeffs=coeffs, n_elements=self.operator.mesh.n_elements)


def _apply(mats: np.ndarray, groups: list, values: np.ndarray) -> np.ndarray:
    """Each element's A_e v_e (E, 18) from its values v_e (E, 18), by one
    ``np.einsum`` per class size of an operator's ``class_groups``."""
    terms = np.empty_like(values)
    for same, members in groups:
        terms[members] = np.einsum("cij,cmj->cmi", mats[same], values[members])
    return terms


def _operator(mesh: Mesh, coeff: CoefficientField) -> Operator:
    """The operator of (mesh, coeff), not yet factored, and the one place
    where element matrices are derived.  Its class matrices (C, 18, 18)
    are those of one element per class of elements that share their
    coefficients and geometry (centroid-relative vertices, rounded at
    1e-12 of the domain's size, and each local edge's p1 -> p2
    orientation and sigma sign), from one ``local_system`` call; the
    representative is the class's first element.  Its class groups are
    (its classes (k,), their elements (k, m)) of each class size m, so
    that a medium of one class per element takes one einsum, not one per
    element."""
    mesh.check_elements("coefficient field", len(coeff.kappa))
    verts = mesh.element_vertices
    flipped = verts > np.roll(verts, -1, axis=1)  # p1 is local vertex k + 1
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
    classes = classes.reshape(-1)
    mats = local_system(mesh.element_points(first), mesh.element_signs[first], flipped[first],
                        coeff.kappa[first], coeff.mu[first])
    sizes, by_class = np.bincount(classes), np.argsort(classes, kind="stable")
    starts = np.cumsum(sizes) - sizes  # each class's first place in by_class
    groups = [(np.flatnonzero(sizes == size),
               by_class[starts[sizes == size][:, None] + np.arange(size)])
              for size in np.unique(sizes)]
    dissection = cholesky.dissect(mesh)
    element_rows = dissection.rows[weakops.local_dofs(mesh)]
    for array in (element_rows, mats, classes, *(a for group in groups for a in group)):
        array.flags.writeable = False
    return Operator(mesh=mesh, coeff=coeff, element_rows=element_rows, class_matrices=mats,
                    classes=classes, dissection=dissection, class_groups=groups)


def assemble(mesh: Mesh, spec: ProblemSpec, operator: Operator | None = None) -> AssembledSystem:
    """The system of ``spec`` on ``mesh`` with boundary dofs eliminated
    symmetrically: the operator of (mesh, spec.coeff), built afresh
    unless an earlier system's ``operator`` of the two is given, and the
    load of the problem's data.  An ``operator`` of another mesh or
    coefficient field raises ValueError."""
    if operator is not None and not (operator.mesh is mesh and operator.coeff is spec.coeff):
        raise ValueError("operator: built for another mesh or coefficient field than "
                         "mesh and spec.coeff")
    op = _operator(mesh, spec.coeff) if operator is None else operator
    quadrature = op.load_quadrature
    if quadrature is None:
        quadrature = weakops.load_quadrature(mesh.element_points())
        if op.factor is not None:  # the operator is being reused: keep the points for the next load
            for array in quadrature:
                array.flags.writeable = False
            op.load_quadrature = quadrature
    b = WeakFunction.zeros(mesh)
    b.interior[:] = local_load(quadrature, spec.f)
    if not np.isfinite(b.coeffs).all():
        raise AssemblyError("source projection produced non-finite values")

    values = WeakFunction.zeros(mesh)
    boundary = np.flatnonzero(mesh.boundary)
    segments = mesh.edge_points(boundary)
    values.edges[boundary, :2] = weakops.project_Qb(segments, spec.xi)
    values.edges[boundary, 2:] = weakops.project_Qg(segments, spec.nu)
    if not np.isfinite(values.coeffs).all():
        raise AssemblyError("boundary data projection produced non-finite values")

    rhs = b.coeffs[op.dissection.order]
    if values.coeffs.any():  # zero boundary values lift by zero, and b - 0.0 is b
        rhs -= op.product(values.coeffs[weakops.local_dofs(mesh)])
    return AssembledSystem(operator=op, rhs=rhs, boundary_values=values.coeffs)


def triple_bar_norm(w: WeakFunction, operator: Operator) -> float:
    """Discrete energy norm of ``w``, a WeakFunction of the operator's
    mesh (boundary blocks included; they are zero for error functions):
    square root of the sum of v_e . A_e v_e over the elements, with the
    operator's element matrices applied as ``Operator.product`` applies
    them.  Any other ``w`` raises a ValueError that names it."""
    size = weakops.dof_count(operator.mesh)
    if not (isinstance(w, WeakFunction) and np.shape(w.coeffs) == (size,)):
        got = f"{type(w).__name__} of shape {np.shape(getattr(w, 'coeffs', w))}"
        raise ValueError(f"w: expected a WeakFunction of the operator's mesh, of shape "
                         f"({size},); got a {got}")
    local = w.coeffs[weakops.local_dofs(operator.mesh)]
    total = float(np.sum(_apply(operator.class_matrices, operator.class_groups, local) * local))
    return float(np.sqrt(max(total, 0.0)))
