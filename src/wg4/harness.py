"""Built-in problem catalog, convergence-study driver and field sampling.

Two manufactured cases with known exact solutions drive the convergence
studies; three forward-model scenarios mimic fluorescence-tomography
setups (localized boundary data over a strongly discontinuous diffusion
coefficient, and interior Gaussian light sources).  ``CATALOG`` holds one
entry per case under the entry's own name.  The catalog's input rules
live here, and the CLI's validator calls them: ``check_source`` holds
the source-point rules (only the Gaussian scenario takes a point, and
it must lie in the closed domain), ``CaseCatalogEntry.check_n`` a case's
n-multiple rule, and ``check_grid`` the sampling grid's rule.

``ForwardModel`` serves tomography, where one medium meets many sources.
Its constructor lays the medium once: the case's mesh at n, and the
ProblemSpec of ``CaseCatalogEntry.problem`` with the caller's regions,
which builds and checks the coefficient field.  The model keeps the
operator of ``wg4.assembly`` with its factorization and load
quadrature, and the lattice of the last grid it sampled.  A source
point only swaps the spec's ``f``, so each later source costs its load,
triangular solves and sampling.
``solve_case`` solves on a model of its own and drops it, so a one-shot
solve, and each level of ``run_convergence``, keeps nothing.
``sample_field`` evaluates the P2 basis of ``wg4.poly`` in the element
that ``mesh.locate_point`` finds for each lattice point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import errors as err_mod
from . import assembly, poly, solve as solve_mod, weakops
from .assembly import CoefficientField, ProblemSpec, Region
from .errors import ErrorReport, check_doubling, convergence_orders
from .mesh import Mesh, build_structured_mesh, locate_point
from .solve import SolveReport, SolverConfig
from .weakops import WeakFunction

__all__ = [
    "CaseCatalogEntry",
    "ForwardModel",
    "CATALOG",
    "case_poly_bump",
    "case_sine",
    "case_ft_boundary_patch",
    "case_ft_gaussian",
    "run_convergence",
    "solve_case",
    "sample_field",
    "check_grid",
    "check_source",
    "ConvergenceResult",
]

#: Shared coefficients of the manufactured cases and the Gaussian-source
#: scenario: isotropic diffusion 1/(3 * 1.01) and absorption 0.01.
DIFFUSION = 1.0 / (3.0 * 1.01)
ABSORPTION = 0.01

UNIT_SQUARE = (0.0, 0.0, 1.0, 1.0)
FT_DOMAIN = (0.0, 0.0, 50.0, 50.0)
GAUSSIAN_EPSILON = 100.0 / 64.0
GAUSSIAN_AMPLITUDE = math.sqrt(2.0 * math.pi * GAUSSIAN_EPSILON)
DEFAULT_SOURCE = (13.3065, 0.0730994)
SECOND_SOURCE = (49.8272, 13.5234)


def _zero(x, y):
    """The zero field, on points of any shape."""
    return np.zeros(np.broadcast(x, y).shape)


@dataclass(frozen=True)
class CaseCatalogEntry:
    """One runnable scenario: coefficients, data fields and metadata.

    ``problem(mesh, regions)`` checks the mesh and returns
    ``builder(mesh, regions)``, the concrete ProblemSpec, whose one
    coefficient field lays the given regions over the case's own
    coefficients, each of which must hold an element centroid.  It
    needs the mesh because every scenario samples its coefficients at the
    element centroids, and the boundary patches resolve their data per
    edge from the subdivision count.
    """

    name: str
    description: str
    domain: tuple[float, float, float, float]
    builder: Callable[[Mesh, Sequence[Region]], ProblemSpec]
    has_exact: bool = False
    n_multiple: int = 1

    def check_n(self, n: int) -> None:
        """Raise ValueError unless the subdivision count n is a multiple of ``n_multiple``."""
        if n % self.n_multiple:
            raise ValueError(f"case {self.name!r} needs n divisible by {self.n_multiple}, got {n}")

    def problem(self, mesh: Mesh, regions: Sequence[Region] = ()) -> ProblemSpec:
        if mesh.domain != self.domain:
            raise ValueError(
                f"case {self.name!r} is defined on {self.domain}, got mesh on {mesh.domain}"
            )
        self.check_n(mesh.n)
        return self.builder(mesh, regions)

    def make_mesh(self, n: int) -> Mesh:
        """The case's mesh at n."""
        return build_structured_mesh(self.domain, n)


def case_poly_bump() -> CaseCatalogEntry:
    """Polynomial bump x^2 (1-x)^2 y^2 (1-y)^2 with homogeneous data.

    Both the solution and its gradient vanish identically on the boundary
    of the unit square, so xi = nu = 0.  The source is the closed-form
    expansion of (-c Lap + mu)^2 u for isotropic diffusion c.
    """
    c, mu = DIFFUSION, ABSORPTION

    def g(s):
        return s * s * (1.0 - s) ** 2

    def dg(s):
        return 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s)

    def d2g(s):
        return 2.0 - 12.0 * s + 12.0 * s * s

    def u(x, y):
        return g(x) * g(y)

    def grad_u(x, y):
        return dg(x) * g(y), g(x) * dg(y)

    def f(x, y):
        lap = d2g(x) * g(y) + g(x) * d2g(y)
        bilap = 24.0 * g(y) + 2.0 * d2g(x) * d2g(y) + 24.0 * g(x)
        return c * c * bilap - 2.0 * c * mu * lap + mu * mu * u(x, y)

    def build(mesh: Mesh, regions: Sequence[Region]) -> ProblemSpec:
        return ProblemSpec(f=f, xi=_zero, nu=_zero, exact_u=u, exact_grad=grad_u,
                           coeff=CoefficientField.from_regions(mesh, c * np.eye(2), mu, regions))

    return CaseCatalogEntry(
        name="poly-bump",
        description="polynomial bump, homogeneous Dirichlet and Neumann data",
        domain=UNIT_SQUARE,
        has_exact=True,
        builder=build,
    )


def case_sine() -> CaseCatalogEntry:
    """sin(pi x) sin(pi y): nonhomogeneous Neumann data on the unit square.

    The Laplacian is -2 pi^2 u, so the source is a constant multiple of u.
    The Dirichlet trace vanishes on the boundary but is imposed through
    its projection regardless; the conormal flux does not vanish.
    """
    c, mu = DIFFUSION, ABSORPTION
    factor = 4.0 * math.pi**4 * c * c + 4.0 * math.pi**2 * c * mu + mu * mu

    def u(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad_u(x, y):
        return (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )

    def f(x, y):
        return factor * u(x, y)

    def nu(x, y):
        # c grad(u) . n: the outward normal is (+-1, 0) on the sides x = 0, 1
        # and (0, +-1) on y = 0, 1, where boundary quadrature points lie
        gx, gy = grad_u(x, y)
        return c * np.where((x == 0) | (x == 1), gx * np.sign(x - 0.5), gy * np.sign(y - 0.5))

    def build(mesh: Mesh, regions: Sequence[Region]) -> ProblemSpec:
        return ProblemSpec(f=f, xi=u, nu=nu, exact_u=u, exact_grad=grad_u,
                           coeff=CoefficientField.from_regions(mesh, c * np.eye(2), mu, regions))

    return CaseCatalogEntry(
        name="sine",
        description="sine product, nonhomogeneous boundary data",
        domain=UNIT_SQUARE,
        has_exact=True,
        builder=build,
    )


def case_ft_boundary_patch(variant: str) -> CaseCatalogEntry:
    """Localized boundary excitation over a high-contrast inclusion.

    Diffusion is the identity inside the sub-square (1/4, 3/8)^2 and
    1e-5 times the identity elsewhere; absorption and source are zero.
    The Dirichlet data is supported on the middle edge(s) of each of the
    four boundary sides -- value 1 for the ``indicator`` variant, value
    1/|e| (an approximate point excitation) for the ``dirac`` variant --
    and the Neumann data is its negative.  With an even subdivision count
    the two edges adjacent to each side midpoint carry the value.

    Requires n divisible by 8 so the inclusion boundary lies on mesh
    lines and the coefficient stays exactly piecewise constant.
    """
    if variant not in ("indicator", "dirac"):
        raise ValueError(f"unknown boundary-patch variant {variant!r}")

    def build(mesh: Mesh, regions: Sequence[Region]) -> ProblemSpec:
        n = mesh.n
        value = 1.0 if variant == "indicator" else float(n)  # 1/|e| with |e| = 1/n

        def xi(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            tol = 1e-12
            on_x_side = (np.abs(x) <= tol) | (np.abs(x - 1.0) <= tol)
            on_y_side = (np.abs(y) <= tol) | (np.abs(y - 1.0) <= tol)
            t = np.where(on_y_side, x, y)
            middle = np.abs(t - 0.5) < 1.0 / n
            return np.where((on_x_side | on_y_side) & middle, value, 0.0)

        def nu(x, y):
            return -xi(x, y)

        inclusion = Region(
            shape="rect",
            bounds=(0.25, 0.25, 0.375, 0.375),
            kappa=np.eye(2),
            mu=0.0,
        )
        # the inclusion is part of the background, so regions[i] is the caller's
        inside = inclusion.contains(*mesh.centroids.T)
        kappa = np.where(inside[:, None, None], inclusion.kappa, 1e-5 * np.eye(2))
        coeff = CoefficientField.from_regions(mesh, kappa, 0.0, regions)
        return ProblemSpec(f=_zero, xi=xi, nu=nu, coeff=coeff)

    return CaseCatalogEntry(
        name=f"boundary-{variant}",
        description=f"boundary patch excitation ({variant}), discontinuous diffusion",
        domain=UNIT_SQUARE,
        builder=build,
        n_multiple=8,
    )


def _gaussian(x0: float, y0: float, x, y):
    """The source about (x0, y0), sqrt(2 pi eps) exp(-r^2 / (2 eps)), at (x, y)."""
    return GAUSSIAN_AMPLITUDE * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2.0 * GAUSSIAN_EPSILON))


def case_ft_gaussian() -> CaseCatalogEntry:
    """Interior Gaussian light source on the 50 x 50 domain.

    The source is ``_gaussian`` about DEFAULT_SOURCE, near the boundary;
    ``ForwardModel.solve`` moves it to any point that ``check_source``
    allows.  The medium is uniform, with the manufactured cases'
    diffusion and absorption; a model's regions lay inclusions over it,
    for example at the disks of radius 4 about (25, 15) and of radius 3
    about (35, 20).  Boundary data is not part of the scenario definition
    and is taken homogeneous (xi = nu = 0).
    """
    def build(mesh: Mesh, regions: Sequence[Region]) -> ProblemSpec:
        coeff = CoefficientField.from_regions(mesh, DIFFUSION * np.eye(2), ABSORPTION, regions)
        return ProblemSpec(f=partial(_gaussian, *DEFAULT_SOURCE), xi=_zero, nu=_zero, coeff=coeff)

    return CaseCatalogEntry(
        name="gaussian-source",
        description="Gaussian source at (%g, %g) on the 50 x 50 domain" % DEFAULT_SOURCE,
        domain=FT_DOMAIN,
        builder=build,
    )


_GAUSSIAN = case_ft_gaussian()

#: Catalog of named scenarios, each under its own name; the CLI derives its choices from this.
CATALOG: dict[str, CaseCatalogEntry] = {entry.name: entry for entry in (
    case_poly_bump(), case_sine(), case_ft_boundary_patch("indicator"),
    case_ft_boundary_patch("dirac"), _GAUSSIAN)}

#: The forward-model scenarios of the ft-demo command: the cases without an exact solution.
FT_SCENARIOS = tuple(name for name, entry in CATALOG.items() if not entry.has_exact)


def catalog_entry(name: str) -> CaseCatalogEntry:
    """The catalog case ``name``."""
    if name not in CATALOG:
        raise KeyError(f"unknown case {name!r}; available: {', '.join(sorted(CATALOG))}")
    return CATALOG[name]


def check_source(case: str, point) -> tuple[float, float]:
    """``point`` as two floats; raise ValueError unless ``case`` is the
    Gaussian scenario, the only one that takes a source point, and the
    point is two numbers in its closed domain."""
    if case != _GAUSSIAN.name:
        raise ValueError(f"only the {_GAUSSIAN.name} scenario takes a source point")
    if not (isinstance(point, (tuple, list, np.ndarray)) and len(point) == 2 and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in point)):
        raise ValueError(f"source point must be two numbers, got {point!r}")
    x0, y0, x1, y1 = _GAUSSIAN.domain
    x, y = point
    if not (x0 <= x <= x1 and y0 <= y <= y1):
        raise ValueError(f"source point ({x:g}, {y:g}) lies outside the domain "
                         f"{_GAUSSIAN.domain}")
    return float(x), float(y)


class ForwardModel:
    """One case's medium, solved for each source on one operator (see
    the module docstring).  It builds the case's mesh at n and its
    ProblemSpec with ``regions`` laid over the coefficients, once.
    ``solve(source, config)`` returns (spec, solution, report) for the
    case's own source, or for ``source``, a point that ``check_source``
    allows, swapped into the spec; the first solve builds and factors
    the operator, and a failed factorization is tried again by the next.
    ``sample(u_h, grid)`` is ``sample_field`` on the lattice kept while
    the grid stays."""

    def __init__(self, entry: CaseCatalogEntry, n: int, regions: Sequence[Region] = ()):
        self.case = entry.name
        self.mesh = entry.make_mesh(n)
        self.spec = entry.problem(self.mesh, regions)
        self.operator: assembly.Operator | None = None
        self.lattice: tuple | None = None  # (grid, points, elements, basis)

    def solve(self, source: tuple[float, float] | None = None, config: SolverConfig = SolverConfig()
              ) -> tuple[ProblemSpec, WeakFunction, SolveReport]:
        spec = self.spec if source is None else replace(
            self.spec, f=partial(_gaussian, *check_source(self.case, source)))
        system = assembly.assemble(self.mesh, spec, self.operator)
        self.operator = system.operator
        # an error table's last digits need one refinement step; see wg4.solve
        x_free, report = solve_mod.solve_spd(system, config, min_steps=int(spec.has_exact))
        return spec, system.expand(x_free), report

    def sample(self, u_h: WeakFunction, grid: int) -> tuple[np.ndarray, np.ndarray]:
        if self.lattice is None or self.lattice[0] != grid:
            self.lattice = (grid, *_lattice(self.mesh, check_grid(grid)))
        return sample_field(self.mesh, u_h, grid, self.lattice[1:])


def solve_case(
    entry: CaseCatalogEntry,
    n: int,
    config: SolverConfig = SolverConfig(),
    regions: Sequence[Region] = (),
) -> tuple[Mesh, ProblemSpec, WeakFunction, SolveReport]:
    """Build, assemble and solve one scenario at subdivision count n on a
    ``ForwardModel`` of its own, which it drops.

    ``regions`` are laid over the case's own coefficient regions (the
    inclusion hook of the Gaussian scenario).
    """
    model = ForwardModel(entry, n, regions)
    return (model.mesh, *model.solve(config=config))


@dataclass
class ConvergenceResult:
    case: str
    reports: list[ErrorReport]
    orders: dict[str, list[float]]


def run_convergence(
    entry: CaseCatalogEntry,
    levels: Sequence[int],
    config: SolverConfig = SolverConfig(),
) -> ConvergenceResult:
    """Solve a case over halving mesh sizes, each with ``solve_case``, and
    tabulate errors and orders."""
    if not entry.has_exact:
        raise ValueError(f"case {entry.name!r} has no exact solution")
    check_doubling(levels)
    reports = []
    for n in levels:
        try:
            mesh, spec, u_h, _ = solve_case(entry, n, config)
        except solve_mod.SolverError as exc:
            raise solve_mod.SolverError(
                f"level n={n}: {exc}", exc.residual_history
            ) from exc
        reports.append(err_mod.error_report(mesh, spec, u_h))
    return ConvergenceResult(
        case=entry.name, reports=reports, orders=convergence_orders(reports)
    )


def check_grid(grid: int) -> int:
    """``grid`` as a Python int; raise ValueError unless it is an integer >= 2."""
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 2:
        raise ValueError(f"grid must be an integer >= 2, got {grid!r}")
    return int(grid)


def _lattice(mesh: Mesh, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid x grid lattice of ``mesh``: its points, the element of
    each point and the P2 basis there, all read-only."""
    x0, y0, x1, y1 = mesh.domain
    gx, gy = np.meshgrid(np.linspace(x0, x1, grid), np.linspace(y0, y1, grid))
    points = np.column_stack([gx.ravel(), gy.ravel()])
    elems = locate_point(mesh, points[:, 0], points[:, 1])
    corners = mesh.element_points(elems)
    local = np.einsum("pij,pj->pi", poly.inverse_jacobians(corners), points - corners[:, 0])
    basis = poly.reference_basis(weakops.INTERIOR_DEGREE, local)
    for array in (points, elems, basis):
        array.flags.writeable = False
    return points, elems, basis


def sample_field(mesh: Mesh, u_h: WeakFunction, grid: int,
                 lattice: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the interior component on a uniform grid x grid lattice.

    Returns (points, values) with points of shape (grid*grid, 2), ordered
    row-major from the bottom-left corner, and read-only.  ``lattice``,
    a model's kept (points, elements, basis) of the grid, saves making it.
    """
    grid = check_grid(grid)
    mesh.check_elements("solution", u_h.n_elements)
    points, elems, basis = lattice or _lattice(mesh, grid)
    values = np.einsum("pi,pi->p", basis, u_h.interior[elems])
    if not np.isfinite(values).all():
        raise ValueError("sampled field contains non-finite values")
    return points, values
