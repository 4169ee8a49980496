import math
import weakref

import numpy as np
import pytest

from util import element_block, fd_fourth_order_operator, uncached_sample, unit_square_mesh

from wg4 import assembly, harness, weakops
from wg4.assembly import CoefficientField, ProblemSpec, Region, assemble
from wg4.cli import _convergence_csv
from wg4.errors import error_report
from wg4.harness import (
    CATALOG,
    DEFAULT_SOURCE,
    ForwardModel,
    DIFFUSION,
    ABSORPTION,
    SECOND_SOURCE,
    UNIT_SQUARE,
    case_ft_boundary_patch,
    case_ft_gaussian,
    case_poly_bump,
    case_sine,
    catalog_entry,
    check_source,
    run_convergence,
    sample_field,
    solve_case,
)
from wg4.solve import SolverConfig
from wg4.weakops import WeakFunction


def test_poly_bump_point_values():
    entry = case_poly_bump()
    mesh = entry.make_mesh(2)
    spec = entry.problem(mesh)
    assert spec.exact_u(0.5, 0.5) == pytest.approx(0.00390625)
    # boundary data is identically zero
    for x, y in [(0.0, 0.3), (1.0, 0.7), (0.4, 0.0), (0.9, 1.0)]:
        assert spec.nu(x, y) == 0.0
        assert spec.xi(x, y) == 0.0


@pytest.mark.parametrize("case", [case_poly_bump, case_sine])
def test_manufactured_source_against_fd_oracle(case):
    entry = case()
    mesh = entry.make_mesh(2)
    spec = entry.problem(mesh)
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.2, 0.8, size=(20, 2))
    exact = np.array([spec.f(x, y) for x, y in pts])
    ref_scale = np.abs(exact).max()
    for (x, y), f_val in zip(pts, exact):
        fd = fd_fourth_order_operator(
            lambda xx, yy: float(spec.exact_u(xx, yy)), (DIFFUSION, DIFFUSION),
            ABSORPTION, x, y,
        )
        assert abs(fd - f_val) <= 1e-5 * max(abs(f_val), 1e-3 * ref_scale)


def test_quadratic_case_source_against_fd_oracle():
    from util import QUADRATIC_KAPPA_DIAG, QUADRATIC_MU, quadratic_problem

    mesh = unit_square_mesh(2)
    spec = quadratic_problem(mesh)
    rng = np.random.default_rng(3)
    for x, y in rng.uniform(0.2, 0.8, size=(10, 2)):
        fd = fd_fourth_order_operator(
            lambda xx, yy: float(spec.exact_u(xx, yy)), QUADRATIC_KAPPA_DIAG,
            QUADRATIC_MU, x, y,
        )
        assert abs(fd - spec.f(x, y)) <= 1e-6 * max(abs(spec.f(x, y)), 1.0)


def test_sine_case_closed_forms():
    entry = case_sine()
    mesh = entry.make_mesh(2)
    spec = entry.problem(mesh)
    c = DIFFUSION
    factor = 4 * math.pi**4 * c * c + 4 * math.pi**2 * c * ABSORPTION + ABSORPTION**2
    rng = np.random.default_rng(17)
    for x, y in rng.uniform(0.05, 0.95, size=(10, 2)):
        u = spec.exact_u(x, y)
        assert spec.f(x, y) == pytest.approx(factor * u, rel=1e-13)
    assert spec.exact_u(0.5, 0.5) == pytest.approx(1.0)
    # outward normal (0, -1) on the bottom side
    assert spec.nu(0.5, 0.0) == pytest.approx(-c * math.pi, rel=1e-13)


def test_boundary_patch_indicator_edges():
    entry = case_ft_boundary_patch("indicator")
    mesh = entry.make_mesh(8)
    spec = entry.problem(mesh)
    carrying = []
    for midpoint in mesh.edge_points(mesh.boundary).mean(axis=1):
        value = float(spec.xi(midpoint[0], midpoint[1]))
        if value != 0.0:
            carrying.append(midpoint)
            assert value == 1.0
            assert spec.nu(midpoint[0], midpoint[1]) == -1.0
    # two central edges per side for even n
    assert len(carrying) == 8
    for midpoint in carrying:
        x, y = midpoint
        t = x if abs(y) < 1e-12 or abs(y - 1) < 1e-12 else y
        assert abs(t - 0.5) < 1.0 / mesh.n


def test_boundary_patch_dirac_value():
    entry = case_ft_boundary_patch("dirac")
    mesh = entry.make_mesh(64)
    spec = entry.problem(mesh)
    # middle-edge value is the reciprocal edge length
    x_mid = 0.5 - 1.0 / 128.0
    assert spec.xi(x_mid, 0.0) == pytest.approx(64.0)
    assert spec.xi(0.25, 0.0) == 0.0
    assert spec.f(0.3, 0.4) == 0.0


def test_boundary_patch_requires_aligned_mesh():
    entry = case_ft_boundary_patch("indicator")
    mesh = entry.make_mesh(10)
    message = r"^case 'boundary-indicator' needs n divisible by 8, got 10$"
    with pytest.raises(ValueError, match=message):
        entry.problem(mesh)
    with pytest.raises(ValueError, match=message):
        ForwardModel(entry, 10)
    with pytest.raises(ValueError):
        case_ft_boundary_patch("spike")


def test_boundary_patch_coefficients():
    entry = case_ft_boundary_patch("indicator")
    mesh = entry.make_mesh(8)
    spec = entry.problem(mesh)
    assert np.all(spec.coeff.mu == 0.0)
    kinds = {1.0: 0, 1e-5: 0}
    for k in spec.coeff.kappa:
        kinds[float(k[0, 0])] += 1
        assert k[0, 1] == 0.0 and k[1, 0] == 0.0 and k[0, 0] == k[1, 1]
    assert kinds[1.0] == 2  # one sub-square inside the inclusion at n=8
    assert kinds[1e-5] == mesh.n_elements - 2


def test_gaussian_case_fields():
    entry = case_ft_gaussian()
    mesh = entry.make_mesh(8)
    spec = entry.problem(mesh)
    eps = harness.GAUSSIAN_EPSILON
    x0, y0 = harness.DEFAULT_SOURCE
    peak = math.sqrt(2 * math.pi * eps)
    assert spec.f(x0, y0) == pytest.approx(peak, rel=1e-13)
    assert spec.f(x0 + 15.0, y0) <= 1e-12 * peak
    assert np.allclose(spec.coeff.kappa, DIFFUSION * np.eye(2))
    assert np.all(spec.coeff.mu == ABSORPTION)
    assert spec.xi(0.0, 25.0) == 0.0 and spec.nu(0.0, 25.0) == 0.0


def test_gaussian_second_source():
    spec, _, _ = ForwardModel(case_ft_gaussian(), 8).solve(SECOND_SOURCE)
    assert spec.f(*SECOND_SOURCE) == pytest.approx(
        math.sqrt(2 * math.pi * harness.GAUSSIAN_EPSILON), rel=1e-13
    )


def test_catalog_entry_lookup():
    assert set(CATALOG) == {
        "poly-bump", "sine", "boundary-indicator", "boundary-dirac", "gaussian-source"
    }
    assert all(catalog_entry(name) is entry for name, entry in CATALOG.items())
    with pytest.raises(KeyError):
        catalog_entry("unknown")


def test_source_point_rules():
    for name in CATALOG.keys() - {"gaussian-source"}:
        with pytest.raises(ValueError, match="^only the gaussian-source scenario takes a source"):
            check_source(name, (1.0, 2.0))
    for point in ((1e308, 1e308), (-0.5, 10.0), (10.0, 50.5), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match=r"lies outside the domain \(0.0, 0.0, 50.0, 50.0\)$"):
            check_source("gaussian-source", point)
    for corner in ((0.0, 0.0), (50.0, 50.0)):  # the domain is closed
        assert check_source("gaussian-source", corner) == corner
    assert check_source("gaussian-source", np.array([10, 20])) == (10.0, 20.0)
    model = ForwardModel(case_ft_gaussian(), 4)
    assert model.solve((10.0, 10.0))[0].f(10.0, 10.0) == pytest.approx(
        math.sqrt(2 * math.pi * harness.GAUSSIAN_EPSILON)
    )
    with pytest.raises(ValueError, match="^only the gaussian-source scenario"):
        ForwardModel(case_sine(), 4).solve((0.5, 0.5))


@pytest.mark.parametrize("point", [
    (1.0,), (1.0, 2.0, 3.0), "12", 12.0, None, (1.0, "2"), (True, 1.0), ((1.0, 2.0), (3.0, 4.0)),
    (1.0, None)])
def test_source_point_must_be_two_numbers(point):
    # before, (1.0,) raised "not enough values to unpack (expected 2, got 1)"
    with pytest.raises(ValueError) as err:
        check_source("gaussian-source", point)
    assert str(err.value) == f"source point must be two numbers, got {point!r}"


def test_problem_rejects_wrong_domain():
    entry = case_sine()
    wrong = harness.build_structured_mesh((0.0, 0.0, 2.0, 1.0), 2)
    with pytest.raises(ValueError, match="defined on"):
        entry.problem(wrong)


def test_run_convergence_orders_near_reference():
    result = run_convergence(case_sine(), [4, 8])
    assert result.reports[0].l2_e0 == pytest.approx(0.6017, rel=0.02)
    assert result.reports[1].l2_e0 == pytest.approx(0.1549, rel=0.02)
    assert result.orders["l2_e0"][0] == pytest.approx(1.96, abs=0.05)
    csv = _convergence_csv(result)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,h,l2_e0,l2_order,tbar,tbar_order,eb,eb_order,eg,eg_order"
    assert len(lines) == 3
    first_row = lines[1].split(",")
    assert first_row[0] == "4" and first_row[3] == ""  # no order on the first row


def test_run_convergence_requires_exact_case():
    with pytest.raises(ValueError):
        run_convergence(case_ft_gaussian(), [8, 16])


def test_run_convergence_requires_levels():
    # an empty list used to give an empty table
    with pytest.raises(ValueError, match="^no levels given$"):
        run_convergence(case_sine(), [])


def test_run_convergence_checks_levels_before_solving(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "solve_case", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="levels must double: got n=4 followed by n=6"):
        run_convergence(case_sine(), [4, 6])
    assert calls == []


def test_catalog_exact_flags_match_their_specs():
    for name in CATALOG:
        entry = catalog_entry(name)
        spec = entry.problem(entry.make_mesh(8))
        assert entry.has_exact == spec.has_exact, name
    assert harness.FT_SCENARIOS == ("boundary-indicator", "boundary-dirac", "gaussian-source")


def test_exact_discrete_solution_reports_exact_orders():
    entry = case_sine()
    reports = []
    for n in (2, 4):
        mesh = entry.make_mesh(n)
        spec = entry.problem(mesh)
        projected = weakops.project_Qh(mesh, spec.exact_u, spec.exact_grad,
                                       spec.coeff.kappa)
        reports.append(error_report(assemble(mesh, spec).operator, spec, projected))
    from wg4.errors import convergence_orders
    from wg4.harness import ConvergenceResult

    result = ConvergenceResult(case="sine", reports=reports,
                               orders=convergence_orders(reports))
    assert all(r.l2_e0 == 0.0 for r in reports)
    assert "exact" in _convergence_csv(result)


def test_error_growing_from_zero_is_not_printed_exact():
    from wg4.errors import ErrorReport, convergence_orders
    from wg4.harness import ConvergenceResult

    reports = [ErrorReport(n=n, h=1.0 / n, l2_e0=l2, tbar=0.1 / n, eb_edge=0.2 / n,
                           eg_edge=err)
               for n, l2, err in ((8, 0.0, 1e-3), (16, 1e-3, 0.0))]
    result = ConvergenceResult(case="synthetic", reports=reports,
                               orders=convergence_orders(reports))
    row = _convergence_csv(result).strip().split("\n")[2].split(",")
    assert row[3] == "-inf"  # l2: 0 -> 1e-3
    assert row[5] == row[7] == "1.00000e+00"
    assert row[9] == "exact"  # eg: 1e-3 -> 0


def test_sample_field_constant_solution():
    mesh = unit_square_mesh(2)
    c = 1.75
    wf = WeakFunction.zeros(mesh)
    for i in range(mesh.n_elements):
        wf.coeffs[element_block(i)[0]] = c
    points, values = sample_field(mesh, wf, 5)
    assert points.shape == (25, 2)
    assert np.abs(values - c).max() <= 1e-14


def test_sample_field_rejects_tiny_grid():
    mesh = unit_square_mesh(1)
    wf = WeakFunction.zeros(mesh)
    with pytest.raises(ValueError):
        sample_field(mesh, wf, 1)
    for grid in (2.5, 2.0, "3", True):  # 2.5, 2.0 and "3" raised TypeErrors
        with pytest.raises(ValueError, match=r"^grid must be an integer >= 2, got "):
            sample_field(mesh, wf, grid)
    points, _ = sample_field(mesh, wf, np.int64(2))
    assert points.shape == (4, 2)


def test_sample_field_rejects_another_meshs_solution():
    # sampling an n=4 solution on an n=2 mesh used to return values silently
    u_h = WeakFunction.zeros(unit_square_mesh(4))
    with pytest.raises(ValueError, match="^solution has 32 elements, mesh has 8$"):
        sample_field(unit_square_mesh(2), u_h, 5)


def test_model_keeps_the_lattice_of_its_last_grid():
    # the same model and grid take the kept lattice; a changed grid or model never does
    entry = catalog_entry("sine")
    models = {n: ForwardModel(entry, n) for n in (4, 8)}
    fields = {n: model.solve()[1] for n, model in models.items()}
    last = last_points = None
    for n, grid in [(4, 5), (4, 5), (4, 6), (8, 6), (8, 6), (4, 6)]:
        points, values = models[n].sample(fields[n], grid)
        want_points, want_values = uncached_sample(models[n].mesh, fields[n], grid)
        assert np.array_equal(points, want_points)
        assert np.array_equal(values, want_values)
        assert (points is last_points) == ((n, grid) == last)
        last, last_points = (n, grid), points


def test_sampled_lattice_is_read_only():
    entry = catalog_entry("sine")
    model = ForwardModel(entry, 4)
    points, values = model.sample(model.solve()[1], 5)
    for array in model.lattice[1:]:
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        points[0, 0] = 0.5
    assert values.flags.writeable  # the values are the caller's own


def test_solve_case_region_override():
    # The inclusion hook: overriding a disk region changes the sampled
    # coefficients but keeps the problem well posed.
    from wg4.assembly import Region

    entry = catalog_entry("gaussian-source")
    region = Region(shape="disk", center=(25.0, 15.0), radius=4.0,
                    kappa=np.eye(2), mu=0.5)
    operator, spec, u_h, report = solve_case(entry, 8, SolverConfig(), regions=[region])
    assert report.residual <= 1e-10
    inside = [i for i, (cx, cy) in enumerate(operator.mesh.centroids)
              if (cx - 25) ** 2 + (cy - 15) ** 2 <= 16.0]
    assert inside
    for i in inside:
        assert spec.coeff.mu[i] == 0.5
        assert np.allclose(spec.coeff.kappa[i], np.eye(2))


def test_dirac_solution_symmetric_under_diagonal_reflection():
    # With a uniform coefficient the mesh, the boundary data and hence the
    # solution are invariant under (x, y) -> (y, x); the structured
    # diagonal direction x + y = const is preserved by this reflection.
    entry = case_ft_boundary_patch("dirac")
    mesh = entry.make_mesh(16)
    spec = entry.problem(mesh)
    uniform = ProblemSpec(
        f=spec.f, xi=spec.xi, nu=spec.nu,
        coeff=CoefficientField.from_regions(mesh, np.eye(2), 0.0),
    )
    from wg4.assembly import assemble
    from wg4.solve import solve_spd

    system = assemble(mesh, uniform)
    x, _ = solve_spd(system)
    u_h = system.expand(x)
    grid = 17
    _, values = sample_field(mesh, u_h, grid)
    field = values.reshape(grid, grid)
    scale = np.abs(field).max()
    assert np.abs(field - field.T).max() <= 1e-8 * scale


def test_overlapping_region_override_matches_from_regions():
    # Two overlapping regions, the later winning: solve_case's override and
    # CoefficientField.from_regions must give the same field.
    from wg4.assembly import Region

    regions = [
        Region(shape="disk", center=(25.0, 25.0), radius=12.0,
               kappa=np.diag([2.0, 1.0]), mu=0.5),
        Region(shape="rect", bounds=(20.0, 20.0, 40.0, 40.0),
               kappa=np.array([[1.0, 0.2], [0.2, 1.0]]), mu=0.1),
    ]
    operator, spec, _, _ = solve_case(catalog_entry("gaussian-source"), 8, regions=regions)
    mesh = operator.mesh
    expected = CoefficientField.from_regions(mesh, DIFFUSION * np.eye(2), ABSORPTION, regions)
    assert np.array_equal(spec.coeff.kappa, expected.kappa)
    assert np.array_equal(spec.coeff.mu, expected.mu)
    in_disk = regions[0].contains(*mesh.centroids.T)
    in_rect = regions[1].contains(*mesh.centroids.T)
    assert (in_disk & in_rect).any() and (in_disk & ~in_rect).any()
    assert np.all(spec.coeff.mu[in_rect] == 0.1)
    assert np.all(spec.coeff.mu[in_disk & ~in_rect] == 0.5)
    assert np.all(spec.coeff.mu[~in_disk & ~in_rect] == ABSORPTION)


def test_shared_arrays_are_read_only():
    # the mesh and the operator are shared by every later solve on them
    operator, spec, _, _ = solve_case(catalog_entry("sine"), 4)
    mesh = operator.mesh
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices[0, 0] = 0.5
    for name, array in vars(mesh).items():
        if isinstance(array, np.ndarray):
            assert not array.flags.writeable, name
    # the reduced matrix is no shared array: each request builds it afresh
    system = assemble(mesh, spec)
    first, second = system.matrix, system.operator.matrix
    assert "matrix" not in vars(system.operator) and first is not second
    assert (first != second).nnz == 0
    # every array a factored operator holds, its dissection and its factor's included;
    # the mesh is checked above, and the coefficient field is the spec's
    model = ForwardModel(case_ft_gaussian(), 8)
    for source in (DEFAULT_SOURCE, SECOND_SOURCE):
        model.solve(source)
    operator = model.operator
    held = {name: value for name, value in vars(operator).items()
            if name not in ("mesh", "coeff")}
    assert set(held) == {"element_rows", "class_matrices", "classes", "dissection",
                         "class_groups", "factor", "load_quadrature"}
    arrays = list(_arrays(held))
    assert len(arrays) > 10 and all(isinstance(a, np.ndarray) for a in arrays)
    for array in arrays:
        assert not array.flags.writeable


def _arrays(value):
    """Every ndarray in ``value``, through dicts, lists, tuples and the
    attributes of objects."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dict__"):
        yield from _arrays(vars(value))


def test_model_keeps_its_mesh_for_every_source():
    # the sources of one medium share a mesh; another n or domain builds a new one
    model = ForwardModel(case_ft_gaussian(), 8)
    mesh = model.mesh
    for source in (DEFAULT_SOURCE, SECOND_SOURCE):
        model.solve(source)
        assert model.mesh is mesh
    finer = ForwardModel(case_ft_gaussian(), 16).mesh
    assert finer is not mesh and finer.n == 16
    assert ForwardModel(case_sine(), 16).mesh.domain == UNIT_SQUARE
    assert case_sine().make_mesh(4) is not case_sine().make_mesh(4)  # no mesh is kept


def test_model_without_its_operator_keeps_the_mesh_and_the_lattice():
    entry = catalog_entry("gaussian-source")
    model = ForwardModel(entry, 8)
    mesh = model.mesh
    points, _ = model.sample(model.solve()[1], 9)
    model.operator = None
    _, u_again, _ = model.solve()
    assert model.mesh is mesh
    assert model.sample(u_again, 9)[0] is points


def _recording(monkeypatch, owner, name: str, calls: list) -> None:
    """Record each call of ``owner.name`` in ``calls``, and make it."""
    function = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs:
                        calls.append(name) or function(*args, **kwargs))


def test_model_solves_a_second_source_without_laying_assembling_or_factoring(monkeypatch):
    # the medium is laid once, when the model is built; a source point
    # swaps the spec's source and reuses the field, the operator and its factor
    model = ForwardModel(catalog_entry("gaussian-source"), 8)
    model.solve()
    factor, coeff = model.operator.factor, model.spec.coeff
    calls = []
    _recording(monkeypatch, assembly, "local_system", calls)
    _recording(monkeypatch, harness.CaseCatalogEntry, "problem", calls)
    _recording(monkeypatch, CoefficientField, "from_regions", calls)
    spec, warm, _ = model.solve(SECOND_SOURCE)
    assert calls == [] and model.operator.factor is factor and spec.coeff is coeff
    _, fresh, _ = ForwardModel(catalog_entry("gaussian-source"), 8).solve(SECOND_SOURCE)
    assert calls == ["problem", "from_regions", "local_system"]
    assert warm.coeffs.tobytes() == fresh.coeffs.tobytes()


@pytest.mark.parametrize("name", ["gaussian-source", "boundary-indicator"])
def test_regions_laid_in_the_cases_one_field(name, monkeypatch):
    # the caller's region covers the whole domain, so it wins over the case's own
    calls = []
    from_regions = CoefficientField.from_regions.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return from_regions(cls, *args, **kwargs)

    monkeypatch.setattr(CoefficientField, "from_regions", classmethod(counting))
    entry = catalog_entry(name)
    region = Region(shape="rect", bounds=entry.domain, kappa=2.0 * np.eye(2), mu=0.5)
    _, spec, _, report = solve_case(entry, 8, regions=[region])
    assert len(calls) == 1
    assert np.all(spec.coeff.kappa == 2.0 * np.eye(2)) and np.all(spec.coeff.mu == 0.5)
    assert report.residual <= 1e-10


def test_warm_load_equals_a_cold_one(monkeypatch):
    # from the second source on one operator, the load's quadrature points
    # are kept on it; every load is still the cold local_load's, bit for bit
    calls = []

    def recording(quadrature, f):
        calls.append((quadrature, weakops.local_load(quadrature, f)))
        return calls[-1][1]

    monkeypatch.setattr(assembly, "local_load", recording)
    sources = [DEFAULT_SOURCE, SECOND_SOURCE, (25.0, 25.0), (0.0, 50.0)]
    model = ForwardModel(case_ft_gaussian(), 8)
    solutions = [model.solve(source) for source in sources]
    op = model.operator
    assert op.load_quadrature is not None
    assert all(not array.flags.writeable for array in op.load_quadrature)
    kept = [quadrature is op.load_quadrature for quadrature, _ in calls]
    assert kept == [False, True, True, True]
    for (spec, u_h, _), (_, load) in zip(solutions, calls):
        cold = weakops.local_load(weakops.load_quadrature(model.mesh.element_points()), spec.f)
        assert load.tobytes() == cold.tobytes()
    # and a warm solve is the cold solve
    _, cold_u, _ = ForwardModel(case_ft_gaussian(), 8).solve(sources[-1])
    assert solutions[-1][1].coeffs.tobytes() == cold_u.coeffs.tobytes()


def test_cold_solves_keep_no_quadrature_points(monkeypatch):
    entry = catalog_entry("gaussian-source")
    model = ForwardModel(entry, 8)
    model.solve()
    assert model.operator.factor is not None and model.operator.load_quadrature is None
    # one operator per level, each assembled once and gone before the next level's
    operators = []
    assemble = assembly.assemble

    def recording(*args):
        assert all(ref() is None for ref in operators)
        system = assemble(*args)
        assert system.operator.load_quadrature is None
        operators.append(weakref.ref(system.operator))
        return system

    monkeypatch.setattr(assembly, "assemble", recording)
    run_convergence(case_sine(), [4, 8])
    assert len(operators) == 2 and all(ref() is None for ref in operators)


def test_zero_boundary_values_lift_by_nothing():
    # the gaussian scenario's boundary data is zero: its right-hand side is
    # the load in the solve order, as b - A 0 would give it
    entry = catalog_entry("gaussian-source")
    mesh = entry.make_mesh(8)
    spec = entry.problem(mesh)
    system = assemble(mesh, spec)
    op = system.operator
    b = np.zeros(weakops.dof_count(mesh))
    b[: 6 * mesh.n_elements] = weakops.local_load(
        weakops.load_quadrature(mesh.element_points()), spec.f).ravel()
    assert not system.boundary_values.any()
    lifted = b[op.dissection.order] - op.product(
        system.boundary_values[weakops.local_dofs(mesh)])
    assert system.rhs.tobytes() == lifted.tobytes()
