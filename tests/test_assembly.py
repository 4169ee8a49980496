import re

import numpy as np
import pytest

from util import (
    Element,
    LocalWeakFunction,
    eigvalsh_check_coefficients,
    element_mass_matrix,
    element_values,
    full_matrix,
    quadratic_problem,
    random_triangle,
    sliced_blocks,
    unit_square_mesh,
)

from wg4 import assembly, weakops
from wg4.assembly import (
    AssemblyError,
    CoefficientField,
    ProblemSpec,
    Region,
    RegionError,
    assemble,
    triple_bar_norm,
)
from wg4.errors import error_report
from wg4.harness import SECOND_SOURCE, ForwardModel, case_sine, catalog_entry
from wg4.solve import solve_spd


def lifted_constant(c: float) -> np.ndarray:
    # v0 = c, vb = c on every edge, vg = 0: the discrete lift of a global
    # constant (the leading basis function is identically one).
    local = LocalWeakFunction.zeros()
    local.c0[0] = c
    local.cb[:, 0] = c
    return local.to_vector()


@pytest.fixture
def geom():
    return Element.standalone(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_constants_in_kernel_without_reaction(geom):
    mat = geom.system(np.eye(2), mu=0.0)
    vec = lifted_constant(3.7)
    assert np.abs(mat @ vec).max() <= 1e-12 * np.abs(mat).max()


def test_constant_energy_is_reaction_mass(geom):
    mat = geom.system(np.eye(2), mu=1.0)
    c = 2.5
    vec = lifted_constant(c)
    # Only the mu^2 (v0, v0) term survives on constants.
    assert float(vec @ mat @ vec) == pytest.approx(c * c * geom.tri.area, rel=1e-12)


def test_reaction_terms_scale_as_documented(geom):
    kappa = np.array([[2.0, 0.3], [0.3, 1.0]])
    a0 = geom.system(kappa, mu=0.0)
    a1 = geom.system(kappa, mu=1.0)
    g = geom.gw()
    kmass = np.kron(kappa, element_mass_matrix(geom.tri, 1))
    mass0 = element_mass_matrix(geom.tri, 2)
    diff = a1 - a0 - 2.0 * g.T @ kmass @ g
    expected = np.zeros_like(diff)
    expected[:6, :6] = mass0
    assert np.abs(diff - expected).max() <= 1e-12 * np.abs(a1).max()


def test_local_system_symmetric_psd():
    rng = np.random.default_rng(23)
    for _ in range(5):
        geom = Element.standalone(random_triangle(rng))
        mat = geom.system(np.diag([3.0, 0.5]), mu=0.4)
        assert np.array_equal(mat, mat.T)
        vec = rng.normal(size=18)
        assert float(vec @ mat @ vec) >= -1e-12 * np.abs(mat).max()


def test_local_load_constant_source(geom):
    load = weakops.local_load(weakops.load_quadrature(geom.points), lambda x, y: np.ones_like(x))[0]
    # Leading basis function is identically 1, so its load is |T|.
    assert load[0] == pytest.approx(geom.tri.area, rel=1e-13)


def test_coefficient_field_validation():
    mesh = unit_square_mesh(1)
    with pytest.raises(ValueError):
        CoefficientField.from_regions(mesh, np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0)  # indefinite
    with pytest.raises(ValueError):
        CoefficientField.from_regions(mesh, np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0)  # asymmetric
    with pytest.raises(ValueError):
        CoefficientField.from_regions(mesh, np.eye(2), -0.1)


def test_region_sampling_at_centroids():
    mesh = unit_square_mesh(8)
    inclusion = Region(shape="rect", bounds=(0.25, 0.25, 0.375, 0.375),
                       kappa=np.eye(2), mu=0.0)
    field = CoefficientField.from_regions(mesh, 1e-5 * np.eye(2), 0.0, [inclusion])
    inside = [i for i in range(mesh.n_elements)
              if np.allclose(field.kappa[i], np.eye(2))]
    # The inclusion covers exactly one sub-square at n=8: two triangles.
    assert len(inside) == 2
    for i in inside:
        cx, cy = mesh.centroids[i]
        assert 0.25 <= cx <= 0.375 and 0.25 <= cy <= 0.375


def test_region_without_a_centroid_named_by_the_callers_index():
    mesh = unit_square_mesh(4)
    whole = Region(shape="rect", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=0.0)
    # a disk between the centroids of the elements it overlaps
    between = Region(shape="disk", center=(0.125, 0.125), radius=0.01, kappa=np.eye(2), mu=0.0)
    with pytest.raises(RegionError, match=r"^regions\[1\]: holds no element centroid$") as exc:
        CoefficientField.from_regions(mesh, np.eye(2), 0.0, [whole, between])
    assert exc.value.index == 1
    # the boundary patch's own inclusion does not shift the caller's indices
    entry = catalog_entry("boundary-indicator")
    with pytest.raises(RegionError, match=r"^regions\[0\]"):
        entry.problem(entry.make_mesh(8), [between])


def test_region_validation():
    with pytest.raises(ValueError):
        Region(shape="rect", bounds=None, kappa=np.eye(2), mu=0.0)
    with pytest.raises(ValueError):
        Region(shape="disk", center=(0.0, 0.0), radius=1.0,
               kappa=np.array([[1.0, 2.0], [2.0, 1.0]]), mu=0.0)
    with pytest.raises(ValueError):
        Region(shape="blob", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=0.0)


def test_equal_regions_compare_equal_and_hash_alike():
    # kappa was an ndarray: == raised ValueError and hash() TypeError
    disk = Region(shape="disk", center=(25, 15), radius=4.0, kappa=np.eye(2), mu=0.5)
    same = Region(shape="disk", center=[25.0, 15.0], radius=4.0,
                  kappa=[[1.0, 0.0], [0.0, 1.0]], mu=np.float64(0.5))
    assert disk == same and hash(disk) == hash(same)
    assert disk.kappa == ((1.0, 0.0), (0.0, 1.0)) and disk.center == (25.0, 15.0)
    rect = Region(shape="rect", bounds=[0, 0, 1, 1], kappa=np.eye(2), mu=0.0)
    assert rect == Region(shape="rect", bounds=(0.0, 0.0, 1.0, 1.0), kappa=np.eye(2), mu=0)
    assert hash(rect) == hash(Region(shape="rect", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=0))
    for i, j in [(0, 0), (0, 1), (1, 1)]:
        kappa = np.eye(2)
        kappa[i, j] = kappa[j, i] = kappa[i, j] + 0.25
        assert Region(shape="disk", center=(25, 15), radius=4.0, kappa=kappa, mu=0.5) != disk


def test_region_faults_name_no_element():
    # a region has one kappa and one mu; an element index read like a row of kappa
    with pytest.raises(ValueError, match=r"^kappa: not positive definite$"):
        Region(shape="disk", center=(0.0, 0.0), radius=1.0,
               kappa=np.array([[1.0, 2.0], [2.0, 1.0]]), mu=0.0)
    with pytest.raises(ValueError, match=r"^mu: must be nonnegative, got -0.5$"):
        Region(shape="rect", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=-0.5)


_DISK = {"shape": "disk", "center": (25.0, 15.0), "radius": 4.0, "kappa": np.eye(2), "mu": 0.5}


@pytest.mark.parametrize("change,message", [
    # before: numpy's UFuncTypeError, a bare TypeError twice, a message naming
    # no field, "not enough values to unpack", and a disk accepted until used
    ({"mu": "x"}, "mu: expected a number, got 'x'"),
    ({"mu": None}, "mu: expected a number, got None"),
    ({"radius": "1"}, "radius: expected a number, got '1'"),
    ({"kappa": "ab"}, "kappa: expected a 2x2 matrix of numbers, got 'ab'"),
    ({"kappa": [[1.0, 0.0], [0.0]]},
     "kappa: expected a 2x2 matrix of numbers, got [[1.0, 0.0], [0.0]]"),
    ({"shape": "rect", "center": None, "radius": None, "bounds": (0, 0, 1)},
     "bounds: expected four numbers, got (0, 0, 1)"),
    ({"center": (0,)}, "center: expected two numbers, got (0,)"),
])
def test_region_names_its_malformed_field(change, message):
    with pytest.raises(ValueError) as err:
        Region(**{**_DISK, **change})
    assert str(err.value) == message


def test_free_dof_count_n1():
    mesh = unit_square_mesh(1)
    spec = case_sine().problem(mesh)
    system = assemble(mesh, spec)
    # 12 interior dofs plus the 4 dofs of the single interior edge.
    assert system.matrix.shape == (16, 16)
    assert len(system.operator.dissection.order) == 16
    assert (system.operator.element_rows < 16).sum() == 12 + 2 * 4  # both elements hold the edge


@pytest.mark.parametrize("n", [1, 2])
def test_assembled_matrix_symmetric_and_positive(n):
    mesh = unit_square_mesh(n)
    spec = case_sine().problem(mesh)
    system = assemble(mesh, spec)
    a = system.matrix.toarray()
    assert np.abs(a - a.T).max() <= 1e-13 * np.abs(a).max()
    assert np.linalg.eigvalsh(a).min() > 0


def test_positive_definite_without_reaction():
    # mu = 0 keeps the form positive definite on the zero-trace subspace.
    mesh = unit_square_mesh(2)
    zero = np.vectorize(lambda x, y: 0.0, otypes=[float])
    spec = ProblemSpec(f=zero, xi=zero, nu=zero,
                       coeff=CoefficientField.from_regions(mesh, np.eye(2), 0.0))
    system = assemble(mesh, spec)
    assert np.linalg.eigvalsh(system.matrix.toarray()).min() > 0


def test_zero_data_zero_solution():
    mesh = unit_square_mesh(2)
    zero = np.vectorize(lambda x, y: 0.0, otypes=[float])
    spec = ProblemSpec(f=zero, xi=zero, nu=zero,
                       coeff=CoefficientField.from_regions(mesh, np.eye(2), 0.01))
    system = assemble(mesh, spec)
    assert np.all(system.rhs == 0.0)
    x, report = solve_spd(system)
    assert np.all(x == 0.0)
    assert report.residual == 0.0


def test_constant_data_functions_match_their_array_twins():
    # data functions that return a float, not an array of their points' shape
    mesh = unit_square_mesh(4)
    coeff = CoefficientField.from_regions(mesh, np.diag([2.0, 1.0]), 0.3)
    values = {"f": 1.0, "xi": 0.5, "nu": -0.25, "exact_u": 0.5}
    results = []
    for field in (lambda c: lambda x, y: c,
                  lambda c: lambda x, y: np.full(np.broadcast(x, y).shape, c)):
        spec = ProblemSpec(coeff=coeff, exact_grad=lambda x, y: (0.0, 0.0),
                           **{key: field(value) for key, value in values.items()})
        system = assemble(mesh, spec)
        x, _ = solve_spd(system)
        results.append((system.rhs, x, error_report(mesh, spec, system.expand(x))))
    (rhs, x, report), (twin_rhs, twin_x, twin_report) = results
    assert np.array_equal(rhs, twin_rhs) and np.array_equal(x, twin_x)
    assert report == twin_report and report.tbar > 0


def test_nonfinite_boundary_data_reported():
    mesh = unit_square_mesh(1)
    bad = np.vectorize(lambda x, y: float("nan"), otypes=[float])
    zero = np.vectorize(lambda x, y: 0.0, otypes=[float])
    spec = ProblemSpec(f=zero, xi=bad, nu=zero,
                       coeff=CoefficientField.from_regions(mesh, np.eye(2), 0.0))
    with pytest.raises(AssemblyError):
        assemble(mesh, spec)


@pytest.mark.parametrize("n", [4, 8])
def test_quadratic_solutions_reproduced_exactly(n):
    # For a globally quadratic solution with constant coefficients every
    # consistency term vanishes, so the discrete solution matches the
    # projected exact solution to solver accuracy.
    mesh = unit_square_mesh(n)
    spec = quadratic_problem(mesh)
    system = assemble(mesh, spec)
    x, _ = solve_spd(system)
    u_h = system.expand(x)
    projected = weakops.project_Qh(mesh, spec.exact_u, spec.exact_grad, spec.coeff.kappa)
    e = projected.coeffs - u_h.coeffs
    e[weakops.boundary_mask(mesh)] = 0.0
    err = triple_bar_norm(mesh, spec.coeff, e)
    bound = 1e-6 * (1.0 + triple_bar_norm(mesh, spec.coeff, projected.coeffs))
    assert err <= bound


def test_triple_bar_norm_properties():
    mesh = unit_square_mesh(2)
    spec = case_sine().problem(mesh)
    size = weakops.dof_count(mesh)
    assert triple_bar_norm(mesh, spec.coeff, np.zeros(size)) == 0.0
    with pytest.raises(ValueError, match=rf"^w: expected a coefficient vector of length "
                                         rf"{size}, got shape \(3,\)$"):
        triple_bar_norm(mesh, spec.coeff, np.zeros(3))

    rng = np.random.default_rng(4)
    w = rng.normal(size=size)
    w[weakops.boundary_mask(mesh)] = 0.0
    base = triple_bar_norm(mesh, spec.coeff, w)
    assert base > 0
    assert triple_bar_norm(mesh, spec.coeff, -2.5 * w) == pytest.approx(
        2.5 * base, rel=1e-12
    )


def test_triple_bar_norm_matches_full_quadratic_form():
    mesh = unit_square_mesh(2)
    spec = case_sine().problem(mesh)
    system = assemble(mesh, spec)
    rng = np.random.default_rng(9)
    w = rng.normal(size=weakops.dof_count(mesh))
    w[weakops.boundary_mask(mesh)] = 0.0
    norm = triple_bar_norm(mesh, spec.coeff, w)
    quad = float(w @ (full_matrix(system.operator, spec.coeff) @ w))
    assert norm**2 == pytest.approx(quad, rel=1e-10)


def test_solved_system_residual_below_tolerance():
    mesh = unit_square_mesh(4)
    spec = case_sine().problem(mesh)
    system = assemble(mesh, spec)
    x, report = solve_spd(system)
    assert report.residual <= 1e-10
    direct = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
    assert direct <= 1e-10


def test_coefficient_field_names_first_bad_element():
    mesh = unit_square_mesh(16)
    kappa = np.broadcast_to(np.eye(2), (mesh.n_elements, 2, 2)).copy()
    mu = np.zeros(mesh.n_elements)
    kappa[300] = kappa[137] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(ValueError, match=r"^kappa\[137\]: not positive definite$"):
        CoefficientField(kappa=kappa, mu=mu)
    kappa[42] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(ValueError, match=r"^kappa\[42\]: not symmetric$"):
        CoefficientField(kappa=kappa, mu=mu)
    kappa[:] = np.eye(2)
    mu[7] = -0.1
    with pytest.raises(ValueError, match=r"^mu\[7\]: must be nonnegative"):
        CoefficientField(kappa=kappa, mu=mu)
    mu[7], mu[9] = 0.0, np.inf
    with pytest.raises(ValueError, match=r"^mu\[9\]: must be finite, got inf$"):
        CoefficientField(kappa=kappa, mu=mu)
    # the element kernel forms squares and products of kappa and mu; at
    # 1e-300 they underflow to a garbage field, at 1e300 they overflow
    low, high = assembly.COEFFICIENT_RANGE
    kappa[5], mu[6], mu[9] = np.diag([low, high]), low, high
    CoefficientField(kappa=kappa, mu=mu)  # both ends of the range are accepted
    for value in (1e-300, 1e300):
        kappa[11] = np.diag([1.0, value])
        message = f"kappa[11]: eigenvalue {value:g} outside [1e-100, 1e+100]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoefficientField(kappa=kappa, mu=mu)
    kappa[11] = np.eye(2)
    for value in (1e-300, 1e300):
        mu[12] = value
        message = f"mu[12]: must be 0 or in [1e-100, 1e+100], got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoefficientField(kappa=kappa, mu=mu)
    mu[12] = 0.0
    with pytest.raises(ValueError, match=r"^kappa must have shape \(E, 2, 2\)"):
        CoefficientField(kappa=np.eye(2), mu=mu)
    with pytest.raises(ValueError, match=r"got \(512, 2, 2\) and \(511,\)$"):
        CoefficientField(kappa=kappa, mu=mu[1:])


@pytest.mark.parametrize("kappa,mu", [
    ([[[2, 0.5], [0.5, 1]], [[1, 0], [0, 1]]], [0, 0.25]),  # nested lists
    (np.array([[[2, 0.5], [0.5, 1]], [[1, 0], [0, 1]]]), [0, 0.25]),  # an array and a list
])
def test_coefficient_field_takes_nested_sequences(kappa, mu):
    field = CoefficientField(kappa=kappa, mu=mu)
    assert field.kappa.dtype == field.mu.dtype == np.float64
    np.testing.assert_array_equal(field.kappa, [[[2, 0.5], [0.5, 1]], [[1, 0], [0, 1]]])
    np.testing.assert_array_equal(field.mu, [0, 0.25])


@pytest.mark.parametrize("kappa,mu,name", [
    ([[[1, 0], [0, "one"]]], [0.0], "kappa"),
    ([[[1, 0], [0, 1]], [[1, 0]]], [0.0, 0.0], "kappa"),  # ragged
    (np.eye(2)[None], ["zero"], "mu"),
    (np.eye(2)[None], [[0.0, 1.0], [2.0]], "mu"),  # ragged
])
def test_coefficient_field_names_a_field_it_cannot_convert(kappa, mu, name):
    with pytest.raises(ValueError, match=f"^{name}: expected an array of numbers"):
        CoefficientField(kappa=kappa, mu=mu)


def test_field_of_another_mesh_rejected_with_both_counts():
    coarse, fine = unit_square_mesh(4), unit_square_mesh(8)
    zero = np.vectorize(lambda x, y: 0.0, otypes=[float])
    coeff = CoefficientField.from_regions(coarse, np.eye(2), 0.0)
    spec = ProblemSpec(f=zero, xi=zero, nu=zero, coeff=coeff)
    message = r"^coefficient field has 32 elements, mesh has 128$"
    with pytest.raises(ValueError, match=message):
        assemble(fine, spec)
    with pytest.raises(ValueError, match=message):
        triple_bar_norm(fine, coeff, np.zeros(weakops.dof_count(fine)))


def test_nonfinite_source_reported():
    mesh = unit_square_mesh(2)
    bad = np.vectorize(lambda x, y: float("nan"), otypes=[float])
    zero = np.vectorize(lambda x, y: 0.0, otypes=[float])
    spec = ProblemSpec(f=bad, xi=zero, nu=zero,
                       coeff=CoefficientField.from_regions(mesh, np.eye(2), 0.0))
    with pytest.raises(AssemblyError, match="source"):
        assemble(mesh, spec)


@pytest.mark.parametrize("case,n", [("sine", 16), ("boundary-indicator", 16),
                                    ("gaussian-source", 8)])
def test_assembled_matrices_exactly_symmetric(case, n):
    # the Cholesky factor, made from the element matrices, is of a symmetric
    # matrix, and the residual's CSR matrix must be that one
    entry = catalog_entry(case)
    mesh = entry.make_mesh(n)
    spec = entry.problem(mesh)
    system = assemble(mesh, spec)
    assert (system.matrix != system.matrix.T).nnz == 0
    full = full_matrix(system.operator, spec.coeff)
    assert (full != full.T).nnz == 0
    # the reduced matrix's rows and columns come in the solve order; each element's
    # boundary dofs sit on the spare row, past them
    op = system.operator
    rows, fixed = op.dissection.order, weakops.boundary_mask(mesh)
    assert (full[rows][:, rows] != system.matrix).nnz == 0
    local = weakops.local_dofs(mesh)
    assert np.array_equal(op.element_rows == len(rows), fixed[local])
    assert np.array_equal(rows[op.element_rows[~fixed[local]]], local[~fixed[local]])


@pytest.mark.parametrize("case", ["sine", "boundary-dirac"])
def test_boundary_lift_equals_full_matrix_product(case):
    # the element-wise product lifts the boundary values as the product with
    # the full matrix does, up to the order in which the terms are summed
    entry = catalog_entry(case)
    mesh = entry.make_mesh(8)
    spec = entry.problem(mesh)
    system = assemble(mesh, spec)
    b = np.zeros(weakops.dof_count(mesh))
    quadrature = weakops.load_quadrature(mesh.element_points())
    b[: 6 * mesh.n_elements] = weakops.local_load(quadrature, spec.f).ravel()
    lifted = (b - full_matrix(system.operator, spec.coeff) @ system.boundary_values)[
        system.operator.dissection.order]
    assert np.abs(system.boundary_values).max() > 0
    assert np.abs(system.rhs - lifted).max() <= 1e-14 * np.abs(lifted).max()


@pytest.mark.parametrize("case,n,regions", [
    ("sine", 8, ()),
    ("gaussian-source", 8, (Region(shape="disk", center=(25.0, 15.0), radius=12.0,
                                   kappa=0.5 * np.eye(2), mu=0.5),)),
])
def test_operator_blocks_equal_the_sliced_full_matrix(case, n, regions):
    # the reduced matrix built on request is the slice of the whole system, bit for
    # bit and dtype for dtype: no entry sums more than two terms, so their order
    # cannot show; the element-wise product takes the coupling block's place
    entry = catalog_entry(case)
    mesh = entry.make_mesh(n)
    spec = entry.problem(mesh, regions)
    op = assemble(mesh, spec).operator
    reduced, coupling = sliced_blocks(op, spec.coeff)
    got = op.matrix
    assert got.shape == reduced.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(reduced, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    fixed = weakops.boundary_mask(mesh)
    values = np.where(fixed, np.random.default_rng(4).normal(size=len(fixed)), 0.0)
    want = coupling @ values[fixed]
    lifted = op.product(values[weakops.local_dofs(mesh)])
    assert coupling.shape == (len(op.dissection.order), fixed.sum())
    assert np.abs(lifted - want).max() <= 1e-14 * np.abs(want).max()


def _per_element(spec):
    # every element scaled apart, so that every element is its own class
    scale = 1.0 + 0.1 * np.random.default_rng(0).random(len(spec.coeff.mu))
    coeff = CoefficientField(spec.coeff.kappa * scale[:, None, None], spec.coeff.mu * scale)
    return ProblemSpec(f=spec.f, xi=spec.xi, nu=spec.nu, coeff=coeff)


@pytest.mark.parametrize("case,per_element", [("sine", False), ("boundary-indicator", False),
                                              ("sine", True)])
def test_product_and_lift_equal_the_coo_reference(case, per_element):
    # A v and the lifted right-hand side element by element, against the plain
    # COO to CSR conversion of the whole system
    entry = catalog_entry(case)
    mesh = entry.make_mesh(8)
    spec = entry.problem(mesh)
    if per_element:
        spec = _per_element(spec)
    system = assemble(mesh, spec)
    op = system.operator
    if per_element:
        assert len(op.class_matrices) == mesh.n_elements
    reduced, coupling = sliced_blocks(op, spec.coeff)
    x = np.random.default_rng(5).normal(size=reduced.shape[0])
    want = reduced @ x
    assert np.abs(op.product(element_values(op, x)) - want).max() <= 1e-14 * np.abs(want).max()
    b = np.zeros(weakops.dof_count(mesh))
    quadrature = weakops.load_quadrature(mesh.element_points())
    b[: 6 * mesh.n_elements] = weakops.local_load(quadrature, spec.f).ravel()
    fixed = weakops.boundary_mask(mesh)
    assert np.abs(system.boundary_values[fixed]).max() > 0
    lifted = b[op.dissection.order] - coupling @ system.boundary_values[fixed]
    assert np.abs(system.rhs - lifted).max() <= 1e-14 * np.abs(lifted).max()


def test_operator_of_another_mesh_or_medium_is_refused():
    sine = catalog_entry("sine")
    mesh = sine.make_mesh(8)
    spec = sine.problem(mesh)
    op = assemble(mesh, spec).operator
    gaussian = catalog_entry("gaussian-source")
    other = gaussian.make_mesh(8)
    with pytest.raises(ValueError, match="^operator: built for another mesh"):
        assemble(other, gaussian.problem(other), op)
    region = Region(shape="disk", center=(0.5, 0.5), radius=0.2, kappa=2.0 * np.eye(2), mu=1.0)
    with pytest.raises(ValueError, match="^operator: built for another mesh"):
        assemble(mesh, sine.problem(mesh, [region]), op)
    assert assemble(mesh, spec, op).operator is op
    # the forward model's specs share its coefficient field, so each source reuses the operator
    model = ForwardModel(gaussian, 8)
    model.solve()
    kept = model.operator
    model.solve(SECOND_SOURCE)
    assert model.operator is kept and kept.factor is not None


# ---------------------------------------------------------------------------
# the coefficient checks against their eigvalsh form
# ---------------------------------------------------------------------------


def check_outcome(check, kappa, mu, indexed=True):
    """The message ``check`` raises for (kappa, mu), or None."""
    try:
        check(np.asarray(kappa, dtype=float), np.asarray(mu, dtype=float), indexed)
    except ValueError as exc:
        return str(exc)
    return None


def assert_checks_agree(kappa, mu):
    for indexed in (True, False):
        want = check_outcome(eigvalsh_check_coefficients, kappa, mu, indexed)
        assert check_outcome(assembly._check_coefficients, kappa, mu, indexed) == want


EDGES = [v for edge in assembly.COEFFICIENT_RANGE
         for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))]
SPECIAL = [*EDGES, 1.0, 0.3, 1e-200, 1e200, 1e-300, 1e300, 0.0, -0.0, -1.0, -1e-100, 5e-324,
           np.nan, np.inf, -np.inf]


def coefficient_battery(rng: np.random.Generator) -> list[tuple[np.ndarray, float]]:
    """(kappa, mu) pairs at the range edges and their neighbours, on
    diagonal, near-singular, anisotropic and barely asymmetric kappa."""
    kappas = []
    for t in SPECIAL:  # a scalar kappa, and a diagonal one against 1 and the range edges
        kappas += [np.diag([t, t]), np.diag([t, 1.0]), np.diag([1.0, t]), np.diag([1e100, t]),
                   np.diag([t, 1e100]), np.diag([3.7, t]), np.diag([t, 3.7]),
                   np.diag([t, 1e-100]), [[1.0, t], [t, 1.0]], [[1.0, 0.0], [t, 1.0]]]
    # exactly singular and indefinite kappa
    kappas += [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]], [[4.0, -2.0], [-2.0, 1.0]],
               [[1.0, 2.0], [2.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2))]
    # near-singular and strongly anisotropic: diag(l, l r) turned by a random angle
    for scale in (1e-90, 1e-5, 1.0, 1e5, 1e90):
        for ratio in (1.0, 1e-4, 1e-8):
            for angle in rng.uniform(0.0, np.pi, 4):
                c, s = np.cos(angle), np.sin(angle)
                turn = np.array([[c, -s], [s, c]])
                k = turn @ np.diag([scale, scale * ratio]) @ turn.T
                kappas.append(0.5 * (k + k.T))
    # off-diagonal pairs at the symmetry tolerance |u - l| <= 1e-14 + 1e-5 |other|, both ways
    for lower in (0.0, 0.5, -0.5, 3e-10):
        for direction in (1.0, -1.0):
            edge = lower + direction * (1e-14 + 1e-5 * abs(lower))
            for upper in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                kappas += [[[1.0, upper], [lower, 1.0]], [[1.0, lower], [upper, 1.0]]]
    mus = [*SPECIAL, 0.5]
    return [(np.asarray(k, dtype=float), mu) for k in kappas for mu in rng.choice(mus, 3)]


def test_coefficient_checks_equal_their_eigvalsh_form():
    rng = np.random.default_rng(0)
    battery = coefficient_battery(rng)
    for kappa, mu in battery:
        assert_checks_agree(kappa[None], [mu])
    empty = (np.zeros((0, 2, 2)), np.zeros(0))
    assert check_outcome(assembly._check_coefficients, *empty) is None
    assert_checks_agree(*empty)
    # in a batch, both name the same first bad element, also in runs of
    # equal kappa, with equal or differing mu
    kappas, mus = np.array([k for k, _ in battery]), np.array([m for _, m in battery])
    for _ in range(200):
        pick = rng.choice(len(battery), 12, replace=False)
        assert_checks_agree(kappas[pick], mus[pick])
        runs = np.repeat(pick[:6], rng.integers(1, 4, 6))
        assert_checks_agree(kappas[runs], mus[runs])
        assert_checks_agree(kappas[runs], mus[rng.choice(pick, len(runs))])
        a, b = kappas[pick[:2]]
        for i, j in np.ndindex(2, 2):  # a run that ends at a change of one entry
            pair = np.array([a, a])
            pair[1, i, j] = b[i, j]
            assert_checks_agree(pair, mus[pick[:2]])


@pytest.mark.parametrize("case", ["sine", "boundary-indicator"])
def test_coefficient_check_takes_one_eigvalsh_per_run(case, monkeypatch):
    mesh = catalog_entry(case).make_mesh(16)
    coeff = catalog_entry(case).problem(mesh).coeff
    kappa = coeff.kappa
    runs = 1 + sum(not np.array_equal(kappa[i], kappa[i - 1]) for i in range(1, len(kappa)))
    assert (runs == 1) if case == "sine" else (1 < runs < len(kappa))
    batches = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        batches.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    CoefficientField(kappa=kappa, mu=coeff.mu)
    assert batches == [runs]
