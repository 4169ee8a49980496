import numpy as np
import pytest

from util import (
    Element,
    LocalWeakFunction,
    element_mass_matrix,
    full_matrix,
    quadratic_problem,
    random_triangle,
    unit_square_mesh,
)

from wg4 import assembly, weakops
from wg4.assembly import (
    AssemblyError,
    CoefficientField,
    ProblemSpec,
    Region,
    assemble,
    triple_bar_norm,
)
from wg4.harness import case_sine, catalog_entry
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
    load = weakops.local_load(geom.points, lambda x, y: np.ones_like(x))[0]
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


def test_region_validation():
    with pytest.raises(ValueError):
        Region(shape="rect", bounds=None, kappa=np.eye(2), mu=0.0)
    with pytest.raises(ValueError):
        Region(shape="disk", center=(0.0, 0.0), radius=1.0,
               kappa=np.array([[1.0, 2.0], [2.0, 1.0]]), mu=0.0)
    with pytest.raises(ValueError):
        Region(shape="blob", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=0.0)


def test_region_faults_name_no_element():
    # a region has one kappa and one mu; an element index read like a row of kappa
    with pytest.raises(ValueError, match=r"^kappa: not positive definite$"):
        Region(shape="disk", center=(0.0, 0.0), radius=1.0,
               kappa=np.array([[1.0, 2.0], [2.0, 1.0]]), mu=0.0)
    with pytest.raises(ValueError, match=r"^mu: must be nonnegative, got -0.5$"):
        Region(shape="rect", bounds=(0, 0, 1, 1), kappa=np.eye(2), mu=-0.5)


def test_free_dof_count_n1():
    mesh = unit_square_mesh(1)
    spec = case_sine().problem(mesh)
    system = assemble(mesh, spec)
    # 12 interior dofs plus the 4 dofs of the single interior edge.
    assert system.matrix.shape == (16, 16)
    assert system.free.sum() == 16


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
    quad = float(w @ (full_matrix(system.operator) @ w))
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
    mu[9] = 0.0
    with pytest.raises(ValueError, match=r"^kappa must have shape \(E, 2, 2\)"):
        CoefficientField(kappa=np.eye(2), mu=mu)
    with pytest.raises(ValueError, match=r"got \(512, 2, 2\) and \(511,\)$"):
        CoefficientField(kappa=kappa, mu=mu[1:])


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
    # solve_spd hands the CSR arrays to SuperLU as the CSC form of A^T,
    # which is A only when the symmetry is exact
    entry = catalog_entry(case)
    mesh = entry.make_mesh(n)
    system = assemble(mesh, entry.problem(mesh))
    assert (system.matrix != system.matrix.T).nnz == 0
    full = full_matrix(system.operator)
    assert (full != full.T).nnz == 0
    free = system.free
    assert (full[free][:, ~free] != system.operator.coupling).nnz == 0


@pytest.mark.parametrize("case", ["sine", "boundary-dirac"])
def test_boundary_lift_equals_full_matrix_product(case):
    # the coupling block lifts the boundary values with the same nonzero
    # terms, in the same order, as the product with the full matrix
    entry = catalog_entry(case)
    mesh = entry.make_mesh(8)
    spec = entry.problem(mesh)
    system = assemble(mesh, spec)
    b = np.zeros(weakops.dof_count(mesh))
    b[: 6 * mesh.n_elements] = weakops.local_load(mesh.element_points(), spec.f).ravel()
    lifted = (b - full_matrix(system.operator) @ system.boundary_values)[system.free]
    assert np.abs(system.boundary_values).max() > 0
    assert np.array_equal(system.rhs, lifted)
