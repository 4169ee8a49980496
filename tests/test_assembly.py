import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from util import (
    Element,
    LocalWeakFunction,
    eigvalsh_check_coefficients,
    element_mass_matrix,
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
    # solve_spd hands the CSR arrays to SuperLU as the CSC form of A^T,
    # which is A only when the symmetry is exact
    entry = catalog_entry(case)
    mesh = entry.make_mesh(n)
    system = assemble(mesh, entry.problem(mesh))
    assert (system.matrix != system.matrix.T).nnz == 0
    full = full_matrix(system.operator)
    assert (full != full.T).nnz == 0
    # the coupling block's rows come in the solve order, its columns in layout order
    rows, fixed = system.operator.order, ~system.free
    assert (full[rows][:, fixed] != system.operator.coupling).nnz == 0


@pytest.mark.parametrize("case", ["sine", "boundary-dirac"])
def test_boundary_lift_equals_full_matrix_product(case):
    # the coupling block lifts the boundary values with the same nonzero
    # terms, in the same order, as the product with the full matrix
    entry = catalog_entry(case)
    mesh = entry.make_mesh(8)
    spec = entry.problem(mesh)
    system = assemble(mesh, spec)
    b = np.zeros(weakops.dof_count(mesh))
    quadrature = weakops.load_quadrature(mesh.element_points())
    b[: 6 * mesh.n_elements] = weakops.local_load(quadrature, spec.f).ravel()
    lifted = (b - full_matrix(system.operator) @ system.boundary_values)[system.operator.order]
    assert np.abs(system.boundary_values).max() > 0
    assert np.array_equal(system.rhs, lifted)


@pytest.mark.parametrize("case,n,regions", [
    ("sine", 8, ()),
    ("gaussian-source", 8, (Region(shape="disk", center=(25.0, 15.0), radius=12.0,
                                   kappa=0.5 * np.eye(2), mu=0.5),)),
])
def test_operator_blocks_equal_the_sliced_full_matrix(case, n, regions):
    # the blocks split from the free rows are the slices of the whole
    # system, bit for bit and dtype for dtype
    entry = catalog_entry(case)
    mesh = entry.make_mesh(n)
    op = assemble(mesh, entry.problem(mesh, regions)).operator
    for got, want in zip((op.matrix, op.coupling), sliced_blocks(op)):
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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
    # in a batch, both name the same first bad element
    kappas, mus = np.array([k for k, _ in battery]), np.array([m for _, m in battery])
    for _ in range(200):
        pick = rng.choice(len(battery), 12, replace=False)
        assert_checks_agree(kappas[pick], mus[pick])


@settings(max_examples=300, deadline=None)
@given(st.floats(-120.0, 120.0), st.floats(0.0, 8.0), st.sampled_from([1.0, -1.0]),
       st.floats(0.0, np.pi), st.sampled_from([0.0, 1e-15, -1e-9, 1e-3]),
       st.one_of(st.sampled_from(SPECIAL), st.floats()))
def test_coefficient_checks_agree_off_the_edges(exponent, spread, sign, angle, skew, mu):
    # kappa = R diag(l, sign l 10^-spread) R^T, of condition number 1e8 at
    # most, so both forms find each eigenvalue to about 1e-8; an eigenvalue
    # that close to a range edge, or a printed one that close to a
    # rounding tie, is left to the seeded battery above
    big = 10.0**exponent
    c, s = np.cos(angle), np.sin(angle)
    turn = np.array([[c, -s], [s, c]])
    kappa = turn @ np.diag([big, sign * big * 10.0**-spread]) @ turn.T
    kappa = 0.5 * (kappa + kappa.T)
    kappa[0, 1] += skew * abs(kappa[0, 1])
    for value in np.linalg.eigvalsh(kappa):
        for edge in assembly.COEFFICIENT_RANGE:
            assume(abs(value - edge) > 1e-6 * edge)
        assume(f"{value * (1 - 1e-7):g}" == f"{value * (1 + 1e-7):g}")
    assert_checks_agree(kappa[None], [mu])
