import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from util import element_values, matrix_system, sliced_blocks, unit_square_mesh

from wg4 import assembly, cholesky
from wg4.assembly import Region, assemble
from wg4.errors import error_report
from wg4.harness import (
    ABSORPTION,
    SECOND_SOURCE,
    ForwardModel,
    case_ft_gaussian,
    case_sine,
    catalog_entry,
    solve_case,
)
from wg4.solve import SolveReport, SolverConfig, SolverError, solve_spd


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=1.5)


def test_zero_rhs_gives_zero_solution():
    a = sp.identity(5, format="csr")
    x, report = solve_spd(matrix_system(a, np.zeros(5)))
    assert np.all(x == 0.0)
    assert report.iterations == 0 and report.residual == 0.0


def test_identity_system():
    a = sp.identity(4, format="csr")
    b = np.array([1.0, 0.0, 0.0, 0.0])
    x, report = solve_spd(matrix_system(a, b))
    assert np.allclose(x, b, atol=1e-12)
    assert report.residual <= 1e-10
    assert report.backward_error is None  # only a stalled solve needs it


@pytest.fixture(scope="module")
def sine_system():
    mesh = unit_square_mesh(4)
    return assemble(mesh, case_sine().problem(mesh))


def test_solves_are_bit_identical(sine_system):
    x1, _ = solve_spd(sine_system)
    x2, _ = solve_spd(sine_system)
    assert np.array_equal(x1, x2)


class _Recorder:
    """Stands in for ``wg4.cholesky.factor``: records every factor that
    ``make``, the real one unless a test swaps it, returns."""

    def __init__(self, make):
        self.make = make
        self.factors = []

    def __call__(self, operator):
        self.factors.append(self.make(operator))
        return self.factors[-1]


@pytest.fixture
def recorder(monkeypatch):
    """A recording stand-in for ``wg4.cholesky.factor``."""
    recorder = _Recorder(cholesky.factor)
    monkeypatch.setattr(cholesky, "factor", recorder)
    return recorder


def _lower(factor) -> np.ndarray:
    """The factor's L, dense, rebuilt from what it keeps of each front,
    K = [L11^-1; -(L11^-T X)^T]: L11 is the inverse of K's top block and
    X^T is -K's bottom block times L11."""
    size = factor.size
    lower = np.zeros((size + 1, size + 1))  # the spare row and column last
    fronts = [(r, pivots.shape[1], k) for rows, pivots, _, level_k in factor.levels
              for r, k in zip(rows, level_k)]
    for r, p, k in fronts:
        pivots = r[:p][r[:p] < size]  # a padded pivot's row is the spare one
        l11 = np.tril(np.linalg.inv(k[:len(pivots), :len(pivots)]))
        lower[np.ix_(pivots, pivots)] = l11
        lower[np.ix_(r[p:], pivots)] = -k[p:, :len(pivots)] @ l11
    return lower[:size, :size]


@pytest.mark.parametrize("name,bound", [("sine", 1e-13), ("boundary-indicator", 1e-12)])
def test_factorization_is_symmetric(name, bound, recorder):
    # A = L L^T in the order the rows come in: no permutation, and L stays lower.
    # L is rebuilt by inverting the kept L11^-1, which costs cond(L11) eps:
    # 2.6e-16 of max|A| on sine, and 3.3e-13 where the inclusion of
    # boundary-indicator holds two cells' elements at n=4
    mesh = unit_square_mesh(4)
    system = assemble(mesh, catalog_entry(name).builder(mesh, ()))
    _, report = solve_spd(system)
    (factor,) = recorder.factors
    lower = _lower(factor)
    assert np.array_equal(lower, np.tril(lower))
    matrix = system.matrix.toarray()
    assert np.abs(lower @ lower.T - matrix).max() <= bound * np.abs(matrix).max()
    assert report.residual <= 1e-10


def test_factor_stores_less_than_superlu_in_the_same_order():
    # at n=32 the factor keeps 639,516 floats; SuperLU's L + U in the same
    # order hold 1,419,176 entries
    mesh = unit_square_mesh(32)
    system = assemble(mesh, case_sine().problem(mesh))
    _, report = solve_spd(system)
    superlu = spla.splu(system.matrix.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
    assert report.factor_nnz == system.operator.factor.nnz < superlu.nnz


@pytest.mark.parametrize("n,distinct", [(1, False), (2, False), (3, False), (5, False),
                                        (12, False), (8, True)])
def test_factor_solves_any_grid(n, distinct):
    # odd n and unequal halves; the factor's own solve, unrefined. With every
    # element scaled apart, no two fronts are equal, and the first distinct
    # front of a group of cells is seldom its first member
    mesh = unit_square_mesh(n)
    spec = case_sine().problem(mesh)
    if distinct:
        scale = 1.0 + 0.1 * np.random.default_rng(0).random(mesh.n_elements)
        coeff = assembly.CoefficientField(spec.coeff.kappa * scale[:, None, None],
                                          spec.coeff.mu * scale)
        spec = dataclasses.replace(spec, coeff=coeff)
    system = assemble(mesh, spec)
    x = cholesky.factor(system.operator).solve(system.rhs)
    r = system.rhs - system.matrix @ x
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(system.rhs)


def test_indefinite_front_fails_the_factorization():
    # the element classes' interior blocks stay positive definite, but a cell's front does not
    mesh = unit_square_mesh(4)
    system = assemble(mesh, case_sine().problem(mesh))
    mats = system.operator.class_matrices.copy()
    mats[:, 6:, 6:] -= 1e3 * np.abs(mats).max() * np.eye(12)
    system.operator = dataclasses.replace(system.operator, class_matrices=mats)
    with pytest.raises(SolverError, match="^factorization failed .*not positive definite"):
        solve_spd(system)
    assert system.operator.factor is None


def test_report_says_whether_the_solve_factored():
    model = ForwardModel(case_ft_gaussian(), 8)
    _, _, cold = model.solve()
    assert cold.factored and cold.factor_s > 0.0 and cold.factor_nnz > 0
    _, _, warm = model.solve(SECOND_SOURCE)
    assert (warm.factored, warm.factor_s, warm.factor_nnz) == (False, 0.0, cold.factor_nnz)


def test_second_source_reuses_the_factorization(recorder):
    model = ForwardModel(case_ft_gaussian(), 8)
    model.solve()
    _, warm, _ = model.solve(SECOND_SOURCE)
    assert len(recorder.factors) == 1
    _, cold, _ = ForwardModel(case_ft_gaussian(), 8).solve(SECOND_SOURCE)
    assert len(recorder.factors) == 2
    assert warm.coeffs.tobytes() == cold.coeffs.tobytes()


@pytest.mark.parametrize("change", ["kappa", "n", "domain"])
def test_changed_operator_key_refactors(recorder, change):
    # a model's operator serves only its own mesh and medium
    entry = catalog_entry("gaussian-source")
    model = ForwardModel(entry, 8)
    spec, _, _ = model.solve()
    if change == "kappa":
        region = Region(shape="disk", center=(25.0, 15.0), radius=4.0,
                        kappa=2.0 * np.eye(2), mu=ABSORPTION)
        ForwardModel(entry, 8, [region]).solve()
    elif change == "n":
        ForwardModel(entry, 16).solve()
    else:
        # the sine case has the same coefficient values on the unit square
        other_model = ForwardModel(case_sine(), 8)
        other, _, _ = other_model.solve()
        assert other_model.mesh.domain != model.mesh.domain
        assert np.array_equal(other.coeff.kappa, spec.coeff.kappa)
        assert np.array_equal(other.coeff.mu, spec.coeff.mu)
    assert len(recorder.factors) == 2


def test_unmet_tolerance_keeps_the_operator(recorder):
    entry = catalog_entry("gaussian-source")
    model = ForwardModel(entry, 8)
    with pytest.raises(SolverError):
        model.solve(config=SolverConfig(tolerance=1e-300))
    _, _, report = model.solve()
    assert len(recorder.factors) == 1
    assert report.residual <= 1e-10


def test_failed_factorization_leaves_no_operator(recorder, monkeypatch):
    def fail(operator):
        raise np.linalg.LinAlgError("no factorization")

    monkeypatch.setattr(recorder, "make", fail)
    entry = catalog_entry("gaussian-source")
    operators = []
    assemble = assembly.assemble

    def recording(*args):
        system = assemble(*args)
        operators.append(weakref.ref(system.operator))
        return system

    monkeypatch.setattr(assembly, "assemble", recording)
    with pytest.raises(SolverError, match="factorization failed"):
        solve_case(entry, 8)
    gc.collect()  # the traceback that pytest kept
    assert operators[0]() is None
    # a model keeps no factorization from the failure, and its next solve makes one
    model = ForwardModel(entry, 8)
    with pytest.raises(SolverError, match="factorization failed"):
        model.solve()
    assert model.operator.factor is None
    monkeypatch.undo()
    _, _, report = model.solve()
    assert model.operator.factor is not None and report.residual <= 1e-10


@pytest.mark.parametrize("scale", [1e-10, 1e10, 1e-100])
def test_indefinite_medium_fails_to_factor(scale):
    # one whole-domain region at mu = 0 leaves a front that is not positive
    # definite in float64; a factor without that check let refinement diverge
    region = Region(shape="rect", bounds=(0.0, 0.0, 50.0, 50.0), kappa=scale * np.eye(2),
                    mu=0.0)
    with pytest.raises(SolverError, match="^factorization failed") as err:
        solve_case(catalog_entry("gaussian-source"), 4, regions=[region])
    assert err.value.residual_history == []


def test_diverged_refinement_raises():
    # a stand-in factor that sends x along A's small direction: a huge
    # ||A|| ||x|| makes the backward error tiny while the residual grows past b's
    class Wrong:
        nnz = 1

        def solve(self, b):
            return np.array([0.0, 1e6 * b[1]])

    system = matrix_system(sp.diags([1e30, 1.0]), np.array([0.0, 1.0]), factor=Wrong())
    with pytest.raises(SolverError, match="^refinement diverged") as err:
        solve_spd(system)  # the last x, about 1e24 e_2, has a backward error near 1e-30
    assert err.value.residual_history[-1] > 1.0


def test_high_contrast_solve_without_pivoting():
    # mu = 0 and a 1e5 diffusion contrast: the hardest system of the catalog
    _, _, _, report = solve_case(catalog_entry("boundary-indicator"), 16)
    assert report.residual <= 1e-10


def test_singular_matrix_reported():
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        solve_spd(matrix_system(a, np.array([1.0, 2.0])))


def test_min_steps_defers_acceptance():
    identity = matrix_system(sp.identity(4, format="csr"), np.ones(4))
    _, report = solve_spd(identity, min_steps=1)
    assert report.iterations == 1 and report.residual_history == [0.0, 0.0]


def test_only_solves_with_an_exact_solution_refine():
    # an error table's digits need one step; a printed field accepts at step 0
    for name, steps in (("sine", 1), ("poly-bump", 1), ("gaussian-source", 0)):
        _, _, _, report = solve_case(catalog_entry(name), 8)
        assert report.iterations == steps, name
        assert len(report.residual_history) == steps + 1


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is float64 here")
def test_refined_n64_error_is_within_2e12_of_an_extended_precision_one():
    # the printed eg, 8.77384e-04, lies 9.3e-12 above a rounding tie; without the
    # refinement step the nested-dissection solve is 4.8e-11 off, with it 1.0e-12
    model = ForwardModel(catalog_entry("sine"), 64)
    spec, u_h, report = model.solve()
    assert report.iterations == 1
    system = assemble(model.mesh, spec, model.operator)
    x = u_h.coeffs[model.operator.dissection.order]
    wide = np.longdouble
    r = system.rhs.astype(wide) - system.matrix.astype(wide) @ x.astype(wide)
    reference = system.expand(x + model.operator.factor.solve(r.astype(float)))
    got = error_report(model.mesh, spec, u_h).eg_edge
    want = error_report(model.mesh, spec, reference).eg_edge
    assert abs(got - want) <= 2e-12


def test_report_fields():
    report = SolveReport(iterations=3, residual=1e-12, residual_history=[1.0, 1e-12])
    assert report.iterations == 3
    assert report.residual_history[-1] == 1e-12


def fourth_difference_system(m=500):
    """1D fourth-difference system: the relative residual of a direct solve
    stalls near 7e-8 in float64 while its backward error is about 1e-16."""
    a = sp.diags([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2], shape=(m, m), format="csr")
    return matrix_system(a, np.full(m, 1.0 / m**4))


def test_direct_solve_accepted_on_backward_error():
    x, report = solve_spd(fourth_difference_system())
    assert report.residual > 1e-10  # the relative-residual target is out of reach
    assert report.residual == report.residual_history[-1]
    assert report.backward_error is not None and report.backward_error <= 1e-10
    assert np.isfinite(x).all()


def test_fallback_backward_error_takes_the_infinity_norm():
    system = fourth_difference_system()
    x, report = solve_spd(system)  # stalls and is accepted on its backward error
    r = system.rhs - system.operator.matrix @ x
    anorm = 16.0  # ||A||_inf = |1| + |-4| + 6 + |-4| + |1|
    denom = anorm * float(np.abs(x).max()) + float(np.abs(system.rhs).max())
    assert report.backward_error == float(np.abs(r).max()) / denom


def test_poly_bump_n64_accepted_on_its_backward_error():
    # poly-bump's float64 residual floor at n=64 lies at the default target, 0.99e-10
    # to 1.0e-10 by BLAS thread count, so a tenth of it puts the solve on its fallback
    # whatever the rounding: its backward error, about 1.3e-16, takes the reduced
    # matrix's exact ||A||_inf and the residual of the element-wise product
    config = SolverConfig(tolerance=1e-11)
    mesh, spec, u_h, report = solve_case(catalog_entry("poly-bump"), 64, config)
    assert report.residual > 1e-11 and report.iterations == 3
    assert report.backward_error is not None and report.backward_error <= 1e-11
    system = assemble(mesh, spec)
    op = system.operator
    x = u_h.coeffs[op.dissection.order]
    r = system.rhs - op.product(element_values(op, x))
    assert float(np.linalg.norm(r)) / np.linalg.norm(system.rhs) == report.residual
    reduced, _ = sliced_blocks(op, spec.coeff)
    anorm = float(abs(reduced).sum(axis=1).max())
    denom = anorm * float(np.abs(x).max()) + float(np.abs(system.rhs).max())
    assert report.backward_error == pytest.approx(float(np.abs(r).max()) / denom, rel=1e-12)


def test_direct_solve_beyond_backward_error_raises():
    with pytest.raises(SolverError) as err:
        solve_spd(fourth_difference_system(), SolverConfig(tolerance=1e-20))
    history = err.value.residual_history
    assert len(history) == 4 and min(history) > 1e-20
    assert "backward error" in str(err.value)
