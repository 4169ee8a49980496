import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from util import matrix_system, unit_square_mesh

import wg4.solve
from wg4 import assembly
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


class _RecordingLinalg:
    """Stands in for scipy.sparse.linalg inside ``wg4.solve``: records
    every factorization ``splu`` returns; every other attribute is scipy's."""

    def __init__(self):
        self.factors = []

    def splu(self, *args, **kwargs):
        lu = spla.splu(*args, **kwargs)
        self.factors.append(lu)
        return lu

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.fixture
def recorder(monkeypatch):
    """A recording stand-in for scipy.sparse.linalg."""
    recorder = _RecordingLinalg()
    monkeypatch.setattr(wg4.solve, "spla", recorder)
    return recorder


def test_factorization_is_symmetric(recorder):
    mesh = unit_square_mesh(16)
    system = assemble(mesh, case_sine().problem(mesh))
    _, report = solve_spd(system)
    (lu,) = recorder.factors
    # no permutation of rows or columns: the rows come in the order to factor
    assert np.array_equal(lu.perm_r, np.arange(system.matrix.shape[0]))
    assert np.array_equal(lu.perm_c, lu.perm_r)
    assert lu.nnz <= spla.splu(system.matrix.tocsc()).nnz / 2
    assert report.residual <= 1e-10
    # the CSR arrays handed over as CSC factor exactly like a CSC copy
    copy = spla.splu(system.matrix.tocsc(), permc_spec=wg4.solve.PERMC_SPEC,
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_c, copy.perm_c)
    for got, want in ((lu.L, copy.L), (lu.U, copy.U)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


def test_solve_order_leaves_less_fill():
    # factored as given, the nested dissection leaves 1,419,176 entries; minimum degree
    # leaves 1,625,008 from the same order and 1,655,184 from the layout order
    mesh = unit_square_mesh(32)
    system = assemble(mesh, case_sine().problem(mesh))
    solve_spd(system)
    layout = np.argsort(system.operator.order)  # rows put back in layout order
    for matrix in (system.matrix, system.matrix[layout][:, layout]):
        mmd = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
        assert system.operator.lu.nnz <= 0.9 * mmd.nnz


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
    def fail(*args, **kwargs):
        raise RuntimeError("no factorization")

    monkeypatch.setattr(recorder, "splu", fail)
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
    assert model.operator.lu is None
    monkeypatch.undo()
    _, _, report = model.solve()
    assert model.operator.lu is not None and report.residual <= 1e-10


@pytest.mark.parametrize("scale", [1e-10, 1e10, 1e-100])
def test_diverged_refinement_raises(scale):
    # one whole-domain region at mu = 0: refinement ends with a relative
    # residual above 1, which the tiny backward error used to let through
    region = Region(shape="rect", bounds=(0.0, 0.0, 50.0, 50.0), kappa=scale * np.eye(2),
                    mu=0.0)
    with pytest.raises(SolverError, match="^refinement diverged") as err:
        solve_case(catalog_entry("gaussian-source"), 4, regions=[region])
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
    x = u_h.coeffs[model.operator.order]
    wide = np.longdouble
    r = system.rhs.astype(wide) - system.matrix.astype(wide) @ x.astype(wide)
    reference = system.expand(x + model.operator.lu.solve(r.astype(float)))
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


def test_infinity_norm_made_on_the_first_fallback_and_kept():
    identity = matrix_system(sp.identity(4, format="csr"), np.ones(4))
    solve_spd(identity)  # meets the relative-residual target at once
    assert identity.operator.lu is not None and identity.operator.norm_inf is None
    system = fourth_difference_system()
    solve_spd(system)  # stalls and is accepted on its backward error
    assert system.operator.norm_inf == 16.0  # |1| + |-4| + 6 + |-4| + |1|


def test_direct_solve_beyond_backward_error_raises():
    with pytest.raises(SolverError) as err:
        solve_spd(fourth_difference_system(), SolverConfig(tolerance=1e-20))
    history = err.value.residual_history
    assert len(history) == 4 and min(history) > 1e-20
    assert "backward error" in str(err.value)
