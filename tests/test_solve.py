import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from util import unit_square_mesh

import wg4.solve
from wg4.assembly import assemble
from wg4.harness import case_sine, catalog_entry, solve_case
from wg4.solve import SolveReport, SolverConfig, SolverError, solve_spd


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=1.5)


def test_zero_rhs_gives_zero_solution():
    a = sp.identity(5, format="csr")
    x, report = solve_spd((a, np.zeros(5)))
    assert np.all(x == 0.0)
    assert report.iterations == 0 and report.residual == 0.0


def test_identity_system():
    a = sp.identity(4, format="csr")
    b = np.array([1.0, 0.0, 0.0, 0.0])
    x, report = solve_spd((a, b))
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


def test_factorization_is_symmetric(monkeypatch):
    mesh = unit_square_mesh(16)
    system = assemble(mesh, case_sine().problem(mesh))
    recorder = _RecordingLinalg()
    monkeypatch.setattr(wg4.solve, "spla", recorder)
    _, report = solve_spd(system)
    (lu,) = recorder.factors
    # one symmetric permutation of rows and columns: no row pivoting
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.nnz <= spla.splu(system.matrix.tocsc()).nnz / 2
    assert report.residual <= 1e-10


def test_high_contrast_solve_without_pivoting():
    # mu = 0 and a 1e5 diffusion contrast: the hardest system of the catalog
    _, _, _, report = solve_case(catalog_entry("boundary-indicator"), 16)
    assert report.residual <= 1e-10


def test_singular_matrix_reported():
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        solve_spd((a, np.array([1.0, 2.0])))


def test_report_fields():
    report = SolveReport(iterations=3, residual=1e-12, residual_history=[1.0, 1e-12])
    assert report.iterations == 3
    assert report.residual_history[-1] == 1e-12


def fourth_difference_system(m=500):
    """1D fourth-difference system: the relative residual of a direct solve
    stalls near 7e-8 in float64 while its backward error is about 1e-16."""
    a = sp.diags([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2], shape=(m, m), format="csr")
    return a, np.full(m, 1.0 / m**4)


def test_direct_solve_accepted_on_backward_error():
    x, report = solve_spd(fourth_difference_system())
    assert report.residual > 1e-10  # the relative-residual target is out of reach
    assert report.residual == report.residual_history[-1]
    assert report.backward_error is not None and report.backward_error <= 1e-10
    assert np.isfinite(x).all()


def test_direct_solve_beyond_backward_error_raises():
    with pytest.raises(SolverError) as err:
        solve_spd(fourth_difference_system(), SolverConfig(tolerance=1e-20))
    history = err.value.residual_history
    assert len(history) == 4 and min(history) > 1e-20
    assert "backward error" in str(err.value)
