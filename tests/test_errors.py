import math

import numpy as np
import pytest

from util import boundary_mask, unit_square_mesh

from wg4 import weakops
from wg4.assembly import assemble
from wg4.errors import ErrorReport, convergence_orders, error_report, orders_from_values
from wg4.harness import case_sine
from wg4.mesh import build_structured_mesh


def _operator(mesh, spec):
    """The operator that solves ``spec`` on ``mesh``."""
    return assemble(mesh, spec).operator


@pytest.fixture(scope="module")
def sine_setup():
    mesh = unit_square_mesh(2)
    spec = case_sine().problem(mesh)
    projected = weakops.project_Qh(mesh, spec.exact_u, spec.exact_grad, spec.coeff.kappa)
    return _operator(mesh, spec), spec, projected


@pytest.mark.parametrize("spec_n", [4, 8], ids=["another_meshs", "same_meshs_fresh"])
def test_error_report_rejects_a_spec_of_another_field(spec_n):
    # the case's field on another mesh, or on the operator's mesh but another object
    spec = case_sine().problem(unit_square_mesh(spec_n))
    mesh = unit_square_mesh(8)
    op = _operator(mesh, case_sine().problem(mesh))
    with pytest.raises(ValueError, match="^spec: its coefficient field is not the operator's$"):
        error_report(op, spec, weakops.WeakFunction.zeros(mesh))


def test_error_report_rejects_another_meshs_solution():
    mesh = unit_square_mesh(4)
    spec = case_sine().problem(mesh)
    u_h = weakops.WeakFunction.zeros(unit_square_mesh(2))
    with pytest.raises(ValueError, match="^solution has 8 elements, mesh has 32$"):
        error_report(_operator(mesh, spec), spec, u_h)


def test_projected_solution_has_zero_errors(sine_setup):
    op, spec, projected = sine_setup
    report = error_report(op, spec, projected)
    assert report.l2_e0 == 0.0
    assert report.tbar == 0.0
    assert report.eb_edge == 0.0
    assert report.eg_edge == 0.0


def test_norm_homogeneity(sine_setup):
    op, spec, projected = sine_setup
    mesh = op.mesh
    rng = np.random.default_rng(12)
    delta = rng.normal(size=weakops.dof_count(mesh))
    delta[boundary_mask(mesh)] = 0.0

    def perturbed(scale):
        u_h = weakops.WeakFunction(projected.coeffs - scale * delta, mesh.n_elements)
        return error_report(op, spec, u_h)

    r1 = perturbed(1.0)
    r3 = perturbed(-3.0)
    for name in ("l2_e0", "tbar", "eb_edge", "eg_edge"):
        assert getattr(r3, name) == pytest.approx(3.0 * getattr(r1, name), rel=1e-12)


def test_error_report_requires_exact_solution(sine_setup):
    op, spec, projected = sine_setup
    from wg4.assembly import ProblemSpec

    stripped = ProblemSpec(f=spec.f, xi=spec.xi, nu=spec.nu, coeff=spec.coeff)
    with pytest.raises(ValueError):
        error_report(op, stripped, projected)


def test_report_validation():
    with pytest.raises(ValueError):
        ErrorReport(n=2, h=0.5, l2_e0=-1.0, tbar=0.0, eb_edge=0.0, eg_edge=0.0)
    with pytest.raises(ValueError):
        ErrorReport(n=2, h=0.5, l2_e0=float("nan"), tbar=0.0, eb_edge=0.0, eg_edge=0.0)


def test_orders_from_values():
    assert orders_from_values([0.04, 0.01]) == [pytest.approx(2.0)]
    # reference error pairs at the two finest levels
    assert orders_from_values([0.03904, 0.009783])[0] == pytest.approx(2.00, abs=5e-3)
    assert orders_from_values([0.004988, 0.002506])[0] == pytest.approx(0.99, abs=5e-3)
    assert orders_from_values([0.5, 0.0]) == [math.inf]
    assert orders_from_values([0.0, 0.5]) == [-math.inf]


def test_convergence_orders_requires_doubling():
    def report(n, scale):
        return ErrorReport(n=n, h=1.0 / n, l2_e0=scale, tbar=scale, eb_edge=scale,
                           eg_edge=scale)

    reports = [report(2, 0.04), report(4, 0.01)]
    orders = convergence_orders(reports)
    assert orders["l2_e0"] == [pytest.approx(2.0)]
    with pytest.raises(ValueError):
        convergence_orders([report(2, 0.04), report(6, 0.01)])


def test_error_report_h_is_the_longer_side_over_n(sine_setup):
    op, spec, projected = sine_setup
    assert error_report(op, spec, projected).h == 0.5
    mesh = build_structured_mesh((-1.0, 2.0, 3.0, 5.0), 4)  # 4 wide, 3 high
    spec = case_sine().builder(mesh, ())
    projected = weakops.project_Qh(mesh, spec.exact_u, spec.exact_grad, spec.coeff.kappa)
    assert error_report(_operator(mesh, spec), spec, projected).h == 1.0
