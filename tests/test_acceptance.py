"""Acceptance suite: every shipped claim, one test per criterion.

Each criterion prints a single pass/fail line (run with ``pytest -s`` to
see them on passing runs).  The heavyweight convergence studies and the
forward-model demos are computed once per session and shared.
"""

import math
import time

import numpy as np
import pytest

from util import Element, l2_q0_residual, monomial_fields, local_projection, project_calQ1, \
    quadratic_problem, random_triangle, unit_square_mesh

from wg4 import assembly, weakops
from wg4.errors import convergence_orders, error_report
from wg4.harness import catalog_entry, sample_field, solve_case
from wg4.solve import solve_spd

# Frozen reference values for the two manufactured cases at h = 1/64.
SINE_L2_REF = 0.002447
SINE_TBAR_REF = 0.2255
BUMP_L2_REF = 2.981e-05

LEVELS = (8, 16, 32, 64)


def _report(label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {status}{suffix}")


class _Study:
    def __init__(self, case: str):
        start = time.perf_counter()
        self.reports = []
        self.final_mesh = None
        self.final_solution = None
        for n in LEVELS:
            mesh, spec, u_h, _ = solve_case(catalog_entry(case), n)
            self.reports.append(error_report(mesh, spec, u_h))
            self.final_mesh, self.final_solution = mesh, u_h
        self.orders = convergence_orders(self.reports)
        self.elapsed = time.perf_counter() - start


@pytest.fixture(scope="module")
def sine_study():
    return _Study("sine")


@pytest.fixture(scope="module")
def bump_study():
    return _Study("poly-bump")


@pytest.fixture(scope="module")
def ft_fields():
    start = time.perf_counter()
    fields = {}
    for name in ("boundary-indicator", "boundary-dirac", "gaussian-source"):
        mesh, _, u_h, _ = solve_case(catalog_entry(name), 64)
        _, values = sample_field(mesh, u_h, 101)
        fields[name] = values
    return fields, time.perf_counter() - start


def test_criterion_1_sine_table(sine_study):
    ok = False
    try:
        final = sine_study.reports[-1]
        l2_order = sine_study.orders["l2_e0"][-1]
        tbar_order = sine_study.orders["tbar"][-1]
        assert 1.9 <= l2_order <= 2.1
        assert 0.93 <= tbar_order <= 1.07
        assert abs(final.l2_e0 - SINE_L2_REF) <= 0.2 * SINE_L2_REF
        assert abs(final.tbar - SINE_TBAR_REF) <= 0.2 * SINE_TBAR_REF
        assert sine_study.elapsed <= 300.0
        ok = True
    finally:
        final = sine_study.reports[-1]
        _report(
            "criterion 1: sine table reproduction", ok,
            f"l2_64={final.l2_e0:.5e} order={sine_study.orders['l2_e0'][-1]:.2f}, "
            f"tbar_64={final.tbar:.5e} order={sine_study.orders['tbar'][-1]:.2f}, "
            f"{sine_study.elapsed:.0f}s",
        )


def test_criterion_2_poly_bump_table(bump_study):
    ok = False
    try:
        final = bump_study.reports[-1]
        l2_order = bump_study.orders["l2_e0"][-1]
        tbar_order = bump_study.orders["tbar"][-1]
        assert 1.85 <= l2_order <= 2.1
        assert 0.9 <= tbar_order <= 1.07
        assert BUMP_L2_REF / 2.0 <= final.l2_e0 <= BUMP_L2_REF * 2.0
        ok = True
    finally:
        final = bump_study.reports[-1]
        _report(
            "criterion 2: poly-bump table reproduction", ok,
            f"l2_64={final.l2_e0:.5e} order={bump_study.orders['l2_e0'][-1]:.2f}, "
            f"tbar_64={final.tbar:.5e} order={bump_study.orders['tbar'][-1]:.2f}",
        )


def test_criterion_3_quadratic_exactness():
    ok = False
    worst = 0.0
    try:
        for n in (4, 8):
            mesh = unit_square_mesh(n)
            spec = quadratic_problem(mesh)
            system = assembly.assemble(mesh, spec)
            x, _ = solve_spd(system)
            u_h = system.expand(x)
            projected = weakops.project_Qh(
                mesh, spec.exact_u, spec.exact_grad, spec.coeff.kappa
            )
            e = projected.coeffs - u_h.coeffs
            e[weakops.boundary_mask(mesh)] = 0.0
            err = assembly.triple_bar_norm(mesh, spec.coeff, e)
            bound = 1e-6 * (
                1.0 + assembly.triple_bar_norm(mesh, spec.coeff, projected.coeffs)
            )
            worst = max(worst, err / bound)
            assert err <= bound
        ok = True
    finally:
        _report(
            "criterion 3: quadratic solutions reproduced exactly", ok,
            f"worst error/bound={worst:.2e}",
        )


def test_criterion_4_commutativity_suite():
    ok = False
    start = time.perf_counter()
    worst = 0.0
    try:
        rng = np.random.default_rng(2024)
        kappas = (np.eye(2), np.diag([3.0, 0.5]))
        fields = monomial_fields()
        for _ in range(50):
            geom = Element.standalone(random_triangle(rng))
            ew_row = geom.ew()
            grad_mat = geom.gw()
            for kappa in kappas:
                for (_, u, grad, elliptic) in fields:
                    local = local_projection(geom, u, grad, kappa).to_vector()
                    ew_err = abs(float(ew_row @ local) - elliptic(kappa))
                    grad_err = np.abs(
                        grad_mat @ local - project_calQ1(geom.tri, grad)
                    ).max()
                    worst = max(worst, ew_err, grad_err)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-12
        assert elapsed <= 1.0
        ok = True
    finally:
        _report(
            "criterion 4: weak-operator/projection commutativity", ok,
            f"worst={worst:.2e}, {time.perf_counter() - start:.2f}s",
        )


def test_criterion_5_well_posedness():
    ok = False
    start = time.perf_counter()
    min_eig = math.inf
    try:
        for n in (1, 2):
            mesh = unit_square_mesh(n)
            spec = catalog_entry("sine").problem(mesh)
            system = assembly.assemble(mesh, spec)
            a = system.matrix.toarray()
            assert np.abs(a - a.T).max() <= 1e-13 * np.abs(a).max()
            min_eig = min(min_eig, float(np.linalg.eigvalsh(a).min()))
            assert min_eig > 0.0

            zero = np.vectorize(lambda x, y: 0.0, otypes=[float])
            trivial = assembly.ProblemSpec(
                f=zero, xi=zero, nu=zero, coeff=spec.coeff
            )
            sys0 = assembly.assemble(mesh, trivial)
            x, _ = solve_spd(sys0)
            assert np.all(x == 0.0)
        assert time.perf_counter() - start <= 1.0
        ok = True
    finally:
        _report(
            "criterion 5: symmetric positive definite system, zero data -> zero", ok,
            f"min eigenvalue={min_eig:.3e}, {time.perf_counter() - start:.2f}s",
        )


def test_criterion_6_interior_projection_rate():
    ok = False
    start = time.perf_counter()
    slope = math.nan
    try:
        def u(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        ns = np.array([4, 8, 16, 32])
        errs = np.array([l2_q0_residual(unit_square_mesh(int(n)), u) for n in ns])
        slope = float(np.polyfit(np.log(1.0 / ns), np.log(errs), 1)[0])
        assert abs(slope - 3.0) <= 0.15
        assert time.perf_counter() - start <= 5.0
        ok = True
    finally:
        _report(
            "criterion 6: interior projection converges at third order", ok,
            f"fitted order={slope:.3f}, {time.perf_counter() - start:.1f}s",
        )


def test_criterion_7_forward_model_demos(ft_fields):
    ok = False
    fields, elapsed = ft_fields
    ratio = math.nan
    try:
        for name, values in fields.items():
            assert np.isfinite(values).all(), name
        ratio = float(
            np.abs(fields["boundary-dirac"]).max()
            / np.abs(fields["boundary-indicator"]).max()
        )
        assert ratio >= 2.0
        assert elapsed <= 600.0
        ok = True
    finally:
        _report(
            "criterion 7: forward-model demos at n=64", ok,
            f"dirac/indicator max ratio={ratio:.1f}, {elapsed:.0f}s",
        )


def test_criterion_8_edge_norm_rates(sine_study):
    ok = False
    try:
        eb_orders = sine_study.orders["eb_edge"][-2:]
        eg_orders = sine_study.orders["eg_edge"][-2:]
        assert all(order >= 1.8 for order in eb_orders)
        assert all(order >= 0.8 for order in eg_orders)
        ok = True
    finally:
        _report(
            "criterion 8: edge-norm convergence rates", ok,
            "eb orders=" + "/".join(f"{o:.2f}" for o in sine_study.orders["eb_edge"][-2:])
            + ", eg orders="
            + "/".join(f"{o:.2f}" for o in sine_study.orders["eg_edge"][-2:]),
        )


def test_sine_field_sample_at_center(sine_study):
    # The interior component of the solved sine case evaluated mid-domain
    # sits within the discretization error of the true peak value 1.
    _, values = sample_field(sine_study.final_mesh, sine_study.final_solution, 3)
    center = values[4]  # (0.5, 0.5) on the 3 x 3 lattice
    assert abs(center - 1.0) <= 1e-2
