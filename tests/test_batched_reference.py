"""The batched kernels against per-element references.

On an n=4 mesh with a two-region coefficient field, every batched
quantity must agree with its element-by-element (or edge-by-edge)
counterpart to 1e-13 relative.
"""

import numpy as np
import pytest

from util import edge_projection, element_load, error_sums, unit_square_mesh

from wg4 import poly, weakops
from wg4.assembly import CoefficientField, ProblemSpec, Region, local_load
from wg4.errors import error_report
from wg4.harness import case_sine

RTOL = 1e-13


def _close(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.abs(got - want).max() <= RTOL * np.abs(want).max())


@pytest.fixture(scope="module")
def setup():
    mesh = unit_square_mesh(4)
    regions = [
        Region(shape="rect", bounds=(0.0, 0.0, 0.5, 1.0), kappa=np.diag([2.0, 1.0]), mu=0.3),
        Region(shape="disk", center=(0.75, 0.25), radius=0.3,
               kappa=np.array([[1.0, 0.4], [0.4, 3.0]]), mu=0.0),
    ]
    coeff = CoefficientField.from_regions(mesh, 0.5 * np.eye(2), 0.1, regions)
    assert len(np.unique(coeff.mu)) == 3  # background and both regions present
    sine = case_sine().problem(mesh)
    spec = ProblemSpec(f=sine.f, xi=sine.xi, nu=sine.nu, coeff=coeff,
                       exact_u=sine.exact_u, exact_grad=sine.exact_grad)
    projected = weakops.project_Qh(mesh, spec.exact_u, spec.exact_grad, coeff.kappa)
    return mesh, spec, projected


def test_project_qh_interior_blocks_match_project_q0(setup):
    mesh, spec, projected = setup
    got = projected.coeffs[: 6 * mesh.n_elements].reshape(-1, 6)
    want = np.array([weakops.project_Q0(poly.make_triangle(mesh.vertices[v]), spec.exact_u)
                     for v in mesh.element_vertices])
    assert _close(got, want)


def test_project_qh_edge_blocks_match_per_edge_projection(setup):
    # The flux takes kappa from the lower-indexed adjacent element.
    mesh, spec, projected = setup
    got = projected.coeffs[6 * mesh.n_elements :].reshape(-1, 4)
    want = []
    for (p1, p2), normal, owner in zip(mesh.edge_points(), mesh.edge_normals,
                                       mesh.edge_elements[:, 0]):
        k = spec.coeff.kappa[owner]

        def flux(x, y):
            gx, gy = spec.exact_grad(x, y)
            return normal[0] * (k[0, 0] * gx + k[0, 1] * gy) + normal[1] * (
                k[1, 0] * gx + k[1, 1] * gy)

        want.append(np.concatenate([edge_projection(p1, p2, spec.exact_u),
                                    edge_projection(p1, p2, flux)]))
    want = np.array(want)
    assert _close(got[:, :2], want[:, :2])
    assert _close(got[:, 2:], want[:, 2:])


def test_loads_match_per_element_quadrature(setup):
    mesh, spec, _ = setup
    got = local_load(mesh.element_points(), spec.f)
    want = np.array([element_load(weakops.standalone_element(mesh.vertices[v]), spec.f)
                     for v in mesh.element_vertices])
    assert _close(got, want)


def test_error_report_sums_match_per_element_loop(setup):
    mesh, spec, projected = setup
    rng = np.random.default_rng(31)
    perturbation = 1e-2 * rng.normal(size=projected.coeffs.size)
    u_h = weakops.WeakFunction(coeffs=projected.coeffs + perturbation, dofmap=projected.dofmap)
    report = error_report(mesh, spec, u_h)
    e = projected.coeffs - u_h.coeffs
    e[projected.dofmap.boundary_mask(mesh)] = 0.0
    l2, eb, eg = error_sums(mesh, e)
    assert report.l2_e0 == pytest.approx(l2, rel=RTOL)
    assert report.eb_edge == pytest.approx(eb, rel=RTOL)
    assert report.eg_edge == pytest.approx(eg, rel=RTOL)
