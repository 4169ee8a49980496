"""The batched kernels against per-element references.

On n=4 meshes with two-region and per-element coefficient fields, every
batched quantity must agree with its element-by-element (or
edge-by-edge) counterpart to 1e-13 relative.
"""

import numpy as np
import pytest

from util import (
    Element,
    edge_projection,
    element_load,
    error_sums,
    make_triangle,
    project_Q0,
    random_triangle,
    reference_geometry,
    reference_local_system,
    reference_weak_gradient,
    reference_weak_laplacian,
    unit_square_mesh,
)

from wg4 import assembly, weakops
from wg4.assembly import CoefficientField, ProblemSpec, Region
from wg4.mesh import build_structured_mesh
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
    want = np.array([project_Q0(make_triangle(mesh.vertices[v]), spec.exact_u)
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
    got = weakops.local_load(weakops.load_quadrature(mesh.element_points()), spec.f)
    want = np.array([element_load(make_triangle(mesh.vertices[v]), spec.f)
                     for v in mesh.element_vertices])
    assert _close(got, want)


def test_error_report_sums_match_per_element_loop(setup):
    mesh, spec, projected = setup
    rng = np.random.default_rng(31)
    perturbation = 1e-2 * rng.normal(size=projected.coeffs.size)
    u_h = weakops.WeakFunction(projected.coeffs + perturbation, mesh.n_elements)
    report = error_report(mesh, spec, u_h)
    e = projected.coeffs - u_h.coeffs
    e[weakops.boundary_mask(mesh)] = 0.0
    l2, eb, eg = error_sums(mesh, e)
    assert report.l2_e0 == pytest.approx(l2, rel=RTOL)
    assert report.eb_edge == pytest.approx(eb, rel=RTOL)
    assert report.eg_edge == pytest.approx(eg, rel=RTOL)


def _random_field(mesh, rng) -> CoefficientField:
    """Per-element SPD kappa with off-diagonal entries, and mu with zeros."""
    factor = rng.normal(size=(mesh.n_elements, 2, 2))
    kappa = factor @ factor.transpose(0, 2, 1) + 0.1 * np.eye(2)
    mu = rng.uniform(0.0, 1.0, mesh.n_elements)
    mu[::3] = 0.0
    return CoefficientField(kappa=kappa, mu=mu)


@pytest.mark.parametrize("domain", [(0.0, 0.0, 1.0, 1.0), (-1.0, 2.0, 3.0, 5.0)])
@pytest.mark.parametrize("field", ["per-element", "uniform"])
def test_class_matrices_match_reference_kernel(domain, field):
    mesh = build_structured_mesh(domain, 4)
    if field == "uniform":
        coeff = CoefficientField.from_regions(mesh, np.array([[2.0, 0.3], [0.3, 1.0]]), 0.4)
    else:
        coeff = _random_field(mesh, np.random.default_rng(41))
    mats, classes = assembly._class_matrices(mesh, coeff)
    assert len(mats) == (5 if field == "uniform" else mesh.n_elements)
    for i in range(mesh.n_elements):
        geom = reference_geometry(Element.of_mesh(mesh, i))
        want = reference_local_system(geom, coeff.kappa[i], float(coeff.mu[i]))
        assert _close(mats[classes[i]], want), i


def test_weak_operators_match_reference_kernel():
    mesh = build_structured_mesh((-1.0, 2.0, 3.0, 5.0), 4)
    verts = mesh.element_vertices
    flipped = verts > np.roll(verts, -1, axis=1)
    assert flipped.any() and (~flipped).any()
    ew = weakops.weak_laplacian_matrix(mesh.element_points(), mesh.element_signs)
    gw = weakops.weak_gradient_matrix(mesh.element_points(), flipped)
    for i in range(mesh.n_elements):
        geom = reference_geometry(Element.of_mesh(mesh, i))
        assert _close(ew[i], reference_weak_laplacian(geom))
        assert _close(gw[i], reference_weak_gradient(geom))


def test_local_system_matches_reference_on_random_triangles():
    # Random shapes, signs and orientations in one batch; h is the
    # shortest side, which differs from the other two here.
    rng = np.random.default_rng(43)
    count = 12
    points = np.array([random_triangle(rng) for _ in range(count)])
    signs = rng.choice([-1.0, 1.0], size=(count, 3))
    flipped = rng.random((count, 3)) < 0.5
    factor = rng.normal(size=(count, 2, 2))
    kappa = factor @ factor.transpose(0, 2, 1) + 0.1 * np.eye(2)
    mu = np.where(np.arange(count) % 4 == 0, 0.0, rng.uniform(0.1, 2.0, count))
    mats = weakops.local_system(points, signs, flipped, kappa, mu)
    for i in range(count):
        geom = reference_geometry(Element(points[[i]], signs[[i]], flipped[[i]]))
        assert _close(mats[i], reference_local_system(geom, kappa[i], mu[i])), i


def test_per_element_field_needs_one_kernel_call(monkeypatch):
    mesh = unit_square_mesh(8)
    coeff = _random_field(mesh, np.random.default_rng(47))
    calls = []
    kernel = assembly.local_system

    def counted(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(assembly, "local_system", counted)
    zero = np.vectorize(lambda x, y: 0.0, otypes=[float])
    assembly.assemble(mesh, ProblemSpec(f=zero, xi=zero, nu=zero, coeff=coeff))
    assert calls == [mesh.n_elements]
