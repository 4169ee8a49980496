import math

import numpy as np
import pytest

from util import (
    Element,
    ElementBasis,
    LocalWeakFunction,
    boundary_mask,
    edge_vg,
    local_of,
    local_projection,
    map_to_triangle,
    monomial_fields,
    project_calQ1,
    project_calQh,
    project_Q0,
    random_triangle,
    scatter_local,
    unit_square_mesh,
    weak_gradient,
    weak_laplacian_kappa,
)

from wg4 import poly, weakops
from wg4.assembly import AssemblyError
from wg4.weakops import WeakFunction

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def right_geom():
    return Element.standalone(UNIT_RIGHT)


def test_weak_laplacian_of_unit_outward_flux(right_geom):
    # vg = +1 (element-outward) on all edges: the operator is the
    # perimeter over the area, (2 + sqrt 2) / (1/2).
    local = LocalWeakFunction.zeros()
    local.cg[:, 0] = 1.0
    got = weak_laplacian_kappa(right_geom, local)
    assert got == pytest.approx(4.0 + 2.0 * math.sqrt(2.0), rel=1e-13)


def test_weak_laplacian_ignores_interior_and_trace_blocks(right_geom):
    rng = np.random.default_rng(3)
    local = LocalWeakFunction.zeros()
    local.c0 = rng.normal(size=6)
    local.cb = rng.normal(size=(3, 2))
    assert weak_laplacian_kappa(right_geom, local) == pytest.approx(0.0, abs=1e-14)


def test_weak_gradient_of_lifted_linear(right_geom):
    local = LocalWeakFunction.zeros()
    local.c0 = project_Q0(right_geom.tri, lambda x, y: x)
    for k in range(3):
        local.cb[k] = weakops.project_Qb(right_geom.segment(k), lambda x, y: x)[0]
    coeffs = weak_gradient(right_geom, local)
    basis1 = ElementBasis.for_triangle(right_geom.tri, 1)
    pts = np.array([[0.1, 0.1], [0.5, 0.2], [0.2, 0.6]])
    vals = basis1.eval(pts)
    assert np.abs(vals @ coeffs[:3] - 1.0).max() <= 1e-13
    assert np.abs(vals @ coeffs[3:]).max() <= 1e-13


def test_weak_operators_vanish_on_zero(right_geom):
    zero = LocalWeakFunction.zeros()
    assert weak_laplacian_kappa(right_geom, zero) == 0.0
    assert np.all(weak_gradient(right_geom, zero) == 0.0)


def test_weak_operators_linear_in_coefficients():
    rng = np.random.default_rng(11)
    geom = Element.standalone(random_triangle(rng))
    ew = geom.ew()
    gw = geom.gw()
    u = rng.normal(size=18)
    v = rng.normal(size=18)
    a, b = rng.normal(size=2)
    lu = LocalWeakFunction.from_vector(a * u + b * v)
    assert weak_laplacian_kappa(geom, lu) == pytest.approx(
        a * float(ew @ u) + b * float(ew @ v), rel=1e-12, abs=1e-14
    )
    assert np.allclose(weak_gradient(geom, lu), a * gw @ u + b * gw @ v, atol=1e-13)


@pytest.mark.parametrize("kappa", [np.eye(2), np.diag([3.0, 0.5])])
def test_commutativity_on_random_elements(kappa):
    # Projecting then applying the weak operators equals projecting the
    # classically applied operators, exactly (up to roundoff), for every
    # monomial the interior space contains.
    rng = np.random.default_rng(5)
    for _ in range(10):
        geom = Element.standalone(random_triangle(rng))
        for (_, u, grad, elliptic) in monomial_fields():
            local = local_projection(geom, u, grad, kappa)
            got_ew = weak_laplacian_kappa(geom, local)
            expected = elliptic(kappa)  # already constant = its P0 projection
            assert abs(got_ew - expected) <= 1e-12
            got_grad = weak_gradient(geom, local)
            expected_grad = project_calQ1(geom.tri, grad)
            assert np.abs(got_grad - expected_grad).max() <= 1e-12


def test_weak_laplacian_of_projected_quadratic(right_geom):
    local = local_projection(
        right_geom,
        lambda x, y: x * x,
        lambda x, y: (2.0 * x, np.zeros_like(y)),
        np.eye(2),
    )
    assert weak_laplacian_kappa(right_geom, local) == pytest.approx(2.0, abs=1e-13)


def test_weak_gradient_of_projected_bilinear(right_geom):
    local = local_projection(
        right_geom, lambda x, y: x * y, lambda x, y: (y, x), np.eye(2)
    )
    got = weak_gradient(right_geom, local)
    expected = project_calQ1(right_geom.tri, lambda x, y: (y, x))
    assert np.abs(got - expected).max() <= 1e-13


def test_orientation_flip_invariance():
    # Flipping an edge's global normal flips sigma; negating the stored
    # flux coefficients must leave the operator values unchanged.
    rng = np.random.default_rng(19)
    geom = Element.standalone(random_triangle(rng))
    k = 1
    signs = geom.signs.copy()
    signs[0, k] = -signs[0, k]
    flipped = Element(geom.points, signs, geom.flipped)

    vec = rng.normal(size=18)
    local = LocalWeakFunction.from_vector(vec)
    local_flipped = LocalWeakFunction.from_vector(vec)
    local_flipped.cg[k] = -local_flipped.cg[k]

    assert weak_laplacian_kappa(flipped, local_flipped) == pytest.approx(
        weak_laplacian_kappa(geom, local), rel=1e-13, abs=1e-13
    )
    assert np.allclose(
        weak_gradient(flipped, local_flipped),
        weak_gradient(geom, local),
        atol=1e-13,
    )
    a = geom.system(np.eye(2), 0.7)
    b = flipped.system(np.eye(2), 0.7)
    qa = float(local.to_vector() @ a @ local.to_vector())
    qb = float(local_flipped.to_vector() @ b @ local_flipped.to_vector())
    assert qb == pytest.approx(qa, rel=1e-13)


def test_project_q0_reproduces_members(right_geom):
    def u(x, y):
        return x * x + y

    coeffs = project_Q0(right_geom.tri, u)
    basis = ElementBasis.for_triangle(right_geom.tri, 2)
    rule = poly.triangle_quadrature(8)
    pts, _ = map_to_triangle(rule, right_geom.tri)
    assert np.abs(basis.eval(pts) @ coeffs - u(pts[:, 0], pts[:, 1])).max() <= 1e-13


def test_projection_orthogonality(right_geom):
    # The projection residual of a transcendental function must be
    # L2-orthogonal to the target space.
    def u(x, y):
        return np.exp(x) * np.sin(3 * y)

    coeffs = project_Q0(right_geom.tri, u)
    basis = ElementBasis.for_triangle(right_geom.tri, 2)
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = map_to_triangle(rule, right_geom.tri)
    residual = u(pts[:, 0], pts[:, 1]) - basis.eval(pts) @ coeffs
    moments = basis.eval(pts).T @ (w * residual)
    assert np.abs(moments).max() <= 1e-13


def test_project_qg_constant(right_geom):
    coeffs = weakops.project_Qg(right_geom.segment(0),
                                lambda x, y: 4.25 * np.ones_like(x))[0]
    assert coeffs == pytest.approx([4.25, 0.0], abs=1e-13)


def test_project_calqh_mean_value(right_geom):
    got = project_calQh(right_geom.tri, lambda x, y: x)
    assert got == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_local_system_rejects_degenerate_triangle():
    points = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                       [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    flags = np.zeros((2, 3), dtype=bool)
    kappa = np.tile(np.eye(2), (2, 1, 1))
    with pytest.raises(AssemblyError, match="element 1 of the batch is degenerate"):
        weakops.local_system(points, np.ones((2, 3)), flags, kappa, np.ones(2))


def test_dof_count_and_roundtrip():
    mesh = unit_square_mesh(3)
    size = weakops.dof_count(mesh)
    n = mesh.n
    assert size == 24 * n * n + 8 * n

    rng = np.random.default_rng(2)
    wf = WeakFunction(coeffs=rng.normal(size=size), n_elements=mesh.n_elements)
    snapshot = wf.coeffs.copy()
    for i in range(mesh.n_elements):
        local = local_of(wf, mesh, i)
        scatter_local(wf, mesh, i, local)
    assert np.array_equal(wf.coeffs, snapshot)


def test_boundary_mask_counts():
    mesh = unit_square_mesh(2)
    mask = boundary_mask(mesh)
    assert mask.sum() == 4 * (4 * mesh.n)  # 4 dofs per boundary edge
    assert not mask[: 6 * mesh.n_elements].any()  # interior blocks are never boundary


def test_project_qh_zero_and_flux_convention():
    mesh = unit_square_mesh(1)
    kappa = np.tile(np.eye(2), (mesh.n_elements, 1, 1))
    zero = weakops.project_Qh(
        mesh, lambda x, y: np.zeros_like(x), lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
        kappa,
    )
    assert np.all(zero.coeffs == 0.0)
    with pytest.raises(ValueError, match=r"mesh has 2; .* got \(2, 2\)"):
        weakops.project_Qh(mesh, lambda x, y: x, lambda x, y: (x, y), np.eye(2))

    # u = x^2: on the bottom boundary edge (normal (0, -1)) the conormal
    # flux vanishes because u does not depend on y.
    proj = weakops.project_Qh(
        mesh, lambda x, y: x * x, lambda x, y: (2.0 * x, np.zeros_like(y)), kappa
    )
    midpoints = mesh.edge_points().mean(axis=1)
    bottom = [e for e in range(mesh.n_edges)
              if mesh.boundary[e] and abs(midpoints[e, 1]) < 1e-12]
    assert len(bottom) == 1
    assert np.abs(proj.coeffs[edge_vg(mesh, bottom[0])]).max() <= 1e-13


def test_projection_error_decays_at_third_order():
    from util import l2_q0_residual

    def u(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    errs = [l2_q0_residual(unit_square_mesh(n), u) for n in (4, 8, 16)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    for order in orders:
        assert order == pytest.approx(3.0, abs=0.2)
