import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wg4 import poly

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def reference_moment(a: int, b: int) -> float:
    # int over the reference triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 4, 8, 10])
def test_triangle_quadrature_moment_oracle(degree):
    rule = poly.triangle_quadrature(degree)
    assert abs(rule.weights.sum() - 0.5) <= 1e-14
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float((rule.points[:, 0] ** a * rule.points[:, 1] ** b) @ rule.weights)
            exact = reference_moment(a, b)
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1.0), (a, b)


def test_degree_eight_moment_example():
    rule = poly.triangle_quadrature(8)
    got = float((rule.points[:, 0] ** 4 * rule.points[:, 1] ** 4) @ rule.weights)
    assert got == pytest.approx(reference_moment(4, 4), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_quadrature_moments_property(a, b):
    degree = a + b
    if degree > poly.MAX_TRIANGLE_DEGREE:
        return
    rule = poly.triangle_quadrature(degree)
    got = float((rule.points[:, 0] ** a * rule.points[:, 1] ** b) @ rule.weights)
    assert got == pytest.approx(reference_moment(a, b), rel=1e-12, abs=1e-15)


def test_mapped_rule_exactness():
    tri = poly.make_triangle(np.array([[1.0, 1.0], [3.0, 2.0], [1.5, 4.0]]))
    rule = poly.triangle_quadrature(2)
    pts, w = poly.map_to_triangle(rule, tri)
    assert float(w.sum()) == pytest.approx(tri.area, rel=1e-13)
    # linear moments via the centroid formula
    assert float(w @ pts[:, 0]) == pytest.approx(tri.area * tri.centroid[0], rel=1e-13)
    assert float(w @ pts[:, 1]) == pytest.approx(tri.area * tri.centroid[1], rel=1e-13)


def test_segment_rule():
    rule = poly.gauss_segment_quadrature(5)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    assert abs(float((rule.points**9) @ rule.weights)) <= 1e-14  # odd power
    for k in range(10):
        exact = (0.5 ** (k + 1) - (-0.5) ** (k + 1)) / (k + 1)
        got = float((rule.points**k) @ rule.weights)
        assert got == pytest.approx(exact, abs=1e-14)


def test_unsupported_rules_rejected():
    with pytest.raises(ValueError):
        poly.triangle_quadrature(poly.MAX_TRIANGLE_DEGREE + 1)
    with pytest.raises(ValueError):
        poly.triangle_quadrature(-1)
    with pytest.raises(ValueError):
        poly.gauss_segment_quadrature(poly.MAX_SEGMENT_POINTS + 1)


@pytest.mark.parametrize("degree,dim", [(0, 1), (1, 3), (2, 6)])
def test_basis_dimension(degree, dim):
    tri = poly.make_triangle(UNIT_RIGHT)
    basis = poly.ElementBasis.for_triangle(tri, degree)
    assert basis.dim == dim
    assert basis.eval(tri.vertices).shape == (3, dim)


def test_basis_bounded_at_vertices():
    tri = poly.make_triangle(np.array([[0.2, -1.0], [2.0, 0.5], [-0.3, 1.4]]))
    basis = poly.ElementBasis.for_triangle(tri, 2)
    assert np.abs(basis.eval(tri.vertices)).max() <= 1.0 + 1e-12


def test_basis_gradient_against_finite_differences():
    rng = np.random.default_rng(7)
    tri = poly.make_triangle(np.array([[0.0, 0.0], [1.3, 0.2], [0.4, 1.1]]))
    basis = poly.ElementBasis.for_triangle(tri, 2)
    bary = rng.dirichlet(np.ones(3), size=10)
    pts = bary @ tri.vertices
    step = 1e-6
    grads = basis.grad(pts)
    for d, offset in ((0, np.array([step, 0.0])), (1, np.array([0.0, step]))):
        fd = (basis.eval(pts + offset) - basis.eval(pts - offset)) / (2 * step)
        assert np.abs(fd - grads[:, :, d]).max() <= 1e-6


def test_element_mass_matrix_p0():
    tri = poly.make_triangle(UNIT_RIGHT)
    mass = poly.element_mass_matrix(tri, 0)
    assert mass.shape == (1, 1)
    assert mass[0, 0] == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_element_mass_matrix_spd(seed):
    from util import random_triangle

    rng = np.random.default_rng(seed)
    tri = poly.make_triangle(random_triangle(rng))
    for degree in (1, 2):
        mass = poly.element_mass_matrix(tri, degree)
        assert np.array_equal(mass, mass.T)
        assert np.linalg.eigvalsh(mass).min() > 0


def test_element_mass_matrix_conditioning_is_shape_independent():
    # the thinnest of the acceptance suite's random triangles; its P2 Gram
    # matrix had condition number 3.7e7 in diameter-scaled monomials
    thin = poly.make_triangle(np.array([[-0.789, 0.131], [-0.991, -0.070], [0.951, 0.599]]))
    ref = poly.make_triangle(UNIT_RIGHT)
    for degree in (1, 2):
        got = np.linalg.cond(poly.element_mass_matrix(thin, degree))
        want = np.linalg.cond(poly.element_mass_matrix(ref, degree))
        assert got == pytest.approx(want, rel=1e-10)


def test_element_mass_matrix_weights():
    tri = poly.make_triangle(UNIT_RIGHT)
    base = poly.element_mass_matrix(tri, 1)
    assert np.allclose(poly.element_mass_matrix(tri, 1, weight=3.0), 3.0 * base)
    kappa = np.array([[2.0, 0.5], [0.5, 1.0]])
    vec = poly.element_mass_matrix(tri, 1, weight=kappa)
    assert vec.shape == (6, 6)
    assert np.allclose(vec, np.kron(kappa, base))
    assert np.linalg.eigvalsh(vec).min() > 0


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        poly.make_triangle(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):  # clockwise
        poly.make_triangle(UNIT_RIGHT[::-1])


def test_edge_mass_matrix():
    assert poly.edge_mass_matrix(2.5, 0) == pytest.approx(np.array([[2.5]]))
    mass = poly.edge_mass_matrix(1.0, 1)
    assert mass[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert mass[1, 1] == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert abs(mass[0, 1]) <= 1e-15 and abs(mass[1, 0]) <= 1e-15
    with pytest.raises(ValueError):
        poly.edge_mass_matrix(0.0, 1)


def test_triangle_diameter_is_longest_side():
    # The penalty scale h is the shortest side; the kernels' use of it is
    # checked against the reference kernel in test_batched_reference.py.
    tri = poly.make_triangle(UNIT_RIGHT)
    assert tri.diameter == pytest.approx(math.sqrt(2.0))
