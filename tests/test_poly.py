import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import ElementBasis, edge_mass_matrix, element_mass_matrix, make_triangle, random_triangle

from wg4 import poly, weakops

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
#: The thinnest of the acceptance suite's random triangles; its P2 Gram
#: matrix had condition number 3.7e7 in diameter-scaled monomials.
THIN = np.array([[-0.789, 0.131], [-0.991, -0.070], [0.951, 0.599]])


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
    points = np.array([[[1.0, 1.0], [3.0, 2.0], [1.5, 4.0]]])
    rule = poly.triangle_quadrature(2)
    pts = poly.map_to_triangles(rule, points)[0]
    w = rule.weights * poly.jacobian_determinants(points)[0]
    area, centroid = 2.75, points[0].mean(axis=0)
    assert float(w.sum()) == pytest.approx(area, rel=1e-13)
    # linear moments via the centroid formula
    assert float(w @ pts[:, 0]) == pytest.approx(area * centroid[0], rel=1e-13)
    assert float(w @ pts[:, 1]) == pytest.approx(area * centroid[1], rel=1e-13)


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
    assert poly.reference_basis(degree, poly.REFERENCE_VERTICES).shape == (3, dim)
    assert poly.reference_gradients(degree, poly.REFERENCE_VERTICES).shape == (3, dim, 2)
    assert poly.reference_mass(degree).shape == (dim, dim)


def test_basis_bounded_at_vertices():
    # The affine-mapped basis of any triangle takes the reference values
    # at its vertices.
    tri = make_triangle(np.array([[0.2, -1.0], [2.0, 0.5], [-0.3, 1.4]]))
    want = poly.reference_basis(2, poly.REFERENCE_VERTICES)
    assert np.abs(ElementBasis.for_triangle(tri, 2).eval(tri.vertices) - want).max() <= 1e-14
    assert np.abs(want).max() <= 1.0


def test_basis_gradient_against_finite_differences():
    rng = np.random.default_rng(7)
    pts = rng.dirichlet(np.ones(3), size=10) @ poly.REFERENCE_VERTICES
    step = 1e-6
    for degree in (2, 4):
        grads = poly.reference_gradients(degree, pts)
        for d, offset in ((0, np.array([step, 0.0])), (1, np.array([0.0, step]))):
            fd = (poly.reference_basis(degree, pts + offset)
                  - poly.reference_basis(degree, pts - offset)) / (2 * step)
            assert np.abs(fd - grads[:, :, d]).max() <= 1e-6


def test_reference_basis_maps_to_physical_gradients():
    # grad_x = J^-T grad_X: the reference gradients at the reference
    # points equal the physical basis's gradients at the mapped points.
    points = np.array([[[0.0, 0.0], [1.3, 0.2], [0.4, 1.1]]])
    rule = poly.triangle_quadrature(4)
    mapped = poly.map_to_triangles(rule, points)[0]
    basis = ElementBasis.for_triangle(make_triangle(points[0]), 2)
    got = poly.reference_gradients(2, rule.points) @ poly.inverse_jacobians(points)[0]
    assert np.abs(got - basis.grad(mapped)).max() <= 1e-13
    assert np.abs(poly.reference_basis(2, rule.points) - basis.eval(mapped)).max() <= 1e-14


def test_element_mass_matrix_p0():
    assert poly.reference_mass(0).shape == (1, 1)
    assert poly.reference_mass(0)[0, 0] == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_element_mass_matrix_spd(seed):
    # The Gram matrix on a triangle, by quadrature on the triangle itself,
    # is 2|T| times the reference one.
    tri = make_triangle(random_triangle(np.random.default_rng(seed)))
    for degree in (1, 2):
        mass = poly.reference_mass(degree)
        assert np.array_equal(mass, mass.T)
        assert np.linalg.eigvalsh(mass).min() > 0
        got = element_mass_matrix(tri, degree)
        assert np.abs(got - 2.0 * tri.area * mass).max() <= 1e-14 * np.abs(got).max()


def test_element_mass_matrix_conditioning_is_shape_independent():
    thin = make_triangle(THIN)
    for degree in (1, 2):
        got = element_mass_matrix(thin, degree)
        want = poly.reference_mass(degree)
        assert np.abs(got - 2.0 * thin.area * want).max() <= 1e-14 * np.abs(got).max()
        assert np.linalg.cond(got) == pytest.approx(np.linalg.cond(want), rel=1e-10)


def test_edge_mass_matrix():
    assert poly.edge_mass(0) == pytest.approx(np.array([[1.0]]))
    mass = poly.edge_mass(1)
    assert mass[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert mass[1, 1] == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert abs(mass[0, 1]) <= 1e-15 and abs(mass[1, 0]) <= 1e-15
    assert np.abs(edge_mass_matrix(2.5) - 2.5 * mass).max() <= 1e-15


def test_cached_reference_tables_are_read_only():
    # every caller shares these; a write into one would corrupt every
    # later assembly
    with pytest.raises(ValueError, match="read-only"):
        poly.reference_mass(2)[0, 0] = 1.0
    rules = [poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE),
             poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)]
    tables = {
        "REFERENCE_VERTICES": poly.REFERENCE_VERTICES,
        **{f"reference_mass({k})": poly.reference_mass(k) for k in (1, 2)},
        "edge_mass(1)": poly.edge_mass(1),
        **{f"rule{i}.{part}": getattr(rule, part)
           for i, rule in enumerate(rules) for part in ("points", "weights")},
        **{f"_edge_traces()[{i}]": table for i, table in enumerate(weakops._edge_traces())},
        "_gradient_moments": weakops._gradient_moments(),
        "_weighted_interior_basis": weakops._weighted_interior_basis(),
        "_edge_projector": weakops._edge_projector(),
    }
    for name, table in tables.items():
        assert not table.flags.writeable, name
