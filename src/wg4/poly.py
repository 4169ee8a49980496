"""Polynomial bases and quadrature on triangles and segments.

Element bases are affine-mapped monomials X^a Y^b in the local
coordinates (X, Y) = J^-1 (x - xc), where J = [v1 - v0, v2 - v0] maps the
reference triangle onto the element and xc is its centroid.  Every
element's Gram matrix is then 2|T| times the reference triangle's, so its
condition number depends neither on the mesh size nor on the element's
shape (about 36 for P1 and 1.9e3 for P2).  Edge bases are powers of
the arc-length coordinate t in [-1/2, 1/2] about the edge midpoint, so
both elements sharing an edge evaluate identical trace functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "Triangle",
    "REFERENCE_TRIANGLE",
    "ElementBasis",
    "EdgeBasis",
    "QuadratureRule",
    "make_triangle",
    "triangle_quadrature",
    "gauss_segment_quadrature",
    "map_to_triangle",
    "map_to_triangles",
    "jacobian_determinants",
    "inverse_jacobians",
    "monomials",
    "element_mass_matrix",
    "edge_mass_matrix",
]

MAX_TRIANGLE_DEGREE = 20
MAX_SEGMENT_POINTS = 16

#: Fixed rules used throughout assembly; one rule everywhere removes a
#: source of run-to-run variation.
DEFAULT_TRIANGLE_DEGREE = 8
DEFAULT_SEGMENT_POINTS = 5


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference triangle or reference segment.

    Reference triangle: (0,0), (1,0), (0,1), measure 1/2.
    Reference segment: [-1/2, 1/2], measure 1.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int


@dataclass(frozen=True)
class Triangle:
    """Geometry of one triangle: CCW vertices plus derived quantities."""

    vertices: np.ndarray  # (3, 2)
    area: float
    centroid: np.ndarray
    diameter: float  # longest side


def jacobian_determinants(points: np.ndarray) -> np.ndarray:
    """det J = 2|T| (E,) of the affine maps J = [v1 - v0, v2 - v0] from the
    reference triangle onto the triangles ``points`` (E, 3, 2)."""
    d1, d2 = points[:, 1] - points[:, 0], points[:, 2] - points[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def make_triangle(vertices: np.ndarray) -> Triangle:
    pts = np.asarray(vertices, dtype=float)
    if pts.shape != (3, 2):
        raise ValueError(f"expected (3, 2) vertex array, got {pts.shape}")
    area = 0.5 * float(jacobian_determinants(pts[None])[0])
    if area <= 0.0:
        raise ValueError(f"triangle area must be positive (CCW vertices), got {area}")
    sides = [float(np.linalg.norm(pts[(k + 1) % 3] - pts[k])) for k in range(3)]
    return Triangle(vertices=pts, area=area, centroid=pts.mean(axis=0), diameter=max(sides))


#: The reference triangle (0,0), (1,0), (0,1) of every affine map.
REFERENCE_TRIANGLE = make_triangle(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


@lru_cache(maxsize=None)
def triangle_quadrature(degree: int) -> QuadratureRule:
    """Conical-product Gauss rule on the reference triangle.

    Exact for all polynomials of total degree <= ``degree``; built from a
    Gauss-Jacobi rule (weight 1-x) crossed with Gauss-Legendre in the
    collapsed coordinate, so the exactness holds for any requested degree
    up to MAX_TRIANGLE_DEGREE.
    """
    if not 0 <= degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    p = degree // 2 + 1
    xj, wj = roots_jacobi(p, 1, 0)  # weight (1 - x) on [-1, 1]
    x = 0.5 * (xj + 1.0)
    wx = 0.25 * wj
    xl, wl = np.polynomial.legendre.leggauss(p)
    eta = 0.5 * (xl + 1.0)
    weta = 0.5 * wl
    pts = np.empty((p * p, 2))
    wts = np.empty(p * p)
    for i in range(p):
        for j in range(p):
            pts[i * p + j] = (x[i], (1.0 - x[i]) * eta[j])
            wts[i * p + j] = wx[i] * weta[j]
    return QuadratureRule(points=pts, weights=wts, degree=degree)


@lru_cache(maxsize=None)
def gauss_segment_quadrature(npoints: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1/2, 1/2]; exact to degree 2*npoints - 1."""
    if not 1 <= npoints <= MAX_SEGMENT_POINTS:
        raise ValueError(f"unsupported segment point count {npoints}")
    x, w = np.polynomial.legendre.leggauss(npoints)
    return QuadratureRule(points=0.5 * x, weights=0.5 * w, degree=2 * npoints - 1)


def map_to_triangle(rule: QuadratureRule, tri: Triangle) -> tuple[np.ndarray, np.ndarray]:
    """Map a reference rule to physical points and weights on ``tri``."""
    return map_to_triangles(rule, tri.vertices[None])[0], rule.weights * (2.0 * tri.area)


def map_to_triangles(rule: QuadratureRule, points: np.ndarray) -> np.ndarray:
    """Physical points (E, q, 2) of a reference rule on each of the
    triangles ``points`` (E, 3, 2); the weights are ``rule.weights`` times
    each triangle's 2|T|."""
    v0 = points[:, :1]
    return v0 + rule.points @ (points[:, 1:] - v0)


def inverse_jacobians(points: np.ndarray) -> np.ndarray:
    """J^-1 (E, 2, 2) of the same maps."""
    (x0, y0), (x1, y1), (x2, y2) = np.moveaxis(points, (1, 2), (0, 1))
    rows = [[y2 - y0, x0 - x2], [y0 - y1, x1 - x0]]
    det = jacobian_determinants(points)
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1)) / det[:, None, None]


def _exponents(degree: int) -> tuple[tuple[int, int], ...]:
    return tuple((d - b, b) for d in range(degree + 1) for b in range(d + 1))


def monomials(degree: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^a y^b for a + b <= degree, in ``ElementBasis`` order along a new
    last axis."""
    return np.stack([x**a * y**b for a, b in _exponents(degree)], axis=-1)


@dataclass(frozen=True)
class ElementBasis:
    """Monomial basis X^a Y^b for P_degree on a triangle, in the local
    coordinates (X, Y) = J^-1 (x - centroid) of the affine map J from the
    reference triangle.  Its Gram matrix is 2|T| times the reference one,
    so its conditioning does not depend on the triangle's size or shape."""

    degree: int
    center: np.ndarray
    inverse_jacobian: np.ndarray  # J^-1, maps x - center to (X, Y)
    exponents: tuple[tuple[int, int], ...]

    @classmethod
    def for_triangle(cls, tri: Triangle, degree: int) -> "ElementBasis":
        return cls(
            degree=degree,
            center=tri.centroid,
            inverse_jacobian=inverse_jacobians(tri.vertices[None])[0],
            exponents=_exponents(degree),
        )

    @property
    def dim(self) -> int:
        return (self.degree + 1) * (self.degree + 2) // 2

    def _local(self, pts: np.ndarray) -> np.ndarray:
        """Local coordinates (X, Y) of ``pts`` as rows of a (2, npoints) array."""
        return self.inverse_jacobian @ (np.atleast_2d(pts) - self.center).T

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return monomials(self.degree, *self._local(pts))

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Gradients at ``pts``; shape (npoints, dim, 2)."""
        x, y = self._local(pts)
        out = np.zeros((len(x), self.dim, 2))
        for i, (a, b) in enumerate(self.exponents):
            if a > 0:
                out[:, i, 0] = a * x ** (a - 1) * y**b
            if b > 0:
                out[:, i, 1] = b * x**a * y ** (b - 1)
        # chain rule: grad_x = J^-T grad_X, applied to row vectors
        return out @ self.inverse_jacobian


@dataclass(frozen=True)
class EdgeBasis:
    """Powers of the normalized arc-length coordinate t in [-1/2, 1/2]."""

    degree: int

    @property
    def dim(self) -> int:
        return self.degree + 1

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(t)
        return np.stack([t**k for k in range(self.degree + 1)], axis=1)


def element_mass_matrix(tri: Triangle, degree: int, weight=None) -> np.ndarray:
    """Gram matrix of the P_degree basis on ``tri``.

    ``weight`` may be a positive scalar or, for the vector-valued basis
    [P_degree]^2 ordered (x-block, y-block), a 2x2 SPD matrix; the result
    is then the kappa-weighted vector mass matrix of size 2*dim.
    """
    if tri.area <= 0.0:
        raise ValueError("degenerate element")
    basis = ElementBasis.for_triangle(tri, degree)
    rule = triangle_quadrature(max(DEFAULT_TRIANGLE_DEGREE, 2 * degree))
    pts, w = map_to_triangle(rule, tri)
    vals = basis.eval(pts)
    mass = (vals * w[:, None]).T @ vals
    mass = 0.5 * (mass + mass.T)
    if weight is None:
        return mass
    weight = np.asarray(weight, dtype=float)
    if weight.ndim == 0:
        return float(weight) * mass
    if weight.shape == (2, 2):
        return np.kron(weight, mass)
    raise ValueError(f"weight must be a scalar or 2x2 matrix, got shape {weight.shape}")


def edge_mass_matrix(edge, degree: int) -> np.ndarray:
    """Gram matrix of the edge basis; ``edge`` is anything with ``.length``
    (or a bare length)."""
    length = float(getattr(edge, "length", edge))
    if length <= 0.0:
        raise ValueError("degenerate edge")
    basis = EdgeBasis(degree)
    rule = gauss_segment_quadrature(max(DEFAULT_SEGMENT_POINTS, degree + 1))
    vals = basis.eval(rule.points)
    mass = length * (vals * rule.weights[:, None]).T @ vals
    return 0.5 * (mass + mass.T)
