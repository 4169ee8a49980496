"""The reference element: quadrature, affine maps, sides and reference tables.

Every element is the image of the reference triangle (0,0), (1,0), (0,1)
under the affine map x = v0 + J X with J = [v1 - v0, v2 - v0].  Its P_k
basis is the monomials X^a Y^b of the centred reference coordinates
X - (1/3, 1/3), so on every element the basis takes the reference values
at the mapped points, its gradients map by J^-T, and its Gram matrix is
2|T| times the reference one, whose condition number depends neither on
the mesh size nor on the element's shape (about 36 for P1 and 1.9e3 for
P2).  Edge bases are powers of the arc-length coordinate t in
[-1/2, 1/2] about the edge midpoint, so both elements sharing an edge
evaluate identical trace functions, and an edge's Gram matrix is |e|
times the unit edge's.  The quadrature rules and the reference Gram
matrices are built once and shared by every caller, so their arrays are
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "REFERENCE_VERTICES",
    "QuadratureRule",
    "triangle_quadrature",
    "gauss_segment_quadrature",
    "map_to_triangles",
    "jacobian_determinants",
    "inverse_jacobians",
    "sides",
    "monomials",
    "reference_basis",
    "reference_gradients",
    "reference_mass",
    "edge_basis",
    "edge_mass",
]

MAX_TRIANGLE_DEGREE = 20
MAX_SEGMENT_POINTS = 16

#: Fixed rules used throughout assembly; one rule everywhere removes a
#: source of run-to-run variation.
DEFAULT_TRIANGLE_DEGREE = 8
DEFAULT_SEGMENT_POINTS = 5

#: The reference triangle of every affine map, and its centroid.
REFERENCE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REFERENCE_VERTICES.flags.writeable = False
_CENTROID = REFERENCE_VERTICES.mean(axis=0)


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference triangle or reference segment.

    Reference triangle: (0,0), (1,0), (0,1), measure 1/2.
    Reference segment: [-1/2, 1/2], measure 1.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = self.weights.flags.writeable = False  # cached rules


def jacobian_determinants(points: np.ndarray) -> np.ndarray:
    """det J = 2|T| (E,) of the affine maps J = [v1 - v0, v2 - v0] from the
    reference triangle onto the triangles ``points`` (E, 3, 2)."""
    d1, d2 = points[:, 1] - points[:, 0], points[:, 2] - points[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


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
    return QuadratureRule(points=pts, weights=wts)


@lru_cache(maxsize=None)
def gauss_segment_quadrature(npoints: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1/2, 1/2]; exact to degree 2*npoints - 1."""
    if not 1 <= npoints <= MAX_SEGMENT_POINTS:
        raise ValueError(f"unsupported segment point count {npoints}")
    x, w = np.polynomial.legendre.leggauss(npoints)
    return QuadratureRule(points=0.5 * x, weights=0.5 * w)


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


def sides(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths (E, 3) and outward unit normals (E, 3, 2) of the sides of
    counterclockwise triangles ``points`` (E, 3, 2); side k runs from
    vertex k to vertex k + 1."""
    d = np.roll(points, -1, axis=1) - points
    lengths = np.linalg.norm(d, axis=-1)
    return lengths, np.stack([d[..., 1], -d[..., 0]], axis=-1) / lengths[..., None]


def _exponents(degree: int) -> tuple[tuple[int, int], ...]:
    return tuple((d - b, b) for d in range(degree + 1) for b in range(d + 1))


def monomials(degree: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^a y^b for a + b <= degree, ordered by total degree and then by
    rising b, along a new last axis: the order of every P_k basis."""
    return np.stack([x**a * y**b for a, b in _exponents(degree)], axis=-1)


def reference_basis(degree: int, points: np.ndarray) -> np.ndarray:
    """The reference P_degree basis (..., dim) at reference ``points`` (..., 2)."""
    return monomials(degree, *np.moveaxis(points - _CENTROID, -1, 0))


def reference_gradients(degree: int, points: np.ndarray) -> np.ndarray:
    """Reference gradients (..., dim, 2) of the same basis; on an element
    they map by J^-T."""
    x, y = np.moveaxis(points - _CENTROID, -1, 0)
    zero = np.zeros_like(x)
    return np.stack([np.stack([a * x ** (a - 1) * y**b if a else zero,
                               b * x**a * y ** (b - 1) if b else zero], axis=-1)
                     for a, b in _exponents(degree)], axis=-2)


def _shared_gram(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    gram = (values * weights[:, None]).T @ values
    gram = 0.5 * (gram + gram.T)
    gram.flags.writeable = False  # shared by every caller
    return gram


@lru_cache(maxsize=None)
def reference_mass(degree: int) -> np.ndarray:
    """Gram matrix of the reference P_degree basis over the reference
    triangle; an element's is 2|T| times it."""
    rule = triangle_quadrature(max(DEFAULT_TRIANGLE_DEGREE, 2 * degree))
    return _shared_gram(reference_basis(degree, rule.points), rule.weights)


def edge_basis(degree: int, t: np.ndarray) -> np.ndarray:
    """Powers t^k, k <= degree, of the arc-length coordinate t in
    [-1/2, 1/2], along a new last axis."""
    return np.stack([t**k for k in range(degree + 1)], axis=-1)


@lru_cache(maxsize=None)
def edge_mass(degree: int) -> np.ndarray:
    """Gram matrix of the edge basis on the unit edge; an edge's is |e|
    times it."""
    rule = gauss_segment_quadrature(max(DEFAULT_SEGMENT_POINTS, degree + 1))
    return _shared_gram(edge_basis(degree, rule.points), rule.weights)
