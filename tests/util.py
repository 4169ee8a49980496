"""Shared test oracles and problem constructions.

The finite-difference oracle approximates the full fourth-order operator
by applying the second-order operator twice with fourth-order central
stencils; it is independent of every code path under test.

``Element`` runs the batched element kernels on a batch of one triangle.
The physical-triangle basis (``Triangle``, ``ElementBasis`` and the Gram
matrices by quadrature on the triangle itself) and the per-element kernel
built on it, with its edge-by-edge loops, are the way the library computed
element matrices before it took every integral from reference tables; they
are kept as the references that the reference tables and the batched
kernels are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from wg4 import harness, poly, weakops
from wg4.mesh import Mesh
from wg4.assembly import COEFFICIENT_RANGE, CoefficientField, ProblemSpec
from wg4.mesh import build_structured_mesh

FD_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
FD_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def fd_laplacian_diag(u, kx: float, ky: float, x: float, y: float, step: float) -> float:
    """Fourth-order central approximation of kx u_xx + ky u_yy."""
    ux = sum(c * u(x + o * step, y) for c, o in zip(FD_STENCIL, FD_OFFSETS))
    uy = sum(c * u(x, y + o * step) for c, o in zip(FD_STENCIL, FD_OFFSETS))
    return (kx * ux + ky * uy) / step**2


def fd_fourth_order_operator(u, kappa_diag, mu: float, x: float, y: float,
                             step: float = 0.02) -> float:
    """(-div(kappa grad) + mu)^2 u at one point, diagonal constant kappa.

    The composed stencil divides by step^4, so the step balances the
    fourth-order truncation error against float64 roundoff amplification
    (optimum near eps^(1/8) ~ 0.01); much smaller steps lose accuracy.
    """
    kx, ky = kappa_diag

    def once(xx, yy):
        return -fd_laplacian_diag(u, kx, ky, xx, yy, step) + mu * u(xx, yy)

    return -fd_laplacian_diag(once, kx, ky, x, y, step) + mu * once(x, y)


# ---------------------------------------------------------------------------
# the physical-triangle basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """Geometry of one triangle: counterclockwise vertices, area and centroid."""

    vertices: np.ndarray  # (3, 2)
    area: float
    centroid: np.ndarray


def make_triangle(vertices) -> Triangle:
    pts = np.asarray(vertices, dtype=float)
    area = 0.5 * float(poly.jacobian_determinants(pts[None])[0])
    assert area > 0.0, f"vertices must be counterclockwise, got area {area}"
    return Triangle(vertices=pts, area=area, centroid=pts.mean(axis=0))


def map_to_triangle(rule: poly.QuadratureRule, tri: Triangle) -> tuple[np.ndarray, np.ndarray]:
    """Physical points and weights of a reference rule on ``tri``."""
    return poly.map_to_triangles(rule, tri.vertices[None])[0], rule.weights * (2.0 * tri.area)


@dataclass(frozen=True)
class ElementBasis:
    """Monomial basis X^a Y^b for P_degree on a triangle, in the local
    coordinates (X, Y) = J^-1 (x - centroid) of the affine map J from the
    reference triangle, evaluated at physical points."""

    degree: int
    center: np.ndarray
    inverse_jacobian: np.ndarray  # J^-1, maps x - center to (X, Y)

    @classmethod
    def for_triangle(cls, tri: Triangle, degree: int) -> "ElementBasis":
        return cls(degree=degree, center=tri.centroid,
                   inverse_jacobian=poly.inverse_jacobians(tri.vertices[None])[0])

    @property
    def dim(self) -> int:
        return (self.degree + 1) * (self.degree + 2) // 2

    def _local(self, pts: np.ndarray) -> np.ndarray:
        """Local coordinates (X, Y) of ``pts`` as rows of a (2, npoints) array."""
        return self.inverse_jacobian @ (np.atleast_2d(pts) - self.center).T

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return poly.monomials(self.degree, *self._local(pts))

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Gradients at ``pts``; shape (npoints, dim, 2)."""
        x, y = self._local(pts)
        out = np.zeros((len(x), self.dim, 2))
        exponents = [(d - b, b) for d in range(self.degree + 1) for b in range(d + 1)]
        for i, (a, b) in enumerate(exponents):
            if a > 0:
                out[:, i, 0] = a * x ** (a - 1) * y**b
            if b > 0:
                out[:, i, 1] = b * x**a * y ** (b - 1)
        # chain rule: grad_x = J^-T grad_X, applied to row vectors
        return out @ self.inverse_jacobian


def element_mass_matrix(tri: Triangle, degree: int) -> np.ndarray:
    """Gram matrix of the P_degree basis on ``tri``, by quadrature on ``tri``."""
    basis = ElementBasis.for_triangle(tri, degree)
    rule = poly.triangle_quadrature(max(poly.DEFAULT_TRIANGLE_DEGREE, 2 * degree))
    pts, w = map_to_triangle(rule, tri)
    vals = basis.eval(pts)
    mass = (vals * w[:, None]).T @ vals
    return 0.5 * (mass + mass.T)


def edge_basis(t: np.ndarray) -> np.ndarray:
    """The P1 edge basis 1, t at arc-length parameters ``t``."""
    return np.stack([np.ones_like(t), t], axis=1)


def edge_mass_matrix(length: float) -> np.ndarray:
    """Gram matrix of the P1 edge basis on an edge of ``length``."""
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    vals = edge_basis(rule.points)
    mass = length * (vals * rule.weights[:, None]).T @ vals
    return 0.5 * (mass + mass.T)


def project_Q0(tri: Triangle, u, degree: int = weakops.INTERIOR_DEGREE) -> np.ndarray:
    """L2 projection of ``u`` onto P_degree(T); returns basis coefficients."""
    basis = ElementBasis.for_triangle(tri, degree)
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = map_to_triangle(rule, tri)
    vals = basis.eval(pts)
    rhs = vals.T @ (w * u(pts[:, 0], pts[:, 1]))
    return np.linalg.solve(element_mass_matrix(tri, degree), rhs)


def project_calQh(tri: Triangle, u) -> float:
    """L2 projection onto P0(T): the mean value of ``u`` over the element."""
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = map_to_triangle(rule, tri)
    return float(w @ u(pts[:, 0], pts[:, 1])) / tri.area


def project_calQ1(tri: Triangle, field) -> np.ndarray:
    """Componentwise L2 projection of a vector field onto [P1(T)]^2.

    ``field(x, y)`` must return a pair (fx, fy) of arrays.  Coefficients
    come back in the weak-gradient ordering (x block then y block).
    """
    basis = ElementBasis.for_triangle(tri, weakops.GRADIENT_DEGREE)
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = map_to_triangle(rule, tri)
    vals = basis.eval(pts)
    fx, fy = field(pts[:, 0], pts[:, 1])
    mass = element_mass_matrix(tri, weakops.GRADIENT_DEGREE)
    cx = np.linalg.solve(mass, vals.T @ (w * fx))
    cy = np.linalg.solve(mass, vals.T @ (w * fy))
    return np.concatenate([cx, cy])


def element_block(i: int) -> np.ndarray:
    """Global indices of element i's interior dofs."""
    return np.arange(weakops.N_INTERIOR * i, weakops.N_INTERIOR * (i + 1))


def edge_vg(mesh: Mesh, e: int) -> np.ndarray:
    """Global indices of edge e's flux-trace dofs."""
    base = weakops.N_INTERIOR * mesh.n_elements + 4 * e
    return np.arange(base + 2, base + 4)


def l2_q0_residual(mesh: Mesh, u) -> float:
    """Brute-force || u - Q0 u ||_L2 via a quadrature finer than the
    projection's own rule."""
    rule = poly.triangle_quadrature(12)
    total = 0.0
    for verts in mesh.element_vertices:
        tri = make_triangle(mesh.vertices[verts])
        coeffs = project_Q0(tri, u)
        basis = ElementBasis.for_triangle(tri, weakops.INTERIOR_DEGREE)
        pts, w = map_to_triangle(rule, tri)
        diff = u(pts[:, 0], pts[:, 1]) - basis.eval(pts) @ coeffs
        total += float(w @ diff**2)
    return float(np.sqrt(total))


def quadratic_problem(mesh: Mesh) -> ProblemSpec:
    """Globally quadratic exact solution with anisotropic diffusion.

    u = 1 + x - 2y + x^2 + xy - y^2, kappa = diag(2, 1), mu = 0.3.  The
    second-order operator of u is the constant 2, so the source reduces
    to -1.2 + 0.09 u.
    """
    kappa = np.diag([2.0, 1.0])
    mu = 0.3

    def u(x, y):
        return 1.0 + x - 2.0 * y + x * x + x * y - y * y

    def grad_u(x, y):
        return 1.0 + 2.0 * x + y, -2.0 + x - 2.0 * y

    def f(x, y):
        return -1.2 + 0.09 * u(x, y)

    def nu(x, y):  # kappa grad(u) . n on the unit square's sides, as in the sine case
        gx, gy = grad_u(x, y)
        return np.where((x == 0) | (x == 1), 2.0 * gx * np.sign(x - 0.5), gy * np.sign(y - 0.5))

    return ProblemSpec(
        f=f, xi=u, nu=nu,
        coeff=CoefficientField.from_regions(mesh, kappa, mu),
        exact_u=u, exact_grad=grad_u,
    )


QUADRATIC_KAPPA_DIAG = (2.0, 1.0)
QUADRATIC_MU = 0.3


def random_triangle(rng: np.random.Generator, min_area: float = 0.05) -> np.ndarray:
    """Counterclockwise vertices of a reasonably shaped random triangle."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(3, 2))
        d1, d2 = pts[1] - pts[0], pts[2] - pts[0]
        area = 0.5 * float(d1[0] * d2[1] - d1[1] * d2[0])
        if area < 0:
            pts = pts[::-1]
            area = -area
        sides = [np.linalg.norm(pts[(k + 1) % 3] - pts[k]) for k in range(3)]
        if area > min_area and min(sides) > 0.2:
            return pts


#: Monomials of total degree <= 2: name -> (value, gradient, hessian action).
#: The second-order operator with constant kappa is
#: kappa_xx w_xx + 2 kappa_xy w_xy + kappa_yy w_yy, constant for these.
def monomial_fields():
    cases = []
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:

        def u(x, y, a=a, b=b):
            return np.asarray(x, dtype=float) ** a * np.asarray(y, dtype=float) ** b

        def grad(x, y, a=a, b=b):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            gx = a * x ** max(a - 1, 0) * y**b if a > 0 else np.zeros_like(x)
            gy = b * x**a * y ** max(b - 1, 0) if b > 0 else np.zeros_like(y)
            return gx, gy

        def elliptic(kappa, a=a, b=b):
            wxx = 2.0 if (a, b) == (2, 0) else 0.0
            wyy = 2.0 if (a, b) == (0, 2) else 0.0
            wxy = 1.0 if (a, b) == (1, 1) else 0.0
            return kappa[0, 0] * wxx + 2.0 * kappa[0, 1] * wxy + kappa[1, 1] * wyy

        cases.append(((a, b), u, grad, elliptic))
    return cases


@dataclass
class LocalWeakFunction:
    """Coefficients of one element-local triple {v0, vb, vg}, in the order
    of the 18 local dofs.

    vg rows are stored in the global-normal convention of each edge.
    """

    c0: np.ndarray  # (6,)
    cb: np.ndarray  # (3, 2)
    cg: np.ndarray  # (3, 2)

    @classmethod
    def zeros(cls) -> "LocalWeakFunction":
        return cls(np.zeros(6), np.zeros((3, 2)), np.zeros((3, 2)))

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "LocalWeakFunction":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (weakops.N_LOCAL,):
            raise ValueError(f"expected length-{weakops.N_LOCAL} vector, got {vec.shape}")
        edges = vec[6:].reshape(3, 4)
        return cls(c0=vec[:6].copy(), cb=edges[:, :2].copy(), cg=edges[:, 2:].copy())

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.c0, np.hstack([self.cb, self.cg]).ravel()])


def local_of(wf: weakops.WeakFunction, mesh: Mesh, index: int) -> LocalWeakFunction:
    """The local triple of element ``index`` of a global weak function."""
    return LocalWeakFunction.from_vector(wf.coeffs[weakops.local_dofs(mesh)[index]])


def scatter_local(wf: weakops.WeakFunction, mesh: Mesh, index: int,
                  local: LocalWeakFunction) -> None:
    wf.coeffs[weakops.local_dofs(mesh)[index]] = local.to_vector()


@dataclass(frozen=True)
class Element:
    """One triangle as a batch of one for the element kernels: vertices
    (1, 3, 2), edge signs (1, 3) and orientation flags (1, 3)."""

    points: np.ndarray
    signs: np.ndarray
    flipped: np.ndarray

    @classmethod
    def standalone(cls, vertices) -> "Element":
        """A free-standing counterclockwise triangle.  Edges are
        parameterized in local counterclockwise order and all sigma signs
        are +1, i.e. global normals coincide with outward normals."""
        points = np.asarray(vertices, dtype=float)[None]
        return cls(points, np.ones((1, 3)), np.zeros((1, 3), dtype=bool))

    @classmethod
    def of_mesh(cls, mesh: Mesh, index: int) -> "Element":
        verts = mesh.element_vertices[index]
        flipped = verts > np.roll(verts, -1)
        return cls(mesh.element_points([index]), mesh.element_signs[[index]], flipped[None])

    @property
    def tri(self) -> Triangle:
        return make_triangle(self.points[0])

    def ew(self) -> np.ndarray:
        """Weak second-order operator row (18,)."""
        return weakops.weak_laplacian_matrix(self.points, self.signs)[0]

    def gw(self) -> np.ndarray:
        """Weak gradient matrix (6, 18)."""
        return weakops.weak_gradient_matrix(self.points, self.flipped)[0]

    def system(self, kappa, mu: float) -> np.ndarray:
        """Element matrix (18, 18)."""
        kappa = np.asarray(kappa, dtype=float)[None]
        return weakops.local_system(self.points, self.signs, self.flipped, kappa, np.array([mu]))[0]

    def segment(self, k: int) -> np.ndarray:
        """Edge k as a one-edge batch (1, 2, 2) of its endpoints p1, p2."""
        ends = self.points[0, [k, (k + 1) % 3]]
        return (ends[::-1] if self.flipped[0, k] else ends)[None]

    def global_normal(self, k: int) -> np.ndarray:
        """The unit normal edge k's vg coefficients refer to."""
        d = self.points[0, (k + 1) % 3] - self.points[0, k]
        return self.signs[0, k] * np.array([d[1], -d[0]]) / np.linalg.norm(d)


def weak_laplacian_kappa(elem: Element, local: LocalWeakFunction) -> float:
    """Weak second-order elliptic operator of one local triple (a constant)."""
    return float(elem.ew() @ local.to_vector())


def weak_gradient(elem: Element, local: LocalWeakFunction) -> np.ndarray:
    """Weak gradient coefficients (6,) of one local triple."""
    return elem.gw() @ local.to_vector()


def local_projection(elem: Element, u, grad_u, kappa) -> LocalWeakFunction:
    """Element-local analogue of the global projection into the weak space."""
    kappa = np.asarray(kappa, dtype=float)
    local = LocalWeakFunction.zeros()
    local.c0 = project_Q0(elem.tri, u)
    for k in range(3):
        local.cb[k] = weakops.project_Qb(elem.segment(k), u)[0]
        normal = elem.global_normal(k)

        def flux(x, y, normal=normal):
            gx, gy = grad_u(x, y)
            return normal[0] * (kappa[0, 0] * gx + kappa[0, 1] * gy) + normal[1] * (
                kappa[1, 0] * gx + kappa[1, 1] * gy
            )

        local.cg[k] = weakops.project_Qg(elem.segment(k), flux)[0]
    return local


def matrix_system(matrix, rhs) -> SimpleNamespace:
    """A bare matrix and right-hand side in the shape ``solve_spd`` takes:
    a system with an operator that holds the matrix, no factorization and
    no infinity norm."""
    operator = SimpleNamespace(matrix=sp.csr_matrix(matrix), lu=None, norm_inf=None)
    return SimpleNamespace(operator=operator, rhs=np.asarray(rhs, dtype=float))


def full_matrix(operator) -> sp.csr_matrix:
    """The operator's matrix over all dofs, boundary rows and columns
    included, assembled from its class matrices."""
    mesh = operator.mesh
    idx = weakops.local_dofs(mesh)
    rows = np.repeat(idx[:, :, None], weakops.N_LOCAL, axis=2).ravel()
    cols = np.repeat(idx[:, None, :], weakops.N_LOCAL, axis=1).ravel()
    values = operator.class_matrices[operator.classes].ravel()
    size = weakops.dof_count(mesh)
    return sp.coo_matrix((values, (rows, cols)), shape=(size, size)).tocsr()


def sliced_blocks(operator) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The operator's reduced matrix and coupling block, made the plain
    way: the whole system summed in the free-first numbering, converted
    to CSR, and both blocks sliced from its leading rows."""
    mesh = operator.mesh
    k = len(operator.order)
    size = weakops.dof_count(mesh)
    numbering = np.empty(size, dtype=np.intp)
    numbering[operator.order] = np.arange(k)
    numbering[~operator.free] = np.arange(k, size)
    idx = numbering[weakops.local_dofs(mesh)]
    rows = np.repeat(idx[:, :, None], weakops.N_LOCAL, axis=2).ravel()
    cols = np.repeat(idx[:, None, :], weakops.N_LOCAL, axis=1).ravel()
    values = operator.class_matrices[operator.classes].ravel()
    full = sp.coo_matrix((values, (rows, cols)), shape=(size, size)).tocsr()
    return full[:k, :k], full[:k, k:]


def eigvalsh_check_coefficients(kappa: np.ndarray, mu: np.ndarray, indexed: bool = True) -> None:
    """``assembly._check_coefficients`` as it was before its eigenvalues
    were taken in closed form: symmetry by ``np.isclose`` over the whole
    matrix and the eigenvalues by ``np.linalg.eigvalsh``."""

    def name(what: str, i: int) -> str:
        return f"{what}[{i}]" if indexed else what

    finite = np.isfinite(kappa).all(axis=(1, 2))
    symmetric = np.isclose(kappa, kappa.transpose(0, 2, 1), atol=1e-14).all(axis=(1, 2))
    ok = finite & symmetric
    safe = np.where(ok[:, None, None], kappa, np.eye(2))  # eigvalsh needs finite input
    eigenvalues = np.linalg.eigvalsh(safe)  # ascending
    definite = eigenvalues[:, 0] > 0
    low, high = COEFFICIENT_RANGE
    in_range = (low <= eigenvalues[:, 0]) & (eigenvalues[:, 1] <= high)
    bad = np.flatnonzero(~(ok & in_range))
    if len(bad):
        i = bad[0]
        extreme = eigenvalues[i, 0] if eigenvalues[i, 0] < low else eigenvalues[i, 1]
        reason = ("not finite" if not finite[i] else "not symmetric" if not symmetric[i]
                  else "not positive definite" if not definite[i]
                  else f"eigenvalue {extreme:g} outside [{low:g}, {high:g}]")
        raise ValueError(f"{name('kappa', i)}: {reason}")
    bad = np.flatnonzero(~((mu == 0) | ((low <= mu) & (mu <= high))))
    if len(bad):
        value = mu[bad[0]]
        need = ("finite" if not np.isfinite(value) else "nonnegative" if value < 0
                else f"0 or in [{low:g}, {high:g}]")
        raise ValueError(f"{name('mu', bad[0])}: must be {need}, got {value}")


def unit_square_mesh(n: int) -> Mesh:
    return build_structured_mesh((0.0, 0.0, 1.0, 1.0), n)


def uncached_sample(mesh: Mesh, u_h, grid: int):
    """``harness.sample_field``'s points and values, from a lattice made afresh."""
    points, elems, basis = harness._lattice.__wrapped__(mesh, grid)
    return points, np.einsum("pi,pi->p", basis, u_h.interior[elems])


# ---------------------------------------------------------------------------
# per-element references for the batched kernels
# ---------------------------------------------------------------------------


def element_load(tri: Triangle, f) -> np.ndarray:
    """Load vector (6,) of ``f`` on one element, by quadrature on the
    physical triangle."""
    basis = ElementBasis.for_triangle(tri, weakops.INTERIOR_DEGREE)
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = map_to_triangle(rule, tri)
    return basis.eval(pts).T @ (w * f(pts[:, 0], pts[:, 1]))


def edge_projection(p1, p2, g) -> np.ndarray:
    """P1(e) coefficients of ``g`` on the edge p1 -> p2, by quadrature on
    that edge and its own Gram matrix."""
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    length = float(np.linalg.norm(p2 - p1))
    pts = 0.5 * (p1 + p2) + rule.points[:, None] * (p2 - p1)
    vals = edge_basis(rule.points)
    rhs = vals.T @ (rule.weights * length * g(pts[:, 0], pts[:, 1]))
    return np.linalg.solve(edge_mass_matrix(length), rhs)


def error_sums(mesh: Mesh, e: np.ndarray) -> tuple[float, float, float]:
    """l2_e0, eb_edge and eg_edge of an error vector, summed element by
    element with each element's and edge's own Gram matrices."""
    base = weakops.N_INTERIOR * mesh.n_elements
    l2 = eb = eg = 0.0
    for i, (verts, edges) in enumerate(zip(mesh.element_vertices, mesh.element_edges)):
        tri = make_triangle(mesh.vertices[verts])
        d0 = e[6 * i : 6 * i + 6]
        l2 += float(d0 @ element_mass_matrix(tri, weakops.INTERIOR_DEGREE) @ d0)
        h = min(mesh.edge_lengths[edges])
        for eid in edges:
            emass = edge_mass_matrix(mesh.edge_lengths[eid])
            block = e[base + 4 * eid : base + 4 * eid + 4]
            db, dg = block[:2], block[2:]
            eb += h * float(db @ emass @ db)
            eg += h * float(dg @ emass @ dg)
    return float(np.sqrt(l2)), float(np.sqrt(eb)), float(np.sqrt(eg))


# ---------------------------------------------------------------------------
# the per-element reference kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeView:
    """One edge as seen from an element.

    ``p1 -> p2`` is the edge's global parameterization (shared by both
    sides), ``normal`` the element-outward unit normal and ``sigma`` the
    sign relating the stored vg coefficients to the outward trace.
    """

    p1: np.ndarray
    p2: np.ndarray
    length: float
    midpoint: np.ndarray
    normal: np.ndarray
    sigma: int

    def quad_points(self, rule: poly.QuadratureRule):
        """Physical points, weights and arc-length parameters on this edge."""
        t = rule.points
        pts = self.midpoint + t[:, None] * (self.p2 - self.p1)
        return pts, rule.weights * self.length, t


@dataclass(frozen=True)
class ElementGeometry:
    tri: Triangle
    edges: tuple[EdgeView, EdgeView, EdgeView]


def reference_geometry(elem: Element) -> ElementGeometry:
    """The per-element geometry of a batch-of-one element."""
    views = []
    for k in range(3):
        p1, p2 = elem.segment(k)[0]
        d = elem.points[0, (k + 1) % 3] - elem.points[0, k]
        length = float(np.linalg.norm(d))
        views.append(EdgeView(p1=p1, p2=p2, length=length, midpoint=0.5 * (p1 + p2),
                              normal=np.array([d[1], -d[0]]) / length,
                              sigma=int(elem.signs[0, k])))
    return ElementGeometry(tri=elem.tri, edges=tuple(views))


def _vb_slice(k: int) -> slice:
    return slice(6 + 4 * k, 6 + 4 * k + 2)


def _vg_slice(k: int) -> slice:
    return slice(6 + 4 * k + 2, 6 + 4 * k + 4)


def reference_weak_laplacian(geom: ElementGeometry) -> np.ndarray:
    """Row (18,) of the weak second-order operator, edge by edge."""
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    row = np.zeros(weakops.N_LOCAL)
    for k, view in enumerate(geom.edges):
        _, w, t = view.quad_points(rule)
        row[_vg_slice(k)] = view.sigma * (w @ edge_basis(t))
    return row / geom.tri.area


def reference_weak_gradient(geom: ElementGeometry) -> np.ndarray:
    """Matrix (6, 18) of the weak gradient, by quadrature on the physical
    triangle and edge by edge."""
    tri = geom.tri
    basis0 = ElementBasis.for_triangle(tri, weakops.INTERIOR_DEGREE)
    basis1 = ElementBasis.for_triangle(tri, weakops.GRADIENT_DEGREE)
    mass_vec = np.kron(np.eye(2), element_mass_matrix(tri, weakops.GRADIENT_DEGREE))

    rhs = np.zeros((2 * basis1.dim, weakops.N_LOCAL))
    tri_rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = map_to_triangle(tri_rule, tri)
    grads0 = basis0.grad(pts)  # (m, 6, 2)
    vals1 = basis1.eval(pts)  # (m, 3)
    # (grad v0, psi)_T
    rhs[: basis1.dim, :6] = np.einsum("q,qa,qi->ai", w, vals1, grads0[:, :, 0])
    rhs[basis1.dim :, :6] = np.einsum("q,qa,qi->ai", w, vals1, grads0[:, :, 1])

    edge_rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    for k, view in enumerate(geom.edges):
        pts_e, w_e, t = view.quad_points(edge_rule)
        trace0 = basis0.eval(pts_e)  # (m, 6)
        trace1 = basis1.eval(pts_e)  # (m, 3)
        trace_b = edge_basis(t)  # (m, 2)
        for comp in range(2):
            nc = view.normal[comp]
            block = slice(comp * basis1.dim, (comp + 1) * basis1.dim)
            # -<v0 - vb, psi . n>_dT
            rhs[block, :6] -= nc * np.einsum("q,qa,qi->ai", w_e, trace1, trace0)
            rhs[block, _vb_slice(k)] += nc * np.einsum("q,qa,qj->aj", w_e, trace1, trace_b)
    return np.linalg.solve(mass_vec, rhs)


def _trace_projector(view: EdgeView, basis0: ElementBasis) -> np.ndarray:
    """Matrix (2 x 6) mapping interior coefficients to the P1(e) projection
    of their trace on this edge."""
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    pts, w, t = view.quad_points(rule)
    mixed = (edge_basis(t) * w[:, None]).T @ basis0.eval(pts)
    return np.linalg.solve(edge_mass_matrix(view.length), mixed)


def reference_local_system(geom: ElementGeometry, kappa, mu: float) -> np.ndarray:
    """Element matrix (18, 18), by quadrature on the physical triangle and
    edge by edge, with h the shortest side."""
    tri = geom.tri
    kappa = np.asarray(kappa, dtype=float)
    h = min(view.length for view in geom.edges)

    ew = reference_weak_laplacian(geom)
    A = tri.area * np.outer(ew, ew)

    if mu != 0.0:
        G = reference_weak_gradient(geom)
        kmass = np.kron(kappa, element_mass_matrix(tri, weakops.GRADIENT_DEGREE))
        A += 2.0 * mu * G.T @ kmass @ G
        mass0 = element_mass_matrix(tri, weakops.INTERIOR_DEGREE)
        A[:6, :6] += mu * mu * mass0

    basis0 = ElementBasis.for_triangle(tri, weakops.INTERIOR_DEGREE)
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    for k, view in enumerate(geom.edges):
        pts, w, t = view.quad_points(rule)
        trace_b = edge_basis(t)  # (m, 2)

        # flux penalty rows: kappa grad v0 . n_out - sigma * vg
        grads = basis0.grad(pts)  # (m, 6, 2)
        flux = np.einsum("qic,c->qi", grads @ kappa.T, view.normal)
        rows = np.zeros((len(t), weakops.N_LOCAL))
        rows[:, :6] = flux
        rows[:, _vg_slice(k)] = -view.sigma * trace_b
        A += (rows * (w / h)[:, None]).T @ rows

        # jump penalty rows: P1(e) projection of the v0 trace - vb
        rows = np.zeros((len(t), weakops.N_LOCAL))
        rows[:, :6] = trace_b @ _trace_projector(view, basis0)
        rows[:, _vb_slice(k)] = -trace_b
        A += (rows * (w / h**3)[:, None]).T @ rows

    return 0.5 * (A + A.T)
