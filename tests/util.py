"""Shared test oracles and problem constructions.

The finite-difference oracle approximates the full fourth-order operator
by applying the second-order operator twice with fourth-order central
stencils; it is independent of every code path under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wg4 import poly, weakops
from wg4.mesh import Mesh
from wg4.assembly import CoefficientField, ProblemSpec
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


def l2_q0_residual(mesh: Mesh, u) -> float:
    """Brute-force || u - Q0 u ||_L2 via a quadrature finer than the
    projection's own rule."""
    rule = poly.triangle_quadrature(12)
    total = 0.0
    for verts in mesh.element_vertices:
        tri = poly.make_triangle(mesh.vertices[verts])
        coeffs = weakops.project_Q0(tri, u)
        basis = poly.ElementBasis.for_triangle(tri, weakops.INTERIOR_DEGREE)
        pts, w = poly.map_to_triangle(rule, tri)
        diff = u(pts[:, 0], pts[:, 1]) - basis.eval(pts) @ coeffs
        total += float(w @ diff**2)
    return float(np.sqrt(total))


def outward_normal_unit_square(x, y):
    from wg4.harness import _outward_normal_unit_square

    return _outward_normal_unit_square(x, y)


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

    def nu(x, y):
        gx, gy = grad_u(x, y)
        nx, ny = outward_normal_unit_square(x, y)
        return 2.0 * gx * nx + 1.0 * gy * ny

    return ProblemSpec(
        f=f, xi=u, nu=nu,
        coeff=CoefficientField.uniform(mesh, kappa, mu),
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
    return LocalWeakFunction.from_vector(wf.coeffs[wf.dofmap.local_dofs(mesh)[index]])


def scatter_local(wf: weakops.WeakFunction, mesh: Mesh, index: int,
                  local: LocalWeakFunction) -> None:
    wf.coeffs[wf.dofmap.local_dofs(mesh)[index]] = local.to_vector()


def weak_laplacian_kappa(geom, local: LocalWeakFunction) -> float:
    """Weak second-order elliptic operator of one local triple (a constant)."""
    return float(weakops.weak_laplacian_matrix(geom) @ local.to_vector())


def weak_gradient(geom, local: LocalWeakFunction) -> np.ndarray:
    """Weak gradient coefficients (6,) of one local triple."""
    return weakops.weak_gradient_matrix(geom) @ local.to_vector()


def segment(view) -> np.ndarray:
    """One edge view as a one-edge batch (1, 2, 2) of its endpoints."""
    return np.stack([view.p1, view.p2])[None]


def local_projection(geom, u, grad_u, kappa) -> LocalWeakFunction:
    """Element-local analogue of the global projection into the weak space."""
    kappa = np.asarray(kappa, dtype=float)
    local = LocalWeakFunction.zeros()
    local.c0 = weakops.project_Q0(geom, u)
    for k, view in enumerate(geom.edges):
        local.cb[k] = weakops.project_Qb(segment(view), u)[0]
        normal = view.sigma * view.normal  # global normal of this edge

        def flux(x, y, normal=normal):
            gx, gy = grad_u(x, y)
            return normal[0] * (kappa[0, 0] * gx + kappa[0, 1] * gy) + normal[1] * (
                kappa[1, 0] * gx + kappa[1, 1] * gy
            )

        local.cg[k] = weakops.project_Qg(segment(view), flux)[0]
    return local


def unit_square_mesh(n: int) -> Mesh:
    return build_structured_mesh((0.0, 0.0, 1.0, 1.0), n)


# ---------------------------------------------------------------------------
# per-element references for the batched kernels
# ---------------------------------------------------------------------------


def element_load(geom, f) -> np.ndarray:
    """Load vector (6,) of ``f`` on one element, by quadrature on the
    physical triangle."""
    basis = poly.ElementBasis.for_triangle(geom.tri, weakops.INTERIOR_DEGREE)
    rule = poly.triangle_quadrature(poly.DEFAULT_TRIANGLE_DEGREE)
    pts, w = poly.map_to_triangle(rule, geom.tri)
    return basis.eval(pts).T @ (w * f(pts[:, 0], pts[:, 1]))


def edge_projection(p1, p2, g) -> np.ndarray:
    """P1(e) coefficients of ``g`` on the edge p1 -> p2, by quadrature on
    that edge and its own Gram matrix."""
    rule = poly.gauss_segment_quadrature(poly.DEFAULT_SEGMENT_POINTS)
    length = float(np.linalg.norm(p2 - p1))
    pts = 0.5 * (p1 + p2) + rule.points[:, None] * (p2 - p1)
    vals = poly.EdgeBasis(weakops.EDGE_DEGREE).eval(rule.points)
    rhs = vals.T @ (rule.weights * length * g(pts[:, 0], pts[:, 1]))
    return np.linalg.solve(poly.edge_mass_matrix(length, weakops.EDGE_DEGREE), rhs)


def error_sums(mesh: Mesh, e: np.ndarray) -> tuple[float, float, float]:
    """l2_e0, eb_edge and eg_edge of an error vector, summed element by
    element with each element's and edge's own Gram matrices."""
    base = weakops.N_INTERIOR * mesh.n_elements
    l2 = eb = eg = 0.0
    for i, (verts, edges) in enumerate(zip(mesh.element_vertices, mesh.element_edges)):
        tri = poly.make_triangle(mesh.vertices[verts])
        d0 = e[6 * i : 6 * i + 6]
        l2 += float(d0 @ poly.element_mass_matrix(tri, weakops.INTERIOR_DEGREE) @ d0)
        h = poly.mesh_size(tri)
        for eid in edges:
            emass = poly.edge_mass_matrix(mesh.edge_lengths[eid], weakops.EDGE_DEGREE)
            block = e[base + 4 * eid : base + 4 * eid + 4]
            db, dg = block[:2], block[2:]
            eb += h * float(db @ emass @ db)
            eg += h * float(dg @ emass @ dg)
    return float(np.sqrt(l2)), float(np.sqrt(eb)), float(np.sqrt(eg))
