"""Structured triangular partitions of axis-aligned rectangles.

Each of the n x n sub-squares is split into two triangles by its
negative-slope diagonal (top-left corner to bottom-right corner).
Vertex, element and edge indexing is row-major and deterministic so
that everything assembled on top of a mesh is bit-reproducible; only
this module spells it, and ``locate_point`` inverts it for points.

A mesh is a struct of arrays, built without per-entity Python loops:

* ``vertices`` (V, 2): coordinates, row-major over the grid;
* ``element_vertices`` (E, 3): counterclockwise vertex indices; local
  edge k joins local vertices k and (k + 1) % 3;
* ``element_edges`` (E, 3): the global edge of each local edge;
* ``element_signs`` (E, 3): +1 when the element-outward normal on that
  edge equals the edge's stored normal, -1 when it is the reverse;
* ``edge_vertices`` (F, 2): sorted vertex pair; p1 -> p2 is the
  arc-length parameterization both adjacent elements share;
* ``edge_elements`` (F, 2): adjacent elements in increasing order, -1
  in the second column for boundary edges;
* ``edge_normals`` (F, 2): unit normal, outward on boundary edges and
  otherwise the outward normal of the lower-indexed adjacent element;
* ``edge_lengths`` (F,) and ``boundary`` (F,), the boundary flag;
* ``areas`` (E,) and ``centroids`` (E, 2).

Edges are numbered in order of first appearance, scanning elements in
order and each element's local edges in order.  The arrays are read-only:
a forward model shares its mesh with every source it solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import jacobian_determinants, sides

__all__ = [
    "Mesh",
    "build_structured_mesh",
    "check_partition",
    "check_rectangle",
    "locate_point",
]

Rectangle = tuple[float, float, float, float]

#: Bounds of a cell's sides: the squares, products and inverses the mesh
#: forms of them stay finite, nonzero normal floats.
CELL_SIDES = (1e-150, 1e150)


@dataclass(frozen=True, eq=False)
class Mesh:
    domain: Rectangle
    n: int
    vertices: np.ndarray
    element_vertices: np.ndarray
    element_edges: np.ndarray
    element_signs: np.ndarray
    edge_vertices: np.ndarray
    edge_elements: np.ndarray
    edge_normals: np.ndarray
    edge_lengths: np.ndarray
    boundary: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray

    @property
    def n_elements(self) -> int:
        return len(self.element_vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_vertices)

    def element_points(self, elements=slice(None)) -> np.ndarray:
        """Vertex coordinates (m, 3, 2) of the given elements (default all)."""
        return self.vertices[self.element_vertices[elements]]

    def edge_points(self, edges=slice(None)) -> np.ndarray:
        """Endpoints (m, 2, 2) of the given edges, p1 then p2 (default all)."""
        return self.vertices[self.edge_vertices[edges]]

    def check_elements(self, what: str, count: int) -> None:
        """Raise ValueError unless ``count``, the element count of ``what``, is this mesh's."""
        if count != self.n_elements:
            raise ValueError(f"{what} has {count} elements, mesh has {self.n_elements}")


def check_rectangle(rect) -> Rectangle:
    """``rect`` as floats (x0, y0, x1, y1), which must be finite with x0 < x1, y0 < y1."""
    x0, y0, x1, y1 = rect = tuple(float(v) for v in rect)
    if not (np.isfinite(rect).all() and x0 < x1 and y0 < y1):
        raise ValueError(f"rectangle bounds {rect} are non-finite or not x0 < x1, y0 < y1")
    return rect


def check_partition(domain, n) -> tuple[Rectangle, int]:
    """``domain`` as floats and ``n`` as an int: ``domain`` must pass
    ``check_rectangle``, n must be an integer >= 1, and every side of the
    n x n cells of ``domain``, as the mesh spaces them, must lie in CELL_SIDES."""
    x0, y0, x1, y1 = rect = check_rectangle(domain)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count n must be an integer >= 1, got {n!r}")
    n = int(n)
    with np.errstate(all="ignore"):  # a width beyond the float range spaces as nan
        steps = np.diff([np.linspace(x0, x1, n + 1), np.linspace(y0, y1, n + 1)])
    low, high = CELL_SIDES
    if not low <= steps.min() <= steps.max() <= high:
        raise ValueError(f"rectangle {rect} in {n} x {n} cells: every cell side must lie "
                         f"in [{low:g}, {high:g}]")
    return rect, n


def build_structured_mesh(domain: Rectangle, n: int) -> Mesh:
    """Triangulate ``domain`` into 2*n^2 triangles.

    The rectangle is divided into n x n congruent sub-squares and every
    sub-square is cut along the diagonal of negative slope, giving a
    lower-left and an upper-right triangle.
    """
    (x0, y0, x1, y1), n = check_partition(domain, n)
    gx, gy = np.meshgrid(np.linspace(x0, x1, n + 1), np.linspace(y0, y1, n + 1))
    vertices = np.column_stack([gx.ravel(), gy.ravel()])
    n_vertices = len(vertices)

    # Element connectivity, counterclockwise: per sub-square the
    # lower-left (bl, br, tl) then the upper-right (br, tr, tl) triangle.
    j, i = np.divmod(np.arange(n * n), n)
    bl = j * (n + 1) + i
    br, tl = bl + 1, bl + n + 1
    element_vertices = np.empty((2 * n * n, 3), dtype=np.int64)
    element_vertices[0::2] = np.column_stack([bl, br, tl])
    element_vertices[1::2] = np.column_stack([br, tl + 1, tl])
    n_elements = len(element_vertices)

    # Edges keyed on the sorted vertex pair, numbered by first appearance.
    ends = np.stack([element_vertices, np.roll(element_vertices, -1, axis=1)], axis=-1)
    keys = (ends.min(axis=-1) * n_vertices + ends.max(axis=-1)).ravel()
    unique_keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    element_edges = rank[inverse.reshape(-1)].reshape(n_elements, 3)
    edge_vertices = np.column_stack(np.divmod(unique_keys[order], n_vertices))

    # Adjacency: the first appearance is the lower-indexed element; the
    # other one, if any, follows from the sum of the incident elements.
    owner, owner_local = np.divmod(first[order], 3)
    incident = np.repeat(np.arange(n_elements), 3)
    count = np.bincount(element_edges.ravel(), minlength=len(order))
    total = np.bincount(element_edges.ravel(), weights=incident, minlength=len(order))
    other = np.where(count == 2, total.astype(np.int64) - owner, -1)
    edge_elements = np.column_stack([owner, other])

    points = vertices[element_vertices]
    lengths, normals = sides(points)
    edge_normals = normals[owner, owner_local]
    dots = np.einsum("eki,eki->ek", normals, edge_normals[element_edges])
    element_signs = np.where(dots > 0.0, 1, -1).astype(np.int8)

    mesh = Mesh(
        domain=(x0, y0, x1, y1),
        n=n,
        vertices=vertices,
        element_vertices=element_vertices,
        element_edges=element_edges,
        element_signs=element_signs,
        edge_vertices=edge_vertices,
        edge_elements=edge_elements,
        edge_normals=edge_normals,
        edge_lengths=lengths[owner, owner_local],
        boundary=count == 1,
        areas=0.5 * jacobian_determinants(points),
        centroids=points.mean(axis=1),
    )
    for array in vars(mesh).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False  # shared by every solve on this mesh
    _validate(mesh)
    return mesh


def locate_point(mesh: Mesh, x, y):
    """Element index containing (x, y); ``x`` and ``y`` may be arrays of
    one shape, and the indices come back in it.

    Points on shared edges resolve deterministically (lower-left triangle
    wins on the diagonal, lower cell index on grid lines).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0, y0, x1, y1 = mesh.domain
    n = mesh.n
    tol = 1e-12 * max(x1 - x0, y1 - y0)
    outside = ~((x0 - tol <= x) & (x <= x1 + tol) & (y0 - tol <= y) & (y <= y1 + tol))
    if outside.any():
        k = np.flatnonzero(outside)[0]
        raise ValueError(
            f"point ({x.flat[k]}, {y.flat[k]}) lies outside the domain {mesh.domain}"
        )
    sx = (x1 - x0) / n
    sy = (y1 - y0) / n
    i = np.clip(np.trunc((x - x0) / sx).astype(np.int64), 0, n - 1)
    j = np.clip(np.trunc((y - y0) / sy).astype(np.int64), 0, n - 1)
    xi = (x - (x0 + i * sx)) / sx
    eta = (y - (y0 + j * sy)) / sy
    return 2 * (j * n + i) + (xi + eta > 1.0)


def _validate(mesh: Mesh) -> None:
    """Check counts, adjacency, orientation signs and boundary flags; raise
    RuntimeError naming the first inconsistent entity."""
    n = mesh.n
    counts = {
        "elements": (mesh.n_elements, 2 * n * n),
        "edges": (mesh.n_edges, 3 * n * n + 2 * n),
        "vertices": (len(mesh.vertices), (n + 1) * (n + 1)),
    }
    for name, (got, expected) in counts.items():
        if got != expected:
            raise RuntimeError(f"mesh has {got} {name}, expected {expected}")
    # The outward normal must be exactly +-1 times the stored one.
    _, normals = sides(mesh.element_points())
    stored = mesh.element_signs[..., None] * mesh.edge_normals[mesh.element_edges]
    bad = np.flatnonzero(~(np.abs(normals - stored) <= 1e-14).all(axis=(1, 2)))  # NaN fails
    if len(bad):
        raise RuntimeError(f"element {bad[0]}: edge orientation sign is inconsistent")
    first, second = mesh.edge_elements.T
    bad = np.flatnonzero((first < 0) | (mesh.boundary != (second < 0)))
    if len(bad):
        raise RuntimeError(
            f"edge {bad[0]}: adjacent elements {tuple(mesh.edge_elements[bad[0]])} "
            f"disagree with boundary flag {bool(mesh.boundary[bad[0]])}"
        )
    # Every boundary edge must sit on one of the rectangle's four sides.
    x0, y0, x1, y1 = mesh.domain
    edges = np.flatnonzero(mesh.boundary)
    ends = mesh.edge_points(edges)
    on_side = np.zeros(len(edges), dtype=bool)
    for axis, bound in ((0, x0), (0, x1), (1, y0), (1, y1)):
        on_side |= (np.abs(ends[:, :, axis] - bound) <= 1e-12).all(axis=1)
    if not on_side.all():
        e = edges[~on_side][0]
        raise RuntimeError(
            f"edge {e} {tuple(mesh.edge_vertices[e])} flagged boundary but off the rectangle"
        )
