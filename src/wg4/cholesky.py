"""A multifrontal Cholesky factorization of the reduced system.

The reduced matrix A of ``wg4.assembly`` is symmetric positive definite
and numbered by ``weakops.solve_order``, whose tree this module factors
on (Duff & Reid, ACM TOMS 9, 1983; Liu, SIAM Rev. 34, 1992).  A tree
node is a region of cells; its front is a dense matrix over the rows it
eliminates, its pivots, and the free edge blocks on the region's sides,
which an ancestor eliminates.  A cut node's pivots are the edge blocks
on its cut, in the order the system numbers them; a single cell's is its
diagonal.  The sides follow the pivots in a fixed geometric order:
bottom, right, top and left, each edge block once, in increasing x or
y, and a side on the domain's boundary holds none.

Every entry of A comes from an element matrix, so the factorization
starts from the element classes of ``assembly``: for each class, the 6
interior dofs are condensed once, with the Cholesky factor of their
6 x 6 block, L^-1 times its coupling to the 12 edge dofs, and the
12 x 12 Schur complement.  The nested dissection eliminates those dofs
first anyway, so the pivots are the same.  A single cell's front sums
the complements of its two elements; a cut node's front takes only its
two children's updates, added into the rows they share (extend-add).
Each front F, with its p pivots first, is factored as

    L11 = chol(F11),  X = L11^-1 F12,  U = F22 - X^T X,

and U is the update its parent adds.  numpy has no triangular solve, so
L11^-1 is kept in place of L11.

The fronts of one tree level that share their size, and the sides they
hold, form a group: a cut node's children are then of one group per
half, and the positions of a child's sides in its parent's front are the
same for every member, so one list of runs of rows serves them all.
Equal fronts are factored once: in a group, the cells whose elements
have equal classes, and the cut nodes whose children's fronts are
equal, which on a uniform medium leaves a few fronts per level.  Each
group's distinct fronts are factored in one batched call of each kind,
and the solves run level by level, the forward one from the elements to
the root and the backward one back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import weakops
from .weakops import N_INTERIOR, N_PER_EDGE

__all__ = ["Factor", "factor"]


@dataclass(eq=False)
class _Group:
    """The fronts of one tree level that share their shape."""

    rows: np.ndarray  # (m, f) each front's rows, its p pivots first
    pivots: int
    cells: np.ndarray | None  # (m,) the cell of each front of a single cell, else None
    children: list = field(default_factory=list)  # (child group, first member, runs)
    index: np.ndarray | None = None  # (m,) each front's place among the distinct fronts
    update: np.ndarray | None = None  # (k, f - p, f - p) U of each distinct front


class Factor:
    """The factor L of A = L L^T, as the arrays its solves read.  For a
    front with L11 and X, they keep K = [L11^-1; -(L11^-T X)^T]: the
    forward solve takes y = L11^-1 v and the update -X^T y = -(L11^-T X)^T v
    of its pivot values v in one product, and the backward solve takes
    x = L11^-T y - L11^-T X x_u, K^T times the front's values, in one.
    The fronts of one tree level are kept together, padded to the
    level's largest front with zeros and rows of a spare entry, and the
    condensed interiors of the elements come first, as a level of fronts
    of 6 pivots.  ``nnz`` counts the floats it keeps."""

    def __init__(self, size: int, levels: list[tuple]):
        """``levels`` holds (rows (m, f), p, K (m, f, p)) of each level's
        fronts, the elements first, then the tree's levels from the leaves up."""
        self.size = size
        # (rows, their first p, their last f - p flat, K)
        self.levels = [(rows, np.ascontiguousarray(rows[:, :p]), rows[:, p:].ravel(), k)
                       for rows, p, k in levels]
        self.nnz = sum(k.size for _, _, k in levels)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b."""
        w = np.zeros(self.size + 1)  # the spare entry last
        w[:-1] = b
        for _, pivots, sides, k in self.levels:
            z = (k @ w[pivots][..., None])[..., 0]
            w[pivots] = z[:, :pivots.shape[1]]
            np.add.at(w, sides, z[:, pivots.shape[1]:].ravel())  # fastest on flat arrays
            w[-1] = 0.0  # the elements' boundary dofs land there
        for rows, pivots, _, k in reversed(self.levels):
            w[pivots] = (k.transpose(0, 2, 1) @ w[rows][..., None])[..., 0]
        return w[:-1]


def _edge_rows(mesh, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first row of each edge block by its place on the grid:
    horizontal (n, n + 1) and vertical (n + 1, n) edges by their lower
    or left end (x, y), diagonals (n, n) by their cell."""
    n = mesh.n
    first = rows[N_INTERIOR * mesh.n_elements + N_PER_EDGE * np.arange(mesh.n_edges)]
    y, x = np.divmod(mesh.edge_vertices, n + 1)
    horizontal, vertical = y[:, 0] == y[:, 1], x[:, 0] == x[:, 1]
    diagonal = ~(horizontal | vertical)
    x, y = x.min(axis=1), y.min(axis=1)
    tables = np.zeros((n, n + 1), int), np.zeros((n + 1, n), int), np.zeros((n, n), int)
    for table, kind in zip(tables, (horizontal, vertical, diagonal)):
        table[x[kind], y[kind]] = first[kind]
    return tables


def _front_rows(tables, n: int, lx, ly, hx, hy) -> tuple[np.ndarray, int]:
    """The rows (m, f) of the fronts of regions [lx, hx) x [ly, hy) of
    one shape, and their number of pivots."""
    horizontal, vertical, diagonal = tables
    w, h = hx[0] - lx[0], hy[0] - ly[0]
    xs, ys = lx[:, None] + np.arange(w), ly[:, None] + np.arange(h)
    if w + h == 2:
        edges = [diagonal[lx, ly][:, None]]
    elif w >= h:
        edges = [vertical[(lx + w // 2)[:, None], ys]]
    else:
        edges = [horizontal[xs, (ly + h // 2)[:, None]]]
    pivots = N_PER_EDGE * edges[0].shape[1]
    if ly[0] > 0:
        edges.append(horizontal[xs, ly[:, None]])
    if hx[0] < n:
        edges.append(vertical[hx[:, None], ys])
    if hy[0] < n:
        edges.append(horizontal[xs, hy[:, None]])
    if lx[0] > 0:
        edges.append(vertical[lx[:, None], ys])
    edges = np.hstack(edges)
    return (edges[:, :, None] + np.arange(N_PER_EDGE)).reshape(len(edges), -1), pivots


def _runs(positions: np.ndarray) -> list[tuple[int, int, int]]:
    """(first index, first position, length) of each run of consecutive
    ``positions``."""
    starts = np.flatnonzero(np.diff(positions, prepend=-2) != 1)
    lengths = np.diff(starts, append=len(positions))
    return [(int(a), int(positions[a]), int(k)) for a, k in zip(starts, lengths)]


def _groups(mesh, tree: list[np.ndarray], rows: np.ndarray) -> list[list[_Group]]:
    """The groups of fronts of each level of ``tree``, root first, each
    linked to its children's groups."""
    n, size = mesh.n, len(rows)
    tables = _edge_rows(mesh, rows)
    position = np.zeros(size, dtype=np.intp)  # scratch: a row's place in one front
    levels = []
    for nodes in tree:
        prefix, lx, ly, hx, hy = nodes.T
        if levels:  # the parent of (L, P) is (L - 1, P // 3), its half P % 3
            parent = np.searchsorted(last_prefix, prefix // 3)
            parent_group, parent, half = last_group[parent], last_place[parent], prefix % 3
        else:
            parent = parent_group = half = np.zeros_like(prefix)
        sides = (ly > 0) + 2 * (hx < n) + 4 * (hy < n) + 8 * (lx > 0)
        _, group = np.unique(((hx - lx) * (n + 1) + hy - ly) * 16 + sides, return_inverse=True)
        order = np.lexsort((parent, half, parent_group, group))
        starts = np.flatnonzero(np.diff(group[order], prepend=-1))
        level = []
        for members in np.split(order, starts[1:]):
            front, pivots = _front_rows(tables, n, lx[members], ly[members], hx[members],
                                        hy[members])
            leaf = hx[members[0]] - lx[members[0]] + hy[members[0]] - ly[members[0]] == 2
            cells = ly[members] * n + lx[members] if leaf else None
            level.append(_Group(front, pivots, cells))
        if levels:  # each run of one parent group's halves, in its members' order
            key = np.column_stack([group, parent_group, half])[order]
            for at in np.flatnonzero(np.r_[True, (np.diff(key, axis=0) != 0).any(axis=1)]):
                g, pg, _ = key[at]
                child, parent_front = level[g], levels[-1][pg]
                position[parent_front.rows[0]] = np.arange(parent_front.rows.shape[1])
                offset = at - starts[g]
                runs = _runs(position[child.rows[offset, child.pivots:]])
                parent_front.children.append((child, offset, runs))
        last_prefix, last_group = prefix, group
        last_place = np.empty_like(order)  # each node's place in its group
        last_place[order] = np.arange(len(order)) - starts[group[order]]
        levels.append(level)
    return levels


def _eliminate(fronts: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """K (m, f, p) of ``Factor`` and the update U (m, f - p, f - p) of
    fronts (m, f, f) with their p pivots first."""
    inverse = np.linalg.inv(np.linalg.cholesky(fronts[:, :p, :p]))
    coupling = inverse @ fronts[:, :p, p:]
    update = fronts[:, p:, p:] - coupling.transpose(0, 2, 1) @ coupling
    k = np.concatenate([inverse, -(inverse.transpose(0, 2, 1) @ coupling).transpose(0, 2, 1)], 1)
    return k, update


def factor(operator) -> Factor:
    """The Cholesky factor of an ``assembly.Operator``'s reduced matrix,
    from its element classes and its dissection tree.  A front that is
    not positive definite raises ``np.linalg.LinAlgError``."""
    mesh, mats, classes = operator.mesh, operator.class_matrices, operator.classes
    size = len(operator.order)
    rows = np.full(weakops.dof_count(mesh), size)  # boundary dofs to the spare row
    rows[operator.order] = np.arange(size)
    local = rows[weakops.local_dofs(mesh)]
    k, schur = _eliminate(mats, N_INTERIOR)
    position = np.zeros(size + 1, dtype=np.intp)
    factored = [(local, N_INTERIOR, k[classes])]
    for level in reversed(_groups(mesh, operator.tree, rows)):
        pivots = max(g.pivots for g in level)
        width = max(g.rows.shape[1] - g.pivots for g in level)
        m = sum(len(g.rows) for g in level)
        level_rows = np.full((m, pivots + width), size)
        level_k = np.zeros((m, pivots + width, pivots))
        at = 0
        for g in level:
            # equal fronts are factored once: those of equal element classes, then
            # those whose children's fronts are equal
            if g.cells is not None:
                key = classes[2 * g.cells] * len(mats) + classes[2 * g.cells + 1]
            else:
                (first, start, _), (second, other, _) = g.children
                key = (first.index[start:start + len(g.rows)] * (second.index.max() + 1)
                       + second.index[other:other + len(g.rows)])
            _, reps, g.index = np.unique(key, return_index=True, return_inverse=True)
            f, p = g.rows.shape[1], g.pivots
            if g.cells is not None:  # the two elements' complements
                position[g.rows[reps[0]]] = np.arange(f)  # the places of every member's rows
                position[size] = f  # a boundary dof lands in a spare row and column
                front = np.zeros((len(reps), f + 1, f + 1))
                for e in (2 * g.cells[reps], 2 * g.cells[reps] + 1):
                    where = position[local[e[0], N_INTERIOR:]]
                    front[:, where[:, None], where] += schur[classes[e]]
                front = front[:, :f, :f]
            else:
                front = np.zeros((len(reps), f, f))
            for child, start, runs in g.children:
                update = child.update[child.index[start + reps]]
                for a, pa, ka in runs:
                    for b, pb, kb in runs:
                        front[:, pa:pa + ka, pb:pb + kb] += update[:, a:a + ka, b:b + kb]
            k, g.update = _eliminate(front, p)
            span = slice(at, at + len(g.rows))
            level_rows[span, :p], level_rows[span, pivots:pivots + f - p] = np.split(g.rows, [p], 1)
            level_k[span, :p, :p], level_k[span, pivots:pivots + f - p, :p] = np.split(
                k[g.index], [p], 1)
            at += len(g.rows)
        for g in level:
            for child, _, _ in g.children:
                child.update = None  # taken by every parent group
        factored.append((level_rows, pivots, level_k))
    return Factor(size, factored)
