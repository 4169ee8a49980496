"""The nested dissection of the cell grid, which numbers the reduced
system, and the multifrontal Cholesky factorization on its tree.

This module owns the order of the reduced system's rows (George, SIAM J.
Numer. Anal. 10, 1973).  ``dissect`` bisects the n x n cells of a mesh:
a region of cells is cut across its longer side, across x on a tie, at
the middle mesh line, and each half is cut again, down to single cells.
A region numbers its two halves first, then the edge blocks on its cut,
in increasing x or y; a single cell numbers its two elements, then its
diagonal.  The element blocks (6 dofs) and the interior-edge blocks (4)
each stay whole, in layout order, and the boundary dofs are left out.
Cell c = j n + i of the grid holds elements 2c and 2c + 1 of the mesh,
whose ``element_edges`` are the cell's bottom, diagonal and left edges
and its right, top and diagonal ones.

The reduced matrix A of ``wg4.assembly`` is symmetric positive definite,
and it is factored on the tree of that dissection (Duff & Reid, ACM
TOMS 9, 1983; Liu, SIAM Rev. 34, 1992).  A tree node is a region of
cells; its front is a dense matrix over the rows it eliminates, its
pivots, and the free edge blocks on the region's sides, which an
ancestor eliminates.  A cut node's pivots are the edge blocks on its
cut; a single cell's is its diagonal.  The sides follow the pivots in a
fixed geometric order: bottom, right, top and left, each edge block
once, in increasing x or y, and a side on the domain's boundary holds
none.  Every front's pivots are one run of rows, after those of the
fronts below it, so the numbering is the tree's post-order.

Every entry of A comes from an element matrix, so the factorization
starts from the element classes of ``assembly``: for each class, the 6
interior dofs are condensed once, with the Cholesky factor of their
6 x 6 block, L^-1 times the block that joins them to the 12 edge dofs,
and the 12 x 12 Schur complement.  The nested dissection eliminates
those dofs first anyway, so the pivots are the same.  A single cell's
front sums the complements of its two elements; a cut node's front
takes only its two children's updates, added into the rows they share
(extend-add).
Each front F, with its p pivots first, is factored as

    L11 = chol(F11),  X = L11^-1 F12,  U = F22 - X^T X,

and U is the update its parent adds.  numpy has no triangular solve, so
L11^-1 is kept in place of L11.

The fronts of one tree level that share their size, and the sides they
hold, form a group: a cut node's children are then of one group per
half, and the positions of a child's sides in its parent's front are the
same for every member, so one list of runs of rows serves them all.
The dissection depends on the mesh alone and holds the groups; the
factorization does the numeric work.  Equal fronts are factored once:
in a group, the cells whose elements have equal classes, and the cut
nodes whose children's fronts are equal, which on a uniform medium
leaves a few fronts per level.  Each group's distinct fronts are
factored in one batched call of each kind, and the solves run level by
level, the forward one from the elements to the root and the backward
one back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weakops import N_INTERIOR, N_PER_EDGE

__all__ = ["Dissection", "Factor", "dissect", "factor"]


@dataclass(eq=False)
class _Group:
    """The fronts of one tree level that share their shape: rows ``span``
    of the level, each front with its pivots first and then ``width``
    side rows."""

    span: slice
    pivots: int
    width: int
    cells: np.ndarray | None  # (m,) the cell of each front of a single cell, else None
    children: list = field(default_factory=list)  # (child group, first member, runs)


@dataclass(frozen=True, eq=False)
class Dissection:
    """The nested dissection of a mesh, from ``dissect``.  Its arrays are
    read-only, and a ``Factor`` of the mesh keeps its levels' rows."""

    rows: np.ndarray  # (D,) each dof's row; len(order), the spare row, for a boundary dof
    order: np.ndarray  # the free dofs, by row
    # (rows (m, f), p, groups) of each level of the tree, from the leaves up: its
    # fronts' rows, their p pivots first, padded with the spare row to the level's
    # largest front
    levels: list


class Factor:
    """The factor L of A = L L^T, as the arrays its solves read.  For a
    front with L11 and X, they keep K = [L11^-1; -(L11^-T X)^T]: the
    forward solve takes y = L11^-1 v and the update -X^T y = -(L11^-T X)^T v
    of its pivot values v in one product, and the backward solve takes
    x = L11^-T y - L11^-T X x_u, K^T times the front's values, in one.
    The condensed interiors of the elements come first, as a level of
    fronts of 6 pivots, then the levels of the ``Dissection``, each with
    zeros where it pads a front's rows.  ``nnz`` counts the floats it
    keeps.  Its arrays are read-only."""

    def __init__(self, size: int, levels: list[tuple]):
        """``levels`` holds (rows (m, f), p, K (m, f, p)) of each level of fronts."""
        self.size = size
        # (rows, their first p, their last f - p flat, K)
        self.levels = [(rows, np.ascontiguousarray(rows[:, :p]), rows[:, p:].ravel(), k)
                       for rows, p, k in levels]
        for array in (a for level in self.levels for a in level):
            array.flags.writeable = False  # shared by every later solve on the operator
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


def _region_rows(w, h):
    """The rows of a w x h region of cells: its elements' interiors and
    the edge blocks inside it, wh diagonals, w(h - 1) horizontal and
    (w - 1)h vertical ones."""
    return 2 * N_INTERIOR * w * h + N_PER_EDGE * (3 * w * h - w - h)


def _runs(positions: np.ndarray) -> list[tuple[int, int, int]]:
    """(first index, first position, length) of each run of consecutive
    ``positions``."""
    starts = np.flatnonzero(np.diff(positions, prepend=-2) != 1)
    lengths = np.diff(starts, append=len(positions))
    return [(int(a), int(positions[a]), int(k)) for a, k in zip(starts, lengths)]


def dissect(mesh) -> Dissection:
    """The nested dissection of ``mesh``'s cell grid, in one pass over
    its tree, root first: each level's cuts number their edge blocks,
    and its fronts take their sides' rows from the cuts above them."""
    n = mesh.n
    size = _region_rows(n, n)
    # each cell's bottom, diagonal and left edge by (x, y): its lower element's
    bottom, diagonal, left = mesh.element_edges[0::2].reshape(n, n, 3).transpose(2, 1, 0)
    first = np.full(mesh.n_edges, size)  # each edge block's first row; spare on the boundary
    cell_rows = np.empty(n * n, dtype=np.intp)  # each cell's first row
    position = np.zeros(size, dtype=np.intp)  # scratch: a row's place in one front
    # one level's nodes, in the order of their paths from the root: each region
    # [lx, hx) x [ly, hy) of cells, its first row, its parent and the parent's half it is
    lx = ly = start = parent = half = last_group = last_place = np.zeros(1, dtype=np.intp)
    hx = hy = np.full(1, n)
    levels = []
    while len(lx):
        w, h = hx - lx, hy - ly
        leaf = w + h == 2
        across = w >= h  # cut the x-extent, along a vertical mesh line
        mid = np.where(across, lx + w // 2, ly + h // 2)
        sides = (ly > 0) + 2 * (hx < n) + 4 * (hy < n) + 8 * (lx > 0)
        _, group = np.unique((w * (n + 1) + h) * 16 + sides, return_inverse=True)
        parent_group = last_group[parent]
        nodes = np.lexsort((last_place[parent], half, parent_group, group))
        starts = np.flatnonzero(np.diff(group[nodes], prepend=-1))
        groups, fronts = [], []
        for at, members in zip(starts, np.split(nodes, starts[1:])):
            x0, y0, x1, y1 = lx[members], ly[members], hx[members], hy[members]
            one = members[0]
            xs, ys = x0[:, None] + np.arange(w[one]), y0[:, None] + np.arange(h[one])
            if leaf[one]:
                cut = diagonal[x0, y0][:, None]
                cell_rows[y0 * n + x0] = start[members]
            elif across[one]:
                cut = left[mid[members, None], ys]
            else:
                cut = bottom[xs, mid[members, None]]
            p = N_PER_EDGE * cut.shape[1]
            pivot = start[members] + _region_rows(w[one], h[one]) - p  # after both halves
            first[cut] = pivot[:, None] + N_PER_EDGE * np.arange(cut.shape[1])
            edges = [cut]
            if y0[0] > 0:
                edges.append(bottom[xs, y0[:, None]])
            if x1[0] < n:
                edges.append(left[x1[:, None], ys])
            if y1[0] < n:
                edges.append(bottom[xs, y1[:, None]])
            if x0[0] > 0:
                edges.append(left[x0[:, None], ys])
            edges = first[np.hstack(edges)]
            fronts.append((edges[:, :, None] + np.arange(N_PER_EDGE)).reshape(len(edges), -1))
            groups.append(_Group(slice(at, at + len(members)), p, fronts[-1].shape[1] - p,
                                 y0 * n + x0 if leaf[one] else None))
        if levels:  # each run of one parent group's halves, in its members' order
            key = np.column_stack([group, parent_group, half])[nodes]
            for at in np.flatnonzero(np.r_[True, (np.diff(key, axis=0) != 0).any(axis=1)]):
                g, pg, _ = key[at]
                position[last_fronts[pg][0]] = np.arange(last_fronts[pg].shape[1])
                offset = at - starts[g]
                runs = _runs(position[fronts[g][offset, groups[g].pivots:]])
                levels[-1][2][pg].children.append((groups[g], offset, runs))
        pivots = max(g.pivots for g in groups)
        rows = np.full((len(nodes), pivots + max(g.width for g in groups)), size)
        for g, front in zip(groups, fronts):
            rows[g.span, :g.pivots] = front[:, :g.pivots]
            rows[g.span, pivots:pivots + g.width] = front[:, g.pivots:]
        levels.append((rows, pivots, groups))
        last_group, last_fronts = group, fronts
        last_place = np.empty_like(nodes)  # each node's place in its group
        last_place[nodes] = np.arange(len(nodes)) - starts[group[nodes]]
        # the cut nodes' halves, the first then the second of each
        split = np.where(across, mid, hx), np.where(across, hy, mid)  # the first's far corner
        halves = [(lx, np.where(across, mid, lx)), (ly, np.where(across, ly, mid)),
                  (split[0], hx), (split[1], hy),
                  (start, start + _region_rows(split[0] - lx, split[1] - ly))]
        lx, ly, hx, hy, start = [np.column_stack(pair)[~leaf].ravel() for pair in halves]
        parent = np.repeat(np.flatnonzero(~leaf), 2)
        half = np.tile([0, 1], len(parent) // 2)
    interior = cell_rows[:, None] + np.arange(2 * N_INTERIOR)  # elements 2c and 2c + 1
    edges = np.minimum(first[:, None] + np.arange(N_PER_EDGE), size)  # the spare row stays
    rows = np.concatenate([interior.ravel(), edges.ravel()])
    free = np.flatnonzero(rows < size)
    order = np.empty(size, dtype=np.intp)
    order[rows[free]] = free
    for array in (rows, order, *(level[0] for level in levels),
                  *(g.cells for _, _, groups in levels for g in groups if g.cells is not None)):
        array.flags.writeable = False
    return Dissection(rows, order, levels[::-1])


def _eliminate(fronts: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """K (m, f, p) of ``Factor`` and the update U (m, f - p, f - p) of
    fronts (m, f, f) with their p pivots first."""
    inverse = np.linalg.inv(np.linalg.cholesky(fronts[:, :p, :p]))
    x = inverse @ fronts[:, :p, p:]
    update = fronts[:, p:, p:] - x.transpose(0, 2, 1) @ x
    k = np.concatenate([inverse, -(inverse.transpose(0, 2, 1) @ x).transpose(0, 2, 1)], 1)
    return k, update


def factor(operator) -> Factor:
    """The Cholesky factor of an ``assembly.Operator``'s reduced matrix,
    from its element classes on the fronts of its ``Dissection``.  A
    front that is not positive definite raises ``np.linalg.LinAlgError``."""
    mats, classes, dissection = operator.class_matrices, operator.classes, operator.dissection
    size, local = len(dissection.order), operator.element_rows
    k, schur = _eliminate(mats, N_INTERIOR)
    factored = [(local, N_INTERIOR, k[classes])]
    position = np.zeros(size + 1, dtype=np.intp)
    made = {}  # each group of a level: its fronts' places among its distinct fronts, their U
    for rows, pivots, groups in dissection.levels:
        level_k = np.zeros((*rows.shape, pivots))
        last, made = made, {}
        for g in groups:
            m, p, f = g.span.stop - g.span.start, g.pivots, g.pivots + g.width
            # equal fronts are factored once: those of equal element classes, then
            # those whose children's fronts are equal
            if g.cells is not None:
                key = classes[2 * g.cells] * len(mats) + classes[2 * g.cells + 1]
            else:
                (first, start, _), (second, other, _) = g.children
                key = (last[first][0][start:start + m] * (last[second][0].max() + 1)
                       + last[second][0][other:other + m])
            _, reps, index = np.unique(key, return_index=True, return_inverse=True)
            if g.cells is not None:  # the two elements' complements
                rep = rows[g.span.start + reps[0]]
                position[np.r_[rep[:p], rep[pivots:pivots + g.width]]] = np.arange(f)
                position[size] = f  # a boundary dof lands in a spare row and column
                front = np.zeros((len(reps), f + 1, f + 1))
                for e in (2 * g.cells[reps], 2 * g.cells[reps] + 1):
                    where = position[local[e[0], N_INTERIOR:]]
                    front[:, where[:, None], where] += schur[classes[e]]
                front = front[:, :f, :f]
            else:
                front = np.zeros((len(reps), f, f))
            for child, start, runs in g.children:
                child_index, child_update = last[child]
                update = child_update[child_index[start + reps]]
                for a, pa, ka in runs:
                    for b, pb, kb in runs:
                        front[:, pa:pa + ka, pb:pb + kb] += update[:, a:a + ka, b:b + kb]
            k, update = _eliminate(front, p)
            made[g] = index, update
            level_k[g.span, :p, :p], level_k[g.span, pivots:pivots + f - p, :p] = np.split(
                k[index], [p], 1)
        factored.append((rows, pivots, level_k))
    return Factor(size, factored)
