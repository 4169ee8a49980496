"""The nested dissection that numbers the reduced system and shapes the
Cholesky factor's fronts.  The order tests derive the cut rule on their
own, from the blocks' centres in half cells, as the reference the
dissection is held to."""

import numpy as np
import pytest

from util import boundary_mask, unit_square_mesh

from wg4 import cholesky, weakops
from wg4.mesh import build_structured_mesh

ORDER_CASES = [((0.0, 0.0, 1.0, 1.0), 1), ((0.0, 0.0, 1.0, 1.0), 8),
               ((0.0, 0.0, 50.0, 50.0), 6), ((-1.0, 2.0, 3.0, 2.5), 5)]


def _order_blocks(mesh, order):
    """The blocks of a solve order, one per run: element e as e, edge f as
    E + f, with each block's centre in half cells, (2x, 2y) from the
    domain's corner, rounded."""
    base = 6 * mesh.n_elements
    block = np.where(order < base, order // 6, mesh.n_elements + (order - base) // 4)
    blocks = block[np.r_[True, np.diff(block) != 0]]
    x0, y0, x1, y1 = mesh.domain
    centres = np.vstack([mesh.centroids, mesh.edge_points().mean(axis=1)])[blocks]
    half = np.rint(2 * mesh.n * (centres - (x0, y0)) / (x1 - x0, y1 - y0)).astype(int)
    return blocks, half


@pytest.mark.parametrize("domain,n", ORDER_CASES)
def test_dissection_order_is_the_free_dofs_in_whole_blocks(domain, n):
    mesh = build_structured_mesh(domain, n)
    order = cholesky.dissect(mesh).order
    free = np.flatnonzero(~boundary_mask(mesh))
    assert np.array_equal(np.sort(order), free)  # a permutation of the free dofs
    # each block, an element's 6 dofs or an interior edge's 4, is one run in layout order
    base = 6 * mesh.n_elements
    block = np.where(order < base, order // 6, mesh.n_elements + (order - base) // 4)
    runs = np.split(order, np.flatnonzero(np.diff(block)) + 1)
    assert len(runs) == mesh.n_elements + (~mesh.boundary).sum()
    for run in runs:
        assert len(run) == (6 if run[0] < base else 4) and np.all(np.diff(run) == 1)


@pytest.mark.parametrize("domain,n", ORDER_CASES)
def test_dissection_numbers_each_cut_after_both_halves(domain, n):
    # nested dissection: a region of cells is one run of blocks, its two halves
    # first and then the edge blocks on the middle mesh line across its longer side
    mesh = build_structured_mesh(domain, n)
    _, half = _order_blocks(mesh, cholesky.dissect(mesh).order)
    x, y = half.T
    cuts = 0

    def check(i0, i1, j0, j1):
        nonlocal cuts
        inside = np.flatnonzero((2 * i0 < x) & (x < 2 * i1) & (2 * j0 < y) & (y < 2 * j1))
        assert np.array_equal(inside, np.arange(inside[0], inside[-1] + 1))  # one run
        if i1 - i0 == j1 - j0 == 1:
            return
        if i1 - i0 >= j1 - j0:
            m = i0 + (i1 - i0) // 2
            halves, line, length = ((i0, m, j0, j1), (m, i1, j0, j1)), x == 2 * m, j1 - j0
        else:
            m = j0 + (j1 - j0) // 2
            halves, line, length = ((i0, i1, j0, m), (i0, i1, m, j1)), y == 2 * m, i1 - i0
        cut = np.intersect1d(inside, np.flatnonzero(line))
        assert len(cut) == length  # one edge block per cell side on the line
        assert np.array_equal(cut, inside[len(inside) - len(cut):])  # the cut comes last
        cuts += 1
        for region in halves:
            check(*region)

    check(0, n, 0, n)
    assert cuts == n * n - 1  # a binary tree down to the n^2 single cells


@pytest.mark.parametrize("domain,n", ORDER_CASES)
def test_dissection_numbers_each_cells_elements_then_its_diagonal(domain, n):
    mesh = build_structured_mesh(domain, n)
    blocks, half = _order_blocks(mesh, cholesky.dissect(mesh).order)
    elements = np.flatnonzero(blocks < mesh.n_elements)
    diagonals = np.flatnonzero((blocks >= mesh.n_elements) & (half % 2 == 1).all(axis=1))
    assert len(elements) == 2 * len(diagonals) == 2 * n * n
    # per cell, in the order the cells come: lower element, upper element, diagonal
    cell = half[elements, 1] // 2 * n + half[elements, 0] // 2
    assert np.array_equal(cell[0::2], cell[1::2])
    assert np.array_equal(blocks[elements], np.ravel([2 * cell[0::2], 2 * cell[0::2] + 1], "F"))
    assert np.array_equal(diagonals, elements[1::2] + 1)
    assert np.array_equal(half[diagonals], half[elements[0::2]])


def _fronts(dissection, mesh):
    """Every front of the dissection: each tree node as (level, row) and
    each element as ("element", e), with its pivot rows, its side rows
    (an element's without the spare row of its boundary dofs), its cell
    or None and its children, the fronts its own takes updates from."""
    size = len(dissection.order)
    fronts = {}
    for at, (rows, pivots, groups) in enumerate(dissection.levels):
        for g in groups:
            for i, row in enumerate(range(g.span.start, g.span.stop)):
                r = rows[row]
                children = [("element", int(members[i])) if child is None
                            else (at - 1, child.span.start + members.start + i)
                            for child, members, _ in g.children]
                cell = children[0][1] // 2 if children[0][0] == "element" else None
                fronts[at, row] = (r[:g.pivots], r[pivots:][:g.width], cell, children)
    for e, r in enumerate(dissection.rows[weakops.local_dofs(mesh)]):
        fronts["element", e] = (r[:6], r[6:][r[6:] < size], None, [])
    assert len(fronts) == 2 * mesh.n ** 2 - 1 + mesh.n_elements
    return fronts


@pytest.mark.parametrize("domain,n", ORDER_CASES)
def test_dissection_tree_splits_each_node_into_its_halves(domain, n):
    # each node's cells are one half of its parent's, bisected across its longer side
    mesh = build_structured_mesh(domain, n)
    dissection = cholesky.dissect(mesh)
    fronts = _fronts(dissection, mesh)
    regions = {}

    def region(node):  # the cells (lx, ly, hx, hy) under a node, from its single cells
        _, _, cell, children = fronts[node]
        if cell is not None:
            y, x = divmod(cell, n)
            regions[node] = (x, y, x + 1, y + 1)
        else:
            boxes = np.array([region(child) for child in children])
            regions[node] = (*boxes[:, :2].min(axis=0).tolist(),
                             *boxes[:, 2:].max(axis=0).tolist())
        return regions[node]

    root = (len(dissection.levels) - 1, 0)
    assert dissection.levels[-1][0].shape[0] == 1
    assert region(root) == (0, 0, n, n)
    for node, (lx, ly, hx, hy) in regions.items():
        w, h = hx - lx, hy - ly
        children = sorted(regions[child] for child in fronts[node][3] if child in regions)
        if w + h == 2:
            assert fronts[node][2] is not None and not children  # a single cell has no halves
            continue
        halves = ([(lx, ly, lx + w // 2, hy), (lx + w // 2, ly, hx, hy)] if w >= h
                  else [(lx, ly, hx, ly + h // 2), (lx, ly + h // 2, hx, hy)])
        assert children == sorted(halves)
    cells = [r for r in regions.values() if r[2] - r[0] + r[3] - r[1] == 2]
    assert len(regions) == 2 * n * n - 1 and len(set(cells)) == n * n


def test_dissection_at_n2():
    # the 2 x 2 grid is cut at x = 1, each half at y = 1: cell (0, 0) numbers elements 0, 1
    # and its diagonal, cell (0, 1) elements 4, 5 and its diagonal, then the edge between
    # them; the right half likewise; the two edges on x = 1 come last
    mesh = unit_square_mesh(2)
    blocks, half = _order_blocks(mesh, cholesky.dissect(mesh).order)
    named = [f"T{b}" if b < mesh.n_elements else tuple(h) for b, h in zip(blocks, half)]
    assert named == ["T0", "T1", (1, 1), "T4", "T5", (1, 3), (1, 2),
                     "T2", "T3", (3, 1), "T6", "T7", (3, 3), (3, 2),
                     (2, 1), (2, 3)]


@pytest.mark.parametrize("domain,n", [((0.0, 0.0, 1.0, 1.0), 1), ((0.0, 0.0, 1.0, 1.0), 2),
                                      ((0.0, 0.0, 1.0, 1.0), 5), ((0.0, 0.0, 1.0, 1.0), 8),
                                      ((-1.0, 2.0, 3.0, 2.5), 5)])
def test_dissection_fronts_keep_the_elimination_contract(domain, n):
    # what the factor assumes of its fronts, checked without factoring
    mesh = build_structured_mesh(domain, n)
    dissection = cholesky.dissect(mesh)
    size = len(dissection.order)
    fronts = _fronts(dissection, mesh)
    parent = {child: node for node, (*_, children) in fronts.items() for child in children}
    # every free row is a pivot of exactly one front or one element interior
    pivots = np.concatenate([front[0] for front in fronts.values()])
    assert np.array_equal(np.sort(pivots), np.arange(size))

    def last(node):  # the last pivot row of a node and of every front below it
        return max([fronts[node][0].max(), *(last(child) for child in fronts[node][3])])

    for node, (own, sides, _, children) in fronts.items():
        # the pivots are one ascending run, after all the descendants' pivots
        assert np.array_equal(own, np.arange(own[0], own[0] + len(own)))
        assert all(last(child) < own[0] for child in children)
        # every side row is a pivot of a strict ancestor
        above, up = [], node
        while up in parent:
            up = parent[up]
            above.append(fronts[up][0])
        assert np.isin(sides, np.concatenate([[], *above])).all()
        # and lies among the parent front's rows
        if node in parent:
            assert np.isin(sides, np.concatenate(fronts[parent[node]][:2])).all()
        else:
            assert len(sides) == 0  # the root


@pytest.mark.parametrize("domain,n", [((0.0, 0.0, 1.0, 1.0), 1), ((0.0, 0.0, 1.0, 1.0), 2),
                                      ((0.0, 0.0, 1.0, 1.0), 5), ((0.0, 0.0, 1.0, 1.0), 8),
                                      ((-1.0, 2.0, 3.0, 2.5), 5)])
def test_dissection_runs_put_each_childs_sides_on_its_parents_rows(domain, n):
    # the extend-add: run (a, pa, k) adds the child's update rows a..a+k into the parent
    # front's rows pa..pa+k, which must be the same rows of A; the runs cover every
    # side row of the child once, an element's free edge rows and a cut node's sides
    mesh = build_structured_mesh(domain, n)
    dissection = cholesky.dissect(mesh)
    size = len(dissection.order)
    edge_rows = dissection.rows[weakops.local_dofs(mesh)][:, 6:]
    children = 0
    for at, (rows, pivots, groups) in enumerate(dissection.levels):
        for g in groups:
            assert len(g.children) == 2
            for child, members, runs in g.children:
                for i, row in enumerate(range(g.span.start, g.span.stop)):
                    parent_rows = np.r_[rows[row, :g.pivots], rows[row, pivots:][:g.width]]
                    if child is None:
                        sides = edge_rows[members[i]]
                        free = np.flatnonzero(sides < size)
                    else:
                        child_rows, child_pivots, _ = dissection.levels[at - 1]
                        sides = child_rows[child.span.start + members.start + i,
                                           child_pivots:][:child.width]
                        free = np.arange(len(sides))
                    covered = np.concatenate([np.arange(a, a + k) for a, _, k in runs])
                    assert np.array_equal(np.sort(covered), free)
                    for a, pa, k in runs:
                        assert np.array_equal(sides[a:a + k], parent_rows[pa:pa + k])
                    children += 1
    assert children == 2 * (2 * n * n - 1)  # two per front: halves or elements
