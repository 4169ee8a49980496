import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wg4.cli import _mesh_csv as mesh_to_csv
from wg4.mesh import _validate, build_structured_mesh, locate_point

UNIT = (0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("n,elements,edges,vertices", [
    (1, 2, 5, 4),
    (2, 8, 16, 9),
    (3, 18, 33, 16),
])
def test_entity_counts(n, elements, edges, vertices):
    mesh = build_structured_mesh(UNIT, n)
    assert mesh.n_elements == elements
    assert mesh.n_edges == edges
    assert len(mesh.vertices) == vertices


def test_large_mesh_element_count():
    mesh = build_structured_mesh(UNIT, 64)
    assert mesh.n_elements == 8192
    assert mesh.boundary.sum() == 256


@settings(max_examples=16, deadline=None)
@given(st.integers(min_value=1, max_value=16))
def test_euler_characteristic(n):
    mesh = build_structured_mesh(UNIT, n)
    v = len(mesh.vertices)
    e = mesh.n_edges
    f = mesh.n_elements
    assert v - e + f == 1
    assert f == 2 * n * n
    assert e == 3 * n * n + 2 * n


@pytest.mark.parametrize("domain", [UNIT, (0.0, 0.0, 2.0, 1.0), (-1.0, 2.0, 3.0, 5.0)])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_area_sum_and_element_geometry(domain, n):
    mesh = build_structured_mesh(domain, n)
    x0, y0, x1, y1 = domain
    total = (x1 - x0) * (y1 - y0)
    assert abs(sum(mesh.areas) - total) <= 1e-13 * total
    expected_area = total / (2 * n * n)
    diameters = mesh.edge_lengths[mesh.element_edges].max(axis=1)
    for area, verts, diameter in zip(mesh.areas, mesh.element_vertices, diameters):
        assert area == pytest.approx(expected_area, rel=1e-13)
        pts = mesh.vertices[verts]
        sides = [np.linalg.norm(pts[(k + 1) % 3] - pts[k]) for k in range(3)]
        assert diameter == pytest.approx(max(sides), rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_normals_and_orientation_signs(n):
    mesh = build_structured_mesh(UNIT, n)
    for verts, edges, signs in zip(mesh.element_vertices, mesh.element_edges,
                                   mesh.element_signs):
        pts = mesh.vertices[verts]
        for k in range(3):
            d = pts[(k + 1) % 3] - pts[k]
            normal = np.array([d[1], -d[0]]) / np.linalg.norm(d)  # outward, CCW
            assert abs(np.linalg.norm(mesh.edge_normals[edges[k]]) - 1.0) <= 1e-14
            assert np.allclose(normal, signs[k] * mesh.edge_normals[edges[k]], atol=1e-14)
    for eid in range(mesh.n_edges):
        if mesh.boundary[eid]:
            continue
        signs = []
        for ei in mesh.edge_elements[eid]:
            k = list(mesh.element_edges[ei]).index(eid)
            signs.append(mesh.element_signs[ei, k])
        assert signs[0] == -signs[1]


@pytest.mark.parametrize("n,boundary,interior", [(1, 4, 1), (2, 8, 8), (4, 16, 40)])
def test_boundary_flag_counts(n, boundary, interior):
    mesh = build_structured_mesh(UNIT, n)
    flags = mesh.boundary
    assert flags.sum() == boundary == 4 * n
    assert (~flags).sum() == interior == 3 * n * n - 2 * n
    for adjacent, flag in zip(mesh.edge_elements, flags):
        assert flag == (len(adjacent[adjacent >= 0]) == 1)
    # the flags are cross-checked against the rectangle's sides
    e = int(np.flatnonzero(~flags)[0])
    adjacent, boundary = mesh.edge_elements.copy(), flags.copy()
    adjacent[e, 1], boundary[e] = -1, True
    with pytest.raises(RuntimeError, match=f"^edge {e} .* off the rectangle$"):
        _validate(dataclasses.replace(mesh, edge_elements=adjacent, boundary=boundary))


def test_negative_slope_diagonal():
    # The diagonal of each sub-square must join its top-left and
    # bottom-right corners.
    n = 3
    mesh = build_structured_mesh(UNIT, n)
    pairs = {tuple(verts) for verts in mesh.edge_vertices.tolist()}
    for j in range(n):
        for i in range(n):
            tl = (j + 1) * (n + 1) + i
            br = j * (n + 1) + i + 1
            assert tuple(sorted((tl, br))) in pairs


def test_boundary_edge_normals_point_outward():
    mesh = build_structured_mesh(UNIT, 2)
    midpoints = mesh.edge_points().mean(axis=1)
    for e in np.flatnonzero(mesh.boundary):
        # Outward means pointing away from the domain center.
        to_center = np.array([0.5, 0.5]) - midpoints[e]
        assert float(mesh.edge_normals[e] @ to_center) < 0


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        build_structured_mesh(UNIT, 0)
    with pytest.raises(ValueError):
        build_structured_mesh((0.0, 0.0, 0.0, 1.0), 2)
    with pytest.raises(ValueError):
        build_structured_mesh((1.0, 0.0, 0.0, 1.0), 2)
    for domain in ((0.0, 0.0, np.inf, 1.0), (-np.inf, 0.0, 1.0, 1.0), (0.0, np.nan, 1.0, 1.0)):
        with pytest.raises(ValueError, match="non-finite"):
            build_structured_mesh(domain, 2)
    for n in (2.5, "3", True, np.bool_(True), np.float64(2.0), -1, np.int64(0)):
        with pytest.raises(ValueError, match=r"^subdivision count n must be an integer >= 1"):
            build_structured_mesh(UNIT, n)
    mesh = build_structured_mesh(UNIT, np.int64(2))
    assert type(mesh.n) is int and mesh.n == 2 and mesh.n_elements == 8


def test_mesh_dump_sections_and_counts():
    mesh = build_structured_mesh(UNIT, 1)
    text = mesh_to_csv(mesh)
    lines = text.strip().split("\n")
    iv = lines.index("# vertices")
    ie = lines.index("# elements")
    ig = lines.index("# edges")
    assert ie - iv - 1 == 4
    assert ig - ie - 1 == 2
    assert len(lines) - ig - 1 == 5
    # records are index-first
    assert lines[ie + 1].startswith("0,")
    assert lines[ie + 2].startswith("1,")


def test_construction_is_deterministic():
    a = build_structured_mesh(UNIT, 4)
    b = build_structured_mesh(UNIT, 4)
    assert np.array_equal(a.vertices, b.vertices)
    assert all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("element_vertices", "element_edges", "element_signs"))


def test_validate_names_culprit_under_optimized_python():
    # The mesh checks raise explicitly, so ``python -O`` keeps them.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wg4

    code = (
        "import dataclasses\n"
        "from wg4.mesh import build_structured_mesh, _validate\n"
        "mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), 4)\n"
        "signs = mesh.element_signs.copy()\n"
        "signs[5, 1] *= -1\n"
        "try:\n"
        "    _validate(dataclasses.replace(mesh, element_signs=signs))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(wg4.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "element 5: edge orientation sign is inconsistent"


def test_locate_point_structured():
    mesh = build_structured_mesh(UNIT, 2)
    # lower-left triangle of the first sub-square
    assert locate_point(mesh, 0.1, 0.1) == 0
    assert locate_point(mesh, 0.4, 0.45) == 1  # above the diagonal
    assert locate_point(mesh, 0.25, 0.25) == 0  # on the diagonal: lower wins
    assert locate_point(mesh, 1.0, 1.0) == 2 * (2 * 2) - 1  # top-right corner
    with pytest.raises(ValueError):
        locate_point(mesh, 1.2, 0.5)
