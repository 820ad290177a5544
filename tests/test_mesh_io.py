import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from meshgen import SQUARE_2TRI, box_hex_mesh, same_markers

from rotormesh.cli import _supermesh_vtk
from rotormesh.mesh import (CELL_KINDS, KIND_TO_CODE, MARKER_KINDS,
                            TYPE_CODES, VERTEX_COUNT, Mesh, MeshFormatError,
                            extract_marker_points, parse_mesh, write_mesh,
                            write_vtk)
from rotormesh.supermesh import (InterfaceFaceSet, Supermesh, build_supermesh,
                                 interface_from_markers)


def test_parse_square(square_mesh):
    m = square_mesh
    assert m.dim == 2
    assert m.n_points == 4
    assert m.n_elements == 2
    conn, rows = m.cells["triangle"]
    assert list(m.cells) == ["triangle"]
    assert conn.tolist() == [[0, 1, 2], [0, 2, 3]]
    assert rows.tolist() == [0, 1]
    assert list(m.markers["lower"]) == ["line"]
    conn, rows = m.markers["lower"]["line"]
    assert conn.tolist() == [[0, 1]]
    assert rows.tolist() == [0]
    assert np.allclose(m.points[2], [1.0, 1.0, 0.0])


def test_parse_degenerate_single_point():
    m = parse_mesh("NDIME= 2\nNELEM= 0\nNPOIN= 1\n0.5 0.5\n")
    assert m.n_points == 1
    assert m.n_elements == 0


def test_parse_unknown_element_type():
    text = "NDIME= 2\nNELEM= 1\n99 0 1 2\nNPOIN= 3\n0 0\n1 0\n0 1\n"
    with pytest.raises(MeshFormatError, match="unknown element type"):
        parse_mesh(text)
    try:
        parse_mesh(text)
    except MeshFormatError as exc:
        assert exc.line == 3


def test_parse_index_out_of_range():
    text = "NDIME= 2\nNELEM= 1\n5 0 1 7\nNPOIN= 3\n0 0\n1 0\n0 1\n"
    with pytest.raises(MeshFormatError, match="out of range"):
        parse_mesh(text)


def test_parse_truncated_section():
    text = "NDIME= 2\nNELEM= 2\n5 0 1 2\n"
    with pytest.raises(MeshFormatError, match="truncated"):
        parse_mesh(text)


def test_parse_malformed_header():
    with pytest.raises(MeshFormatError, match="NDIME"):
        parse_mesh("NDIME= banana\nNPOIN= 0\n")
    with pytest.raises(MeshFormatError, match="unrecognized"):
        parse_mesh("WHAT= 3\n")
    for bad in ("nan", "inf", "-inf"):
        # the comment line checks that the error names the point's own line
        text = f"NDIME= 2\nNELEM= 0\nNPOIN= 2\n0 0\n% skipped\n{bad} 1\n"
        with pytest.raises(MeshFormatError, match="non-finite coordinate") \
                as exc:
            parse_mesh(text)
        assert exc.value.line == 6


def test_parse_comments_ignored(square_mesh):
    with_comments = "% header comment\n" + SQUARE_2TRI.replace(
        "NPOIN= 4", "NPOIN= 4 % inline")
    m = parse_mesh(with_comments)
    assert m.n_points == square_mesh.n_points


def test_element_order_preserved():
    text = ("NDIME= 2\nNELEM= 3\n5 0 1 2\n5 0 2 3\n5 0 3 4\nNPOIN= 5\n"
            "0 0\n1 0\n1 1\n0 1\n-1 1\nNMARK= 0\n")
    m = parse_mesh(text)
    conn, rows = m.cells["triangle"]
    assert conn.tolist() == [[0, 1, 2], [0, 2, 3], [0, 3, 4]]
    assert rows.tolist() == [0, 1, 2]


def test_roundtrip_exact(square_mesh, block_mesh):
    for mesh in (square_mesh, block_mesh):
        again = parse_mesh(write_mesh(mesh))
        assert again.dim == mesh.dim
        assert list(again.cells) == list(mesh.cells)
        for kind, (conn, rows) in mesh.cells.items():
            assert np.array_equal(again.cells[kind][0], conn)
            assert np.array_equal(again.cells[kind][1], rows)
        assert same_markers(again, mesh)
        assert np.array_equal(again.points, mesh.points)


def test_mesh_invariant_validation():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError, match="vertices"):
        Mesh(2, pts, {"triangle": ([[0, 1]], [0])})
    with pytest.raises(ValueError, match="out of range"):
        Mesh(2, pts, {"triangle": ([[0, 1, 5]], [0])})
    with pytest.raises(ValueError, match="out of range"):
        Mesh(2, pts, {}, {"m": {"line": ([[0, 9]], [0])}})
    with pytest.raises(ValueError, match="^rows must number the cells"):
        Mesh(2, pts, {"triangle": ([[0, 1, 2]], [1])})
    with pytest.raises(ValueError, match="'m': rows must number the marker"):
        Mesh(2, pts, {}, {"m": {"line": ([[0, 1], [1, 2]], [0, 0])}})


ONE_CELL = """NDIME= {dim}
NELEM= 1
{cell}
NPOIN= 4
0 0 0
1 0 0
0 1 0
0 0 1
NMARK= 1
MARKER_TAG= m
MARKER_ELEMS= 1
{face}
"""

BAD_CONNECTIVITY = [
    # dim, cell line, marker face line, offending line, message
    (2, "5 0 -1 2", "3 0 1", 3, "index -1 out of range"),
    (2, "5 0 1 2", "3 0 -2", 12, "index -2 out of range"),
    (3, "5 0 1 2", "5 0 1 2", 3, "triangle elements are not allowed as 3D"),
    (2, "10 0 1 2 3", "3 0 1", 3, "tetrahedron elements are not allowed as 2D"),
    (2, "3 0 1", "3 0 1", 3, "line elements are not allowed as 2D"),
    (3, "10 0 1 2 3", "12 0 1 2 3 0 1 2 3", 12,
     "hexahedron elements are not allowed as 3D marker faces"),
    (2, "5 0 1 2", "5 0 1 2", 12,
     "triangle elements are not allowed as 2D marker faces"),
]


@pytest.mark.parametrize("dim,cell,face,line,message", BAD_CONNECTIVITY)
def test_bad_connectivity_rejected(dim, cell, face, line, message):
    with pytest.raises(MeshFormatError, match=message) as exc:
        parse_mesh(ONE_CELL.format(dim=dim, cell=cell, face=face))
    assert exc.value.line == line
    code, *verts = map(int, cell.split())
    face_code, *face = map(int, face.split())
    with pytest.raises(ValueError, match=message):
        Mesh(dim, np.eye(4, 3), {TYPE_CODES[code]: ([verts], [0])},
             {"m": {TYPE_CODES[face_code]: ([face], [0])}})


@pytest.mark.parametrize("dim,cells,faces,line,message", [
    (2, "5 0 1 2\n5 0 2 3\n10 0 1 2 3", "3 0 1", 5,
     "tetrahedron elements are not allowed as 2D cells"),
    (3, "10 0 1 2 3", "9 0 1 2 3\n3 0 1", 13,
     "line elements are not allowed as 3D marker faces"),
    (3, "10 0 1 2 3", "5 0 1 2\n9 0 1 2 3\n5 1 2 9", 14,
     "vertex index 9 out of range"),
])
def test_bad_row_after_the_first_names_its_line(dim, cells, faces, line,
                                               message):
    """The reported line is that of the first bad row of its kind group,
    not of the group's or the section's first row."""
    text = (f"NDIME= {dim}\nNELEM= {cells.count(chr(10)) + 1}\n{cells}\n"
            "NPOIN= 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\nNMARK= 1\n"
            f"MARKER_TAG= m\nMARKER_ELEMS= {faces.count(chr(10)) + 1}\n"
            f"{faces}\n")
    with pytest.raises(MeshFormatError, match=message) as exc:
        parse_mesh(text)
    assert exc.value.line == line


def test_volume_coded_marker_face_rejected():
    """Four vertices would fit a quadrilateral face; the tetrahedron kind
    is what is rejected, by the parser and by Mesh alike."""
    message = "tetrahedron elements are not allowed as 3D marker faces"
    text = ONE_CELL.format(dim=3, cell="10 0 1 2 3", face="10 0 1 2 3")
    with pytest.raises(MeshFormatError, match=message) as exc:
        parse_mesh(text)
    assert exc.value.line == 12
    with pytest.raises(ValueError, match=message):
        Mesh(3, np.eye(4, 3), {"tetrahedron": ([[0, 1, 2, 3]], [0])},
             {"m": {"quadrilateral": ([[0, 1, 2, 3]], [0]),
                    "tetrahedron": ([[0, 1, 2, 3]], [1])}})


def test_mixed_kinds_keep_file_order():
    text = ("NDIME= 3\nNELEM= 3\n10 0 1 2 3 0\n14 0 1 2 3 4 1\n"
            "10 1 2 3 4 2\nNPOIN= 5\n0 0 0 0\n1 0 0 1\n1 1 0 2\n"
            "0 1 0 3\n0.5 0.5 1 4\nNMARK= 0\n")
    m = parse_mesh(text)
    conn, rows = m.cells["tetrahedron"]
    assert conn.tolist() == [[0, 1, 2, 3], [1, 2, 3, 4]]
    assert rows.tolist() == [0, 2]
    assert m.cells["pyramid"][1].tolist() == [1]
    assert write_mesh(m) == text
    assert _parse_vtk(write_vtk(m))[2] == [10, 14, 10]


def test_points_immutable(square_mesh):
    with pytest.raises(ValueError):
        square_mesh.points[0, 0] = 99.0


# ---------------------------------------------------------------------------
# VTK output
# ---------------------------------------------------------------------------

def _parse_vtk(text: str):
    """Minimal independent legacy-VTK reader used as the round-trip oracle."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    i = 4
    tag, n, _ = lines[i].split()
    assert tag == "POINTS"
    n = int(n)
    pts = []
    i += 1
    while len(pts) < 3 * n:
        pts.extend(float(v) for v in lines[i].split())
        i += 1
    points = np.asarray(pts).reshape(n, 3)
    tag, ncell, _ = lines[i].split()
    assert tag == "CELLS"
    ncell = int(ncell)
    cells = []
    for k in range(ncell):
        i += 1
        row = [int(v) for v in lines[i].split()]
        assert row[0] == len(row) - 1
        cells.append(tuple(row[1:]))
    i += 1
    assert lines[i].split()[0] == "CELL_TYPES"
    types = []
    for k in range(ncell):
        i += 1
        types.append(int(lines[i]))
    i += 1
    fields = {}
    if i < len(lines) and lines[i].startswith("POINT_DATA"):
        assert int(lines[i].split()[1]) == n
        i += 1
        while i < len(lines):
            head = lines[i].split()
            if head[0] == "SCALARS":
                name = head[1]
                i += 1
                assert lines[i].startswith("LOOKUP_TABLE")
                vals = []
                while len(vals) < n:
                    i += 1
                    vals.extend(float(v) for v in lines[i].split())
                fields[name] = np.asarray(vals)
                i += 1
            elif head[0] == "VECTORS":
                name = head[1]
                vals = []
                while len(vals) < 3 * n:
                    i += 1
                    vals.extend(float(v) for v in lines[i].split())
                fields[name] = np.asarray(vals).reshape(n, 3)
                i += 1
            else:
                raise AssertionError(f"unexpected section {head}")
    return points, cells, types, fields


def test_write_vtk_geometry_only(square_mesh):
    text = write_vtk(square_mesh)
    points, cells, types, fields = _parse_vtk(text)
    assert np.array_equal(points, square_mesh.points)
    assert cells == [(0, 1, 2), (0, 2, 3)]
    assert types == [5, 5]
    assert fields == {}


def test_write_vtk_scalar_field(square_mesh):
    values = np.array([0.0, 1.0, 2.0, 3.0])
    text = write_vtk(square_mesh, {"height": values})
    assert "POINT_DATA 4" in text
    _, _, _, fields = _parse_vtk(text)
    assert np.array_equal(fields["height"], values)


def test_write_vtk_vector_field_roundtrip(block_mesh):
    rng = np.random.default_rng(7)
    vec = rng.normal(size=(block_mesh.n_points, 3))
    points, cells, types, fields = _parse_vtk(
        write_vtk(block_mesh, {"velocity": vec}))
    assert np.array_equal(points, block_mesh.points)
    assert np.array_equal(fields["velocity"], vec)
    assert set(types) == {12}


def test_write_vtk_field_length_mismatch(square_mesh):
    with pytest.raises(ValueError, match="3 values for 4 points"):
        write_vtk(square_mesh, {"bad": np.zeros(3)})


# ---------------------------------------------------------------------------
# Writers against per-row reference writers
# ---------------------------------------------------------------------------

def _ref_rows(groups):
    """(kind, vertex list) of every row of kind -> (conn, rows) groups, in
    row order."""
    out = [None] * sum(len(rows) for _, rows in groups.values())
    for kind, (conn, rows) in groups.items():
        for pos, verts in zip(rows.tolist(), conn.tolist()):
            out[pos] = (kind, verts)
    return out


def _ref_cells(mesh):
    """(kind, vertex list) of every cell, in file order."""
    return _ref_rows(mesh.cells)


def _ref_write_mesh(mesh):
    out = [f"NDIME= {mesh.dim}", f"NELEM= {mesh.n_elements}"]
    for i, (kind, verts) in enumerate(_ref_cells(mesh)):
        out.append(" ".join(map(str, [KIND_TO_CODE[kind], *verts, i])))
    out.append(f"NPOIN= {mesh.n_points}")
    for i, p in enumerate(mesh.points):
        out.append(" ".join(f"{c:.17g}" for c in p[:mesh.dim]) + f" {i}")
    out.append(f"NMARK= {len(mesh.markers)}")
    for name, groups in mesh.markers.items():
        faces = _ref_rows(groups)
        out += [f"MARKER_TAG= {name}", f"MARKER_ELEMS= {len(faces)}"]
        out += [" ".join(map(str, [KIND_TO_CODE[kind], *f]))
                for kind, f in faces]
    return "\n".join(out) + "\n"


def _ref_vtk(title, points, cells, fields):
    """cells: (VTK type id, vertex list) per cell, in file order."""
    out = ["# vtk DataFile Version 3.0", title, "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {len(points)} double"]
    out += [" ".join(f"{c:.17g}" for c in p) for p in points]
    out.append(f"CELLS {len(cells)} {sum(1 + len(v) for _, v in cells)}")
    out += [" ".join(map(str, [len(v), *v])) for _, v in cells]
    out.append(f"CELL_TYPES {len(cells)}")
    out += [str(code) for code, _ in cells]
    if fields:
        out.append(f"POINT_DATA {len(points)}")
    for name, values in fields.items():
        if values.ndim == 1:
            out += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            out += [f"{v:.17g}" for v in values]
        else:
            out.append(f"VECTORS {name} double")
            out += [" ".join(f"{c:.17g}" for c in v) for v in values]
    return "\n".join(out) + "\n"


def _ref_csv(sm):
    lines = ["a_face,b_face,area,weight"]
    for a, b, area, w in zip(sm.parent_a.tolist(), sm.parent_b.tolist(),
                             sm.area.tolist(), sm.weights.data.tolist()):
        lines.append(f"{a},{b},{area:.12g},{w:.12g}")
    return "\n".join(lines) + "\n"


SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0)
FINITE = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
ANY_FLOAT = st.one_of(FINITE, st.sampled_from((np.inf, -np.inf, np.nan)))


def _float_array(draw, elements, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


def _draw_groups(draw, allowed, vertex, max_size):
    """kind -> (conn, rows) groups of random rows with kinds interleaved."""
    kinds = draw(st.lists(st.sampled_from(allowed), max_size=max_size))
    groups = {}
    for pos, kind in enumerate(kinds):
        nv = VERTEX_COUNT[kind]
        conn, rows = groups.setdefault(kind, ([], []))
        conn.append(draw(st.lists(vertex, min_size=nv, max_size=nv)))
        rows.append(pos)
    return groups


@st.composite
def meshes_with_fields(draw):
    """Random connectivity (only its ranges are validated) with cell and
    marker face kinds interleaved, special coordinates and fields."""
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 12))
    points = np.zeros((n, 3))
    points[:, :dim] = _float_array(draw, FINITE, (n, dim))
    vertex = st.integers(0, n - 1)
    cells = _draw_groups(draw, CELL_KINDS[dim], vertex, 10)
    markers = {f"m{m}": _draw_groups(draw, MARKER_KINDS[dim], vertex, 6)
               for m in range(draw(st.integers(0, 2)))}
    fields = {}
    if draw(st.booleans()):
        fields["s"] = _float_array(draw, ANY_FLOAT, (n,))
    if draw(st.booleans()):
        fields["v"] = _float_array(draw, ANY_FLOAT, (n, 3))
    return Mesh(dim, points, cells, markers), fields


# tetrahedron, pyramid, tetrahedron in file order, as in
# test_mixed_kinds_keep_file_order, with special coordinates and both
# field kinds
_INTERLEAVED = Mesh(
    3, [[-0.0, 5e-324, 1e308], [1, 0, 0], [1, 1, 0], [0, 1, -0.0],
        [0.5, 0.5, 1]],
    {"tetrahedron": ([[0, 1, 2, 3], [1, 2, 3, 4]], [0, 2]),
     "pyramid": ([[0, 1, 2, 3, 4]], [1])},
    {"wall": {"triangle": ([[0, 1, 2], [1, 2, 4]], [0, 2]),
              "quadrilateral": ([[0, 1, 2, 3]], [1])}})
_INTERLEAVED_FIELDS = {"s": np.array([-0.0, 5e-324, 1e308, np.nan, 1.0]),
                       "v": np.full((5, 3), -1e308)}


@settings(max_examples=150, deadline=None)
@given(case=meshes_with_fields())
@example(case=(_INTERLEAVED, _INTERLEAVED_FIELDS))
@example(case=(parse_mesh(SQUARE_2TRI), {"s": np.array([-0.0, 5e-324,
                                                        1e308, 2.0])}))
def test_writers_match_per_row_reference(case):
    mesh, fields = case
    assert write_mesh(mesh) == _ref_write_mesh(mesh)
    cells = [(KIND_TO_CODE[kind], verts) for kind, verts in _ref_cells(mesh)]
    assert write_vtk(mesh, fields, title="t") == \
        _ref_vtk("t", mesh.points, cells, fields)


@settings(max_examples=100, deadline=None)
@given(n_a=st.integers(1, 40), n_b=st.integers(1, 40), data=st.data())
def test_supermesh_csv_matches_per_row_reference(n_a, n_b, data):
    flat = np.unique(data.draw(st.lists(st.integers(0, n_a * n_b - 1),
                                        max_size=30)))
    parent_a, parent_b = np.divmod(flat, n_b)
    area = _float_array(data.draw, FINITE, (len(flat),))
    weights = csr_array((_float_array(data.draw, FINITE, (len(flat),)),
                         (parent_a, parent_b)), shape=(n_a, n_b))
    sm = Supermesh(parent_a, parent_b, area, weights, np.ones(n_a),
                   np.ones(n_b), (), np.empty(0, dtype=np.intp))
    assert sm.to_csv() == _ref_csv(sm)


def test_supermesh_vtk_matches_per_row_reference():
    """The split dart beside a square: triangles, then a quadrilateral."""
    dart = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    beside = square + [1.0, 0.0]
    sm = build_supermesh(InterfaceFaceSet("A", (dart, beside)),
                         InterfaceFaceSet("B", (square, beside)))
    points = [[x, y, 0.0] for poly in sm.polygons for x, y in poly.tolist()]
    cells, start = [], 0
    for poly in sm.polygons:
        cells.append((7, list(range(start, start + len(poly)))))
        start += len(poly)
    assert [len(v) for _, v in cells] == [3, 3, 4]
    assert _supermesh_vtk(sm) == _ref_vtk(
        "supermesh intersection polygons", points, cells, {})


# ---------------------------------------------------------------------------
# Marker extraction
# ---------------------------------------------------------------------------

def test_extract_marker_points_simple(square_mesh):
    idx, coords = extract_marker_points(square_mesh, "lower")
    assert idx.tolist() == [0, 1]
    assert np.allclose(coords, [[0, 0, 0], [1, 0, 0]])


def test_extract_marker_points_dedup():
    mesh = box_hex_mesh(2, 1, 1)
    idx, _ = extract_marker_points(mesh, "ymin")
    # two quads sharing an edge: 6 unique points, sorted ascending
    assert len(idx) == 6
    assert np.all(np.diff(idx) > 0)


def test_extract_marker_points_missing(square_mesh):
    with pytest.raises(KeyError, match="missing"):
        extract_marker_points(square_mesh, "missing")


@st.composite
def planar_marker_meshes(draw):
    """A 3D mesh whose markers hold the cells of an n x n grid in the z = 0
    plane, each cell a quadrilateral or two triangles, shuffled so that the
    kinds interleave, plus an empty marker. Returns the mesh and each
    marker's faces as vertex tuples in marker order."""
    n = draw(st.integers(2, 4))
    xs = np.linspace(0.0, 1.0, n + 1)
    points = np.array([(x, y, 0.0) for y in xs for x in xs])
    faces = []
    for j in range(n):
        for i in range(n):
            a, b = i + (n + 1) * j, i + 1 + (n + 1) * j
            c, d = b + n + 1, a + n + 1
            if draw(st.booleans()):
                faces.append((a, b, c, d))
            elif draw(st.booleans()):
                faces += [(a, b, c), (a, c, d)]
            else:
                faces += [(a, b, d), (b, c, d)]
    faces = draw(st.permutations(faces))
    # the first two faces keep m0 and m1 non-empty
    owner = [0, 1] + draw(st.lists(st.integers(0, 2), min_size=len(faces) - 2,
                                   max_size=len(faces) - 2))
    names = draw(st.permutations(["m0", "m1", "m2", "empty"]))
    per_marker = {name: [] for name in names}
    for face, m in zip(faces, owner):
        per_marker[f"m{m}"].append(face)
    markers = {}
    for name, marker_faces in per_marker.items():
        groups = markers.setdefault(name, {})
        for pos, face in enumerate(marker_faces):
            kind = "triangle" if len(face) == 3 else "quadrilateral"
            conn, rows = groups.setdefault(kind, ([], []))
            conn.append(face)
            rows.append(pos)
    return Mesh(3, points, {}, markers), per_marker


@settings(max_examples=60, deadline=None)
@given(case=planar_marker_meshes())
def test_marker_groups_match_per_face_references(case):
    mesh, faces = case
    assert "empty" in mesh.markers and mesh.markers["empty"] == {}
    assert same_markers(parse_mesh(write_mesh(mesh)), mesh)
    for name, marker_faces in faces.items():
        idx, coords = extract_marker_points(mesh, name)
        assert idx.tolist() == sorted({v for f in marker_faces for v in f})
        assert np.array_equal(coords, mesh.points[idx])

    side_a, side_b, proj = interface_from_markers(mesh, "m0", "m1")
    idx = np.array(sorted({v for name in ("m0", "m1") for f in faces[name]
                           for v in f}))
    flat = proj.project(mesh.points[idx])
    for side, name in ((side_a, "m0"), (side_b, "m1")):
        reference = [flat[np.searchsorted(idx, f)] for f in faces[name]]
        assert len(side.faces) == len(reference)
        assert all(np.array_equal(got, ref)
                   for got, ref in zip(side.faces, reference))
