import numpy as np
import pytest

from meshgen import SQUARE_2TRI, box_hex_mesh

from rotormesh.mesh import (TYPE_CODES, Mesh, MeshFormatError,
                            extract_marker_points, parse_mesh, write_mesh,
                            write_vtk)


def test_parse_square(square_mesh):
    m = square_mesh
    assert m.dim == 2
    assert m.n_points == 4
    assert m.n_elements == 2
    conn, rows = m.cells["triangle"]
    assert list(m.cells) == ["triangle"]
    assert conn.tolist() == [[0, 1, 2], [0, 2, 3]]
    assert rows.tolist() == [0, 1]
    assert m.markers["lower"] == ((0, 1),)
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
        assert again.markers == mesh.markers
        assert np.array_equal(again.points, mesh.points)


def test_mesh_invariant_validation():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError, match="vertices"):
        Mesh(2, pts, {"triangle": ([[0, 1]], [0])})
    with pytest.raises(ValueError, match="out of range"):
        Mesh(2, pts, {"triangle": ([[0, 1, 5]], [0])})
    with pytest.raises(ValueError, match="out of range"):
        Mesh(2, pts, {}, {"m": ((0, 9),)})


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
     "hexahedron elements are not allowed as marker faces"
     "|face with 8 vertices is not allowed in 3D"),
    (2, "5 0 1 2", "5 0 1 2", 12, "face with 3 vertices is not allowed in 2D"),
]


@pytest.mark.parametrize("dim,cell,face,line,message", BAD_CONNECTIVITY)
def test_bad_connectivity_rejected(dim, cell, face, line, message):
    with pytest.raises(MeshFormatError, match=message) as exc:
        parse_mesh(ONE_CELL.format(dim=dim, cell=cell, face=face))
    assert exc.value.line == line
    code, *verts = map(int, cell.split())
    with pytest.raises(ValueError, match=message):
        Mesh(dim, np.eye(4, 3), {TYPE_CODES[code]: ([verts], [0])},
             {"m": (tuple(map(int, face.split()[1:])),)})


def test_volume_coded_marker_face_rejected():
    """Four vertices fit a quadrilateral face, so only the parser, which
    sees the tetrahedron code, can reject this face."""
    text = ONE_CELL.format(dim=3, cell="10 0 1 2 3", face="10 0 1 2 3")
    with pytest.raises(MeshFormatError,
                       match="tetrahedron elements are not allowed as "
                             "marker faces") as exc:
        parse_mesh(text)
    assert exc.value.line == 12


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
