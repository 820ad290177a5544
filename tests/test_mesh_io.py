import re
import warnings
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from meshgen import (SQUARE_2TRI, box_hex_mesh, mixed_kind_mesh, same_groups,
                     same_markers)

from rotormesh.cli import _supermesh_vtk
from rotormesh.mesh import (CELL_KINDS, KIND_TO_CODE, MARKER_KINDS,
                            TYPE_CODES, VERTEX_COUNT, Mesh, MeshFormatError,
                            _BadRow, _float_rows, _groups, _vtk_cells,
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


@pytest.mark.parametrize("old,new,line,message", [
    ("NDIME= 2", "NDIME= 4", 2, "NDIME must be 2 or 3, got 4"),
    ("MARKER_TAG= right", "MARKER_TAG= lower", 15,
     "duplicate marker name 'lower'"),
])
def test_bad_header_value_names_its_line(old, new, line, message):
    with pytest.raises(MeshFormatError) as exc:
        parse_mesh(SQUARE_2TRI.replace(old, new))
    assert str(exc.value) == f"line {line}: {message}"


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


# A well-formed 2D mesh for the malformed-line cases: lines 3-4 hold the
# cells, 6-9 the points and 13-14 the faces of marker 'm'.
GOOD_2D = """NDIME= 2
NELEM= 2
5 0 1 2
9 0 1 2 3
NPOIN= 4
0 0
1 0
1 1
0 1
NMARK= 1
MARKER_TAG= m
MARKER_ELEMS= 2
3 0 1
3 1 2
"""


def _with_line(lineno: int, content: str) -> str:
    lines = GOOD_2D.splitlines()
    lines[lineno - 1] = content
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("lineno,content,message", [
    (3, "x 0 1 2", "bad element line 'x 0 1 2'"),
    (4, "9.0 0 1 2 3", "bad element line '9.0 0 1 2 3'"),
    (14, "- 1 2", "bad element line '- 1 2'"),
    (4, "7 0 1 2 3", "unknown element type code 7"),
    (13, "-0 0 1", "unknown element type code 0"),
    (3, "5 0 1", "triangle element needs 3 vertex indices, got 2"),
    (4, "9 0 1 2 % 3", "quadrilateral element needs 4 vertex indices, "
                       "got 3"),
    (14, "3\t1", "line element needs 2 vertex indices, got 1"),
    (3, "5 0 1.0 2", "non-integer vertex index in '5 0 1.0 2'"),
    (4, "9 0 1 2 3e0", "non-integer vertex index in '9 0 1 2 3e0'"),
    (13, "3 0 one", "non-integer vertex index in '3 0 one'"),
    (7, "1", "point line has 1 fields, expected at least 2"),
    (9, "  0  % 1", "point line has 1 fields, expected at least 2"),
    (9, "0 1,0", "non-numeric coordinate in '0 1,0'"),
    (6, "0 zero", "non-numeric coordinate in '0 zero'"),
    (8, "1 1d0 2", "non-numeric coordinate in '1 1d0 2'"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_line_names_message_and_line(lineno, content, message):
    with pytest.raises(MeshFormatError) as exc:
        parse_mesh(_with_line(lineno, content))
    assert (str(exc.value), exc.value.line) == \
        (f"line {lineno}: {message}", lineno)


@pytest.mark.parametrize("lineno,content,message", [
    (3, "5 0 1_0 2", "non-integer vertex index in '5 0 1_0 2'"),
    (4, "\u0669 0 1 2 3", "bad element line '\u0669 0 1 2 3'"),
    (7, "1_0 0", "non-numeric coordinate in '1_0 0'"),
    (8, "1 \u0661.5", "non-numeric coordinate in '1 \u0661.5'"),
])
def test_underscores_and_non_ascii_digits_are_rejected(lineno, content,
                                                       message):
    """int() and float() take these; numpy, which reads the sections, and
    the line check behind it do not."""
    with pytest.raises(MeshFormatError) as exc:
        parse_mesh(_with_line(lineno, content))
    assert str(exc.value) == f"line {lineno}: {message}"


def test_malformed_point_line_comes_before_non_finite():
    text = _with_line(6, "nan 0").replace("1 1\n", "1 x\n")
    with pytest.raises(MeshFormatError) as exc:
        parse_mesh(text)
    assert str(exc.value) == "line 8: non-numeric coordinate in '1 x'"


@pytest.mark.parametrize("keep,line,context", [
    (2, 2, "element connectivity"),
    (3, 3, "element connectivity"),
    (5, 5, "point coordinates"),
    (8, 8, "point coordinates"),
    (10, 10, "MARKER_TAG header"),
    (11, 11, "MARKER_ELEMS header"),
    (12, 12, "marker 'm' face"),
    (13, 13, "marker 'm' face"),
])
def test_truncation_in_each_section(keep, line, context):
    """The file ends after its first keep lines (and a trailing comment);
    the error names the last line read."""
    text = "\n".join(GOOD_2D.splitlines()[:keep]) + "\n% the end\n\n"
    with pytest.raises(MeshFormatError) as exc:
        parse_mesh(text)
    assert (str(exc.value), exc.value.line) == \
        (f"line {line}: truncated file while reading {context}", line)


@pytest.mark.parametrize("keep,bad,message", [
    (3, "5 0 x 2", "line 3: non-integer vertex index in '5 0 x 2'"),
    (7, "0", "line 7: point line has 1 fields, expected at least 2"),
    (13, "3 0 % 1", "line 13: line element needs 2 vertex indices, "
                      "got 1"),
])
def test_bad_line_before_truncation_is_reported(keep, bad, message):
    """Lines are checked in file order, so a malformed line ahead of the
    end of a short file is what gets reported."""
    lines = GOOD_2D.splitlines()[:keep]
    lines[-1] = bad
    with pytest.raises(MeshFormatError, match=f"^{re.escape(message)}$"):
        parse_mesh("\n".join(lines) + "\n")


@pytest.mark.parametrize("lineno,content,context", [
    (2, "NELEM= -1", "element connectivity"),
    (5, "NPOIN= -2", "point coordinates"),
    (12, "MARKER_ELEMS= -1", "marker 'm' face"),
])
def test_negative_count_is_rejected(lineno, content, context):
    """A negative count read no lines (NELEM, MARKER_ELEMS) or ended in a
    bare numpy error (NPOIN); it is an error at its header."""
    with pytest.raises(MeshFormatError) as exc:
        parse_mesh(_with_line(lineno, content))
    count = content.split("=")[1].strip()
    assert str(exc.value) == f"line {lineno}: negative count {count} for " \
        f"{context}"


@pytest.mark.parametrize("text", [
    "NDIME= 2\nNELEM= 0\nNPOIN= 1\n0.5 0.5\n",
    "NDIME= 3\nNELEM= 0\nNPOIN= 0\nNMARK= 1\nMARKER_TAG= m\n"
    "MARKER_ELEMS= 0\n",
    "NDIME= 2\nNELEM= 1\n5 0 1 2\nNPOIN= 3\n0 0\n1 0\n0 1\nNMARK= 2\n"
    "MARKER_TAG= empty\nMARKER_ELEMS= 0\nMARKER_TAG= m\nMARKER_ELEMS= 1\n"
    "3 0 1\n",
])
def test_empty_sections_parse_without_warnings(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = parse_mesh(text)
    again = parse_mesh(write_mesh(mesh))
    assert again.n_elements == mesh.n_elements
    assert again.n_points == mesh.n_points
    assert same_markers(again, mesh)


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
    for mesh in (square_mesh, block_mesh, mixed_kind_mesh()):
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
    for points in (np.zeros((3, 2)), np.zeros(3), np.zeros((1, 3, 3))):
        with pytest.raises(ValueError, match=r"^points must have shape "
                           r"\(n, 3\)$"):
            Mesh(2, points, {})
    for dim in (0, 1, 4):
        with pytest.raises(ValueError, match=f"^dim must be 2 or 3, got "
                           f"{dim}$"):
            Mesh(dim, pts, {})


def test_with_points_keeps_the_point_count(square_mesh):
    n = square_mesh.n_points
    for points in (np.zeros((n + 1, 3)), np.zeros((n - 1, 3))):
        with pytest.raises(ValueError, match="^replacement point array has "
                           "wrong shape$"):
            square_mesh.with_points(points)
    with pytest.raises(ValueError, match=r"^points must have shape \(n, 3\)$"):
        square_mesh.with_points(np.zeros((n, 2)))


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


@pytest.mark.parametrize("cell,face,line,message", [
    ("10 0 1 2 99999999999999999999 0", "5 0 1 2", 3,
     "vertex index 99999999999999999999 out of range"),
    (f"10 0 1 {2**63} 3", "5 0 1 2", 3, f"vertex index {2**63} out of range"),
    ("10 0 1 2 3", f"5 0 {-2**63 - 1} 2", 12,
     f"vertex index {-2**63 - 1} out of range"),
    (f"10 0 1 2 {2**63 - 1}", "5 0 1 2", 3,
     f"vertex index {2**63 - 1} out of range (NPOIN=4)"),
])
def test_vertex_index_beyond_int64_rejected_at_its_line(cell, face, line,
                                                        message):
    """An index numpy cannot read as intp is out of range as well, and is
    reported at its line, not as numpy's own error."""
    with pytest.raises(MeshFormatError) as exc:
        parse_mesh(ONE_CELL.format(dim=3, cell=cell, face=face))
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("cell,face,line,message", [
    ("1" + "0" * 4999 + " 0 1 2 3", "5 0 1 2", 3,
     "unknown element type code of 5000 digits"),
    ("10 0 1 2 " + "9" * 5000, "5 0 1 2", 3,
     "vertex index of 5000 digits out of range"),
    ("10 0 1 2 -" + "9" * 5000, "5 0 1 2", 3,
     "vertex index of 5000 digits out of range"),
    # leading zeros numpy reads past, in a block a later line breaks
    ("10 0 1 2 3", "0" * 4999 + "5 0 1 " + "0" * 4999 + "2\n5 0 x 2", 13,
     "non-integer vertex index in '5 0 x 2'"),
], ids=["type-code", "vertex-index", "negative-vertex-index", "zeros"])
def test_integer_of_thousands_of_digits_is_a_short_error(cell, face, line,
                                                         message):
    """A type code or vertex index longer than int() converts (4300 digits)
    is reported at its line in a short message, not as int()'s ValueError;
    the faces count follows the face lines given."""
    text = ONE_CELL.format(dim=3, cell=cell, face=face).replace(
        "MARKER_ELEMS= 1", f"MARKER_ELEMS= {face.count(chr(10)) + 1}")
    with pytest.raises(MeshFormatError) as exc:
        parse_mesh(text)
    assert str(exc.value) == f"line {line}: {message}"


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


def test_mesh_leaves_the_callers_arrays_alone(square_mesh):
    """Mesh(...) and with_points keep copies: the caller's float64 and intp
    arrays stay writeable, and writing to them does not change the mesh,
    whose own arrays stay read-only."""
    pts = np.array(square_mesh.points)
    (kind, (conn, rows)), = square_mesh.cells.items()
    conn, rows = np.array(conn, dtype=np.intp), np.array(rows, dtype=np.intp)
    mesh = Mesh(2, pts, {kind: (conn, rows)})
    moved_pts = pts + 1.0
    moved = mesh.with_points(moved_pts)
    assert all(a.flags.writeable for a in (pts, conn, rows, moved_pts))
    pts[0, 0], conn[0, 0], moved_pts[0, 0] = 99.0, 1, 99.0
    assert mesh.points[0, 0] == moved.points[0, 0] - 1.0 == \
        square_mesh.points[0, 0]
    assert np.array_equal(mesh.cells[kind][0], square_mesh.cells[kind][0])
    for a in (mesh.points, moved.points, *mesh.cells[kind]):
        assert not a.flags.writeable


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


def test_write_vtk_field_neither_scalar_nor_vector(square_mesh):
    with pytest.raises(ValueError, match=r"field 'uv' must be \(n,\) or"):
        write_vtk(square_mesh, {"uv": np.zeros((4, 2))})


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
    out.append(_ref_vtk_cells(cells).rstrip("\n"))
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


def _ref_vtk_cells(cells):
    """The CELLS and CELL_TYPES blocks of (VTK type id, vertex list) cells,
    in file order, one %d row at a time."""
    out = [f"CELLS {len(cells)} {sum(1 + len(v) for _, v in cells)}"]
    out += [" ".join("%d" % i for i in [len(v), *v]) for _, v in cells]
    out.append(f"CELL_TYPES {len(cells)}")
    out += ["%d" % code for code, _ in cells]
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
    """kind -> (conn, rows) groups of random rows, half the time all of one
    kind and else with kinds interleaved, in shuffled file order."""
    pool = draw(st.one_of(st.just(allowed), st.sampled_from(allowed).map(
        lambda kind: (kind,))))
    kinds = draw(st.lists(st.sampled_from(pool), max_size=max_size))
    groups = {}
    for pos, kind in zip(draw(st.permutations(range(len(kinds)))), kinds):
        nv = VERTEX_COUNT[kind]
        conn, rows = groups.setdefault(kind, ([], []))
        conn.append(draw(st.lists(vertex, min_size=nv, max_size=nv)))
        rows.append(pos)
    return groups


@st.composite
def meshes_with_fields(draw):
    """Random connectivity (only its ranges are validated) with the cells
    and each marker's faces of one kind or of kinds interleaved, special
    coordinates and fields."""
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


# 150 examples in tier-1; a fifth of a larger profile's (thorough: 1000)
@pytest.mark.thorough
@settings(max_examples=max(150, settings.default.max_examples // 5),
          deadline=None)
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
    # a moved copy reuses the cell blocks cached by the first write
    moved = mesh.with_points(-mesh.points)
    assert "vtk_cells" in moved.derived
    assert write_vtk(moved, fields, title="t") == \
        _ref_vtk("t", moved.points, cells, fields)


# Vertex indices at the edges of the writer's 4-digit groups
GROUP_EDGES = (0, 9, 9999, 10000, 10**8 - 1, 10**8)


@st.composite
def connectivity_at_group_edges(draw):
    """A stand-in for a Mesh with the attributes write_mesh reads: cells
    and marker faces of mixed kinds in shuffled file order, with vertex
    indices at GROUP_EDGES or anywhere below 2 * 10**8. They name points
    that are not there, which a Mesh rejects, but the writers only format
    them."""
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 3))
    points = np.zeros((n, 3))
    points[:, :dim] = _float_array(draw, FINITE, (n, dim))
    vertex = st.sampled_from(GROUP_EDGES) | st.integers(0, 2 * 10**8)
    cells = _groups(_draw_groups(draw, CELL_KINDS[dim], vertex, 10))
    markers = {f"m{m}": _groups(_draw_groups(draw, MARKER_KINDS[dim],
                                             vertex, 6))
               for m in range(draw(st.integers(0, 2)))}
    n_elements = sum(len(rows) for _, rows in cells.values())
    return SimpleNamespace(dim=dim, points=points, cells=cells,
                           markers=markers, n_points=n, n_elements=n_elements)


@pytest.mark.thorough
@settings(deadline=None)
@given(mesh=connectivity_at_group_edges(),
       sizes=st.lists(st.integers(3, 8), max_size=6))
@example(mesh=_INTERLEAVED, sizes=[3] * 3333 + [4, 5])
def test_connectivity_at_group_edges_matches_per_row_reference(mesh, sizes):
    """The integer rows of write_mesh and of the VTK cell blocks, and the
    --viz polygons, of sizes vertices each. The example's 3333 triangles
    end at vertex index 9998, so the quadrilateral after them crosses into
    5-digit indices."""
    assert write_mesh(mesh) == _ref_write_mesh(mesh)
    cells = [(KIND_TO_CODE[kind], verts) for kind, verts in _ref_cells(mesh)]
    assert _vtk_cells(mesh.cells, KIND_TO_CODE) == _ref_vtk_cells(cells)

    vertices = np.arange(2.0 * sum(sizes)).reshape(-1, 2)
    sm = Supermesh(*[np.empty(0)] * 3, csr_array((0, 0)), vertices,
                   np.array(sizes, np.intp))
    starts = np.cumsum([0, *sizes]).tolist()
    polygons = [(7, list(range(a, b))) for a, b in zip(starts, starts[1:])]
    ref = _ref_vtk("supermesh intersection polygons",
                   np.pad(vertices, [(0, 0), (0, 1)]), polygons, {})
    # as lines, so that a failure reports the first bad line at once and
    # not a diff of the whole 10,000-line text
    assert _supermesh_vtk(sm).splitlines(keepends=True) == \
        ref.splitlines(keepends=True)


def _percent_pass(a, digits=17, sep=" "):
    """The one % pass over the rows that _float_rows stands in for."""
    fmt = sep.join([f"%.{digits}g"] * (a.shape[1] if a.ndim > 1 else 1))
    return ((fmt + "\n") * len(a)) % tuple(a.ravel().tolist())


@pytest.mark.thorough
@settings(deadline=None)
@given(columns=st.sampled_from((1, 3)), bits=st.booleans(), data=st.data())
def test_float_rows_match_a_percent_pass(columns, bits, data):
    """Any float64: NaN, infinities, subnormals and signed zeros drawn as
    floats, or every bit pattern drawn as a uint64."""
    n = data.draw(st.integers(0, 40))
    if bits:
        a = np.array(data.draw(st.lists(
            st.integers(0, 2**64 - 1), min_size=n * columns,
            max_size=n * columns)), np.uint64).view(float).reshape(n, columns)
    else:
        a = _float_array(data.draw, st.floats(), (n, columns))
    assert _float_rows(a) == _percent_pass(a)


@pytest.mark.thorough
def test_float_rows_match_a_percent_pass_at_their_boundaries():
    """Values the formatter decides at a boundary: powers of ten and their
    neighbours (1e-14 is the double below 10**-14 whose 17 digits round up
    to it), exact 17-digit ties, integers, the switches to and from the
    exponent form, -0.0."""
    powers = np.array([float(f"1e{k}") for k in range(-32, 33)])
    ties = np.arange(131073, 1310720, 2) / 2**17
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        ties, -ties[::97], np.arange(-2000.0, 2000.0), 2.0 ** np.arange(64),
        [9999999999999998.0, 99999999999999984.0, 1e-4, 1e-5, 1e16, 1e17,
         -0.0]])
    assert Fraction(1e-14) < Fraction(10) ** -14 and "%.17g" % 1e-14 == \
        "1e-14"
    assert "%.17g" % ties[0] == "1.0000076293945312"
    assert _float_rows(values) == _percent_pass(values)


# Exact 12-digit ties: a (13 - j)-digit integer plus an odd multiple of
# 2**-j has 13 significant digits, the last a 5.
TIES_12 = np.array([(i * 2**j + odd) / 2**j for j in range(1, 13)
                    for i in (10**(12 - j), 10**(13 - j) - 1,
                              3 * 10**(12 - j) + 7)
                    for odd in (1, 2**j - 1, 2**j // 3 | 1)])
# Powers of ten and their neighbours, and the values on either side of the
# switches between fixed and exponent form: X = -5 / -4 and X = 11 / 12.
POWERS = np.array([float(f"1e{k}") for k in range(-32, 33)])
BOUNDS_12 = np.concatenate([
    POWERS, np.nextafter(POWERS, 0), np.nextafter(POWERS, np.inf),
    [9.9999999999951e-05, 9.9999999999949e-05, 9.9999999999951e-06, 1e-5,
     999999999999.5, 999999999999.4, 99999999999.951, 99999999999.94]])


@st.composite
def _column_12(draw, n):
    """n values of one kind, so that whole columns of integers, which take
    the integer path, are drawn too."""
    kind = draw(st.sampled_from(("bits", "floats", "integers", "counts",
                                 "ties", "bounds")))
    if kind == "bits":
        return np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=n,
                                      max_size=n)), np.uint64).view(float)
    values = {"floats": st.floats(),
              "integers": st.integers(-10**12, 10**12) | st.integers(
                  -2**53, 2**53),
              "counts": st.integers(0, 10**12 - 1),
              "ties": st.sampled_from(TIES_12) | st.sampled_from(-TIES_12),
              "bounds": st.sampled_from(BOUNDS_12) | st.sampled_from(
                  -BOUNDS_12)}[kind]
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), float)


@pytest.mark.thorough
@settings(deadline=None)
@given(columns=st.integers(1, 5), data=st.data())
def test_float_rows_at_12_digits_match_a_percent_pass(columns, data):
    """Columns of raw float64 bit patterns, any floats, integers up to
    +-10**12 and beyond, counts, exact 12-digit ties or boundary values."""
    n = data.draw(st.integers(0, 24))
    a = np.column_stack([data.draw(_column_12(n)) for _ in range(columns)])
    assert _float_rows(a, 12, ",") == _percent_pass(a, 12, ",")


@pytest.mark.thorough
def test_float_rows_at_12_digits_match_a_percent_pass_at_their_boundaries():
    """Every exact tie and boundary value in one column, and a column of
    counts up to 10**12 - 1 beside a column of floats."""
    values = np.concatenate([TIES_12, -TIES_12, BOUNDS_12, -BOUNDS_12,
                             np.arange(-2000.0, 2000.0), 2.0 ** np.arange(64),
                             [0.0, -0.0, 1e12 - 1, 1e12, 1e12 + 1]])
    assert ["%.12g" % v for v in TIES_12[[0, 3, 6]]] == \
        ["100000000000", "1e+12", "300000000008"]  # half to even
    assert ["%.12g" % v for v in BOUNDS_12[-8:-4]] == \
        ["0.0001", "9.99999999999e-05", "1e-05", "1e-05"]
    assert ["%.12g" % v for v in BOUNDS_12[-4:]] == \
        ["1e+12", "999999999999", "100000000000", "99999999999.9"]
    assert _float_rows(values, 12, ",") == _percent_pass(values, 12, ",")
    counts = np.column_stack([np.arange(len(values)) ** 3 % 10**12, values])
    assert _float_rows(counts, 12, ",") == _percent_pass(counts, 12, ",")


# 100 examples in tier-1; a fifth of a larger profile's (thorough: 1000)
@pytest.mark.thorough
@settings(max_examples=max(100, settings.default.max_examples // 5),
          deadline=None)
@given(n_a=st.integers(1, 40), n_b=st.integers(1, 40), data=st.data())
def test_supermesh_csv_matches_per_row_reference(n_a, n_b, data):
    flat = np.unique(data.draw(st.lists(st.integers(0, n_a * n_b - 1),
                                        max_size=30)))
    parent_a, parent_b = np.divmod(flat, n_b)
    area = _float_array(data.draw, FINITE, (len(flat),))
    weights = csr_array((_float_array(data.draw, FINITE, (len(flat),)),
                         (parent_a, parent_b)), shape=(n_a, n_b))
    sm = Supermesh(parent_a, parent_b, area, weights, np.empty((0, 2)),
                   np.empty(0, dtype=np.intp))
    assert sm.to_csv() == _ref_csv(sm)


@pytest.mark.thorough
def test_supermesh_vtk_matches_per_row_reference():
    """The split dart beside a square: triangles, then a quadrilateral."""
    dart = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    beside = square + [1.0, 0.0]
    sm = build_supermesh(InterfaceFaceSet("A", (dart, beside)),
                         InterfaceFaceSet("B", (square, beside)))
    polygons = np.split(sm.polygon_vertices, np.cumsum(sm.polygon_counts)[:-1])
    points = [[x, y, 0.0] for poly in polygons for x, y in poly.tolist()]
    cells, start = [], 0
    for poly in polygons:
        cells.append((7, list(range(start, start + len(poly)))))
        start += len(poly)
    assert [len(v) for _, v in cells] == [3, 3, 4]
    assert _supermesh_vtk(sm) == _ref_vtk(
        "supermesh intersection polygons", points, cells, {})


# ---------------------------------------------------------------------------
# Parser against a per-line reference parser
# ---------------------------------------------------------------------------

class _RefLines:
    """The (line number, content) pairs of the lines that are not blank or
    % comments, read one at a time."""

    def __init__(self, text: str):
        self.lines = [(lineno, content) for lineno, raw
                      in enumerate(text.splitlines(), start=1)
                      if (content := raw.split("%", 1)[0].strip())]
        self.pos = self.lineno = 0

    def next(self, context: str) -> str:
        if self.pos >= len(self.lines):
            raise MeshFormatError(f"truncated file while reading {context}",
                                  self.lineno or None)
        self.lineno, content = self.lines[self.pos]
        self.pos += 1
        return content


def _ref_header(line: str, key: str, lineno: int, integer: bool = True):
    prefix, _, value = line.partition("=")
    if prefix.strip() != key:
        raise MeshFormatError(f"expected '{key}=' header, got {line!r}",
                              lineno)
    if not integer:
        return value.strip()
    try:
        return int(value.strip())
    except ValueError:
        raise MeshFormatError(f"{key} value {value.strip()!r} is not an "
                              "integer", lineno) from None


def _ref_groups(stream, count, context, groups, key, line_of):
    """Read count element lines one by one, converting every field with
    int(), into kind -> (vertex lists, positions) groups."""
    if count < 0:
        raise MeshFormatError(f"negative count {count} for {context}",
                              stream.lineno)
    start = sum(len(rows) for _, rows in groups.values())
    for position in range(start, start + count):
        line = stream.next(context)
        fields = line.split()
        try:
            code = int(fields[0])
        except ValueError:
            raise MeshFormatError(f"bad element line {line!r}",
                                  stream.lineno) from None
        if code not in TYPE_CODES:
            raise MeshFormatError(f"unknown element type code {code}",
                                  stream.lineno)
        kind = TYPE_CODES[code]
        nv = VERTEX_COUNT[kind]
        if len(fields) < 1 + nv:
            raise MeshFormatError(f"{kind} element needs {nv} vertex indices, "
                                  f"got {len(fields) - 1}", stream.lineno)
        try:
            verts = [int(f) for f in fields[1:1 + nv]]
        except ValueError:
            raise MeshFormatError(f"non-integer vertex index in {line!r}",
                                  stream.lineno) from None
        conn, rows = groups.setdefault(kind, ([], []))
        conn.append(verts)
        rows.append(position)
        line_of[key, position] = stream.lineno


def _ref_parse(text: str) -> Mesh:
    """The native reader as a loop over lines and fields: the reference
    parse_mesh must agree with, result for result and error for error."""
    stream = _RefLines(text)
    dim = points = None
    cells, markers, line_of = {}, {}, {}
    while stream.pos < len(stream.lines):
        line = stream.next("section header")
        key = line.partition("=")[0].strip()
        if key == "NDIME":
            dim = _ref_header(line, "NDIME", stream.lineno)
            if dim not in (2, 3):
                raise MeshFormatError(f"NDIME must be 2 or 3, got {dim}",
                                      stream.lineno)
        elif key == "NELEM":
            _ref_groups(stream, _ref_header(line, "NELEM", stream.lineno),
                        "element connectivity", cells, None, line_of)
        elif key == "NPOIN":
            if dim is None:
                raise MeshFormatError("NPOIN section before NDIME",
                                      stream.lineno)
            count = _ref_header(line, "NPOIN", stream.lineno)
            if count < 0:
                raise MeshFormatError(f"negative count {count} for point "
                                      "coordinates", stream.lineno)
            points = np.zeros((count, 3))
            numbers = []
            for i in range(len(points)):
                pt_line = stream.next("point coordinates")
                fields = pt_line.split()
                if len(fields) < dim:
                    raise MeshFormatError(
                        f"point line has {len(fields)} fields, expected at "
                        f"least {dim}", stream.lineno)
                try:
                    points[i, :dim] = [float(f) for f in fields[:dim]]
                except ValueError:
                    raise MeshFormatError(
                        f"non-numeric coordinate in {pt_line!r}",
                        stream.lineno) from None
                numbers.append((stream.lineno, pt_line))
            for i, (lineno, pt_line) in enumerate(numbers):
                if not np.isfinite(points[i]).all():
                    raise MeshFormatError(
                        f"non-finite coordinate in {pt_line!r}", lineno)
        elif key == "NMARK":
            for _ in range(_ref_header(line, "NMARK", stream.lineno)):
                tag_line = stream.next("MARKER_TAG header")
                name = _ref_header(tag_line, "MARKER_TAG", stream.lineno,
                                   integer=False)
                if name in markers:
                    raise MeshFormatError(f"duplicate marker name {name!r}",
                                          stream.lineno)
                n_faces = _ref_header(stream.next("MARKER_ELEMS header"),
                                      "MARKER_ELEMS", stream.lineno)
                markers[name] = {}
                _ref_groups(stream, n_faces, f"marker {name!r} face",
                            markers[name], name, line_of)
        else:
            raise MeshFormatError(f"unrecognized header {line!r}",
                                  stream.lineno)
    if dim is None:
        raise MeshFormatError("missing NDIME header")
    if points is None:
        raise MeshFormatError("missing NPOIN section")
    try:
        return Mesh(dim, points, cells, markers)
    except _BadRow as exc:
        raise MeshFormatError(exc.args[0], line_of[exc.args[1:]]) from None


@st.composite
def styled_mesh_texts(draw):
    """The native text of a random 2D or 3D mesh, its cells and each
    marker's faces of one kind or mixed, in a random style: the sections
    after NDIME in any order (the cells maybe split in
    two NELEM sections), spaces or tabs between fields, trailing index
    fields or none, float formats, % comments on and between lines, blank
    lines, LF or CRLF endings."""
    mesh, _ = draw(meshes_with_fields())
    rnd = draw(st.randoms(use_true_random=False))  # per-line styles
    fmt = draw(st.sampled_from([repr, "{:.17g}".format, "{:.17e}".format]))

    def line(fields, index=None):
        extra = rnd.choice([[], [index], [index, 7]]) \
            if index is not None else []
        text = rnd.choice([" ", "  ", "\t", " \t "]).join(
            map(str, [*fields, *extra]))
        return [*rnd.choices(["", "  ", "% note"], k=rnd.choice([0, 0, 1, 2])),
                rnd.choice(["", " ", "\t"]) + text
                + rnd.choice(["", " ", "%x"])]

    def rows(groups, numbered):
        return [line([KIND_TO_CODE[kind], *verts], pos if numbered else None)
                for pos, (kind, verts) in enumerate(_ref_rows(groups))]

    cells = rows(mesh.cells, True)
    cut = draw(st.integers(0, len(cells) // 2))
    head = draw(st.sampled_from(["{}= {}", "{}={}", " {} =\t{} "]))
    parts = {
        "NELEM": [head.format("NELEM", mesh.n_elements - cut),
                  *chain.from_iterable(cells[cut:])],
        "NPOIN": [head.format("NPOIN", mesh.n_points),
                  *(ln for i, p in enumerate(mesh.points.tolist())
                    for ln in line(map(fmt, p[:mesh.dim]), i))],
        "NMARK": [head.format("NMARK", len(mesh.markers))],
    }
    if cut:
        parts["NELEM"] = [head.format("NELEM", cut),
                          *chain.from_iterable(cells[:cut]), *parts["NELEM"]]
    for name, groups in mesh.markers.items():
        parts["NMARK"] += [head.format("MARKER_TAG", name),
                           head.format("MARKER_ELEMS", sum(
                               len(r) for _, r in groups.values())),
                           *chain.from_iterable(rows(groups, False))]
    order = draw(st.permutations(list(parts)))
    lines = [head.format("NDIME", mesh.dim),
             *(ln for key in order for ln in parts[key])]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _same_mesh(a: Mesh, b: Mesh) -> bool:
    """Equal meshes, the points bit for bit (-0.0 is not 0.0), and every
    conn array of both C-contiguous, the layout topology and the writers
    read."""
    return (a.dim == b.dim and a.points.tobytes() == b.points.tobytes()
            and same_groups(a.cells, b.cells) and same_markers(a, b)
            and all(conn.flags.c_contiguous for mesh in (a, b)
                    for groups in (mesh.cells, *mesh.markers.values())
                    for conn, _ in groups.values()))


# 100 examples in tier-1; a fifth of a larger profile's (thorough: 1000)
@pytest.mark.thorough
@settings(max_examples=max(100, settings.default.max_examples // 5),
          deadline=None)
@given(text=styled_mesh_texts())
def test_parser_matches_per_line_reference(text):
    mesh = parse_mesh(text)
    assert _same_mesh(mesh, _ref_parse(text))
    assert _same_mesh(parse_mesh(write_mesh(mesh)), mesh)


def _outcome(parse, text):
    try:
        return parse(text)
    except MeshFormatError as exc:
        return str(exc), exc.line


JUNK = st.sampled_from(["x", "1.5", "-1", "+2", "1e3", "nan", "-inf", "0x1",
                        "-", "=", "99", "5", "3", "12", "1,0", "1d0",
                        "NPOIN= 1", "%", "MARKER_TAG= m0"])


# 200 examples in tier-1; a fifth of a larger profile's (thorough: 1000)
@pytest.mark.thorough
@settings(max_examples=max(200, settings.default.max_examples // 5),
          deadline=None)
@given(text=styled_mesh_texts(), data=st.data())
def test_parser_matches_per_line_reference_on_damaged_text(text, data):
    """One field replaced, one line dropped or the file cut short: the
    parser and the reference give the same mesh or the same error at the
    same line."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["field", "drop", "cut"]))
    if how == "field" and (fields := lines[i].split()):
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(JUNK)
        lines[i] = " ".join(fields)
    elif how == "drop":
        del lines[i]
    elif how == "cut":
        lines = lines[:i]
    damaged = "\n".join(lines) + "\n"
    got, ref = _outcome(parse_mesh, damaged), _outcome(_ref_parse, damaged)
    if isinstance(ref, Mesh):
        assert isinstance(got, Mesh) and _same_mesh(got, ref)
    else:
        assert got == ref


def _section_text(cells, faces, n_points=8):
    """A 3D mesh text: a NELEM section of (code, vertices) rows, n_points
    points and one marker "m" of (code, vertices) face rows."""
    rows = [" ".join(map(str, [code, *verts])) for code, verts in cells]
    return "\n".join([
        "NDIME= 3", f"NELEM= {len(rows)}", *rows, f"NPOIN= {n_points}",
        *(f"{i} {i % 3} {i % 5}" for i in range(n_points)),
        "NMARK= 1", "MARKER_TAG= m", f"MARKER_ELEMS= {len(faces)}",
        *(" ".join(map(str, [code, *verts])) for code, verts in faces)]) + "\n"


HEX, TET, PYRAMID, PRISM = ((12, list(range(8))), (10, [0, 1, 2, 3]),
                            (14, [0, 1, 2, 3, 4]), (13, list(range(6))))
QUAD, TRI = (9, [0, 1, 2, 3]), (5, [0, 1, 2])


@pytest.mark.parametrize("cells,faces", [
    # shorter kinds between the ends: the one pass at the ends' kind
    # fails, then one per kind
    ([HEX, TET, PYRAMID, HEX], [QUAD, TRI, QUAD]),
    # longer kinds between the ends: the ends' pass reads the codes, one
    # more pass reads each longer kind
    ([TET, HEX, PRISM, TET, PYRAMID, TET], [TRI, QUAD, TRI]),
    ([TET], [QUAD]),
])
def test_mixed_section_with_ends_of_one_kind_matches_reference(cells, faces):
    text = _section_text(cells, faces)
    mesh = parse_mesh(text)
    assert _same_mesh(mesh, _ref_parse(text))
    assert _ref_cells(mesh) == [(TYPE_CODES[code], verts)
                                for code, verts in cells]


DEEP_LINE = 2 + 1500  # the 1500th of 2000 hexahedron lines


@pytest.mark.parametrize("line,message", [
    ("12 0 1 2 3 4 5 6 x", "non-integer vertex index in '12 0 1 2 3 4 5 6 x'"),
    ("12 0 1 2 3 4 5 6", "hexahedron element needs 8 vertex indices, got 7"),
    ("99 0 1 2 3 4 5 6 7", "unknown element type code 99"),
    ("1.5 0 1 2 3 4 5 6 7", "bad element line '1.5 0 1 2 3 4 5 6 7'"),
    ("12 0 1 2 3 4 5 6 8", "vertex index 8 out of range (NPOIN=8)"),
    ("9 0 1 2 3", "quadrilateral elements are not allowed as 3D cells"),
    ("10 0 1 2 3", None),  # a tetrahedron among them: a valid mixed section
])
def test_single_kind_section_with_one_odd_line_matches_reference(line,
                                                                  message):
    """2000 hexahedron lines, one of them replaced deep inside: the same
    mesh, or the same message at the same line, as the per-line reader."""
    cells = [HEX] * 2000
    lines = _section_text(cells, [QUAD]).split("\n")
    lines[DEEP_LINE - 1] = line
    text = "\n".join(lines)
    got, ref = _outcome(parse_mesh, text), _outcome(_ref_parse, text)
    if message is None:
        assert isinstance(got, Mesh) and _same_mesh(got, ref)
        assert len(got.cells["hexahedron"][0]) == 1999
    else:
        assert got == ref == (f"line {DEEP_LINE}: {message}", DEEP_LINE)


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
        assert side.counts.tolist() == [len(ref) for ref in reference]
        assert all(np.array_equal(got[:len(ref)], ref)
                   for got, ref in zip(side.stack, reference))
