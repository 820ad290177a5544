"""Unstructured mesh data model and ASCII mesh file I/O.

The native format is a plain-text block format (NDIME/NELEM/NPOIN/NMARK
sections with integer element type codes); the export format is the legacy
ASCII VTK unstructured-grid format.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

# Element type codes used by the native mesh format. The numbering happens to
# coincide with the legacy VTK cell type ids, which keeps the writer trivial.
TYPE_CODES = {
    3: "line",
    5: "triangle",
    9: "quadrilateral",
    10: "tetrahedron",
    12: "hexahedron",
    13: "prism",
    14: "pyramid",
}
KIND_TO_CODE = {kind: code for code, kind in TYPE_CODES.items()}

VERTEX_COUNT = {
    "line": 2,
    "triangle": 3,
    "quadrilateral": 4,
    "tetrahedron": 4,
    "hexahedron": 8,
    "prism": 6,
    "pyramid": 5,
}

VOLUME_KINDS = ("tetrahedron", "hexahedron", "prism", "pyramid")
CELL_KINDS = {2: ("triangle", "quadrilateral"), 3: VOLUME_KINDS}
MARKER_KINDS = {2: ("line",), 3: ("triangle", "quadrilateral")}


class MeshFormatError(ValueError):
    """Raised for malformed mesh files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _BadRow(ValueError):
    """args: message, marker (None for a cell), position of the row"""

    def __str__(self):
        return self.args[0]


def _points_array(points) -> np.ndarray:
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    pts.flags.writeable = False
    return pts


def _groups(groups: dict) -> dict:
    """kind -> (conn, rows) with both as read-only intp arrays."""
    out = {kind: tuple(np.asarray(a, dtype=np.intp) for a in pair)
           for kind, pair in groups.items()}
    for conn, rows in out.values():
        conn.flags.writeable = rows.flags.writeable = False
    return out


def _n_rows(groups: dict) -> int:
    return sum(len(rows) for _, rows in groups.values())


def _check_connectivity(dim: int, n_points: int, cells: dict, markers: dict):
    """Raise _BadRow, a ValueError, at an invalid cell or marker face."""
    for name, groups in [(None, cells), *markers.items()]:
        prefix, what, allowed = (
            ("", "cells", CELL_KINDS[dim]) if name is None else
            (f"marker {name!r}: ", "marker faces", MARKER_KINDS[dim]))
        positions = np.concatenate([np.arange(0),
                                    *(r for _, r in groups.values())])
        if not np.array_equal(np.sort(positions), np.arange(len(positions))):
            raise ValueError(f"{prefix}rows must number the {what} 0..n-1 "
                             "once each")
        for kind, (conn, rows) in groups.items():
            if kind not in allowed:
                why = f"{kind} elements are not allowed as {dim}D {what}"
            elif conn.shape != (len(rows), VERTEX_COUNT[kind]):
                why = (f"{len(rows)} {kind} {what} need {VERTEX_COUNT[kind]} "
                       f"vertices each, got shape {conn.shape}")
            else:
                out = (conn < 0) | (conn >= n_points)
                if not out.any():
                    continue
                rows = rows[out.any(axis=1)]
                why = (f"vertex index {conn[out][0]} out of range "
                       f"(NPOIN={n_points})")
            raise _BadRow(prefix + why, name,
                          int(rows.min()) if len(rows) else 0)


@dataclass(frozen=True)
class Mesh:
    """Immutable unstructured mesh.

    points are stored as an (n, 3) float array (z = 0 for 2D meshes), cells
    as a mapping from element kind to (conn, rows): an (n_k, nv) integer
    array of vertex indices and the (n_k,) file-order position of each row,
    both read-only. markers map a marker name to boundary faces stored the
    same way, rows holding each face's position within the marker.

    Construction validates connectivity once, with numpy: vertex indices are
    in range, rows number the cells (the faces of each marker) 0..n-1, cells
    are CELL_KINDS and marker faces MARKER_KINDS of the dimension.
    with_points copies share cells, markers and `derived`, where
    geometry.topology caches the face table.
    """

    dim: int
    points: np.ndarray
    cells: dict[str, tuple[np.ndarray, np.ndarray]]
    markers: dict[str, dict] = field(default_factory=dict)
    derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _points_array(self.points))
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        object.__setattr__(self, "cells", _groups(self.cells))
        object.__setattr__(self, "markers", {
            name: _groups(groups) for name, groups in self.markers.items()})
        _check_connectivity(self.dim, self.n_points, self.cells, self.markers)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_elements(self) -> int:
        return _n_rows(self.cells)

    def with_points(self, new_points: np.ndarray) -> "Mesh":
        """New mesh with moved points; the rest is shared, not rechecked."""
        points = _points_array(new_points)
        if points.shape != self.points.shape:
            raise ValueError("replacement point array has wrong shape")
        moved = copy.copy(self)
        object.__setattr__(moved, "points", points)
        return moved


def extract_marker_points(mesh: Mesh, marker: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique point indices of a marker and their coordinates."""
    if marker not in mesh.markers:
        raise KeyError(f"unknown marker {marker!r}"
                       f" (available: {sorted(mesh.markers)})")
    indices = np.unique(np.concatenate([np.empty(0, np.intp), *(
        conn.ravel() for conn, _ in mesh.markers[marker].values())]))
    return indices, mesh.points[indices]


# ---------------------------------------------------------------------------
# Native format parser / writer
# ---------------------------------------------------------------------------

class _LineStream:
    """The (line number, content) pairs of the lines that are not blank or
    % comments; pos is the index of the one next() returns next, lineno
    the line number of the last one read."""

    def __init__(self, text: str):
        self.lines = [(lineno, content) for lineno, raw
                      in enumerate(text.splitlines(), start=1)
                      if (content := raw.split("%", 1)[0].strip())]
        self.pos = 0
        self.lineno = 0

    def next(self, context: str) -> str:
        if self.pos >= len(self.lines):
            raise MeshFormatError(f"truncated file while reading {context}",
                                  self.lineno or None)
        self.lineno, content = self.lines[self.pos]
        self.pos += 1
        return content


def _header_value(line: str, key: str, lineno: int) -> str:
    prefix, _, rest = line.partition("=")
    if prefix.strip() != key:
        raise MeshFormatError(f"expected '{key}=' header, got {line!r}", lineno)
    return rest.strip()


def _int_header(line: str, key: str, lineno: int) -> int:
    value = _header_value(line, key, lineno)
    try:
        return int(value)
    except ValueError:
        raise MeshFormatError(f"{key} value {value!r} is not an integer",
                              lineno) from None


def _read_groups(stream: _LineStream, count: int, context: str, groups: dict,
                 key: str | None, line_of: dict):
    """Read count lines "type_code v0 v1 ..." into groups, kind -> (vertex
    tuples, positions) as Mesh.cells holds them, numbering on from the rows
    already there; line_of[key, position] records each line number."""
    start = _n_rows(groups)
    for position in range(start, start + count):
        line = stream.next(context)
        fields = line.split()
        try:
            code = int(fields[0])
        except (ValueError, IndexError):
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
            verts = tuple(int(f) for f in fields[1:1 + nv])
        except ValueError:
            raise MeshFormatError(f"non-integer vertex index in {line!r}",
                                  stream.lineno) from None
        conn, rows = groups.setdefault(kind, ([], []))
        conn.append(verts)
        rows.append(position)
        line_of[key, position] = stream.lineno


def parse_mesh(text: str) -> Mesh:
    """Parse native ASCII mesh text into a Mesh.

    Sections may appear in any order; NPOIN may come before or after NELEM
    (connectivity is validated once the whole file is read). Raises
    MeshFormatError with a line number on malformed input.
    """
    stream = _LineStream(text)
    dim: int | None = None
    cells: dict[str, tuple[list, list]] = {}
    points: np.ndarray | None = None
    markers: dict[str, dict[str, tuple[list, list]]] = {}
    line_of: dict[tuple[str | None, int], int] = {}

    while stream.pos < len(stream.lines):
        line = stream.next("section header")
        key = line.partition("=")[0].strip()
        if key == "NDIME":
            dim = _int_header(line, "NDIME", stream.lineno)
            if dim not in (2, 3):
                raise MeshFormatError(f"NDIME must be 2 or 3, got {dim}",
                                      stream.lineno)
        elif key == "NELEM":
            _read_groups(stream, _int_header(line, "NELEM", stream.lineno),
                         "element connectivity", cells, None, line_of)
        elif key == "NPOIN":
            if dim is None:
                raise MeshFormatError("NPOIN section before NDIME",
                                      stream.lineno)
            coords = np.zeros((_int_header(line, "NPOIN", stream.lineno), 3))
            first = stream.pos
            for i in range(len(coords)):
                pt_line = stream.next("point coordinates")
                fields = pt_line.split()
                if len(fields) < dim:
                    raise MeshFormatError(
                        f"point line has {len(fields)} fields, expected at "
                        f"least {dim}", stream.lineno)
                try:
                    coords[i, :dim] = [float(f) for f in fields[:dim]]
                except ValueError:
                    raise MeshFormatError(
                        f"non-numeric coordinate in {pt_line!r}",
                        stream.lineno) from None
            bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
            if len(bad):
                lineno, content = stream.lines[first + int(bad[0])]
                raise MeshFormatError(f"non-finite coordinate in {content!r}",
                                      lineno)
            points = coords
        elif key == "NMARK":
            for _ in range(_int_header(line, "NMARK", stream.lineno)):
                tag_line = stream.next("MARKER_TAG header")
                name = _header_value(tag_line, "MARKER_TAG", stream.lineno)
                if name in markers:
                    raise MeshFormatError(f"duplicate marker name {name!r}",
                                          stream.lineno)
                n_faces = _int_header(stream.next("MARKER_ELEMS header"),
                                      "MARKER_ELEMS", stream.lineno)
                markers[name] = {}
                _read_groups(stream, n_faces, f"marker {name!r} face",
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


def _rows(fmt: str, a) -> str:
    """Every row of the array a formatted by fmt, in a single % pass."""
    return (fmt * len(a)) % tuple(np.ravel(a).tolist())


def _lines_in_order(groups: dict, head: dict) -> str:
    """A line "head[key] v0 v1 ..." for every row of the (conn, rows) groups
    (as Mesh.cells), ordered by the rows' positions."""
    lines = np.empty(_n_rows(groups), object)
    for key, (conn, rows) in groups.items():
        fmt = f"{head[key]}" + " %d" * conn.shape[1] + "\n"
        lines[rows] = _rows(fmt, conn).splitlines(keepends=True)
    return "".join(lines)


def write_mesh(mesh: Mesh) -> str:
    """Serialize a Mesh back to the native ASCII format.

    Coordinates are written with 17 significant digits so that a
    parse -> write -> parse round trip is exact.
    """
    numbered = {kind: (np.column_stack([conn, rows]), rows)
                for kind, (conn, rows) in mesh.cells.items()}
    points = np.column_stack([mesh.points[:, :mesh.dim],
                              np.arange(mesh.n_points)])
    out = [f"NDIME= {mesh.dim}\nNELEM= {mesh.n_elements}\n",
           _lines_in_order(numbered, KIND_TO_CODE),
           f"NPOIN= {mesh.n_points}\n",
           _rows("%.17g " * mesh.dim + "%d\n", points),
           f"NMARK= {len(mesh.markers)}\n"]
    for name, groups in mesh.markers.items():
        out.append(f"MARKER_TAG= {name}\nMARKER_ELEMS= {_n_rows(groups)}\n")
        out.append(_lines_in_order(groups, KIND_TO_CODE))
    return "".join(out)


# ---------------------------------------------------------------------------
# Legacy VTK writer
# ---------------------------------------------------------------------------

def _vtk_grid(title: str, points: np.ndarray, cells: dict,
              types: dict) -> str:
    """Legacy ASCII VTK header with the POINTS, CELLS and CELL_TYPES blocks.

    points is (n, 3); cells map a key to (conn, rows) as Mesh.cells does,
    and types map each key to its VTK cell type id.
    """
    n_cells = _n_rows(cells)
    size = sum(conn.size + len(rows) for conn, rows in cells.values())
    counts = {key: conn.shape[1] for key, (conn, _) in cells.items()}
    typed = {key: (conn[:, :0], rows) for key, (conn, rows) in cells.items()}
    return (f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(points)} double\n"
            + _rows("%.17g %.17g %.17g\n", points)
            + f"CELLS {n_cells} {size}\n" + _lines_in_order(cells, counts)
            + f"CELL_TYPES {n_cells}\n" + _lines_in_order(typed, types))


def write_vtk(mesh: Mesh, point_fields: dict[str, np.ndarray] | None = None,
              title: str = "rotormesh export") -> str:
    """Write the mesh (and optional per-point fields) as legacy ASCII VTK.

    Scalar fields are (n,) arrays, vector fields (n, 3). Every field must
    have one entry per mesh point.
    """
    n = mesh.n_points
    out = [f"POINT_DATA {n}\n"] if point_fields else []
    for name, values in (point_fields or {}).items():
        values = np.asarray(values, dtype=float)
        if values.shape[0] != n:
            raise ValueError(
                f"field {name!r} has {values.shape[0]} values for {n} points")
        if values.ndim == 1:
            out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                       + _rows("%.17g\n", values))
        elif values.shape[1:] == (3,):
            out.append(f"VECTORS {name} double\n"
                       + _rows("%.17g %.17g %.17g\n", values))
        else:
            raise ValueError(f"field {name!r} must be (n,) or (n, 3)")
    return "".join([_vtk_grid(title, mesh.points, mesh.cells, KIND_TO_CODE),
                    *out])
