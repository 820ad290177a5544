"""Unstructured mesh data model and ASCII mesh file I/O.

The native format is a plain-text block format (NDIME/NELEM/NPOIN/NMARK
sections with integer element type codes); the export format is the legacy
ASCII VTK unstructured-grid format.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import chain

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
# marker face kind by vertex count, and the counts each dimension allows
FACE_KINDS = {2: "line", 3: "triangle", 4: "quadrilateral"}
FACE_SIZES = {2: (2,), 3: (3, 4)}


class MeshFormatError(ValueError):
    """Raised for malformed mesh files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _BadRow(ValueError):
    """args: message, marker (None for a cell), file position or face index"""

    def __str__(self):
        return self.args[0]


def _points_array(points) -> np.ndarray:
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    pts.flags.writeable = False
    return pts


def _check_connectivity(dim: int, n_points: int, cells: dict, markers: dict):
    """Raise _BadRow, a ValueError, at an invalid cell or marker face."""
    positions = np.concatenate([np.arange(0), *(r for _, r in cells.values())])
    if not np.array_equal(np.sort(positions), np.arange(len(positions))):
        raise ValueError("cell rows must number the cells 0..n-1 once each")
    for kind, (conn, rows) in cells.items():
        if kind not in CELL_KINDS[dim]:
            why = f"{kind} elements are not allowed as {dim}D cells"
        elif conn.shape != (len(rows), VERTEX_COUNT[kind]):
            why = (f"{len(rows)} {kind} cells need {VERTEX_COUNT[kind]} "
                   f"vertices each, got shape {conn.shape}")
        else:
            out = (conn < 0) | (conn >= n_points)
            if not out.any():
                continue
            rows = rows[out.any(axis=1)]
            why = f"vertex index {conn[out][0]} out of range (NPOIN={n_points})"
        raise _BadRow(why, None, int(rows.min(initial=0)))
    for name, faces in markers.items():
        sizes = np.fromiter(map(len, faces), dtype=np.intp, count=len(faces))
        bad = np.flatnonzero(~np.isin(sizes, FACE_SIZES[dim]))
        if len(bad):
            raise _BadRow(f"marker {name!r} face with {sizes[bad[0]]} "
                          f"vertices is not allowed in {dim}D", name,
                          int(bad[0]))
        flat = np.fromiter(chain.from_iterable(faces), dtype=np.intp)
        out = np.flatnonzero((flat < 0) | (flat >= n_points))
        if len(out):
            face = np.searchsorted(np.cumsum(sizes), out[0], side="right")
            raise _BadRow(f"marker {name!r} vertex index {flat[out[0]]} out "
                          f"of range (NPOIN={n_points})", name, int(face))


@dataclass(frozen=True)
class Mesh:
    """Immutable unstructured mesh.

    points are stored as an (n, 3) float array (z = 0 for 2D meshes), cells
    as a mapping from element kind to (conn, rows): an (n_k, nv) integer
    array of vertex indices and the (n_k,) file-order position of each row,
    both read-only. markers map a marker name to a tuple of boundary faces
    (vertex tuples).

    Construction validates connectivity once, with numpy: vertex indices are
    in range, 2D cells are triangles or quadrilaterals, 3D cells are
    VOLUME_KINDS; marker faces are lines in 2D, triangles or quadrilaterals
    in 3D. with_points copies share cells, markers and `derived`, where
    cell_geometry caches the topology.
    """

    dim: int
    points: np.ndarray
    cells: dict[str, tuple[np.ndarray, np.ndarray]]
    markers: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=dict)
    derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _points_array(self.points))
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        cells = {kind: tuple(np.asarray(a, dtype=np.intp) for a in pair)
                 for kind, pair in self.cells.items()}
        for conn, rows in cells.values():
            conn.flags.writeable = rows.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        _check_connectivity(self.dim, self.n_points, cells, self.markers)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_elements(self) -> int:
        return sum(len(rows) for _, rows in self.cells.values())

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
    idx = sorted({v for face in mesh.markers[marker] for v in face})
    indices = np.asarray(idx, dtype=np.intp)
    return indices, mesh.points[indices]


# ---------------------------------------------------------------------------
# Native format parser / writer
# ---------------------------------------------------------------------------

def _significant_lines(text: str):
    """Yield (line_number, content) pairs, skipping blanks and % comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("%", 1)[0].strip()
        if content:
            yield lineno, content


class _LineStream:
    def __init__(self, text: str):
        self._lines = list(_significant_lines(text))
        self._pos = 0
        self.lineno = 0

    def next(self, context: str) -> str:
        if self._pos >= len(self._lines):
            raise MeshFormatError(f"truncated file while reading {context}",
                                  self.lineno or None)
        self.lineno, content = self._lines[self._pos]
        self._pos += 1
        return content

    def exhausted(self) -> bool:
        return self._pos >= len(self._lines)

    @property
    def position(self) -> int:
        """Index of the next line next() returns."""
        return self._pos

    def line(self, position: int) -> tuple[int, str]:
        """(line number, content) of an already read line."""
        return self._lines[position]


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


def _parse_connectivity(line: str, lineno: int):
    fields = line.split()
    try:
        code = int(fields[0])
    except (ValueError, IndexError):
        raise MeshFormatError(f"bad element line {line!r}", lineno) from None
    if code not in TYPE_CODES:
        raise MeshFormatError(f"unknown element type code {code}", lineno)
    kind = TYPE_CODES[code]
    nv = VERTEX_COUNT[kind]
    if len(fields) < 1 + nv:
        raise MeshFormatError(
            f"{kind} element needs {nv} vertex indices, got {len(fields) - 1}",
            lineno)
    try:
        verts = tuple(int(f) for f in fields[1:1 + nv])
    except ValueError:
        raise MeshFormatError(f"non-integer vertex index in {line!r}",
                              lineno) from None
    return kind, verts


def parse_mesh(text: str) -> Mesh:
    """Parse native ASCII mesh text into a Mesh.

    Sections may appear in any order; NPOIN may come before or after NELEM
    (connectivity is validated once the whole file is read). Raises
    MeshFormatError with a line number on malformed input.
    """
    stream = _LineStream(text)
    dim: int | None = None
    conn: dict[str, list[tuple[int, ...]]] = {}
    rows: dict[str, list[int]] = {}
    points: np.ndarray | None = None
    markers: dict[str, tuple[tuple[int, ...], ...]] = {}
    line_of: dict[tuple[str | None, int], int] = {}

    while not stream.exhausted():
        line = stream.next("section header")
        key = line.partition("=")[0].strip()
        if key == "NDIME":
            dim = _int_header(line, "NDIME", stream.lineno)
            if dim not in (2, 3):
                raise MeshFormatError(f"NDIME must be 2 or 3, got {dim}",
                                      stream.lineno)
        elif key == "NELEM":
            for _ in range(_int_header(line, "NELEM", stream.lineno)):
                kind, verts = _parse_connectivity(
                    stream.next("element connectivity"), stream.lineno)
                position = sum(map(len, rows.values()))
                conn.setdefault(kind, []).append(verts)
                rows.setdefault(kind, []).append(position)
                line_of[None, position] = stream.lineno
        elif key == "NPOIN":
            if dim is None:
                raise MeshFormatError("NPOIN section before NDIME",
                                      stream.lineno)
            n_poin = _int_header(line, "NPOIN", stream.lineno)
            first = stream.position
            coords = np.zeros((n_poin, 3))
            for i in range(n_poin):
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
                lineno, content = stream.line(first + int(bad[0]))
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
                faces = []
                for i in range(n_faces):
                    kind, verts = _parse_connectivity(
                        stream.next(f"marker {name!r} face"), stream.lineno)
                    if kind not in FACE_KINDS.values():
                        raise MeshFormatError(
                            f"{kind} elements are not allowed as marker "
                            "faces", stream.lineno)
                    faces.append(verts)
                    line_of[name, i] = stream.lineno
                markers[name] = tuple(faces)
        else:
            raise MeshFormatError(f"unrecognized header {line!r}",
                                  stream.lineno)

    if dim is None:
        raise MeshFormatError("missing NDIME header")
    if points is None:
        raise MeshFormatError("missing NPOIN section")

    try:
        return Mesh(dim, points, {k: (v, rows[k]) for k, v in conn.items()},
                    markers)
    except _BadRow as exc:
        raise MeshFormatError(exc.args[0], line_of[exc.args[1:]]) from None


def _cell_lines(mesh: Mesh, head: dict[str, int]) -> list[tuple[str, str]]:
    """(kind, "head[kind] v0 v1 ...") for every cell, in file order."""
    lines: list = [None] * mesh.n_elements
    for kind, (conn, rows) in mesh.cells.items():
        fmt = f"{head[kind]}" + " %d" * conn.shape[1]
        for pos, verts in zip(rows.tolist(), conn.tolist()):
            lines[pos] = (kind, fmt % tuple(verts))
    return lines


def write_mesh(mesh: Mesh) -> str:
    """Serialize a Mesh back to the native ASCII format.

    Coordinates are written with 17 significant digits so that a
    parse -> write -> parse round trip is exact.
    """
    out = [f"NDIME= {mesh.dim}"]
    out.append(f"NELEM= {mesh.n_elements}")
    for i, (_, line) in enumerate(_cell_lines(mesh, KIND_TO_CODE)):
        out.append(f"{line} {i}")
    out.append(f"NPOIN= {mesh.n_points}")
    for i, p in enumerate(mesh.points):
        coords = " ".join(f"{c:.17g}" for c in p[:mesh.dim])
        out.append(f"{coords} {i}")
    out.append(f"NMARK= {len(mesh.markers)}")
    for name, faces in mesh.markers.items():
        out.append(f"MARKER_TAG= {name}")
        out.append(f"MARKER_ELEMS= {len(faces)}")
        for verts in faces:
            code = KIND_TO_CODE[FACE_KINDS[len(verts)]]
            out.append(f"{code} " + " ".join(map(str, verts)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Legacy VTK writer
# ---------------------------------------------------------------------------

def write_vtk(mesh: Mesh, point_fields: dict[str, np.ndarray] | None = None,
              title: str = "rotormesh export") -> str:
    """Write the mesh (and optional per-point fields) as legacy ASCII VTK.

    Scalar fields are (n,) arrays, vector fields (n, 3). Every field must
    have one entry per mesh point.
    """
    point_fields = point_fields or {}
    n = mesh.n_points
    for name, values in point_fields.items():
        values = np.asarray(values)
        if values.shape[0] != n:
            raise ValueError(
                f"field {name!r} has {values.shape[0]} values for {n} points")
        if values.ndim not in (1, 2) or (values.ndim == 2 and
                                         values.shape[1] != 3):
            raise ValueError(f"field {name!r} must be (n,) or (n, 3)")

    out = ["# vtk DataFile Version 3.0", title, "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    for p in mesh.points:
        out.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")

    elements = _cell_lines(mesh, VERTEX_COUNT)
    total = sum(1 + VERTEX_COUNT[kind] for kind, _ in elements)
    out.append(f"CELLS {mesh.n_elements} {total}")
    out.extend(line for _, line in elements)
    out.append(f"CELL_TYPES {mesh.n_elements}")
    for kind, _ in elements:
        out.append(str(KIND_TO_CODE[kind]))

    if point_fields:
        out.append(f"POINT_DATA {n}")
        for name, values in point_fields.items():
            values = np.asarray(values, dtype=float)
            if values.ndim == 1:
                out.append(f"SCALARS {name} double 1")
                out.append("LOOKUP_TABLE default")
                out.extend(f"{v:.17g}" for v in values)
            else:
                out.append(f"VECTORS {name} double")
                out.extend(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}"
                           for v in values)
    return "\n".join(out) + "\n"
