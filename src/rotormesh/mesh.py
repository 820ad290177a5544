"""Unstructured mesh data model and ASCII mesh file I/O.

The native format is a plain-text block format (NDIME/NELEM/NPOIN/NMARK
sections with integer element type codes); the export format is the legacy
ASCII VTK unstructured-grid format.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

import numpy as np

# Element type codes of the native format with each kind and its vertex
# count. The numbering happens to coincide with the legacy VTK cell type
# ids, which keeps the writer trivial.
_CODES = {3: ("line", 2), 5: ("triangle", 3), 9: ("quadrilateral", 4),
          10: ("tetrahedron", 4), 12: ("hexahedron", 8), 13: ("prism", 6),
          14: ("pyramid", 5)}
TYPE_CODES = {code: kind for code, (kind, _) in _CODES.items()}
KIND_TO_CODE = {kind: code for code, kind in TYPE_CODES.items()}
VERTEX_COUNT = dict(_CODES.values())

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
    pts = np.array(points, dtype=float, order="C")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    pts.flags.writeable = False
    return pts


def _groups(groups: dict) -> dict:
    """kind -> (conn, rows) with both as read-only intp copies."""
    out = {kind: tuple(np.array(a, dtype=np.intp) for a in pair)
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
    both read-only copies of the caller's, whose flags stay as they were.
    markers map a marker name to boundary faces stored the same way, rows
    holding each face's position within the marker.

    Construction validates connectivity once, with numpy: vertex indices are
    in range, rows number the cells (the faces of each marker) 0..n-1, cells
    are CELL_KINDS and marker faces MARKER_KINDS of the dimension.
    with_points copies share cells, markers and `derived`, where
    geometry.topology caches the face table and write_vtk its cell blocks.
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

# The fields numpy reads as an integer, with its sign and its digits past
# any leading zeros, and the fields it reads as a float.
_INT = re.compile("([+-]?)0*([0-9]+)").fullmatch
_FLOAT = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?"
                    r"|inf(inity)?|nan)", re.IGNORECASE).fullmatch


def _fault(line: str, dim: int) -> str | None:
    """What is wrong with an element line (dim 0) or a point line of dim
    coordinates, if anything: a check for a block numpy could not read."""
    fields = line.split()
    if len(fields) < dim:
        return f"point line has {len(fields)} fields, expected at least {dim}"
    if dim:
        return None if all(map(_FLOAT, fields[:dim])) else \
            f"non-numeric coordinate in {line!r}"
    code = _INT(fields[0])
    if code is None:
        return f"bad element line {line!r}"
    sign, digits = code.groups()
    if len(digits) > 4300:  # more than int() takes: named by its length
        return f"unknown element type code of {len(digits)} digits"
    code = int(sign + digits)
    kind, nv = _CODES.get(code, (None, 0))
    if kind is None:
        return f"unknown element type code {code}"
    if len(fields) < 1 + nv:
        return (f"{kind} element needs {nv} vertex indices, "
                f"got {len(fields) - 1}")
    indices = [_INT(field) for field in fields[1:1 + nv]]
    if not all(indices):
        return f"non-integer vertex index in {line!r}"
    intp = np.iinfo(np.intp)
    for sign, digits in (index.groups() for index in indices):
        if len(digits) > 4300:
            return f"vertex index of {len(digits)} digits out of range"
        if not intp.min <= int(sign + digits) <= intp.max:
            return f"vertex index {int(sign + digits)} out of range"
    return None


class _LineStream:
    """Line numbers and contents of the lines not blank or % comments; pos
    indexes the next line to read, lineno numbers the last one read."""

    def __init__(self, text: str):
        lines = list(map(str.strip, text.splitlines()))
        if "%" in text:  # cut the comment from each line that has one
            lines = [line.split("%", 1)[0].rstrip() if "%" in line else line
                     for line in lines]
        numbers = range(1, len(lines) + 1)
        self.numbers, self.contents = (numbers, lines) if all(lines) else (
            list(compress(numbers, lines)), list(compress(lines, lines)))
        self.pos = self.lineno = 0

    def take(self, count: int, context: str, read=None, dim: int = 0):
        """Numbers and contents of the next count lines, and read(contents);
        if read fails or the file ends first, the first bad line raises."""
        if count < 0:
            raise self.error(f"negative count {count} for {context}")
        numbers = self.numbers[self.pos:self.pos + count]
        contents = self.contents[self.pos:self.pos + count]
        self.pos += len(numbers)
        self.lineno = numbers[-1] if numbers else self.lineno
        try:
            if len(numbers) < count:
                raise self.error(f"truncated file while reading {context}")
            return numbers, contents, read and read(contents)
        except (KeyError, ValueError):
            for lineno, line in zip(numbers, contents):
                if why := _fault(line, dim):
                    raise MeshFormatError(why, lineno) from None
            raise

    def error(self, message: str) -> MeshFormatError:
        return MeshFormatError(message, self.lineno or None)

    def header(self, key: str, line: str | None = None, cast=int):
        """The value of the "key= value" line given, or the next, by cast."""
        line = line or self.take(1, f"{key} header")[1][0]
        prefix, _, value = line.partition("=")
        if prefix.strip() != key:
            raise self.error(f"expected '{key}=' header, got {line!r}")
        try:
            return cast(value.strip())
        except ValueError:
            raise self.error(f"{key} value {value.strip()!r} is not an "
                             "integer") from None


def _columns(lines: list, cols: range, dtype) -> np.ndarray:
    """Columns cols of whitespace-separated lines in one numpy pass."""
    if not lines:  # loadtxt warns on empty input
        return np.empty((0, len(cols)), dtype)
    return np.loadtxt(lines, dtype, usecols=cols, ndmin=2, comments=None)


def _read_groups(stream: _LineStream, count: int, context: str, groups: dict,
                 linenos: list):
    """Read count lines "type_code v0 v1 ..." into groups (as Mesh.cells),
    numbering on from the rows whose line numbers linenos lists."""
    def read(lines):
        # Codes and vertices in one pass if the first and last lines share
        # a kind (a bad code there raises for the line check); one more
        # pass for each other kind with more vertices.
        heads = {line.split(None, 1)[0] for line in lines[:1] + lines[-1:]}
        nv = _CODES[int(*heads)][1] if len(heads) == 1 else 0
        try:
            block = _columns(lines, range(nv + 1), np.intp)
        except ValueError:  # a line of a shorter kind, or a bad line
            if not nv:
                raise
            block = _columns(lines, range(1), np.intp)
        codes = block[:, 0]
        kinds = codes[:1] if (codes == codes[:1]).all() else codes[
            np.sort(np.unique(codes, return_index=True)[1])]
        for code in kinds.tolist():  # in file order; KeyError if unknown
            (kind, nv), rows = _CODES[code], np.flatnonzero(codes == code)
            conn = block[rows, 1:nv + 1] if nv < block.shape[1] else _columns(
                [lines[i] for i in rows], range(1, nv + 1), np.intp)
            rows = len(linenos) + rows
            if kind in groups:  # a kind an earlier section also has
                conn, rows = map(np.concatenate,
                                 zip(groups[kind], (conn, rows)))
            groups[kind] = conn, rows

    linenos += stream.take(count, context, read)[0]


def parse_mesh(text: str) -> Mesh:
    """Parse native ASCII mesh text into a Mesh.

    Sections may appear in any order; NPOIN may come before or after NELEM
    (connectivity is validated once the whole file is read). Raises
    MeshFormatError with a line number on malformed input.
    """
    stream = _LineStream(text)
    dim = points = None
    cells, markers = {}, {}  # as Mesh.cells, Mesh.markers
    linenos: dict[str | None, list[int]] = {None: []}  # of rows, by marker

    while stream.pos < len(stream.contents):
        line = stream.take(1, "section header")[1][0]
        key = line.partition("=")[0].strip()
        if key == "NDIME":
            dim = stream.header("NDIME", line)
            if dim not in (2, 3):
                raise stream.error(f"NDIME must be 2 or 3, got {dim}")
        elif key == "NELEM":
            _read_groups(stream, stream.header("NELEM", line),
                         "element connectivity", cells, linenos[None])
        elif key == "NPOIN":
            if dim is None:
                raise stream.error("NPOIN section before NDIME")
            numbers, lines, coords = stream.take(
                stream.header("NPOIN", line), "point coordinates",
                lambda block: _columns(block, range(dim), float), dim)
            points = np.pad(coords, [(0, 0), (0, 3 - dim)])
            bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
            if len(bad):
                raise MeshFormatError(f"non-finite coordinate in "
                                      f"{lines[bad[0]]!r}", numbers[bad[0]])
        elif key == "NMARK":
            for _ in range(stream.header("NMARK", line)):
                name = stream.header("MARKER_TAG", cast=str)
                if name in markers:
                    raise stream.error(f"duplicate marker name {name!r}")
                markers[name], linenos[name] = {}, []
                _read_groups(stream, stream.header("MARKER_ELEMS"),
                             f"marker {name!r} face",
                             markers[name], linenos[name])
        else:
            raise stream.error(f"unrecognized header {line!r}")

    if dim is None:
        raise MeshFormatError("missing NDIME header")
    if points is None:
        raise MeshFormatError("missing NPOIN section")

    try:
        return Mesh(dim, points, cells, markers)
    except _BadRow as exc:
        message, name, position = exc.args
        raise MeshFormatError(message, linenos[name][position]) from None


def _halves(a):  # Veltkamp's split into high + low halves of 26 bits
    high = 134217729.0 * a - (134217729.0 * a - a)  # 2**27 + 1
    return high, a - high


# Column p + 19: 10**p as hi + lo and hi's halves, for p in [-19, 47]
_TEN = np.array([[h, float(t - Fraction(h)), *_halves(h)] for t in
                 (Fraction(10) ** p for p in range(-19, 48))
                 for h in [float(t)]]).T
# By 4-digit group g: "%04d" with a point after each digit, and the last
# nonzero digit (-99 for 0000); by g, "%4d" with the spaces as 0 bytes, and
# by 10**4 + g, "%04d", for groups after the first nonzero one.
_ASCII = np.frombuffer(b"".join(b"%04d" % v for v in range(10**4)), "<u4")
_DOTTED = (_ASCII.view(np.uint8).astype("<u2") | 0x2E00).view("<u8")
_LAST = np.array([len((b"%04d" % v).rstrip(b"0")) - 1 if v else -99
                  for v in range(10**4)], np.int8)
_GROUPS = np.concatenate([np.frombuffer(b"".join(
    b"%4d" % v for v in range(10**4)).replace(b" ", b"\0"), "<u4"), _ASCII])
# By 64 s + x + 32 for sign s and decimal exponent x in [-32, 32): a slot
# for the separator, the sign, the "0.000" of -4 <= x < 0; then the % mark.
_HEAD = np.frombuffer(b"".join(
    (b"\0" + s + b"0.000"[:1 - x] * (-4 <= x < 0)).ljust(8, b"\0") for s in
    (b"\0", b"-") for x in range(-32, 32)) + b"\0\1" + bytes(6), "<u8")
# By digit count d: by x + 32, the exponent text and the group byte whose
# digit the point follows (none if in the -d % 4 bytes before digit 0); by
# 24 k + p + 4, the mask of dotted groups that keeps the digits to byte k
# and the point after byte p if 0 <= p < k.
_FORM = {d: (np.frombuffer(b"".join(bytes(4) if -4 <= x < d else b"e%+03d" % x
                                    for x in range(-32, 32)), "<u4"),
             np.array([x * (-4 <= x < d) - d % -4 for x in range(-32, 32)]),
             np.array([[255 * (-d % 4 <= j // 2 and (
                 p == j // 2 < k if j % 2 else j // 2 <= k))
                        for j in range(-d // 4 * -8)] for k in range(20)
                       for p in range(-4, 20)], np.uint8).view("<u8"))
         for d in (12, 17)}


def _scaled(ax: np.ndarray, p: np.ndarray):
    """floor(ax * 10**p) as int64 and the fraction it drops, both to within
    2**-45: Dekker's product with the double-double power of ten."""
    hi, lo, bh, bl = _TEN.take(p + 19, axis=1)
    prod = ax * hi
    ah, al = _halves(ax)
    rest = ((ah * bh - prod) + ah * bl + al * bh) + al * bl + ax * lo
    rest += prod - (whole := np.floor(prod))
    low = np.floor(rest)
    return np.add(whole, low, dtype=np.int64, casting="unsafe"), rest - low


def _float_fields(v: np.ndarray, digits: int, sep: str, field: np.ndarray):
    """Floats v, (k, n), as "%.{digits}g" formats them after sep into field,
    (k, n, 3 + 2 g) words (g digit groups); returns the mask left to %."""
    shape, v = v.shape, v.ravel()
    ax, top = np.abs(v), 10**(digits - 1)
    fast = (nonzero := (ax >= 1e-30) & (ax < 1e30)) | (ax == 0)
    ax = np.where(nonzero, ax, 1.0)
    x = np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, digits - 1 - x)
    off = np.flatnonzero((whole < top) | (whole >= 10 * top))
    if len(off):  # the log was one off, next to a power of ten
        x[off] += np.where(whole[off] < top, -1, 1)
        whole[off], frac[off] = _scaled(ax[off], digits - 1 - x[off])
    fast &= (whole >= top) & (whole < 10 * top) & (abs(frac - 0.5) > 2**-20)
    whole += frac > 0.5
    x += (carry := whole == 10 * top) + 32
    whole = np.where(carry, top, whole) * nonzero  # 0 has x = 0
    groups, last = np.empty((len(v), -(-digits // 4)), np.int64), -99
    for j in range(groups.shape[1] - 1, -1, -1):  # // by a constant is fast
        groups[:, j] = whole - (whole := whole // 10**4) * 10**4
        last = np.maximum(last, _LAST[groups[:, j]] + 4 * j)  # its byte
    exponent, point, keep = _FORM[digits]
    point = point.take(x, mode="clip")
    text = _DOTTED[groups] & keep.take(
        24 * np.maximum(last, point) + point + 4, axis=0)
    field[..., 2:-1] = text.view("<u4").reshape(*shape, -1)
    field[..., :2] = (_HEAD | np.uint64(ord(sep))).take(np.where(
        fast, 64 * np.signbit(v) + x, 128), mode="clip").view("<u4").reshape(
        *shape, 2)
    field[..., -1] = exponent.take(x, mode="clip").reshape(shape)
    field[~fast.reshape(shape), 2:] = 0
    return ~fast.reshape(shape)


def _float_rows(a, digits: int = 17, sep: str = " ") -> str:
    """The rows of the (n, c) array a ((n,) is one column) as one % pass of
    sep.join([f"%.{digits}g"] * c) + "\\n" over them formats them, byte for
    byte, for 12 or 17 digits; an integer below 10**digits prints as %d.

    Each value is a field of 4-byte words, separator first, in one row matrix
    per block of rows whose 0 bytes are dropped. A column of integers in [0,
    10**digits) is its digits. Otherwise the digits are round-half-even(|v|
    * 10**(digits - 1 - X)) for the X that puts the unrounded product's
    floor in [10**(digits - 1), 10**digits), moved up one by a carry (Gay
    1990), after the sign and the "0.000" of -4 <= X < 0, each with a slot
    for a point, then the exponent of X < -4 or X >= digits. % formats
    alone values not finite, outside [1e-30, 1e30) or within 2**-20 of a tie.
    """
    columns = np.atleast_2d(np.asarray(a, dtype=float).T).copy()
    top = columns.max(axis=1, initial=0)
    ints = ((top < 10.0**digits) & ~np.signbit(columns).any(axis=1)
            & (columns == np.trunc(columns)).all(axis=1)).tolist()
    words = [(len("%d" % t) - 1) // 4 + 2 if i else 3 + 2 * -(-digits // 4)
             for t, i in zip(top.tolist(), ints)]  # of each column's fields
    ends, text = 4 * np.cumsum(words), []
    cuts = [0, *np.flatnonzero(np.diff(words)) + 1, len(words)]
    step = -(-8192 // max(1, len(ints) - sum(ints)))  # rows of ~8192 floats
    for block in np.split(columns, range(step, columns.shape[1], step), 1):
        out = np.zeros((block.shape[1], ends[-1] + 4), np.uint8)
        slow = np.zeros(block.shape, bool)
        for lo, hi in zip(cuts, cuts[1:]):  # runs of one field size
            field = out[:, ends[lo] - 4 * words[lo]:ends[hi - 1]].view(
                "<u4").reshape(len(out), hi - lo, words[lo]).transpose(1, 0, 2)
            if ints[lo]:  # sep, 4-digit groups from the first nonzero one
                q = block[lo:hi, :, None].astype(np.int64) // 10 ** np.arange(
                    4 * words[lo] - 8, -1, -4)
                field[..., 0], field[..., 1:] = ord(sep), _GROUPS[
                    q - q // 10**4 * 10**4 + 10**4 * (q >= 10**4)] * (
                    (q > 0) | (np.arange(words[lo] - 1) == words[lo] - 2))
            else:
                slow[lo:hi] = _float_fields(block[lo:hi], digits, sep, field)
        out[:, 0], out[:, -4] = 0, ord("\n")
        text.append(out.tobytes().translate(None, b"\0").decode())
        if slow.any():  # the values marked 1
            text[-1] = "%s".join(text[-1].split("\1")) % tuple(
                f"%.{digits}g" % v for v in block.T[slow.T].tolist())
    return "".join(text)


def _lines_in_order(groups: dict, head: dict) -> str:
    """A line "head[key] v0 v1 ..." for every row of the (conn, rows) groups
    (as Mesh.cells), ordered by the rows' positions. The values are counts
    and indices, far below the 2**53 up to which floats hold integers."""
    lines = np.empty(_n_rows(groups), object)
    for key, (conn, rows) in groups.items():
        block = np.insert(conn, 0, head[key], axis=1)
        lines[rows] = _float_rows(block).splitlines(keepends=True)
    return "".join(lines)


def write_mesh(mesh: Mesh) -> str:
    """Serialize a Mesh back to the native ASCII format.

    Coordinates are written with 17 significant digits so that a
    parse -> write -> parse round trip is exact; the point index, a float
    column below 1e16, prints as %d would print it.
    """
    numbered = {kind: (np.column_stack([conn, rows]), rows)
                for kind, (conn, rows) in mesh.cells.items()}
    points = np.column_stack([mesh.points[:, :mesh.dim],
                              np.arange(mesh.n_points)])
    out = [f"NDIME= {mesh.dim}\nNELEM= {mesh.n_elements}\n",
           _lines_in_order(numbered, KIND_TO_CODE),
           f"NPOIN= {mesh.n_points}\n",
           _float_rows(points),
           f"NMARK= {len(mesh.markers)}\n"]
    for name, groups in mesh.markers.items():
        out.append(f"MARKER_TAG= {name}\nMARKER_ELEMS= {_n_rows(groups)}\n")
        out.append(_lines_in_order(groups, KIND_TO_CODE))
    return "".join(out)


# ---------------------------------------------------------------------------
# Legacy VTK writer
# ---------------------------------------------------------------------------

def _vtk_points(title: str, points: np.ndarray) -> str:
    """Legacy ASCII VTK header and POINTS block of (n, 3) points."""
    return (f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {len(points)} double\n"
            + _float_rows(points))


def _vtk_cells(cells: dict, types: dict) -> str:
    """Legacy VTK CELLS and CELL_TYPES blocks; cells map a key to (conn,
    rows) as Mesh.cells does, types map each key to its VTK cell type id."""
    n_cells = _n_rows(cells)
    size = sum(conn.size + len(rows) for conn, rows in cells.values())
    counts = {key: conn.shape[1] for key, (conn, _) in cells.items()}
    typed = {key: (conn[:, :0], rows) for key, (conn, rows) in cells.items()}
    return (f"CELLS {n_cells} {size}\n" + _lines_in_order(cells, counts)
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
                       + _float_rows(values))
        elif values.shape[1:] == (3,):
            out.append(f"VECTORS {name} double\n"
                       + _float_rows(values))
        else:
            raise ValueError(f"field {name!r} must be (n,) or (n, 3)")
    if "vtk_cells" not in mesh.derived:  # the cells do not move
        mesh.derived["vtk_cells"] = _vtk_cells(mesh.cells, KIND_TO_CODE)
    return "".join([_vtk_points(title, mesh.points),
                    mesh.derived["vtk_cells"], *out])
