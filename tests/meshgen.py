"""Mesh builders shared by the test suite."""

from __future__ import annotations

import numpy as np

from rotormesh.mesh import Mesh

SQUARE_2TRI = """\
% unit square, two triangles
NDIME= 2
NELEM= 2
5 0 1 2 0
5 0 2 3 1
NPOIN= 4
0.0 0.0 0
1.0 0.0 1
1.0 1.0 2
0.0 1.0 3
NMARK= 4
MARKER_TAG= lower
MARKER_ELEMS= 1
3 0 1
MARKER_TAG= right
MARKER_ELEMS= 1
3 1 2
MARKER_TAG= upper
MARKER_ELEMS= 1
3 2 3
MARKER_TAG= left
MARKER_ELEMS= 1
3 3 0
"""


def _hexes(conn):
    """Cells of an all-hexahedron mesh, in file order."""
    return {"hexahedron": (conn, np.arange(len(conn)))}


def _quads(faces):
    """Faces of an all-quadrilateral marker, in marker order."""
    return {"quadrilateral": (np.reshape(faces, (-1, 4)),
                              np.arange(len(faces)))}


def same_groups(a: dict, b: dict) -> bool:
    """Whether two kind -> (conn, rows) mappings hold the same kinds in the
    same order with equal arrays."""
    return list(a) == list(b) and all(
        np.array_equal(a[kind][0], b[kind][0])
        and np.array_equal(a[kind][1], b[kind][1]) for kind in a)


def same_markers(a: Mesh, b: Mesh) -> bool:
    return list(a.markers) == list(b.markers) and all(
        same_groups(a.markers[name], b.markers[name]) for name in a.markers)


def box_hex_mesh(nx: int, ny: int, nz: int, lo=(0.0, 0.0, 0.0),
                 hi=(1.0, 1.0, 1.0), marker_prefix: str = "") -> Mesh:
    """Structured hex block with one marker per side (xmin, xmax, ...)."""
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    zs = np.linspace(lo[2], hi[2], nz + 1)
    pts = np.array([(x, y, z) for z in zs for y in ys for x in xs])

    def pid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    elements = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                elements.append((
                    pid(i, j, k), pid(i + 1, j, k), pid(i + 1, j + 1, k),
                    pid(i, j + 1, k), pid(i, j, k + 1), pid(i + 1, j, k + 1),
                    pid(i + 1, j + 1, k + 1), pid(i, j + 1, k + 1)))

    markers: dict[str, list[tuple[int, ...]]] = {}

    def add(name, face):
        markers.setdefault(marker_prefix + name, []).append(face)

    for k in range(nz):
        for j in range(ny):
            add("xmin", (pid(0, j, k), pid(0, j + 1, k),
                         pid(0, j + 1, k + 1), pid(0, j, k + 1)))
            add("xmax", (pid(nx, j, k), pid(nx, j, k + 1),
                         pid(nx, j + 1, k + 1), pid(nx, j + 1, k)))
    for k in range(nz):
        for i in range(nx):
            add("ymin", (pid(i, 0, k), pid(i + 1, 0, k),
                         pid(i + 1, 0, k + 1), pid(i, 0, k + 1)))
            add("ymax", (pid(i, ny, k), pid(i, ny, k + 1),
                         pid(i + 1, ny, k + 1), pid(i + 1, ny, k)))
    for j in range(ny):
        for i in range(nx):
            add("zmin", (pid(i, j, 0), pid(i, j + 1, 0),
                         pid(i + 1, j + 1, 0), pid(i + 1, j, 0)))
            add("zmax", (pid(i, j, nz), pid(i + 1, j, nz),
                         pid(i + 1, j + 1, nz), pid(i, j + 1, nz)))

    return Mesh(3, pts, _hexes(elements),
                {k: _quads(v) for k, v in markers.items()})


def box_with_plate_mesh(n: int = 12, half: float = 1.8,
                        plate_x=(0.4, 1.4), plate_y=(-0.15, 0.15),
                        plate_z=(-0.05, 0.05)) -> Mesh:
    """Cube [-half, half]^3 of n^3 hexes with a rectangular cavity cut out.

    The cavity walls carry the "blade" marker, the outer box walls the
    "farfield" marker. Grid planes are snapped onto the cavity bounds so
    the cavity is exactly resolved.
    """
    return box_with_plates_mesh(n, half,
                                {"blade": (plate_x, plate_y, plate_z)})


def box_with_plates_mesh(n: int, half: float, plates: dict) -> Mesh:
    """Cube [-half, half]^3 of n^3 hexes with disjoint rectangular cavities.

    plates maps a marker name to the cavity's (x, y, z) bounds; its walls
    carry that marker, in the order given, and the outer box walls the
    "farfield" marker. Grid planes are snapped onto every cavity bound.
    """
    def axis(n_, lo_, hi_, cuts):
        # insert the cut planes, dropping original points that would leave
        # sliver cells next to them
        base = np.linspace(lo_, hi_, n_ + 1)
        h = (hi_ - lo_) / n_
        keep = [p for p in base
                if all(abs(p - c) > 0.3 * h for c in cuts)]
        return np.unique(np.concatenate([keep, list(cuts)]))

    xs, ys, zs = (axis(n, -half, half,
                       [c for bounds in plates.values() for c in bounds[d]])
                  for d in range(3))
    nx, ny, nz = len(xs) - 1, len(ys) - 1, len(zs) - 1
    pts = np.array([(x, y, z) for z in zs for y in ys for x in xs])

    def pid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    def cavity(i, j, k):
        centre = (0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]),
                  0.5 * (zs[k] + zs[k + 1]))
        return next((name for name, bounds in plates.items()
                     if all(lo < c < hi for c, (lo, hi) in
                            zip(centre, bounds))), None)

    elements = []
    removed = set()  # walls are listed in this set's order
    cavity_of = {}
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                name = cavity(i, j, k)
                if name is not None:
                    removed.add((i, j, k))
                    cavity_of[(i, j, k)] = name
                    continue
                elements.append((
                    pid(i, j, k), pid(i + 1, j, k), pid(i + 1, j + 1, k),
                    pid(i, j + 1, k), pid(i, j, k + 1), pid(i + 1, j, k + 1),
                    pid(i + 1, j + 1, k + 1), pid(i, j + 1, k + 1)))
    if set(cavity_of.values()) != set(plates):
        raise ValueError("cavity does not contain any cells; refine the grid")

    walls: dict[str, list[tuple[int, ...]]] = {name: [] for name in plates}
    for (i, j, k) in removed:
        blade = walls[cavity_of[(i, j, k)]]
        if (i - 1, j, k) not in removed:
            blade.append((pid(i, j, k), pid(i, j + 1, k),
                          pid(i, j + 1, k + 1), pid(i, j, k + 1)))
        if (i + 1, j, k) not in removed:
            blade.append((pid(i + 1, j, k), pid(i + 1, j, k + 1),
                          pid(i + 1, j + 1, k + 1), pid(i + 1, j + 1, k)))
        if (i, j - 1, k) not in removed:
            blade.append((pid(i, j, k), pid(i + 1, j, k),
                          pid(i + 1, j, k + 1), pid(i, j, k + 1)))
        if (i, j + 1, k) not in removed:
            blade.append((pid(i, j + 1, k), pid(i, j + 1, k + 1),
                          pid(i + 1, j + 1, k + 1), pid(i + 1, j + 1, k)))
        if (i, j, k - 1) not in removed:
            blade.append((pid(i, j, k), pid(i, j + 1, k),
                          pid(i + 1, j + 1, k), pid(i + 1, j, k)))
        if (i, j, k + 1) not in removed:
            blade.append((pid(i, j, k + 1), pid(i + 1, j, k + 1),
                          pid(i + 1, j + 1, k + 1), pid(i, j + 1, k + 1)))

    farfield: list[tuple[int, ...]] = []
    for k in range(nz):
        for j in range(ny):
            farfield.append((pid(0, j, k), pid(0, j + 1, k),
                             pid(0, j + 1, k + 1), pid(0, j, k + 1)))
            farfield.append((pid(nx, j, k), pid(nx, j, k + 1),
                             pid(nx, j + 1, k + 1), pid(nx, j + 1, k)))
    for k in range(nz):
        for i in range(nx):
            farfield.append((pid(i, 0, k), pid(i + 1, 0, k),
                             pid(i + 1, 0, k + 1), pid(i, 0, k + 1)))
            farfield.append((pid(i, ny, k), pid(i, ny, k + 1),
                             pid(i + 1, ny, k + 1), pid(i + 1, ny, k)))
    for j in range(ny):
        for i in range(nx):
            farfield.append((pid(i, j, 0), pid(i, j + 1, 0),
                             pid(i + 1, j + 1, 0), pid(i + 1, j, 0)))
            farfield.append((pid(i, j, nz), pid(i + 1, j, nz),
                             pid(i + 1, j + 1, nz), pid(i, j + 1, nz)))

    used = np.unique(elements)
    walls["farfield"] = farfield
    return Mesh(3, pts[used], _hexes(np.searchsorted(used, elements)),
                {name: _quads(np.searchsorted(used, faces))
                 for name, faces in walls.items()})


def stacked_interface_mesh(na: int = 4, nb: int = 5) -> Mesh:
    """Two hex blocks sharing the z = 0 plane non-conformally.

    The lower block's top is tessellated na x na (marker iface_a), the
    upper block's bottom nb x nb (marker iface_b); the blocks do not share
    points.
    """
    lower = box_hex_mesh(na, na, 2, lo=(0.0, 0.0, -0.5), hi=(1.0, 1.0, 0.0))
    upper = box_hex_mesh(nb, nb, 2, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 0.5))
    off = lower.n_points
    pts = np.vstack([lower.points, upper.points])
    hexes = np.vstack([lower.cells["hexahedron"][0],
                       upper.cells["hexahedron"][0] + off])
    iface_b = {kind: (conn + off, rows)
               for kind, (conn, rows) in upper.markers["zmin"].items()}
    markers = {"iface_a": lower.markers["zmax"], "iface_b": iface_b}
    return Mesh(3, pts, _hexes(hexes), markers)


def shell_mesh(n_outer: int = 6) -> Mesh:
    """Hex shell between an inner cube (marker inner) and an outer cube."""
    m = box_with_plate_mesh(n=n_outer, half=1.5, plate_x=(-0.5, 0.5),
                            plate_y=(-0.5, 0.5), plate_z=(-0.5, 0.5))
    return Mesh(3, m.points, m.cells,
                {"inner": m.markers["blade"], "outer": m.markers["farfield"]})


def mixed_kind_mesh() -> Mesh:
    """A 2 x 2 x 1 block whose four hex slots hold a hexahedron, two prisms,
    six tetrahedra and six pyramids about an added centre point, so that
    every 3D kind appears; the second prism follows the tetrahedra, so kinds
    interleave in file order."""
    block = box_hex_mesh(2, 2, 1)
    hexes = block.cells["hexahedron"][0].tolist()
    pts = np.vstack([block.points, block.points[hexes[3]].mean(axis=0)])
    apex = len(pts) - 1
    rows: list[tuple[str, list[int]]] = [("hexahedron", hexes[0])]
    h = hexes[1]
    rows.append(("prism", [h[0], h[1], h[2], h[4], h[5], h[6]]))
    second_prism = ("prism", [h[0], h[2], h[3], h[4], h[6], h[7]])
    h = hexes[2]
    rows += [("tetrahedron", [h[0], h[a], h[b], h[6]])
             for a, b in ((1, 2), (2, 3), (3, 7), (7, 4), (4, 5), (5, 1))]
    rows.append(second_prism)
    h = hexes[3]
    rows += [("pyramid", [h[q] for q in face] + [apex])
             for face in ((0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
                          (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7))]
    cells: dict[str, tuple[list, list]] = {}
    for pos, (kind, verts) in enumerate(rows):
        conn, order = cells.setdefault(kind, ([], []))
        conn.append(verts)
        order.append(pos)
    return Mesh(3, pts, cells, {"zmin": block.markers["zmin"]})
