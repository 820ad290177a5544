"""Cell and face geometry plus mesh quality metrics.

Everything comes from the unique-face table (Topology), which depends on
connectivity alone: topology() builds it once and caches it in mesh.derived,
which every with_points copy shares. A 3D face is stored once, rolled to
start at its lowest-numbered vertex a: the fan of triangles (a, b, c) about a,
alike from either of its cells. A pass over cache-sized blocks of faces gives
the face metrics and the cone from each adjacent cell's vertex mean o (not a
global origin, which loses digits far from it), sum_t (a - o).(u x v)_t / 6
with u = b - a, v = c - a, of moment 3/4 (a - o) cone + 1/4 sum_t cone_t
(u + v)_t; cones sum to cell volumes and centroids, negative when mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, MeshFormatError

# Outward-oriented local faces for positively ordered cells.
CELL_FACES_3D = {
    "tetrahedron": ((0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)),
    "hexahedron": ((0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
                   (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)),
    "prism": ((0, 2, 1), (3, 4, 5), (0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5)),
    "pyramid": ((0, 3, 2, 1), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)),
}
CELL_EDGES_2D = {
    "triangle": ((0, 1), (1, 2), (2, 0)),
    "quadrilateral": ((0, 1), (1, 2), (2, 3), (3, 0)),
}


@dataclass(frozen=True)
class Topology:
    """The connectivity-only part of cell_geometry: the unique-face table.

    Each face is stored once, wound outward from its owner, the first cell
    that lists it. neighbor_sign is +1 where the neighbour winds the face
    like the owner, because one of the two cells is mirrored, and -1 where
    it winds it the other way, as two cells of one orientation do, or where
    the face is on the boundary.
    """

    face_owner: np.ndarray     # (nface,)
    face_neighbor: np.ndarray  # (nface,), -1 on the boundary
    neighbor_sign: np.ndarray  # (nface,), +1.0 or -1.0
    # per face size: face ids, and (n, 2) edges or lowest-first (n, nv) faces
    face_groups: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class MeshGeometry:
    """Per-cell (in file order) and per-unique-face geometric data.

    face_owner and face_neighbor (-1 on the boundary) are the arrays of the
    mesh's cached Topology; unit face normals point out of the owner cell.
    Cell volumes are signed (negative = inverted cell), areas non-negative.
    """

    volumes: np.ndarray        # (ncell,)
    centroids: np.ndarray      # (ncell, 3)
    face_owner: np.ndarray     # (nface,)
    face_neighbor: np.ndarray  # (nface,), -1 on the boundary
    face_areas: np.ndarray     # (nface,)
    face_normals: np.ndarray   # (nface, 3)
    face_centroids: np.ndarray  # (nface, 3)

    @property
    def n_cells(self) -> int:
        return len(self.volumes)

    @property
    def interior(self) -> np.ndarray:
        return self.face_neighbor >= 0


@dataclass(frozen=True)
class QualityReport:
    """Worst orthogonality angle and volume summary of a mesh."""

    min_orthogonality_deg: float
    negative_volume_count: int
    min_volume: float


def _lowest_first(faces: np.ndarray) -> np.ndarray:
    """(nface, nv) faces rolled to start at their lowest-numbered vertex."""
    nv = faces.shape[1]
    roll = (np.argmin(faces, axis=1)[:, None] + np.arange(nv)) % nv
    return np.take_along_axis(faces, roll, axis=1)


def build_topology(mesh: Mesh) -> Topology:
    """Unique-face table of the mesh's connectivity.

    Per face size, every cell-side face is stacked and duplicates are
    identified by their sorted vertex set (lexsort); the first visitor owns
    the face and its stored winding (outward from the owner), a 3D face
    rolled to start at its lowest-numbered vertex. A mesh with no cells, or
    a face listed by more than two cells, raises MeshFormatError, a ValueError.
    """
    if mesh.n_elements == 0:
        raise MeshFormatError("mesh has no cells")
    local_faces = CELL_EDGES_2D if mesh.dim == 2 else CELL_FACES_3D
    owner, neighbor, sign, groups = [], [], [], []
    for nv in ((2,) if mesh.dim == 2 else (3, 4)):
        blocks = [(conn[:, local], rows)
                  for kind, (conn, rows) in mesh.cells.items()
                  for local in local_faces[kind] if len(local) == nv]
        if not blocks:
            continue
        faces, cells = (np.concatenate(parts) for parts in zip(*blocks))
        keys = np.sort(faces, axis=1)
        order = np.lexsort(keys.T[::-1])
        keys_sorted = keys[order]
        new_group = np.ones(len(keys_sorted), dtype=bool)
        new_group[1:] = np.any(keys_sorted[1:] != keys_sorted[:-1], axis=1)
        first = np.flatnonzero(new_group)
        count = np.diff(np.append(first, len(keys_sorted)))
        if np.any(count > 2):
            g = np.argmax(count > 2)
            shared = np.sort(cells[order[first[g]:first[g] + count[g]]])
            raise MeshFormatError(
                f"face {tuple(keys_sorted[first[g]].tolist())} is shared by "
                f"cells {shared.tolist()}; a face bounds at most two cells")
        paired = count == 2  # then the next visitor is the neighbour
        one, two = order[first], order[np.minimum(first + 1, len(order) - 1)]
        owner.append(cells[one])
        neighbor.append(np.where(paired, cells[two], -1))
        # the two cells wind a face alike when the vertex after its lowest
        # is the same for both (for an edge, its first vertex)
        own, other = faces[one], faces[two]
        if nv > 2:
            own, other = _lowest_first(own), _lowest_first(other)
        alike = own[:, 1] == other[:, 1]
        sign.append(np.where(paired & alike, 1.0, -1.0))
        ids = np.arange(len(first)) + sum(map(len, owner[:-1]))
        groups.append((ids, own))
    return Topology(np.concatenate(owner), np.concatenate(neighbor),
                    np.concatenate(sign), tuple(groups))


def topology(mesh: Mesh) -> Topology:
    """The mesh's face table, built on first use and cached in mesh.derived,
    which every with_points copy shares."""
    if "topology" not in mesh.derived:
        mesh.derived["topology"] = build_topology(mesh)
    return mesh.derived["topology"]


def _face_group(coords: np.ndarray, idx: np.ndarray, origin: np.ndarray,
                sides: np.ndarray):
    """Areas, unit normals and centroids of a block of faces, and the volume
    and moment about o of the cone from the origin o of each of their (nf,
    side) cells; idx holds (nf, 2) edges or lowest-first (nf, nv) faces."""
    p = coords.take(idx.T, axis=1)  # (3, nv, nf), contiguous per coordinate
    o = origin.take(sides, axis=1)  # (3, nf, side)
    if idx.shape[1] == 2:
        a, b = p[:, 0], p[:, 1]
        t = b - a
        area = np.linalg.norm(t, axis=0)
        normal = np.stack([t[1], -t[0], 0.0 * t[0]]) \
            / np.where(area > 0.0, area, 1.0)  # right of the edge
        ra, rb = a[..., None] - o, b[..., None] - o
        vol = (ra[0] * rb[1] - ra[1] * rb[0]) / 2.0
        return area, normal, 0.5 * (a + b), vol, \
            vol * ((a + b)[..., None] - 2.0 * o) / 3.0
    a, b, c = p[:, 0], p[:, 1:-1], p[:, 2:]  # fan about a: b, c (3, tri, nf)
    u, v = b - a[:, None], c - a[:, None]
    cross = np.stack([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                      u[0] * v[1] - u[1] * v[0]])
    twice = np.linalg.norm(cross, axis=0)  # twice the triangle areas
    area = 0.5 * twice.sum(axis=0)
    normal = np.divide(cross, twice, out=np.zeros_like(cross),
                       where=twice > 0.0).sum(axis=1)
    nn = np.linalg.norm(normal, axis=0)
    normal = np.divide(normal, nn, out=np.zeros_like(normal), where=nn > 0.0)
    w = u + v  # 3 (triangle centroid - a)
    centroid = a + np.divide((0.5 * twice * w).sum(axis=1), 3.0 * area,
                             out=w.mean(axis=1) / 3.0, where=area > 0.0)
    d = a[..., None] - o  # (3, nf, side)
    cone = (d[0] * cross[0, ..., None] + d[1] * cross[1, ..., None]
            + d[2] * cross[2, ..., None]) / 6.0  # (tri, nf, side)
    vol = cone.sum(axis=0)
    moment = np.stack([(cone * wk[..., None]).sum(axis=0) for wk in w])
    return area, normal, centroid, vol, (3.0 * d * vol + moment) / 4.0


def cell_geometry(mesh: Mesh) -> MeshGeometry:
    """Volumes, centroids, and per-face metrics for the whole mesh.

    Negative volumes (inverted cells) are reported, never raised. Faces of
    2D meshes are edges: area = length, normal = in-plane outward normal of
    the owner cell. A cell's terms are summed in face order whatever its
    neighbours, so its volume and centroid do not depend on them.
    """
    topo = topology(mesh)
    n, coords = mesh.n_elements, np.ascontiguousarray(mesh.points.T)
    origin = np.zeros((3, n + 1))  # column n takes the boundary's missing side
    for conn, rows in mesh.cells.values():  # the mean of the corner columns
        origin[:, rows] = coords.take(conn.T, axis=1).sum(axis=1) / len(conn.T)
    cells = np.stack([topo.face_owner, topo.face_neighbor], axis=1)
    cells[cells < 0] = n

    nface = len(cells)
    areas, (normals, fcentroids) = np.empty(nface), np.empty((2, 3, nface))
    terms = np.empty((4, nface, 2))  # volume and moment of either side
    for ids, idx in topo.face_groups:  # ids run on from group to group
        for lo in range(0, len(ids), 4096):  # a block's temporaries fit cache
            block = idx[lo:lo + 4096]
            at = slice(ids[lo], ids[lo] + len(block))
            areas[at], normals[:, at], fcentroids[:, at], terms[0, at], \
                terms[1:, at] = _face_group(coords, block, origin, cells[at])
    terms[..., 1] *= topo.neighbor_sign

    cells = cells.ravel()  # face by face, so each cell sums in face order
    volumes, *moment = (np.bincount(cells, t.ravel(), minlength=n + 1)[:n]
                        for t in terms)
    moment = np.divide(moment, volumes, out=np.zeros((3, n)),
                       where=volumes != 0.0)
    return MeshGeometry(volumes, (origin[:, :n] + moment).T.copy(),
                        topo.face_owner, topo.face_neighbor, areas,
                        normals.T.copy(), fcentroids.T.copy())


def orthogonality_metrics(mesh: Mesh,
                          geometry: MeshGeometry | None = None) -> QualityReport:
    """Minimum orthogonality angle, inverted-cell count and smallest signed
    volume. Per face, the angle is 90 degrees minus the angle between the
    face normal and the line joining the adjacent cell centroids (the line
    from cell centroid to face centroid on the boundary); 90 is ideal, and
    the report keeps the minimum over all faces (NaN if any is NaN).
    """
    geo = geometry if geometry is not None else cell_geometry(mesh)
    # from the owner's centroid to the neighbour's, or to the face centroid
    inner = geo.interior
    ends = np.concatenate([geo.centroids.T, geo.face_centroids.T], axis=1)
    far = np.where(inner, geo.face_neighbor,
                   geo.n_cells + np.arange(len(inner)))
    d = ends.take(far, axis=1) - ends.take(geo.face_owner, axis=1)
    dot, dn = (geo.face_normals.T * d).sum(axis=0), np.linalg.norm(d, axis=0)
    cosang = np.abs(dot) / np.where(dn > 0.0, dn, 1.0)
    theta = 90.0 - np.degrees(np.arccos(np.clip(cosang, 0.0, 1.0)))
    return QualityReport(
        min_orthogonality_deg=float(theta.min(initial=90.0)),
        negative_volume_count=int(np.count_nonzero(geo.volumes < 0.0)),
        min_volume=float(geo.volumes.min()),
    )
