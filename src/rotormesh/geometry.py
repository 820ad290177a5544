"""Cell and face geometry plus mesh quality metrics.

Everything comes from the unique-face table (Topology), which depends on
connectivity alone: topology() builds it once and caches it in mesh.derived,
which every with_points copy shares. A 3D face is stored once, rolled to
start at its lowest-numbered vertex, and is the fan of triangles about that
vertex, alike from either of its cells; triangles and quads take one path,
the quad's two triangles sharing the diagonal through it. One face pass
gives the face metrics and, for both cells of each face, the cone from the
cell's vertex mean (not a global origin, which loses digits far from it) to
the face; cones sum to cell volumes and centroids. Mirrored cells get
negative volume; a face shared by more than two cells is rejected.
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
    """Orthogonality and volume quality summary of a mesh."""

    min_orthogonality_deg: float
    per_cell_deg: np.ndarray
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


def _face_group(coords: np.ndarray, idx: np.ndarray, o: np.ndarray):
    """Areas, unit normals and centroids of a face group, and the volume and
    first moment about o of the cone from each side's cell origin o to each
    face, stacked as (4, side, nf). idx holds (nf, 2) edges in 2D and
    lowest-vertex-first (nf, nv) faces in 3D; vectors come first, o as
    (3, side, nf)."""
    p = coords[:, idx.T]  # (3, nv, nf)
    if idx.shape[1] == 2:
        a, b = p[:, 0], p[:, 1]
        t = b - a
        area = np.linalg.norm(t, axis=0)
        normal = np.stack([t[1], -t[0], 0.0 * t[0]]) \
            / np.where(area > 0.0, area, 1.0)  # right of the edge
        ra, rb = a[:, None] - o, b[:, None] - o
        vol = (ra[0] * rb[1] - ra[1] * rb[0]) / 2.0
        moment = vol * ((a + b)[:, None] - 2.0 * o) / 3.0
        return area, normal, 0.5 * (a + b), np.vstack([vol[None], moment])
    a, b, c = p[:, :1], p[:, 1:-1], p[:, 2:]  # fan triangles (3, tri, nf)
    u, v = b - a, c - a
    cross = np.stack([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                      u[0] * v[1] - u[1] * v[0]])
    del u, v  # face-sized: freed before the next temporaries
    tri_area = 0.5 * np.linalg.norm(cross, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        tri_unit = np.where(tri_area > 0.0, 0.5 * cross / tri_area, 0.0)
    # area: the sum of the triangle areas; unit normal: the normalized sum
    # of the triangle unit normals; centroid: area-weighted
    area = tri_area.sum(axis=0)
    normal_sum = tri_unit.sum(axis=1)
    nn = np.linalg.norm(normal_sum, axis=0)
    normal = np.where(nn > 0.0, normal_sum / np.where(nn > 0.0, nn, 1.0), 0.0)
    tri_centroid = (a + b + c) / 3.0
    centroid = np.where(area > 0.0, (tri_centroid * tri_area).sum(axis=1)
                        / np.where(area > 0.0, area, 1.0),
                        tri_centroid.mean(axis=1))
    o = o[:, :, None]
    cone = ((a[:, None] - o) * cross[:, None]).sum(axis=0) / 6.0
    moment = (cone * ((a + (b + c))[:, None] - 3.0 * o) / 4.0).sum(axis=2)
    return area, normal, centroid, np.vstack([cone.sum(axis=1)[None], moment])


def cell_geometry(mesh: Mesh) -> MeshGeometry:
    """Volumes, centroids, and per-face metrics for the whole mesh.

    Negative volumes (inverted cells) are reported, never raised. Faces of
    2D meshes are edges: area = length, normal = in-plane outward normal of
    the owner cell. A cell's terms are summed in face order whatever its
    neighbours, so its volume and centroid do not depend on them.
    """
    topo = topology(mesh)
    n, coords = mesh.n_elements, mesh.points.T
    origin = np.zeros((n + 1, 3))  # row n takes the boundary's missing side
    for conn, rows in mesh.cells.values():
        origin[rows] = mesh.points[conn].mean(axis=1)
    cells = np.stack([topo.face_owner, topo.face_neighbor])
    cells[cells < 0] = n
    sign = np.stack([np.ones_like(topo.neighbor_sign), topo.neighbor_sign])

    parts = []  # per face group: areas, normals, centroids, side terms
    for ids, idx in topo.face_groups:  # ids run on from group to group
        area, normal, centroid, terms = _face_group(
            coords, idx, origin.T[:, cells[:, ids]])
        parts.append((area, normal.T, centroid.T, (terms * sign[:, ids]).T))
    areas, normals, fcentroids, terms = map(np.concatenate, zip(*parts))

    sums = np.bincount((4 * cells.T[..., None] + np.arange(4)).ravel(),
                       terms.ravel(), minlength=4 * (n + 1)).reshape(-1, 4)
    volumes = sums[:n, 0]
    centroids = origin[:n] + np.divide(sums[:n, 1:], volumes[:, None],
                                       out=np.zeros((n, 3)),
                                       where=volumes[:, None] != 0.0)
    return MeshGeometry(volumes, centroids, topo.face_owner,
                        topo.face_neighbor, areas, normals, fcentroids)


def orthogonality_metrics(mesh: Mesh,
                          geometry: MeshGeometry | None = None) -> QualityReport:
    """Orthogonality-angle quality report.

    Per face, the angle is 90 degrees minus the angle between the face
    normal and the line joining the adjacent cell centroids (the line from
    cell centroid to face centroid on the boundary). A cell's value is the
    minimum over its faces; 90 is ideal.
    """
    geo = geometry if geometry is not None else cell_geometry(mesh)
    d = np.where((geo.face_neighbor >= 0)[:, None],
                 geo.centroids[geo.face_neighbor] - geo.centroids[geo.face_owner],
                 geo.face_centroids - geo.centroids[geo.face_owner])
    dn = np.linalg.norm(d, axis=1)
    dn = np.where(dn > 0.0, dn, 1.0)
    cosang = np.abs(np.einsum("ij,ij->i", geo.face_normals, d) / dn)
    theta = 90.0 - np.degrees(np.arccos(np.clip(cosang, 0.0, 1.0)))

    per_cell = np.full(geo.n_cells, 90.0)
    np.minimum.at(per_cell, geo.face_owner, theta)
    interior = geo.interior
    np.minimum.at(per_cell, geo.face_neighbor[interior], theta[interior])

    return QualityReport(
        min_orthogonality_deg=float(per_cell.min()),
        per_cell_deg=per_cell,
        negative_volume_count=int(np.count_nonzero(geo.volumes < 0.0)),
        min_volume=float(geo.volumes.min()),
    )
