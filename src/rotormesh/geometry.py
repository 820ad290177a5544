"""Cell and face geometry plus mesh quality metrics.

Volumes and centroids of general polyhedra come from a tetrahedral fan
decomposition about the cell vertex mean; tetrahedra use the direct
determinant formula. Possibly non-planar quad faces are split along the
diagonal through their lowest-numbered vertex, which makes the split (and
hence areas and normals) identical when a face is visited from either of
its two cells. The face topology depends on connectivity alone, so
cell_geometry builds it once and caches it in mesh.derived, which every
with_points copy shares; each call is then a metric pass over the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

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
    """The connectivity-only part of cell_geometry. Triangles are (n, ntri,
    3) vertex index arrays, quads split as described above."""

    face_owner: np.ndarray     # (nface,)
    face_neighbor: np.ndarray  # (nface,), -1 on the boundary
    # (face ids, (n, 2) edge windings in 2D or triangles in 3D) per face size
    face_groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    # per fan-decomposed 3D kind, the triangles of each local face
    cell_triangles: dict[str, tuple[np.ndarray, ...]]


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


def _split_faces(idx: np.ndarray) -> np.ndarray:
    """(nface, ntri, 3) triangle vertex indices of equal-size faces.

    Quads are rolled to start at their lowest-numbered vertex and split along
    the diagonal through it; triangles pass through unchanged.
    """
    nv = idx.shape[1]
    if nv == 3:
        return idx[:, None, :]
    if nv != 4:
        raise ValueError(f"unsupported face size {nv}")
    roll = (np.argmin(idx, axis=1)[:, None] + np.arange(4)[None, :]) % 4
    return np.take_along_axis(idx, roll, axis=1)[:, ((0, 1, 2), (0, 2, 3))]


def faces_area_normal_centroid(points: np.ndarray, idx: np.ndarray):
    """Area, unit normal, and centroid for a batch of faces, given as (n, 3)
    or (n, 4) vertex indices or as (n, ntri, 3) triangles from _split_faces.

    The unit normal of a quad is the normalized average of its two triangle
    unit normals; the area is the sum of the triangle areas.
    """
    tris = points[idx if idx.ndim == 3 else _split_faces(idx)]
    a, b, c = tris[:, :, 0], tris[:, :, 1], tris[:, :, 2]
    cross = np.cross(b - a, c - a)
    tri_area = 0.5 * np.linalg.norm(cross, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        tri_unit = np.where(tri_area[..., None] > 0.0,
                            0.5 * cross / tri_area[..., None], 0.0)
    area = tri_area.sum(axis=1)
    normal_sum = tri_unit.sum(axis=1)
    nn = np.linalg.norm(normal_sum, axis=-1, keepdims=True)
    normal = np.where(nn > 0.0, normal_sum / np.where(nn > 0.0, nn, 1.0), 0.0)
    tri_centroid = tris.mean(axis=2)
    denom = np.where(area > 0.0, area, 1.0)[:, None]
    centroid = np.where(area[:, None] > 0.0,
                        (tri_centroid * tri_area[..., None]).sum(axis=1) / denom,
                        tris.reshape(len(tris), -1, 3).mean(axis=1))
    return area, normal, centroid


def _edge_metrics(points: np.ndarray, edges: np.ndarray):
    """Length, in-plane unit normal (right of the edge), and midpoint of
    (nface, 2) edges of a planar (z = 0) mesh."""
    a, b = points[edges[:, 0]], points[edges[:, 1]]
    t = b - a
    length = np.linalg.norm(t, axis=1)
    safe = np.where(length > 0.0, length, 1.0)
    normal = np.stack([t[:, 1] / safe, -t[:, 0] / safe, np.zeros(len(t))], 1)
    return length, normal, 0.5 * (a + b)


def _tet_volumes_centroids(points: np.ndarray, conn: np.ndarray):
    a, b, c, d = (points[conn[:, i]] for i in range(4))
    vol = np.einsum("ij,ij->i", b - a, np.cross(c - a, d - a)) / 6.0
    cent = (a + b + c + d) / 4.0
    return vol, cent


def _fan_volumes_centroids(points: np.ndarray, conn: np.ndarray,
                           face_triangles: tuple[np.ndarray, ...]):
    """Signed volume and centroid via tet fans about the cell vertex mean."""
    apex = points[conn].mean(axis=1)
    vol = np.zeros(len(conn))
    moment = np.zeros((len(conn), 3))
    for tri_idx in face_triangles:
        tris = points[tri_idx]
        a, b, c = tris[:, :, 0], tris[:, :, 1], tris[:, :, 2]
        ap = apex[:, None, :]
        tv = np.einsum("nij,nij->ni", a - ap,
                       np.cross(b - ap, c - ap)) / 6.0
        tc = (a + b + c + ap) / 4.0
        vol += tv.sum(axis=1)
        moment += (tv[..., None] * tc).sum(axis=1)
    denom = np.where(vol != 0.0, vol, 1.0)
    cent = np.where(vol[:, None] != 0.0, moment / denom[:, None], apex)
    return vol, cent


def _poly_areas_centroids_2d(points: np.ndarray, conn: np.ndarray):
    """Signed area and centroid of planar (z = 0) polygons."""
    x = points[conn][:, :, 0]
    y = points[conn][:, :, 1]
    xn = np.roll(x, -1, axis=1)
    yn = np.roll(y, -1, axis=1)
    w = x * yn - xn * y
    area = 0.5 * w.sum(axis=1)
    denom = np.where(area != 0.0, area, 1.0)
    cx = ((x + xn) * w).sum(axis=1) / (6.0 * denom)
    cy = ((y + yn) * w).sum(axis=1) / (6.0 * denom)
    mean = points[conn].mean(axis=1)
    cent = np.where(area[:, None] != 0.0,
                    np.stack([cx, cy, np.zeros_like(cx)], axis=1), mean)
    return area, cent


def build_topology(mesh: Mesh) -> Topology:
    """Unique-face table and triangle split of the mesh's connectivity.

    Per face size, every cell-side face is stacked and duplicates are
    identified by their sorted vertex set (lexsort); the first visitor owns
    the face and its stored winding (outward from the owner).
    """
    local_faces = CELL_EDGES_2D if mesh.dim == 2 else CELL_FACES_3D
    owner, neighbor, groups = [], [], []
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
        has_pair = np.diff(np.append(first, len(keys_sorted))) >= 2
        owner.append(cells[order[first]])
        neighbor.append(np.full(len(first), -1, dtype=np.intp))
        neighbor[-1][has_pair] = cells[order[first[has_pair] + 1]]
        ids = np.arange(len(first)) + sum(map(len, owner[:-1]))
        windings = faces[order[first]]
        groups.append((ids, windings if nv == 2 else _split_faces(windings)))
    cell_triangles = {
        kind: tuple(_split_faces(conn[:, local])
                    for local in CELL_FACES_3D[kind])
        for kind, (conn, _) in mesh.cells.items()
        if mesh.dim == 3 and kind != "tetrahedron"}
    return Topology(np.concatenate(owner), np.concatenate(neighbor),
                    tuple(groups), cell_triangles)


def cell_geometry(mesh: Mesh) -> MeshGeometry:
    """Volumes, centroids, and per-face metrics for the whole mesh.

    Negative volumes (inverted cells) are reported, never raised. Faces of
    2D meshes are edges: area = length, normal = in-plane outward normal of
    the owner cell.
    """
    if mesh.n_elements == 0:
        raise ValueError("mesh has no cells")
    if "topology" not in mesh.derived:
        mesh.derived["topology"] = build_topology(mesh)
    topo = mesh.derived["topology"]
    points = mesh.points
    volumes = np.zeros(mesh.n_elements)
    centroids = np.zeros((mesh.n_elements, 3))
    for kind, (conn, ids) in mesh.cells.items():
        if mesh.dim == 2:
            vol, cent = _poly_areas_centroids_2d(points, conn)
        elif kind == "tetrahedron":
            vol, cent = _tet_volumes_centroids(points, conn)
        else:
            vol, cent = _fan_volumes_centroids(points, conn,
                                               topo.cell_triangles[kind])
        volumes[ids], centroids[ids] = vol, cent

    nface = len(topo.face_owner)
    areas = np.zeros(nface)
    normals = np.zeros((nface, 3))
    fcentroids = np.zeros((nface, 3))
    for ids, idx in topo.face_groups:
        areas[ids], normals[ids], fcentroids[ids] = (
            _edge_metrics(points, idx) if mesh.dim == 2
            else faces_area_normal_centroid(points, idx))

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
