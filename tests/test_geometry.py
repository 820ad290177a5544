import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshgen import box_hex_mesh, mixed_kind_mesh

from rotormesh.geometry import (CELL_FACES_3D, cell_geometry,
                                faces_area_normal_centroid,
                                orthogonality_metrics)
from rotormesh.kinematics import hinge_matrix
from rotormesh.mesh import Mesh, parse_mesh, write_mesh


def tet_mesh(points):
    return Mesh(3, np.asarray(points, dtype=float),
                {"tetrahedron": ([[0, 1, 2, 3]], [0])})


def test_unit_cube_volume_and_faces(cube_mesh):
    geo = cell_geometry(cube_mesh)
    assert geo.volumes == pytest.approx([1.0])
    assert np.allclose(geo.centroids[0], [0.5, 0.5, 0.5])
    assert np.allclose(geo.face_areas, 1.0)
    assert np.allclose(np.linalg.norm(geo.face_normals, axis=1), 1.0)


def test_unit_right_tet_volume():
    geo = cell_geometry(tet_mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                  (0, 0, 1)]))
    assert geo.volumes[0] == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_inverted_tet_flagged_negative():
    geo = cell_geometry(tet_mesh([(0, 0, 0), (0, 1, 0), (1, 0, 0),
                                  (0, 0, 1)]))
    assert geo.volumes[0] == pytest.approx(-1.0 / 6.0, rel=1e-14)
    report = orthogonality_metrics(
        tet_mesh([(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)]))
    assert report.negative_volume_count == 1
    assert report.min_volume < 0.0


def test_prism_and_pyramid_volumes():
    prism = Mesh(3, np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                              (0, 0, 1), (1, 0, 1), (0, 1, 1)], dtype=float),
                 {"prism": ([[0, 1, 2, 3, 4, 5]], [0])})
    assert cell_geometry(prism).volumes[0] == pytest.approx(0.5, rel=1e-13)

    pyramid = Mesh(3, np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                                (0.5, 0.5, 1.0)], dtype=float),
                   {"pyramid": ([[0, 1, 2, 3, 4]], [0])})
    assert cell_geometry(pyramid).volumes[0] == pytest.approx(1.0 / 3.0,
                                                              rel=1e-13)


def test_2d_triangle_areas(square_mesh):
    geo = cell_geometry(square_mesh)
    assert np.allclose(geo.volumes, [0.5, 0.5])
    # edges: interior diagonal has length sqrt(2)
    assert np.isclose(geo.face_areas[geo.interior], np.sqrt(2.0)).all()


def test_block_volume_sum_matches_analytic(block_mesh):
    geo = cell_geometry(block_mesh)
    assert geo.volumes.sum() == pytest.approx(2.0 * 1.5 * 1.0, rel=1e-10)
    assert np.all(geo.volumes > 0.0)


def test_deformed_block_volume_sum():
    # smooth deformation keeping the boundary fixed: total volume preserved
    mesh = box_hex_mesh(6, 6, 6)
    p = np.array(mesh.points)
    bump = (np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
            * np.sin(np.pi * p[:, 2]))
    moved = p + 0.05 * np.stack([bump, -0.5 * bump, 0.25 * bump], axis=1)
    geo = cell_geometry(mesh.with_points(moved))
    assert geo.volumes.sum() == pytest.approx(1.0, rel=1e-10)


def test_shared_face_normals_antiparallel(block_mesh):
    """Recompute each interior face's normal from both sides; the winding
    rule must make them exactly antiparallel."""
    from rotormesh.geometry import CELL_FACES_3D
    mesh = box_hex_mesh(3, 2, 2)
    rng = np.random.default_rng(3)
    pts = np.array(mesh.points)
    pts += 0.04 * rng.normal(size=pts.shape)  # break planarity
    mesh = mesh.with_points(pts)

    sides: dict[tuple, list[np.ndarray]] = {}
    for verts in mesh.cells["hexahedron"][0]:
        for local in CELL_FACES_3D["hexahedron"]:
            face = verts[list(local)]
            _, normal, _ = faces_area_normal_centroid(
                mesh.points, face[None, :])
            sides.setdefault(tuple(sorted(face.tolist())), []).append(normal)
    shared = [v for v in sides.values() if len(v) == 2]
    assert shared, "expected interior faces"
    for n1, n2 in shared:
        assert np.linalg.norm(n1 + n2) < 1e-12


def test_orthogonality_cartesian(block_mesh):
    report = orthogonality_metrics(block_mesh)
    assert report.min_orthogonality_deg == pytest.approx(90.0, abs=1e-9)
    assert report.negative_volume_count == 0


def test_orthogonality_equilateral_triangles():
    # two equilateral triangles sharing an edge
    h = np.sqrt(3.0) / 2.0
    pts = np.array([(0, 0, 0), (1, 0, 0), (0.5, h, 0), (1.5, h, 0)],
                   dtype=float)
    mesh = Mesh(2, pts, {"triangle": ([[0, 1, 2], [1, 3, 2]], [0, 1])})
    report = orthogonality_metrics(mesh)
    assert report.min_orthogonality_deg == pytest.approx(90.0, abs=1e-9)


def test_orthogonality_sheared_block():
    mesh = box_hex_mesh(4, 4, 4)
    p = np.array(mesh.points)
    p[:, 0] += p[:, 2] * np.tan(np.radians(45.0))
    report = orthogonality_metrics(mesh.with_points(p))
    assert report.min_orthogonality_deg == pytest.approx(45.0, abs=0.5)


def test_orthogonality_rigid_motion_invariant(block_mesh):
    from rotormesh.kinematics import hinge_matrix
    base = orthogonality_metrics(block_mesh)
    rot = hinge_matrix(0.31, -0.82, 1.24)
    moved = block_mesh.with_points(block_mesh.points @ rot.T
                                   + np.array([3.0, -2.0, 0.7]))
    rotated = orthogonality_metrics(moved)
    assert np.allclose(rotated.per_cell_deg, base.per_cell_deg, atol=1e-9)


def test_orthogonality_no_cells():
    mesh = Mesh(2, np.zeros((1, 3)), {})
    with pytest.raises(ValueError, match="no cells"):
        orthogonality_metrics(mesh)


def test_quality_report_invariants(block_mesh):
    report = orthogonality_metrics(block_mesh)
    assert 0.0 <= report.min_orthogonality_deg <= 90.0
    assert report.min_orthogonality_deg == pytest.approx(
        report.per_cell_deg.min())
    assert np.all(report.per_cell_deg >= 0.0)
    assert np.all(report.per_cell_deg <= 90.0 + 1e-12)


# ---------------------------------------------------------------------------
# Face topology built once per connectivity
# ---------------------------------------------------------------------------

MIXED_2D = Mesh(2, np.array([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0),
                             (1, 1, 0), (2, 1, 0)], dtype=float),
                {"triangle": ([[1, 2, 5], [1, 5, 4]], [0, 2]),
                 "quadrilateral": ([[0, 1, 4, 3]], [1])})
TOPOLOGY_MESHES = {"mixed_3d": mixed_kind_mesh(), "mixed_2d": MIXED_2D}


def test_with_points_shares_connectivity_and_topology(block_mesh):
    moved = block_mesh.with_points(block_mesh.points + 0.01)
    assert moved.cells is block_mesh.cells
    assert moved.markers is block_mesh.markers
    cell_geometry(moved)
    assert moved.derived["topology"] is block_mesh.derived["topology"]
    again = moved.with_points(block_mesh.points)
    cell_geometry(again)
    assert again.derived["topology"] is block_mesh.derived["topology"]


def test_mixed_kinds_geometry_in_file_order():
    mesh = mixed_kind_mesh()
    assert mesh.cells["prism"][1].tolist() == [1, 8]
    geo = cell_geometry(mesh)
    for kind, (conn, rows) in mesh.cells.items():
        for verts, pos in zip(conn, rows):
            one = cell_geometry(Mesh(3, mesh.points, {kind: ([verts], [0])}))
            assert geo.volumes[pos] == one.volumes[0]
            assert np.array_equal(geo.centroids[pos], one.centroids[0])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(TOPOLOGY_MESHES)), rigid=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       angles=st.tuples(*[st.floats(-3.2, 3.2)] * 3),
       shift=st.tuples(*[st.floats(-5.0, 5.0)] * 3))
def test_cached_topology_matches_fresh_parse(name, rigid, seed, angles,
                                             shift):
    """Geometry of a with_points copy, whose face topology is the cached
    one of the original mesh, equals bit for bit the geometry of the same
    mesh written out and parsed again, whose topology is built afresh."""
    mesh = TOPOLOGY_MESHES[name]
    cell_geometry(mesh)  # fill the cache before moving
    if rigid:
        rot = hinge_matrix(*angles) if mesh.dim == 3 else \
            hinge_matrix(0.0, angles[0], 0.0)
        points = mesh.points @ rot.T + np.array(shift)
    else:
        rng = np.random.default_rng(seed)
        points = mesh.points + 0.2 * rng.uniform(-1, 1, mesh.points.shape)
    if mesh.dim == 2:
        points[:, 2] = 0.0
    moved = mesh.with_points(points)
    fresh = parse_mesh(write_mesh(moved))
    assert "topology" not in fresh.derived
    got, want = cell_geometry(moved), cell_geometry(fresh)
    for field in ("volumes", "centroids", "face_owner", "face_neighbor",
                  "face_areas", "face_normals", "face_centroids"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


# ---------------------------------------------------------------------------
# Reference: per-cell volumes and centroids, each cell from its own faces
# ---------------------------------------------------------------------------

def _split_cell_faces(idx):
    """(n, ntri, 3) triangles of (n, 3) or (n, 4) faces, split along the
    diagonal through the lowest-numbered vertex."""
    if idx.shape[1] == 3:
        return idx[:, None, :]
    roll = (np.argmin(idx, axis=1)[:, None] + np.arange(4)[None, :]) % 4
    return np.take_along_axis(idx, roll, axis=1)[:, ((0, 1, 2), (0, 2, 3))]


def _tet_volumes_centroids(points, conn):
    a, b, c, d = (points[conn[:, i]] for i in range(4))
    vol = np.einsum("ij,ij->i", b - a, np.cross(c - a, d - a)) / 6.0
    cent = (a + b + c + d) / 4.0
    return vol, cent


def _fan_volumes_centroids(points, conn, face_triangles):
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


def _poly_areas_centroids_2d(points, conn):
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


def reference_volumes_centroids(mesh):
    volumes = np.zeros(mesh.n_elements)
    centroids = np.zeros((mesh.n_elements, 3))
    for kind, (conn, rows) in mesh.cells.items():
        if mesh.dim == 2:
            vol, cent = _poly_areas_centroids_2d(mesh.points, conn)
        elif kind == "tetrahedron":
            vol, cent = _tet_volumes_centroids(mesh.points, conn)
        else:
            vol, cent = _fan_volumes_centroids(
                mesh.points, conn, [_split_cell_faces(conn[:, local])
                                    for local in CELL_FACES_3D[kind]])
        volumes[rows], centroids[rows] = vol, cent
    return volumes, centroids


# Vertex orders that mirror a cell of each kind (negative volume).
MIRRORED = {"tetrahedron": [0, 2, 1, 3], "pyramid": [0, 3, 2, 1, 4],
            "prism": [3, 4, 5, 0, 1, 2],
            "hexahedron": [4, 5, 6, 7, 0, 1, 2, 3],
            "triangle": [0, 2, 1], "quadrilateral": [0, 3, 2, 1]}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(TOPOLOGY_MESHES)),
       seed=st.integers(0, 2**32 - 1),
       shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3))
def test_face_table_geometry_matches_per_cell_reference(name, seed, shift):
    """Volumes and centroids from the unique-face table match the per-cell
    fan, tetrahedron and shoelace formulas on jittered meshes in which a
    random subset of cells is mirrored, however far the mesh is moved from
    the origin."""
    base = TOPOLOGY_MESHES[name]
    rng = np.random.default_rng(seed)
    size = np.ptp(base.points, axis=0).max()
    cells = {kind: (np.where(rng.random((len(conn), 1)) < 0.5,
                             conn[:, MIRRORED[kind]], conn), rows)
             for kind, (conn, rows) in base.cells.items()}
    offset = size * np.array(shift)
    points = base.points + 0.05 * size * rng.uniform(-1, 1, base.points.shape)
    if base.dim == 2:
        points[:, 2] = offset[2] = 0.0
    mesh = Mesh(base.dim, points + offset, cells)

    geo = cell_geometry(mesh)
    # the reference runs on the same points moved back to the origin, where
    # its absolute-coordinate shoelace loses no digits
    want_vol, want_cent = reference_volumes_centroids(
        Mesh(mesh.dim, mesh.points - offset, cells))
    want_cent += offset
    assert np.abs(geo.volumes - want_vol).max() \
        <= 1e-12 * np.abs(want_vol).max()
    assert np.abs(geo.centroids - want_cent).max() \
        <= 1e-12 * (np.linalg.norm(offset) + size)
    assert np.count_nonzero(geo.volumes < 0) == \
        np.count_nonzero(want_vol < 0)


@pytest.mark.parametrize("dim,kind,verts", [
    (3, "hexahedron", [0, 1, 3, 2, 4, 5, 7, 6]),
    (2, "triangle", [0, 1, 2]),
])
def test_face_of_three_cells_rejected(dim, kind, verts):
    """A face can bound at most two cells; the error names the face's
    vertices and every cell that lists it."""
    cube = box_hex_mesh(1, 1, 1)
    mesh = Mesh(dim, cube.points * [1, 1, dim == 3],
                {kind: ([verts] * 3, [0, 1, 2])})
    face = "(0, 1, 2, 3)" if dim == 3 else "(0, 1)"
    with pytest.raises(ValueError, match=rf"face {re.escape(face)} is "
                                         r"shared by cells \[0, 1, 2\]"):
        cell_geometry(mesh)
