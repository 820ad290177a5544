import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshgen import box_hex_mesh, mixed_kind_mesh

from rotormesh.geometry import (CELL_EDGES_2D, CELL_FACES_3D, cell_geometry,
                                orthogonality_metrics, topology)
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


def reference_face(points, face):
    """Area, unit normal and centroid of one face, given by its vertex
    indices in the order a cell lists them, one triangle at a time.

    An edge (2D) has its length, the unit normal to its right and its
    midpoint. A polygon is the fan of triangles about its lowest-numbered
    vertex: area = the sum of the triangle areas, unit normal = the
    normalized sum of the unit normals of the triangles with area (zero if
    none has), centroid = the area-weighted triangle centroids (their plain
    mean if the face has no area).
    """
    if len(face) == 2:
        a, b = points[face]
        length = np.linalg.norm(b - a)
        return length, np.array([b[1] - a[1], a[0] - b[0], 0.0]) / length, \
            (a + b) / 2.0
    a, *rest = points[np.roll(face, -np.argmin(face))]
    area, normal, moment, centroids = 0.0, np.zeros(3), np.zeros(3), []
    for b, c in zip(rest[:-1], rest[1:]):
        cross = np.cross(b - a, c - a)
        tri_area = np.linalg.norm(cross) / 2.0
        area += tri_area
        if tri_area > 0.0:
            normal += cross / (2.0 * tri_area)
        moment += tri_area * (a + b + c) / 3.0
        centroids.append((a + b + c) / 3.0)
    length = np.linalg.norm(normal)
    return area, normal / length if length > 0.0 else normal, \
        moment / area if area > 0.0 else np.mean(centroids, axis=0)


def reference_faces(mesh):
    """reference_face of every unique face as its owner cell lists it, as
    (area, normal, centroid) arrays in face-table order."""
    local_faces = CELL_EDGES_2D if mesh.dim == 2 else CELL_FACES_3D
    listed = {(pos, tuple(sorted(face.tolist()))): face
              for kind, (conn, rows) in mesh.cells.items()
              for verts, pos in zip(conn, rows.tolist())
              for face in (verts[list(local)] for local in local_faces[kind])}
    topo = topology(mesh)
    vertex_set = {}  # face id -> sorted vertices, from the face table
    for ids, idx in topo.face_groups:
        vertex_set.update(zip(ids.tolist(), map(tuple, np.sort(idx).tolist())))
    assert len(vertex_set) == len(topo.face_owner)
    return map(np.array, zip(*(
        reference_face(mesh.points, listed[owner, vertex_set[f]])
        for f, owner in enumerate(topo.face_owner.tolist()))))


def test_shared_face_normals_antiparallel():
    """Recompute each interior face's normal from both sides; the winding
    rule must make them exactly antiparallel."""
    mesh = box_hex_mesh(3, 2, 2)
    rng = np.random.default_rng(3)
    pts = np.array(mesh.points)
    pts += 0.04 * rng.normal(size=pts.shape)  # break planarity
    mesh = mesh.with_points(pts)

    sides: dict[tuple, list[np.ndarray]] = {}
    for verts in mesh.cells["hexahedron"][0]:
        for local in CELL_FACES_3D["hexahedron"]:
            face = verts[list(local)]
            _, normal, _ = reference_face(mesh.points, face)
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
    assert np.isclose(rotated.min_orthogonality_deg,
                      base.min_orthogonality_deg, atol=1e-9)


def test_orthogonality_no_cells():
    mesh = Mesh(2, np.zeros((1, 3)), {})
    with pytest.raises(ValueError, match="no cells"):
        orthogonality_metrics(mesh)


def test_quality_report_invariants(block_mesh):
    report = orthogonality_metrics(block_mesh)
    assert 0.0 <= report.min_orthogonality_deg <= 90.0
    assert report.min_volume == cell_geometry(block_mesh).volumes.min() > 0.0
    assert report.negative_volume_count == 0


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


def jittered_mesh(name, seed, shift):
    """TOPOLOGY_MESHES[name] with its points jittered, a random subset of
    its cells mirrored, and moved by shift times its size; with the offset
    and the size."""
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
    return Mesh(base.dim, points + offset, cells), offset, size


JITTERED = dict(name=st.sampled_from(sorted(TOPOLOGY_MESHES)),
                seed=st.integers(0, 2**32 - 1),
                shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3))


@settings(max_examples=60, deadline=None)
@given(**JITTERED)
def test_face_table_geometry_matches_per_cell_reference(name, seed, shift):
    """Volumes and centroids from the unique-face table match the per-cell
    fan, tetrahedron and shoelace formulas on jittered meshes in which a
    random subset of cells is mirrored, however far the mesh is moved from
    the origin."""
    mesh, offset, size = jittered_mesh(name, seed, shift)
    geo = cell_geometry(mesh)
    # the reference runs on the same points moved back to the origin, where
    # its absolute-coordinate shoelace loses no digits
    want_vol, want_cent = reference_volumes_centroids(
        Mesh(mesh.dim, mesh.points - offset, mesh.cells))
    want_cent += offset
    assert np.abs(geo.volumes - want_vol).max() \
        <= 1e-12 * np.abs(want_vol).max()
    assert np.abs(geo.centroids - want_cent).max() \
        <= 1e-12 * (np.linalg.norm(offset) + size)
    assert np.count_nonzero(geo.volumes < 0) == \
        np.count_nonzero(want_vol < 0)


@settings(max_examples=60, deadline=None)
@given(**JITTERED)
def test_face_metrics_match_per_face_reference(name, seed, shift):
    """Every unique face's area, unit normal and centroid match
    reference_face of the face as its owner cell lists it, on the meshes
    of the volume test above."""
    mesh, offset, size = jittered_mesh(name, seed, shift)
    geo = cell_geometry(mesh)
    area, normal, centroid = reference_faces(mesh)
    assert np.abs(geo.face_areas - area).max() <= 1e-12 * area.max()
    assert np.abs(geo.face_normals - normal).max() <= 1e-12
    assert np.abs(geo.face_centroids - centroid).max() \
        <= 1e-12 * (np.linalg.norm(offset) + size)


UNIT_HEX = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                     (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], dtype=float)


@pytest.mark.parametrize("moved,zero_faces", [
    # vertex 3 on the diagonal 0-2 of the bottom face (0, 3, 2, 1): its fan
    # triangle (0, 3, 2) has no area, the face keeps that of (0, 2, 1)
    ({3: (0.5, 0.5, 0.0)}, 0),
    # the top face (4, 5, 6, 7) collapsed onto the segment 4-5, so the cell
    # is a prism: that face has no area and triangle centroids (2/3, .5, 1)
    # and (1/3, .5, 1); the side faces (1, 2, 6, 5) and (3, 0, 4, 7) have
    # one zero-area fan triangle each
    ({4: (0.0, 0.5, 1.0), 5: (1.0, 0.5, 1.0), 6: (1.0, 0.5, 1.0),
      7: (0.0, 0.5, 1.0)}, 1),
])
def test_degenerate_faces_match_reference(moved, zero_faces):
    """A zero-area fan triangle adds nothing to its face's normal; a face
    with no area has a zero normal and the plain mean of its triangle
    centroids as centroid. The kernel gets there without a floating-point
    warning, and its volumes and centroids match the per-cell fans."""
    points = UNIT_HEX.copy()
    for k, xyz in moved.items():
        points[k] = xyz
    mesh = Mesh(3, points, {"hexahedron": ([list(range(8))], [0])})
    with np.errstate(divide="raise", invalid="raise", over="raise"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        geo = cell_geometry(mesh)
    area, normal, centroid = reference_faces(mesh)
    assert np.count_nonzero(geo.face_areas == 0.0) == zero_faces
    assert np.abs(geo.face_areas - area).max() <= 1e-15
    assert np.abs(geo.face_normals - normal).max() <= 1e-15
    assert np.array_equal(np.linalg.norm(geo.face_normals, axis=1) > 0.0,
                          area > 0.0)
    assert np.abs(geo.face_centroids - centroid).max() <= 1e-15
    want_vol, want_cent = reference_volumes_centroids(mesh)
    assert geo.volumes == pytest.approx(want_vol, rel=1e-14)
    assert np.abs(geo.centroids - want_cent).max() <= 1e-15


def reference_orthogonality(mesh):
    """Minimum orthogonality angle (degrees), one face at a time: cell
    centroids from reference_volumes_centroids, each face's normal and
    centroid from reference_face of the face as its first cell lists it."""
    _, cell_centroids = reference_volumes_centroids(mesh)
    local_faces = CELL_EDGES_2D if mesh.dim == 2 else CELL_FACES_3D
    sides = {}  # sorted vertices -> [(cell, face as the cell lists it)]
    for kind, (conn, rows) in mesh.cells.items():
        for verts, pos in zip(conn, rows.tolist()):
            for local in local_faces[kind]:
                face = verts[list(local)]
                sides.setdefault(tuple(sorted(face.tolist())), []).append(
                    (pos, face))
    worst = 90.0
    for (owner, face), *other in sides.values():
        _, normal, face_centroid = reference_face(mesh.points, face)
        far = cell_centroids[other[0][0]] if other else face_centroid
        d = far - cell_centroids[owner]
        cosang = min(abs(normal @ d) / np.linalg.norm(d), 1.0)
        worst = min(worst, 90.0 - np.degrees(np.arccos(cosang)))
    return worst


@pytest.mark.thorough
@settings(max_examples=max(40, settings.default.max_examples // 5),
          deadline=None)
@given(**JITTERED)
def test_orthogonality_matches_per_face_reference(name, seed, shift):
    """The minimum orthogonality angle of the jittered, partly mirrored,
    moved 2D and 3D meshes matches the per-face loop's within 1e-9
    degrees; the volume summary is that of the cell volumes."""
    mesh, offset, size = jittered_mesh(name, seed, shift)
    report = orthogonality_metrics(mesh)
    # angles do not depend on where the mesh is; the reference runs at the
    # origin, where its shoelace loses no digits
    at_origin = Mesh(mesh.dim, mesh.points - offset, mesh.cells)
    want = reference_orthogonality(at_origin)
    assert abs(report.min_orthogonality_deg - want) <= 1e-9
    volumes = cell_geometry(mesh).volumes
    want_vol, _ = reference_volumes_centroids(at_origin)
    assert report.negative_volume_count == np.count_nonzero(volumes < 0) \
        == np.count_nonzero(want_vol < 0)
    assert report.min_volume == volumes.min()
    assert abs(report.min_volume - want_vol.min()) \
        <= 1e-12 * np.abs(want_vol).max()


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
