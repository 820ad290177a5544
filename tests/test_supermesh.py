import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from meshgen import stacked_interface_mesh

from rotormesh.supermesh import (InterfaceFaceSet, build_supermesh,
                                 clip_convex, ensure_ccw, fit_cylinder_z,
                                 interface_from_markers, polygon_area,
                                 signed_area, triangulate, weighted_exchange)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def quad_grid(xs):
    """Quads of the tensor grid with breakpoints xs in both directions."""
    n = len(xs) - 1
    faces = []
    for j in range(n):
        for i in range(n):
            faces.append(np.array([[xs[i], xs[j]], [xs[i + 1], xs[j]],
                                   [xs[i + 1], xs[j + 1]],
                                   [xs[i], xs[j + 1]]]))
    return tuple(faces)


def grid_faces(n, lo=0.0, hi=1.0):
    return quad_grid(np.linspace(lo, hi, n + 1))


def grid_centroids(n, lo=0.0, hi=1.0):
    xs = np.linspace(lo, hi, n + 1)
    c = 0.5 * (xs[:-1] + xs[1:])
    return np.array([(ci, cj) for cj in c for ci in c])


# ---------------------------------------------------------------------------
# Polygon primitives
# ---------------------------------------------------------------------------

def test_polygon_area_basics():
    assert polygon_area(SQUARE) == 1.0
    tri = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    assert polygon_area(tri) == 0.5
    collinear = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
    assert polygon_area(collinear) == 0.0


def test_clip_identical_squares():
    out = clip_convex(SQUARE, SQUARE)
    assert polygon_area(out) == pytest.approx(1.0, abs=1e-12)


def test_clip_shifted_square():
    out = clip_convex(SQUARE, SQUARE + [0.5, 0.0])
    assert polygon_area(out) == pytest.approx(0.5, abs=1e-12)
    assert out[:, 0].min() == pytest.approx(0.5)
    assert out[:, 0].max() == pytest.approx(1.0)


def test_clip_disjoint():
    out = clip_convex(SQUARE, SQUARE + [3.0, 0.0])
    assert out.shape == (0, 2)


def test_clip_result_ccw_with_cw_inputs():
    out = clip_convex(SQUARE[::-1], (SQUARE + [0.25, 0.25])[::-1])
    assert signed_area(out) > 0.0
    assert polygon_area(out) == pytest.approx(0.5625, abs=1e-12)


def test_clip_rejects_nonconvex():
    chevron = np.array([[0, 0], [2, 0], [1, 0.25], [2, 1], [0, 1]],
                       dtype=float)
    with pytest.raises(ValueError, match="convex"):
        clip_convex(chevron, SQUARE)


def test_clip_contained_vertices_and_edge_points():
    small = 0.5 * SQUARE + [0.75, 0.25]  # pokes out of the unit square
    out = clip_convex(SQUARE, small)
    assert polygon_area(out) == pytest.approx(0.25 * 0.5, abs=1e-12)
    assert out[:, 0].max() <= 1.0 + 1e-12


def test_triangulate_triangle_identity():
    tri = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    tris = triangulate(tri)
    assert tris.shape == (1, 3, 2)
    assert np.allclose(tris[0], tri)


def test_triangulate_square():
    tris = triangulate(SQUARE)
    assert tris.shape == (2, 3, 2)
    areas = [polygon_area(t) for t in tris]
    assert areas == pytest.approx([0.5, 0.5])


def test_triangulate_hexagon():
    ang = np.pi / 3.0 * np.arange(6)
    hexagon = np.column_stack([np.cos(ang), np.sin(ang)])
    tris = triangulate(hexagon)
    assert len(tris) == 4
    total = sum(polygon_area(t) for t in tris)
    assert total == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-12)
    assert total == pytest.approx(polygon_area(hexagon), rel=1e-12)


def test_triangulate_too_few_vertices():
    with pytest.raises(ValueError, match="3 vertices"):
        triangulate(np.array([[0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# Supermesh construction
# ---------------------------------------------------------------------------

def test_identity_interface():
    side = InterfaceFaceSet("A", (SQUARE,))
    sm = build_supermesh(side, InterfaceFaceSet("B", (SQUARE,)))
    assert len(sm.area) == 1
    assert sm.weights.data[0] == pytest.approx(1.0, abs=1e-12)
    assert sm.total_area == pytest.approx(1.0, abs=1e-12)


def test_two_half_squares():
    halves = (np.array([[0, 0], [0.5, 0], [0.5, 1], [0, 1]], dtype=float),
              np.array([[0.5, 0], [1, 0], [1, 1], [0.5, 1]], dtype=float))
    sm = build_supermesh(InterfaceFaceSet("A", (SQUARE,)),
                         InterfaceFaceSet("B", halves))
    assert len(sm.area) == 2
    weights = sorted(sm.weights.data)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-12)
    out = weighted_exchange(sm, np.array([3.0, 5.0]))
    assert out[0] == pytest.approx(4.0, abs=1e-12)


def test_grid_4x4_vs_5x5():
    sm = build_supermesh(InterfaceFaceSet("A", grid_faces(4)),
                         InterfaceFaceSet("B", grid_faces(5)))
    sums = sm.weight_sums()
    assert np.abs(sums - 1.0).max() < 1e-9
    assert sm.total_area == pytest.approx(1.0, abs=1e-9)
    donors = np.diff(sm.weights.indptr)
    assert donors.min() >= 1 and donors.max() <= 4
    assert np.count_nonzero(1.0 - sums > 1e-9) == 0


def test_partial_coverage_reported_not_renormalized():
    small_b = (np.array([[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5]],
                        dtype=float),)
    sm = build_supermesh(InterfaceFaceSet("A", (SQUARE,)),
                         InterfaceFaceSet("B", small_b))
    assert sm.weight_sums()[0] == pytest.approx(0.25, abs=1e-12)
    assert 1.0 - sm.weight_sums()[0] == pytest.approx(0.75, abs=1e-12)


def test_empty_face_set_rejected():
    with pytest.raises(ValueError, match="no faces"):
        InterfaceFaceSet("A", ())


def test_zero_area_face_rejected():
    degenerate = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    with pytest.raises(ValueError, match="zero-area"):
        InterfaceFaceSet("A", (degenerate,))


def test_inconsistent_orientation_warns_and_reorients():
    faces = list(grid_faces(2))
    faces[3] = faces[3][::-1]  # one face wound against its side's majority
    with pytest.warns(UserWarning, match="reorient"):
        sm = build_supermesh(InterfaceFaceSet("A", tuple(faces)),
                             InterfaceFaceSet("B", (SQUARE,)))
    assert np.allclose(sm.weight_sums(), 1.0, atol=1e-12)


def test_globally_flipped_side_normalized_silently(recwarn):
    cw = tuple(f[::-1] for f in grid_faces(2))
    sm = build_supermesh(InterfaceFaceSet("A", cw),
                         InterfaceFaceSet("B", (SQUARE,)))
    assert not [w for w in recwarn if "reorient" in str(w.message)]
    assert np.allclose(sm.weight_sums(), 1.0, atol=1e-12)


def test_nonconvex_quad_split():
    dart = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0]])
    assert signed_area(dart) > 0.0
    sm = build_supermesh(InterfaceFaceSet("A", (dart,)),
                         InterfaceFaceSet("B", (SQUARE,)))
    # dart fully inside the square: intersection area = dart area
    assert sm.total_area == pytest.approx(polygon_area(dart), rel=1e-12)
    assert sm.weight_sums()[0] == pytest.approx(1.0, abs=1e-9)
    # the dart is split in two: both clipped pieces are kept for one face
    assert len(sm.polygons) == 2 and list(sm.polygon_pair) == [0, 0]
    pieces = np.bincount(sm.polygon_pair,
                         weights=[polygon_area(p) for p in sm.polygons])
    assert pieces == pytest.approx(sm.area, rel=1e-12)


def test_weighted_exchange_constant_and_length_check():
    sm = build_supermesh(InterfaceFaceSet("A", grid_faces(4)),
                         InterfaceFaceSet("B", grid_faces(5)))
    out = weighted_exchange(sm, np.full(25, 7.25))
    assert np.abs(out - 7.25).max() < 1e-9
    out = weighted_exchange(sm, np.full((25, 2, 3), 7.25))
    assert out.shape == (16, 2, 3) and np.abs(out - 7.25).max() < 1e-9
    with pytest.raises(ValueError, match="25"):
        weighted_exchange(sm, np.zeros(24))
    with pytest.raises(ValueError, match="expected 25 B-face values"):
        weighted_exchange(sm, 1.0)


def test_weighted_exchange_linear_refinement_study():
    a_set = InterfaceFaceSet("A", grid_faces(4))
    exact = 2.0 * grid_centroids(4)[:, 0] + 3.0 * grid_centroids(4)[:, 1] - 1.0
    errs = []
    for nb in (5, 10, 20):
        sm = build_supermesh(a_set, InterfaceFaceSet("B", grid_faces(nb)))
        cb = grid_centroids(nb)
        vb = 2.0 * cb[:, 0] + 3.0 * cb[:, 1] - 1.0
        errs.append(np.abs(weighted_exchange(sm, vb) - exact).max())
    assert errs[1] <= 0.6 * errs[0]
    assert errs[2] <= 0.6 * errs[1]


def test_measure_symmetry_between_sides():
    sm = build_supermesh(InterfaceFaceSet("A", grid_faces(3)),
                         InterfaceFaceSet("B", grid_faces(7)))
    by_a = np.bincount(sm.parent_a, weights=sm.area, minlength=sm.n_a)
    by_b = np.bincount(sm.parent_b, weights=sm.area, minlength=sm.n_b)
    assert by_a.sum() == pytest.approx(by_b.sum(), rel=1e-12)


def test_conservation_under_full_coverage():
    sm = build_supermesh(InterfaceFaceSet("A", grid_faces(4)),
                         InterfaceFaceSet("B", grid_faces(5)))
    rng = np.random.default_rng(8)
    vb = rng.normal(size=25)
    va = weighted_exchange(sm, vb)
    total_a = float(np.dot(sm.area_a, va))
    covered_b = np.bincount(sm.parent_b, weights=sm.area, minlength=sm.n_b)
    total_b = float(np.dot(covered_b, vb))
    assert total_a == pytest.approx(total_b, rel=1e-9)


def test_weights_invariant_under_rigid_motion():
    rng = np.random.default_rng(4)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    shift = np.array([3.0, -2.0])
    a_faces = grid_faces(3)
    b_faces = grid_faces(4)
    sm0 = build_supermesh(InterfaceFaceSet("A", a_faces),
                          InterfaceFaceSet("B", b_faces))
    sm1 = build_supermesh(
        InterfaceFaceSet("A", tuple(f @ rot.T + shift for f in a_faces)),
        InterfaceFaceSet("B", tuple(f @ rot.T + shift for f in b_faces)))
    w0 = dict(zip(zip(sm0.parent_a, sm0.parent_b), sm0.weights.data))
    w1 = dict(zip(zip(sm1.parent_a, sm1.parent_b), sm1.weights.data))
    assert set(w0) == set(w1)
    for key in w0:
        assert w0[key] == pytest.approx(w1[key], abs=1e-12)


def test_1d_interval_supermesh():
    a = InterfaceFaceSet("A", (np.array([0.0, 0.5]), np.array([0.5, 1.0])),
                         manifold_dim=1)
    b = InterfaceFaceSet("B", tuple(np.array([x, x + 0.25])
                                    for x in np.arange(0.0, 1.0, 0.25)),
                         manifold_dim=1)
    sm = build_supermesh(a, b)
    assert np.allclose(sm.weight_sums(), 1.0, atol=1e-12)
    out = weighted_exchange(sm, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(out, [1.5, 3.5])


# ---------------------------------------------------------------------------
# Monte-Carlo clip oracle (seeded so every pair clears 3 standard errors)
# ---------------------------------------------------------------------------

def random_convex(rng):
    pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(4, 10)), 2))
    pts += rng.uniform(-0.6, 0.6, 2)
    return pts[ConvexHull(pts).vertices]


def point_in_convex(poly, pts):
    inside = np.ones(len(pts), bool)
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - \
            (b[1] - a[1]) * (pts[:, 0] - a[0])
        inside &= cross >= 0
    return inside


def test_clip_against_monte_carlo_oracle():
    rng = np.random.default_rng(115)
    n_samples = 4000
    for _ in range(1000):
        pa, pb = random_convex(rng), random_convex(rng)
        inter = clip_convex(pa, pb)
        area = polygon_area(inter) if len(inter) else 0.0
        lo = np.minimum(pa.min(0), pb.min(0)) - 0.01
        hi = np.maximum(pa.max(0), pb.max(0)) + 0.01
        box = float(np.prod(hi - lo))
        samples = rng.uniform(lo, hi, size=(n_samples, 2))
        p = float((point_in_convex(pa, samples)
                   & point_in_convex(pb, samples)).mean())
        sigma = box * np.sqrt(max(p * (1 - p), 1.0 / n_samples) / n_samples)
        assert abs(p * box - area) <= 3.0 * sigma


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@st.composite
def convex_polygons(draw):
    """Vertices of a rotated ellipse at increasing angles: always convex."""
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=3,
                                  max_size=9)))
    theta = 2.0 * np.pi * np.cumsum(gaps) / gaps.sum()
    rx, ry, turn = draw(st.tuples(st.floats(0.2, 1.5), st.floats(0.2, 1.5),
                                  st.floats(0.0, np.pi)))
    centre = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    c, s = np.cos(turn), np.sin(turn)
    pts = np.column_stack([rx * np.cos(theta), ry * np.sin(theta)])
    return pts @ np.array([[c, s], [-s, c]]) + centre


@settings(max_examples=200, deadline=None)
@given(a=convex_polygons(), b=convex_polygons(), turn=st.floats(-3.2, 3.2),
       shift=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
def test_clip_area_properties(a, b, turn, shift):
    """The intersection is no larger than either input, the same either way
    round, and unchanged by a rigid motion of both polygons."""
    area = polygon_area(clip_convex(a, b))  # 0 for an empty intersection
    assert area <= min(polygon_area(a), polygon_area(b)) + 1e-9
    assert polygon_area(clip_convex(b, a)) == pytest.approx(area, abs=1e-9)
    c, s = np.cos(turn), np.sin(turn)
    rot = np.array([[c, -s], [s, c]])
    moved = polygon_area(clip_convex(a @ rot.T + shift, b @ rot.T + shift))
    assert moved == pytest.approx(area, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(n_a=st.integers(1, 6), n_b=st.integers(1, 7),
       turn=st.floats(-3.2, 3.2), seed=st.integers(0, 2**32 - 1))
def test_operator_matches_csv_rows(n_a, n_b, turn, seed):
    """The CSR operator holds exactly the pairs written to the CSV, and
    applying it equals a dense matrix assembled from the CSV rows. Side A
    is graded, so each row of weights has its own face area."""
    rng = np.random.default_rng(seed)
    xs = np.cumsum(np.concatenate([[0.0], rng.uniform(0.5, 1.5, n_a)]))
    c, s = np.cos(turn), np.sin(turn)
    rot = np.array([[c, -s], [s, c]])
    centre = np.array([0.5, 0.5])
    b_faces = tuple((f - centre) @ rot.T + centre for f in grid_faces(n_b))
    sm = build_supermesh(InterfaceFaceSet("A", quad_grid(xs / xs[-1])),
                         InterfaceFaceSet("B", b_faces))
    lines = sm.to_csv().splitlines()
    assert lines[0] == "a_face,b_face,area,weight"
    rows = [line.split(",") for line in lines[1:]]
    dense = np.zeros((sm.n_a, sm.n_b))
    for a, b, area, w in rows:
        assert float(w) == pytest.approx(float(area) / sm.area_a[int(a)],
                                         rel=1e-10)
        dense[int(a), int(b)] += float(w)
    coo = sm.weights.tocoo()
    assert sorted(zip(coo.row.tolist(), coo.col.tolist())) == \
        [(int(a), int(b)) for a, b, _, _ in rows]
    assert sm.weights.shape == (n_a * n_a, n_b * n_b)
    values = rng.normal(size=(sm.n_b, 3))
    expect = dense @ values
    got = weighted_exchange(sm, values)
    assert got.shape == expect.shape
    assert np.allclose(got, expect, rtol=1e-10, atol=1e-10)
    assert np.allclose(weighted_exchange(sm, values[:, 0]), expect[:, 0],
                       rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# Marker projection
# ---------------------------------------------------------------------------

def test_interface_from_markers_planar():
    mesh = stacked_interface_mesh(4, 5)
    side_a, side_b, proj = interface_from_markers(mesh, "iface_a", "iface_b")
    assert len(side_a.faces) == 16
    assert len(side_b.faces) == 25
    sm = build_supermesh(side_a, side_b)
    assert np.abs(sm.weight_sums() - 1.0).max() < 1e-9
    assert sm.total_area == pytest.approx(1.0, abs=1e-9)


def test_interface_from_markers_conformal_identity():
    mesh = stacked_interface_mesh(4, 4)
    side_a, side_b, _ = interface_from_markers(mesh, "iface_a", "iface_b")
    sm = build_supermesh(side_a, side_b)
    assert len(sm.area) == 16
    assert np.abs(sm.weight_sums() - 1.0).max() < 1e-9
    assert np.all(np.diff(sm.weights.indptr) == 1)


def test_interface_unknown_marker():
    mesh = stacked_interface_mesh(2, 3)
    with pytest.raises(KeyError, match="nope"):
        interface_from_markers(mesh, "iface_a", "nope")


def test_cylinder_projection_preserves_areas():
    # strip of quads on a radius-2 cylinder, 60 degrees wide
    radius = 2.0
    angles = np.radians(np.linspace(-30.0, 30.0, 7))
    proj = fit_cylinder_z(np.column_stack([
        radius * np.cos(angles), radius * np.sin(angles),
        np.zeros_like(angles)]))
    quads = []
    for k in range(6):
        a0, a1 = angles[k], angles[k + 1]
        quads.append(np.array([
            [radius * np.cos(a0), radius * np.sin(a0), 0.0],
            [radius * np.cos(a1), radius * np.sin(a1), 0.0],
            [radius * np.cos(a1), radius * np.sin(a1), 1.0],
            [radius * np.cos(a0), radius * np.sin(a0), 1.0]]))
    unwrapped = [proj.project(q) for q in quads]
    widths = [polygon_area(ensure_ccw(u)) for u in unwrapped]
    expected = radius * (angles[1] - angles[0]) * 1.0
    assert np.allclose(widths, expected, rtol=1e-12)
