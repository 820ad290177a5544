import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from meshgen import sector_interface_mesh, stacked_interface_mesh

import rotormesh.supermesh as supermesh
from rotormesh.mesh import Mesh, extract_marker_points
from rotormesh.supermesh import (CylinderProjection, InterfaceFaceSet,
                                 PlaneProjection, _assemble, _convex_pieces,
                                 build_supermesh, clip_convex,
                                 fit_cylinder_z, interface_from_markers,
                                 polygon_area, weighted_exchange)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
CHEVRON = np.array([[0, 0], [2, 0], [1, 0.25], [2, 1], [0, 1]], dtype=float)


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


def graded_grid(n, rng):
    """Quads of a tensor grid on the unit square with random spacing."""
    xs = np.cumsum(np.concatenate([[0.0], rng.uniform(0.5, 1.5, n)]))
    return list(quad_grid(xs / xs[-1]))


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
    with pytest.raises(ValueError, match="convex"):
        clip_convex(CHEVRON, SQUARE)


def test_clip_names_polygon_whose_turns_overflow():
    """Finite coordinates whose turns overflow fail the convexity check
    with its usual message and no floating-point warning (which the test
    settings would raise instead)."""
    with pytest.raises(ValueError, match=re.escape(
            "poly_a[0] is not a convex polygon of at least 3 finite")):
        clip_convex(SQUARE * 1e160, SQUARE * 1e160)


@pytest.mark.parametrize("wound", ["ccw", "cw"])
def test_clip_names_polygon_whose_area_overflows(wound):
    """Turns that stay finite far from the origin, with shoelace terms that
    overflow: the winding cannot be read from the area, so the polygon is
    rejected by name whichever way it is wound, with no floating-point
    warning, rather than clipped as if counter-clockwise."""
    a = SQUARE * 1e145 + 1e155
    with pytest.raises(ValueError, match=re.escape(
            "poly_a[0] is not a convex polygon of at least 3 finite "
            "vertices and finite area")):
        clip_convex(a if wound == "ccw" else a[::-1], a + 0.5e145)


def test_clip_contained_vertices_and_edge_points():
    small = 0.5 * SQUARE + [0.75, 0.25]  # pokes out of the unit square
    out = clip_convex(SQUARE, small)
    assert polygon_area(out) == pytest.approx(0.25 * 0.5, abs=1e-12)
    assert out[:, 0].max() <= 1.0 + 1e-12


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
    for faces in ((), np.zeros((0, 4, 2)), np.zeros((0, 2))):
        with pytest.raises(ValueError, match="^interface side 'A' has no "
                           "faces$"):
            InterfaceFaceSet("A", faces)


def test_zero_area_face_rejected():
    degenerate = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    with pytest.raises(ValueError, match="zero-area"):
        InterfaceFaceSet("A", (degenerate,))
    with pytest.raises(ValueError, match="face 1: non-finite coordinates"):
        InterfaceFaceSet("A", (SQUARE, SQUARE + [np.nan, 0.0]))
    with pytest.raises(ValueError, match="face 0: non-finite coordinates"):
        InterfaceFaceSet("A", (np.array([0.0, np.inf]),))
    with pytest.raises(ValueError, match="face 0: non-finite coordinates"):
        InterfaceFaceSet("A", (np.array([np.nan, 1.0]),))


def test_face_whose_measure_overflows_rejected():
    """Finite faces whose shoelace terms (or length) overflow are rejected
    by name at construction, without a floating-point warning, rather than
    measured as inf and failing the build in its k-d tree."""
    with pytest.raises(ValueError, match=r"^face 1: area is not finite$"):
        InterfaceFaceSet("A", (SQUARE, SQUARE * 1e160))
    with pytest.raises(ValueError, match=r"^face 0: length is not finite$"):
        InterfaceFaceSet("A", (np.array([-1e308, 1e308]),))


def test_face_of_subnormal_measure_rejected():
    """A nonzero area (length) below the smallest normal float has lost
    most of its digits, and weights divided by it would be off by more
    than rounding: the face is rejected by name. The smallest normal
    measure is kept."""
    tiny = np.finfo(float).tiny
    with pytest.raises(ValueError, match=r"^face 1: area is subnormal$"):
        InterfaceFaceSet("A", (SQUARE, SQUARE * 2.0**-520))
    with pytest.raises(ValueError, match=r"^face 0: length is subnormal$"):
        InterfaceFaceSet("A", (np.array([0.0, tiny / 2]),))
    assert InterfaceFaceSet("A", (np.array([0.0, tiny]),)).measures[0] == \
        tiny


@pytest.mark.parametrize("faces", [
    np.zeros(4), np.zeros((2, 3)), np.zeros((1, 2, 2)), np.zeros((1, 0, 2)),
    np.zeros((2, 4, 3)), np.zeros((1, 4, 2, 2)), np.float64(1.0),
    (np.array([[0.0, 1.0]]),), (np.array([0.0, 1.0, 2.0]),),
])
def test_face_array_of_wrong_shape_rejected(faces):
    """The shape is checked once, for the whole array: (n, k>=3, 2)
    polygons or (n, 2) intervals."""
    shape = np.shape(faces)
    with pytest.raises(ValueError, match=re.escape(
            "interface side 'A': expected an (n, k>=3, 2) polygon stack or "
            f"(n, 2) intervals, got shape {shape}")):
        InterfaceFaceSet("A", faces)


NAN_SQUARE = SQUARE + [np.nan, 0.0]
TWO_VERTICES = SQUARE[[0, 1, 1, 1]]  # by the padding rule, 2 vertices


@pytest.mark.parametrize("faces,message", [
    ((SQUARE, TWO_VERTICES), "face 1: fewer than 3 vertices"),
    ((SQUARE, SQUARE, NAN_SQUARE), "face 2: non-finite coordinates"),
    ((TWO_VERTICES, NAN_SQUARE), "face 1: non-finite coordinates"),
    ((SQUARE, SQUARE * 1e160, TWO_VERTICES), "face 2: fewer than 3"),
    ((SQUARE, SQUARE[[0, 1, 1, 1]] + [0.0, 1.0], SQUARE * 1e160),
     "face 1: fewer than 3"),
    ((np.array([np.inf, 1.0]), np.array([0.0, np.nan])),
     "face 0: non-finite coordinates"),
    ((np.array([0.0, 1.0]), np.array([2.0, 2.0])),
     "face 1: zero-length segment"),
])
def test_bad_face_is_named_by_its_index(faces, message):
    """Each face check runs over the whole stack, in the order finiteness,
    vertex count (by the padding rule), then area; the first face that
    fails the first failing check is named."""
    with pytest.raises(ValueError, match=re.escape(message)):
        InterfaceFaceSet("A", faces)


def test_padded_stack_of_triangles_and_quads():
    """A stack that mixes triangles, padded to 4 slots, with quads gives
    each face its own vertex count and shoelace measure."""
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    kite = np.array([[0.0, 0.0], [1.0, -1.0], [3.0, 0.0], [1.0, 1.0]])
    faces = np.stack([pad(tri, 4), SQUARE, pad(tri[::-1], 4), kite])
    side = InterfaceFaceSet("A", faces)
    assert side.manifold_dim == 2
    assert side.counts.tolist() == [3, 4, 3, 4]
    expect = [0.5 * np.sum(shoelace_terms(p)) for p in (tri, SQUARE,
                                                        tri[::-1], kite)]
    assert side.measures.tolist() == [abs(a) for a in expect]
    assert side.ccw.tolist() == [True, True, False, True]
    assert side.stack.tobytes() == faces.tobytes()


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
    assert len(sm.polygon_counts) == 2 and len(sm.area) == 1
    pieces = sum(polygon_area(p) for p in
                 split(sm.polygon_vertices, sm.polygon_counts))
    assert pieces == pytest.approx(sm.area[0], rel=1e-12)


def test_nonconvex_face_other_than_quad_rejected():
    faces = (pad(SQUARE + [3.0, 0.0], 5), CHEVRON, CHEVRON + [0.0, 2.0])
    with pytest.raises(ValueError, match="non-convex face 1 on side A with "
                       "5 vertices is not supported"):
        build_supermesh(InterfaceFaceSet("A", faces),
                        InterfaceFaceSet("B", (SQUARE,)))


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
    side_a = InterfaceFaceSet("A", grid_faces(4))
    sm = build_supermesh(side_a, InterfaceFaceSet("B", grid_faces(5)))
    rng = np.random.default_rng(8)
    vb = rng.normal(size=25)
    va = weighted_exchange(sm, vb)
    total_a = float(np.dot(side_a.measures, va))
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
    a = InterfaceFaceSet("A", (np.array([0.0, 0.5]), np.array([0.5, 1.0])))
    b = InterfaceFaceSet("B", tuple(np.array([x, x + 0.25])
                                    for x in np.arange(0.0, 1.0, 0.25)))
    assert (a.manifold_dim, InterfaceFaceSet("C", (SQUARE,)).manifold_dim) \
        == (1, 2)
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
# Per-pair reference: the scalar Sutherland-Hodgman loop the batched
# clip_convex must reproduce bit for bit
# ---------------------------------------------------------------------------

def _dedupe(poly, snap):
    """Drop consecutive vertices closer than snap (cyclically)."""
    if len(poly) == 0:
        return poly
    keep = [poly[0]]
    for p in poly[1:]:
        if np.hypot(*(p - keep[-1])) > snap:
            keep.append(p)
    while len(keep) > 1 and np.hypot(*(keep[-1] - keep[0])) <= snap:
        keep.pop()
    return np.asarray(keep)


def _edge_intersection(s, e, side_s, side_e):
    u = side_s / (side_s - side_e)
    u = min(max(u, 0.0), 1.0)
    return s + u * (e - s)


def reference_clip(poly_a, poly_b, snap=None):
    """Intersection of two convex polygons, one pair and one vertex at a
    time; the result is CCW, (0, 2) when empty."""
    a, b = (p if signed_area(p) >= 0.0 else p[::-1].copy()
            for p in (np.asarray(poly_a, float), np.asarray(poly_b, float)))
    if snap is None:
        span = np.vstack([a, b])
        diag = float(np.hypot(*(span.max(axis=0) - span.min(axis=0))))
        snap = 1e-12 * max(diag, 1e-300)
    eps = snap * float(np.abs(np.vstack([a, b])).max())

    output = list(b)
    for i in range(len(a)):
        p0, p1 = a[i], a[(i + 1) % len(a)]
        edge = p1 - p0
        if len(output) == 0:
            break
        polygon = output
        output = []
        prev = polygon[-1]
        prev_side = edge[0] * (prev[1] - p0[1]) - edge[1] * (prev[0] - p0[0])
        for cur in polygon:
            side = edge[0] * (cur[1] - p0[1]) - edge[1] * (cur[0] - p0[0])
            if side >= -eps:
                if prev_side < -eps:
                    output.append(_edge_intersection(prev, cur, prev_side,
                                                     side))
                output.append(cur)
            elif prev_side >= -eps:
                output.append(_edge_intersection(prev, cur, prev_side, side))
            prev, prev_side = cur, side

    if len(output) < 3:
        return np.zeros((0, 2))
    result = _dedupe(np.asarray(output), snap)
    if len(result) < 3:
        return np.zeros((0, 2))
    return result


def shoelace_terms(p):
    xn, yn = np.concatenate([p[1:], p[:1]]).T
    return p[:, 0] * yn - xn * p[:, 1]


def signed_area(poly):
    """Shoelace signed area by np.sum, which the package's areas equal bit
    for bit (test_signed_areas_match_numpy_shoelace); > 0 when CCW."""
    return 0.5 * float(np.sum(shoelace_terms(np.asarray(poly, float))))


def pad(poly, k=9):
    """The padding rule: repeat the last vertex up to k slots."""
    return np.vstack([poly, np.repeat(poly[-1:], k - len(poly), axis=0)])


def split(vertices, counts):
    """Flat polygons, counts[i] vertices each, one array per polygon."""
    return np.split(vertices, np.cumsum(counts)[:-1])


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


@st.composite
def clip_pairs(draw):
    """A convex pair that overlaps at random, is disjoint, shares an edge
    or is identical up to the starting vertex; each wound either way."""
    a = draw(convex_polygons())
    kind = draw(st.sampled_from(["random", "disjoint", "edge", "same"]))
    if kind in ("random", "disjoint"):
        b = draw(convex_polygons()) + (10.0 if kind == "disjoint" else 0.0)
    elif kind == "edge":  # a triangle on the far side of one edge of a
        i = draw(st.integers(0, len(a) - 1))
        p, q = a[i], a[(i + 1) % len(a)]
        b = np.array([q, p, p + q - a.mean(axis=0)])
    else:
        b = np.roll(a, draw(st.integers(0, len(a) - 1)), axis=0)
    flip_a, flip_b = draw(st.tuples(st.booleans(), st.booleans()))
    return (a[::-1] if flip_a else a), (b[::-1] if flip_b else b)


@settings(max_examples=150, deadline=None)
@example(pairs=[(4.0 * SQUARE - 1.0, np.array(  # collinear vertices 0.6 apart
    [[0.0, 0.0], [0.6, 0.0], [1.2, 0.0], [1.2, 1.0], [0.0, 1.0]]))], snap=0.7,
    j=0)
@given(pairs=st.lists(clip_pairs(), min_size=1, max_size=12),
       snap=st.one_of(st.none(), st.just(3e-12), st.floats(1e-3, 0.3)),
       j=st.integers(-60, 60))
def test_stack_clip_matches_per_pair_reference(pairs, snap, j):
    """Each pair of a padded stack, and the first pair on its own, clips to
    the per-pair reference bit for bit. A coarse snap makes the clip
    tolerance and the vertex dedupe act on most pairs. Both polygons and
    any given snap are scaled by 2**j, so that coordinates far below and
    above one unit are clipped too."""
    pairs = [(a * 2.0**j, b * 2.0**j) for a, b in pairs]
    snap = None if snap is None else snap * 2.0**j
    vertices, counts = clip_convex(np.stack([pad(a) for a, _ in pairs]),
                                   np.stack([pad(b) for _, b in pairs]),
                                   snap=snap)
    assert counts.shape == (len(pairs),) and len(vertices) == counts.sum()
    got = split(vertices, counts)
    for (a, b), poly in zip(pairs, got):
        ref = reference_clip(a, b, snap=snap)
        assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()
    a, b = pairs[0]
    single = clip_convex(a, b, snap=snap)
    assert single.tobytes() == got[0].tobytes() and single.ndim == 2
    one, n = clip_convex(pad(a)[None], pad(b)[None], snap=snap)
    assert one.tobytes() == single.tobytes() and n.tolist() == [len(single)]


@settings(max_examples=30, deadline=None)
@given(pairs=st.lists(clip_pairs(), min_size=1, max_size=8), data=st.data())
def test_stack_clip_names_nonconvex_polygon(pairs, data):
    stacks = {"poly_a": [pad(a) for a, _ in pairs],
              "poly_b": [pad(b) for _, b in pairs]}
    name = data.draw(st.sampled_from(sorted(stacks)))
    i = data.draw(st.integers(0, len(pairs) - 1))
    turn = data.draw(st.integers(0, len(CHEVRON) - 1))  # reflex vertex
    stacks[name][i] = pad(np.roll(CHEVRON, turn, axis=0))  # anywhere
    with pytest.raises(ValueError, match=rf"convex.*{name}\[{i}\]"):
        clip_convex(np.stack(stacks["poly_a"]), np.stack(stacks["poly_b"]))


def test_stack_clip_blocks_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(21)
    a = np.stack([pad(random_convex(rng)) for _ in range(40)])
    b = np.stack([pad(random_convex(rng)) for _ in range(40)])
    whole = clip_convex(a, b)
    monkeypatch.setattr(supermesh, "CLIP_BLOCK", 7)
    blocked = clip_convex(a, b)
    assert np.count_nonzero(whole[1]) > 10
    assert [x.tobytes() for x in blocked] == [x.tobytes() for x in whole]
    vertices, counts = clip_convex(a[:0], b[:0])
    assert vertices.shape == (0, 2) and counts.shape == (0,)
    b[23] = pad(CHEVRON)
    with pytest.raises(ValueError, match=r"poly_b\[23\]"):
        clip_convex(a, b)


def test_stack_clip_views_match_contiguous_copies():
    """Sliced, reversed and transposed (slot-major) views of the stacks
    clip to the same bytes as their contiguous copies, and are left as
    they were."""
    rng = np.random.default_rng(8)
    a = np.stack([pad(random_convex(rng)) for _ in range(30)])
    b = np.stack([pad(random_convex(rng)) for _ in range(30)])
    slot_major = [np.ascontiguousarray(p.T).T for p in (a, b)]
    for view_a, view_b in [(a[::2], b[::2]), (a[::-1], b[::-1]), slot_major]:
        assert not view_a.flags.c_contiguous
        before = view_a.copy(), view_b.copy()
        got = clip_convex(view_a, view_b)
        expect = clip_convex(*map(np.ascontiguousarray, (view_a, view_b)))
        assert np.count_nonzero(expect[1]) > 5
        assert [x.tobytes() for x in got] == [x.tobytes() for x in expect]
        assert view_a.tobytes() == before[0].tobytes()
        assert view_b.tobytes() == before[1].tobytes()


def test_clip_kernel_compacts_any_inside_pattern():
    """A pass keeps whatever its side test keeps, not one run of slots. A
    convex polygon flips inside/outside at most twice per edge in exact
    arithmetic, more only by rounding; this CCW zigzag flips four times
    along an edge of the clip square. Fed to the kernel directly, turned
    to face each edge in turn and stacked with a convex pair of another
    vertex count, every row clips to the per-pair reference bit for bit."""
    zigzag = np.array([[0.1, -0.1], [0.2, 0.1], [0.3, -0.1], [0.6, 0.5],
                       [0.1, 0.5]])
    assert signed_area(zigzag) > 0.0
    inside = zigzag[:, 1] >= 0.0  # of the square's first edge, along y = 0
    assert np.count_nonzero(inside != np.roll(inside, 1)) == 4
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    subjects = [(zigzag - 0.5) @ np.linalg.matrix_power(quarter, t).T + 0.5
                for t in range(4)] + [random_convex(np.random.default_rng(3))]
    a = np.stack([SQUARE] * len(subjects))
    b = np.stack([pad(s) for s in subjects])
    vertices, counts = supermesh._clip_block(
        a, b, np.array([len(s) for s in subjects]), None)
    assert counts.min() > 0
    for s, poly in zip(subjects, split(vertices, counts)):
        ref = reference_clip(SQUARE, s)
        assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()


def test_build_areas_equal_numpy_shoelace_with_octagons():
    """Quads turned 40 degrees against each other overlap in up to eight
    vertices; numpy sums eight shoelace terms in another order than the
    slot-by-slot sum, and the build's areas still equal np.sum's."""
    c, s = np.cos(np.radians(40.0)), np.sin(np.radians(40.0))
    b = tuple((f - 0.5) @ np.array([[c, s], [-s, c]]) + 0.5
              for f in grid_faces(5))
    sm = build_supermesh(InterfaceFaceSet("A", grid_faces(5)),
                         InterfaceFaceSet("B", b))
    polygons = split(sm.polygon_vertices, sm.polygon_counts)
    terms = [shoelace_terms(p) for p in polygons if len(p) == 8]
    assert any(np.cumsum(t)[-1] != np.sum(t) for t in terms)
    assert len(sm.polygon_counts) == len(sm.area)  # one piece per face
    assert sm.area.tolist() == [abs(0.5 * np.sum(shoelace_terms(p)))
                                for p in polygons]


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(3, 12), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_signed_areas_match_numpy_shoelace(sizes, seed):
    """polygon_area and the stacked areas (padded to 12 slots) equal the
    shoelace sum by np.sum bit for bit, at every vertex count."""
    rng = np.random.default_rng(seed)
    polys = [rng.normal(size=(k, 2)) * 10.0 ** rng.integers(-3, 4)
             for k in sizes]
    expect = [0.5 * np.sum(shoelace_terms(p)) for p in polys]
    assert [polygon_area(p) for p in polys] == [abs(a) for a in expect]
    areas = supermesh._signed_areas(np.stack([pad(p, 12) for p in polys]),
                                    np.array(sizes))
    assert areas.tolist() == expect


def test_build_reaches_clip_through_module_attribute(monkeypatch):
    """The bench times the kernel by wrapping rotormesh.supermesh.clip_convex;
    a build that reached it under another name would go untimed."""
    side_a, side_b, _ = interface_from_markers(stacked_interface_mesh(4, 5),
                                               "iface_a", "iface_b")
    plain = build_supermesh(side_a, side_b)
    kernel, calls = supermesh.clip_convex, []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(supermesh, "clip_convex", counting)
    traced = build_supermesh(side_a, side_b)
    assert calls and sum(calls) >= len(traced.area)
    assert traced.area.tobytes() == plain.area.tobytes()
    assert traced.weights.data.tobytes() == plain.weights.data.tobytes()
    assert traced.polygon_vertices.tobytes() == \
        plain.polygon_vertices.tobytes()
    assert traced.polygon_counts.tolist() == plain.polygon_counts.tolist()


@settings(max_examples=30, deadline=None)
@given(n_a=st.integers(1, 6), n_b=st.integers(1, 7),
       turn=st.floats(-3.2, 3.2), seed=st.integers(0, 2**32 - 1))
def test_operator_matches_csv_rows(n_a, n_b, turn, seed):
    """The CSR operator holds exactly the pairs written to the CSV, and
    applying it equals a dense matrix assembled from the CSV rows. Side A
    is graded, so each row of weights has its own face area."""
    rng = np.random.default_rng(seed)
    a_faces = tuple(graded_grid(n_a, rng))
    c, s = np.cos(turn), np.sin(turn)
    rot = np.array([[c, -s], [s, c]])
    centre = np.array([0.5, 0.5])
    b_faces = tuple((f - centre) @ rot.T + centre for f in grid_faces(n_b))
    side_a = InterfaceFaceSet("A", a_faces)
    sm = build_supermesh(side_a, InterfaceFaceSet("B", b_faces))
    lines = sm.to_csv().splitlines()
    assert lines[0] == "a_face,b_face,area,weight"
    rows = [line.split(",") for line in lines[1:]]
    dense = np.zeros((sm.n_a, sm.n_b))
    for a, b, area, w in rows:
        assert float(w) == pytest.approx(float(area) / side_a.measures[int(a)],
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


@settings(max_examples=30, deadline=None)
@given(n_a=st.integers(1, 5), extra=st.integers(1, 3),
       turn=st.floats(-3.2, 3.2),
       shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       dart=st.booleans(), giant=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n_a=4, extra=2, turn=0.3, shift=(0.1, -0.05), dart=True,
         giant=True, seed=7)
def test_candidates_match_all_pairs(n_a, extra, turn, shift, dart, giant,
                                    seed):
    """The candidate search misses no overlapping pair of two graded grids,
    one turned and shifted, some A quads split in two, and one B quad
    perhaps grown 10**3 times about its centre, so that its box sets the
    search grid's cells."""
    rng = np.random.default_rng(seed)
    a_faces = graded_grid(n_a, rng)
    for k in {0, seed % len(a_faces)} if dart else ():
        # pull the third corner past the diagonal: split in two
        lo, hi = a_faces[k][0], a_faces[k][2]
        a_faces[k] = np.array([lo, a_faces[k][1], lo + 0.3 * (hi - lo),
                               a_faces[k][3]])
    c, s = np.cos(turn), np.sin(turn)
    rot = np.array([[c, -s], [s, c]])
    b_faces = [(f - 0.5) @ rot.T + 0.5 + shift
               for f in graded_grid(n_a + extra, rng)]
    if giant:
        k = seed % len(b_faces)
        centre = b_faces[k].mean(axis=0)
        b_faces[k] = (b_faces[k] - centre) * 1e3 + centre
    assert_matches_all_pairs(InterfaceFaceSet("A", tuple(a_faces)),
                             InterfaceFaceSet("B", tuple(b_faces)))


def assert_matches_all_pairs(side_a, side_b):
    """The candidate search misses no pair the clip keeps: clipping every A
    piece against every B piece, with the build's snap and sliver filter,
    gives the same faces, areas and polygons in the same order."""
    sm = build_supermesh(side_a, side_b)
    pts = np.vstack([side_a.stack.reshape(-1, 2),
                     side_b.stack.reshape(-1, 2)])
    snap = 1e-12 * float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    areas: dict[tuple[int, int], float] = {}
    polygons = []
    face_a, pieces_a = _convex_pieces(side_a)
    face_b, pieces_b = _convex_pieces(side_b)
    ka, kb = np.divmod(np.arange(len(face_a) * len(face_b)), len(face_b))
    overlaps = split(*clip_convex(pieces_a[ka], pieces_b[kb], snap=snap))
    for ia, ib, overlap in zip(face_a[ka].tolist(), face_b[kb].tolist(),
                               overlaps):
        if len(overlap) == 0:
            continue
        area = polygon_area(overlap)
        if area <= 1e-14 * min(side_a.measures[ia], side_b.measures[ib]):
            continue
        areas[ia, ib] = areas.get((ia, ib), 0.0) + area
        polygons.append(overlap)
    pairs = sorted(areas)
    assert list(zip(sm.parent_a.tolist(), sm.parent_b.tolist())) == pairs
    assert sm.area.tolist() == [areas[pair] for pair in pairs]
    assert sm.polygon_counts.tolist() == [len(p) for p in polygons]
    assert all(np.array_equal(p, q) for p, q in zip(
        split(sm.polygon_vertices, sm.polygon_counts), polygons))


NEAR_MISS_GAPS = ("touch", "snap / 2", "snap", "t / 2", "t", "10 t")


@st.composite
def near_miss_sides(draw):
    """One A face, a triangle or rhombus with a sharp vertex, turned (often
    by right angles, so that an edge or vertex bounds its box) and moved by
    up to 1e3, and B triangles just outside each of its edges and vertices.

    Each B triangle stands off by a gap of 0, snap / 2, snap, or t / 2, t
    or 10 t, t = eps / |edge| being how far the clip's inside tolerance
    reaches past an edge (snap and eps as the build takes them). An edge
    gets a triangle on its far side and a sliver t / 4 thick lying along
    it; a vertex gets a right angle pointing at it along the bisector,
    which stands off by the gap over sin(half the vertex angle)."""
    h = np.tan(draw(st.floats(1e-3, 1.5)) / 2)  # half the sharp vertex angle
    a = np.array([[0.0, 0.0], [1.0, -h], [1.0, h]] if draw(st.booleans())
                 else [[0.0, 0.0], [1.0, -h], [2.0, 0.0], [1.0, h]])
    turn = np.pi * draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])
                        | st.floats(0.0, 2.0))
    c, s = np.cos(turn), np.sin(turn)
    size = draw(st.floats(2.0, 10.0))  # a sliver's area resolved at 1e3
    a = size * a @ np.array([[c, s], [-s, c]]) + \
        draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    gap, slide = draw(st.sampled_from(NEAR_MISS_GAPS)), draw(st.floats(-0.5,
                                                                        0.5))
    e = np.roll(a, -1, axis=0) - a  # edge i, from vertex i
    length = np.linalg.norm(e, axis=1)
    out = np.column_stack([e[:, 1], -e[:, 0]]) / length[:, None]
    bisector = out + np.roll(out, 1, axis=0)  # at vertex i: edges i - 1, i
    half_sin = np.linalg.norm(bisector, axis=1) / 2
    bisector /= 2 * half_sin[:, None]

    def b_faces(off_edge, off_vertex, t):
        faces = []
        for p, d, n, g, t_e in zip(a, e, out, off_edge, t):
            ends = [p + (slide + 1) * d + g * n, p + slide * d + g * n]
            mid = p + (slide + 0.5) * d + g * n
            faces += [np.array(ends + [mid + size * n]),
                      np.array(ends + [mid + t_e / 4 * n])]
        for v, b, g in zip(a, bisector, off_vertex):
            side = np.array([-b[1], b[0]])
            faces.append(v + g * b + size * np.array([0 * b, b - side,
                                                      b + side]))
        return faces

    zero = np.zeros_like(length)
    pts = np.vstack([a, *b_faces(zero, zero, zero)])
    snap = 1e-12 * float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    t = snap * float(np.abs(pts).max()) / length
    off = zero + {"touch": 0.0, "snap / 2": snap / 2, "snap": snap,
                  "t / 2": t / 2, "t": t, "10 t": 10 * t}[gap]
    near = np.minimum(off, np.roll(off, 1))  # the narrower band at a vertex
    return (InterfaceFaceSet("A", (a,)),
            InterfaceFaceSet("B", tuple(b_faces(off, near / half_sin, t))))


@settings(max_examples=150, deadline=None)
@given(sides=near_miss_sides())
def test_box_filter_keeps_near_touching_pairs(sides):
    """Faces that only touch, or stand off by less than the clip's inside
    tolerance, can still clip to a kept sliver: the padded box filter hands
    every such pair to the clip, on sharp faces and far from the origin."""
    assert_matches_all_pairs(*sides)


def turned_interface_mesh(n_a, n_b, degrees):
    """stacked_interface_mesh(n_a, n_b) stretched to 1 x 0.8, so that the
    plane fit's frame follows its long side rather than an arbitrary
    diagonal, with the iface_b side turned by degrees about the centre."""
    mesh = stacked_interface_mesh(n_a, n_b)
    moved, _ = extract_marker_points(mesh, "iface_b")
    c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
    points, centre = mesh.points * [1.0, 0.8, 1.0], np.array([0.5, 0.4])
    points[moved, :2] = (points[moved, :2] - centre) @ np.array(
        [[c, s], [-s, c]]) + centre
    return mesh.with_points(points)


def test_box_filter_is_tight(monkeypatch):
    """The pairs handed to clip_convex stay within 1.08 times those that
    clip to a polygon (1.0596 here, against 1.51 for the k-d tree query
    alone), so the filter cannot widen unnoticed."""
    side_a, side_b, _ = interface_from_markers(
        turned_interface_mesh(20, 25, 7.0), "iface_a", "iface_b")
    kernel, calls = supermesh.clip_convex, []

    def counting(*args, **kwargs):
        vertices, counts = kernel(*args, **kwargs)
        calls.append((len(counts), np.count_nonzero(counts)))
        return vertices, counts

    monkeypatch.setattr(supermesh, "clip_convex", counting)
    build_supermesh(side_a, side_b)
    (rows, hits), = calls
    assert rows <= 1.08 * hits


def dense_1d_supermesh(side_a, side_b):
    """The 1D supermesh from the full n_a x n_b overlap matrix: the
    reference for the candidate search."""
    len_a, len_b = side_a.measures, side_b.measures
    seg_a, seg_b = side_a.stack[:, None, :], side_b.stack[None, :, :]
    overlap = np.minimum(seg_a[..., 1], seg_b[..., 1]) - \
        np.maximum(seg_a[..., 0], seg_b[..., 0])
    ia, ib = np.nonzero(overlap > 1e-14 * np.minimum(len_a[:, None],
                                                      len_b[None, :]))
    return _assemble(ia, ib, overlap[ia, ib], len_a, len(len_b),
                     np.zeros((0, 2)), np.zeros(0, dtype=np.intp))


@st.composite
def interval_sides(draw):
    """Faces of one 1D side: a tiling of [lo, hi] with random spacing, or
    random intervals that may overlap each other, in either direction."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    lo = draw(st.floats(-1000.0, 1000.0))
    hi = lo + draw(st.floats(0.01, 100.0))
    if draw(st.booleans()):
        xs = np.cumsum(np.concatenate([[0.0], rng.uniform(0.1, 1.9, n)]))
        ends = lo + (hi - lo) * np.column_stack([xs[:-1], xs[1:]]) / xs[-1]
    else:
        start = rng.uniform(lo, hi, n)
        ends = np.column_stack([start, start + rng.uniform(1e-3, 0.5, n)
                                * (hi - lo)])
    ends = np.where(rng.random((n, 1)) < 0.3, ends[:, ::-1], ends)
    return tuple(ends)


@settings(max_examples=100, deadline=None)
@example(a=(np.array([0.0, 0.5]), np.array([0.5, 1.0])),
         b=(np.array([0.5, 0.75]), np.array([1.0, 2.0])))
@given(a=interval_sides(), b=interval_sides())
def test_1d_candidates_match_dense_reference(a, b):
    """The k-d tree candidates miss no overlapping interval pair: the
    supermesh is bit-identical to the one from the dense overlap matrix."""
    side_a, side_b = InterfaceFaceSet("A", a), InterfaceFaceSet("B", b)
    sm, ref = build_supermesh(side_a, side_b), dense_1d_supermesh(side_a,
                                                                  side_b)
    for name in ("parent_a", "parent_b", "area"):
        assert np.array_equal(getattr(sm, name), getattr(ref, name))
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(sm.weights, name),
                              getattr(ref.weights, name))
    assert sm.to_csv() == ref.to_csv()
    assert len(sm.polygon_vertices) == len(sm.polygon_counts) == 0


# ---------------------------------------------------------------------------
# Marker projection
# ---------------------------------------------------------------------------

def test_interface_from_markers_planar():
    mesh = stacked_interface_mesh(4, 5)
    side_a, side_b, proj = interface_from_markers(mesh, "iface_a", "iface_b")
    assert side_a.counts.tolist() == [4] * 16
    assert side_b.counts.tolist() == [4] * 25
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


def test_interface_from_markers_2d_line():
    """A 2D mesh whose lower strip meets the upper one along y = 0.5 in two
    segments against three: the sides are intervals on the fitted line."""
    from rotormesh.mesh import Mesh
    xs_a, xs_b = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)
    points = np.array([(x, y, 0.0) for x, y in [
        *((x, 0.0) for x in xs_a), *((x, 0.5) for x in xs_a),
        *((x, 0.5) for x in xs_b), *((x, 1.0) for x in xs_b)]])
    quads = [(i, i + 1, i + 4, i + 3) for i in range(2)] + \
        [(i, i + 1, i + 5, i + 4) for i in range(6, 9)]
    lines_a = [(3 + i, 4 + i) for i in range(2)]
    lines_b = [(7 + i, 6 + i) for i in range(3)]  # wound the other way
    mesh = Mesh(2, points, {"quadrilateral": (quads, np.arange(5))},
                {"a": {"line": (lines_a, [0, 1])},
                 "b": {"line": (lines_b, [0, 1, 2])}})
    side_a, side_b, (kind, origin, axis) = interface_from_markers(
        mesh, "a", "b")
    assert kind == "line"
    assert (side_a.manifold_dim, side_b.manifold_dim) == (1, 1)
    for side, lines in ((side_a, lines_a), (side_b, lines_b)):
        ends = (points[np.array(lines)] - origin) @ axis
        assert np.allclose(side.stack, np.sort(ends, axis=1), atol=1e-15)
    sm = build_supermesh(side_a, side_b)
    assert np.allclose(sm.weight_sums(), 1.0)
    assert sm.total_area == pytest.approx(1.0)


def test_interface_fit_collapsing_a_face_names_the_markers(square_mesh):
    """The square's parallel lower and upper sides have no common line:
    the fit through their four corners runs along one of them and collapses
    the other's face, a segment of length 1, to a point. That is reported
    as markers off one common line, naming both. A face whose own points
    coincide is still reported by the face set."""
    with pytest.raises(ValueError, match=re.escape(
            "interface markers 'lower' and 'upper' do not lie on one common "
            "line: the fit collapses faces of marker 'lower'")):
        interface_from_markers(square_mesh, "lower", "upper")
    points = square_mesh.points.copy()
    points[0] = points[1]  # lower's two ends now coincide
    with pytest.raises(ValueError, match="^face 0: zero-length segment$"):
        interface_from_markers(square_mesh.with_points(points), "lower",
                               "right")


def test_interface_from_markers_cylinder():
    """Markers on a z-axis cylinder (across the atan2 wrap) unroll to
    (arc length, z) rectangles; the plane fit leaves points far off."""
    radius = 2.0
    mesh = sector_interface_mesh(4, 5, radius)
    side_a, side_b, proj = interface_from_markers(mesh, "iface_a", "iface_b")
    assert isinstance(proj, CylinderProjection)
    assert proj.radius == pytest.approx(radius, rel=1e-14)
    assert proj.max_offset < 1e-14 * radius
    width = 0.5 * np.pi * radius  # arc length of the 90 degree sector
    assert np.allclose(side_a.measures, width / 16, rtol=1e-12)
    assert np.allclose(side_b.measures, width / 25, rtol=1e-12)
    sm = build_supermesh(side_a, side_b)
    assert np.abs(sm.weight_sums() - 1.0).max() < 1e-9
    assert sm.total_area == pytest.approx(width, rel=1e-12)


def test_full_cylinder_interface_is_rejected():
    """Over a full turn there is no azimuth gap outside the faces, so the
    branch cut splits a face on each side, which then unrolls across the
    whole circumference (weight sums of 2 and a total area of 46.08 for
    12.57 if built); the projection names the first such face."""
    mesh = sector_interface_mesh(12, 15, 2.0, span=(0.0, 2.0 * np.pi), nz=2)
    with pytest.raises(ValueError, match=r"^interface side A \(marker "
                       r"'iface_a'\) face 11 unrolls to a width of 11\.5192 "
                       r"of the cylinder's circumference 12\.5664: a full "
                       r"360-degree"):
        interface_from_markers(mesh, "iface_a", "iface_b")
    with pytest.raises(ValueError, match=r"^interface side A \(marker "
                       r"'iface_b'\) face 14 "):
        interface_from_markers(mesh, "iface_b", "iface_a")


def test_noisy_plane_projects_as_plane():
    """Out-of-plane noise of 1e-5 of the diagonal leaves the plane the
    nearer fit by far, so the sides still tile the unit square."""
    mesh = stacked_interface_mesh(4, 5)
    idx = np.flatnonzero(np.isclose(mesh.points[:, 2], 0.0))
    points = mesh.points.copy()
    diag = np.sqrt(2.0)  # of the unit square the markers cover
    noise = np.random.default_rng(7).uniform(-1.0, 1.0, len(idx))
    points[idx, 2] += 1e-5 * diag * noise
    side_a, side_b, proj = interface_from_markers(
        mesh.with_points(points), "iface_a", "iface_b")
    assert isinstance(proj, PlaneProjection)
    assert proj.max_offset > 1e-6 * diag  # past a fixed 1e-6 tolerance
    sm = build_supermesh(side_a, side_b)
    assert np.abs(sm.weight_sums() - 1.0).max() < 1e-9
    assert sm.total_area == pytest.approx(1.0, rel=1e-9)


def test_projection_far_from_the_axis_names_the_face():
    """Coordinates near 1e160 square to beyond the float range: the
    cylinder fit measures their distance from the axis without overflow,
    and the face whose area overflows is named."""
    mesh = stacked_interface_mesh(2, 2)
    with pytest.raises(ValueError, match=r"^face 0: area is not finite$"):
        interface_from_markers(mesh.with_points(mesh.points * 1e160),
                               "iface_a", "iface_b")


@settings(max_examples=40, deadline=None)
@example(k=500)
@example(k=460)
@example(k=-60)
@example(k=-500)
@given(k=st.integers(-500, 500))
def test_build_scales_exactly_by_a_power_of_two(k):
    """Scaled by 2**k, a 12 x 15 interface turned 7 degrees gives the same
    weights bit for bit and areas exactly 4**k times as large: every
    tolerance scales with the interface, and nothing overflows on the way
    (the box pads included). The plane fit scales the points by a power of
    two before its SVD, so LAPACK, which rescales a matrix with entries
    beyond about 2**+-459 by itself, gets the same matrix at every k."""
    mesh = turned_interface_mesh(12, 15, 7.0)
    plain, scaled = (build_supermesh(*interface_from_markers(
        mesh.with_points(mesh.points * scale), "iface_a", "iface_b")[:2])
        for scale in (1.0, 2.0**k))
    assert scaled.weights.data.tobytes() == plain.weights.data.tobytes()
    assert scaled.weights.indices.tolist() == plain.weights.indices.tolist()
    assert scaled.area.tobytes() == (plain.area * 4.0**k).tobytes()


@pytest.mark.parametrize("a,b", [
    (SQUARE, SQUARE[:, :1]),                 # one coordinate per vertex
    (SQUARE[None], SQUARE),                  # a stack against one polygon
    (np.stack([SQUARE] * 2), SQUARE[None]),  # stacks of 2 and 1 polygons
    (SQUARE.ravel(), SQUARE.ravel()),        # flat coordinates
])
def test_clip_rejects_mismatched_shapes(a, b):
    with pytest.raises(ValueError, match=r"^expected two \(k, 2\) polygons "
                       "or two stacks$"):
        clip_convex(a, b)


def test_build_needs_one_manifold_dimension():
    with pytest.raises(ValueError, match="^both sides must share the "
                       "manifold dimension$"):
        build_supermesh(InterfaceFaceSet("A", (SQUARE,)),
                        InterfaceFaceSet("B", np.array([[0.0, 1.0]])))


def test_interface_marker_without_faces_rejected():
    mesh = stacked_interface_mesh(2, 3)
    hollow = Mesh(mesh.dim, mesh.points, mesh.cells,
                  {**mesh.markers, "hollow": {}})
    for pair in (("iface_a", "hollow"), ("hollow", "iface_b")):
        with pytest.raises(ValueError, match="^interface markers must "
                           "contain faces$"):
            interface_from_markers(hollow, *pair)


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
    widths = [polygon_area(u) for u in unwrapped]
    expected = radius * (angles[1] - angles[0]) * 1.0
    assert np.allclose(widths, expected, rtol=1e-12)
