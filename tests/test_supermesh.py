import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from meshgen import stacked_interface_mesh

import rotormesh.supermesh as supermesh
from rotormesh.supermesh import (InterfaceFaceSet, _convex_pieces,
                                 build_supermesh, clip_convex,
                                 fit_cylinder_z, interface_from_markers,
                                 polygon_area, signed_area,
                                 weighted_exchange)

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
    with pytest.raises(ValueError, match="no faces"):
        InterfaceFaceSet("A", ())


def test_zero_area_face_rejected():
    degenerate = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    with pytest.raises(ValueError, match="zero-area"):
        InterfaceFaceSet("A", (degenerate,))
    with pytest.raises(ValueError, match="face 1: non-finite coordinates"):
        InterfaceFaceSet("A", (SQUARE, SQUARE + [np.nan, 0.0]))
    with pytest.raises(ValueError, match="face 0: non-finite coordinates"):
        InterfaceFaceSet("A", (np.array([0.0, np.inf]),), manifold_dim=1)
    with pytest.raises(ValueError, match="face 0: non-finite coordinates"):
        InterfaceFaceSet("A", (np.array([np.nan, 1.0]),), manifold_dim=1)


NAN_SQUARE = SQUARE + [np.nan, 0.0]


@pytest.mark.parametrize("faces,message", [
    ((SQUARE, SQUARE[:2]), "face 1: expected"),
    ((SQUARE, np.zeros((4, 3))), "face 1: expected"),
    ((SQUARE, np.zeros(4)), "face 1: expected"),
    ((SQUARE, SQUARE[None]), "face 1: expected"),
    ((np.zeros((0, 2)),), "face 0: expected"),
    ((SQUARE, np.float64(1.0)), "face 1: expected"),
    ((NAN_SQUARE, SQUARE[:2]), "face 0: non-finite coordinates"),
    ((SQUARE[:2], NAN_SQUARE), "face 0: expected"),
    ((SQUARE, SQUARE, NAN_SQUARE[:3], np.zeros((4, 3))),
     "face 2: non-finite coordinates"),
])
def test_bad_face_is_named_by_its_index(faces, message):
    """The faces are checked as one stack; the first bad face, in the order
    of a per-face check of shape and then finiteness, is reported."""
    with pytest.raises(ValueError, match=re.escape(message)):
        InterfaceFaceSet("A", faces)


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


def test_nonconvex_face_other_than_quad_rejected():
    faces = (SQUARE + [3.0, 0.0], CHEVRON, CHEVRON + [0.0, 2.0])
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
# Per-pair reference: the scalar Sutherland-Hodgman loop the batched
# clip_convex must reproduce bit for bit
# ---------------------------------------------------------------------------

def _dedupe(poly, snap):
    """Drop consecutive vertices closer than snap (cyclically)."""
    if len(poly) == 0:
        return poly
    keep = [poly[0]]
    for p in poly[1:]:
        if np.linalg.norm(p - keep[-1]) > snap:
            keep.append(p)
    while len(keep) > 1 and np.linalg.norm(keep[-1] - keep[0]) <= snap:
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
        diag = float(np.linalg.norm(span.max(axis=0) - span.min(axis=0)))
        snap = 1e-12 * max(diag, 1e-300)
    eps = snap * max(float(np.abs(np.vstack([a, b])).max()), 1.0)

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


def pad(poly, k=9):
    """The padding rule: repeat the last vertex up to k slots."""
    return np.vstack([poly, np.repeat(poly[-1:], k - len(poly), axis=0)])


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
    [[0.0, 0.0], [0.6, 0.0], [1.2, 0.0], [1.2, 1.0], [0.0, 1.0]]))], snap=0.7)
@given(pairs=st.lists(clip_pairs(), min_size=1, max_size=12),
       snap=st.one_of(st.none(), st.just(3e-12), st.floats(1e-3, 0.3)))
def test_stack_clip_matches_per_pair_reference(pairs, snap):
    """Each pair of a padded stack, and the first pair on its own, clips to
    the per-pair reference bit for bit. A coarse snap makes the clip
    tolerance and the vertex dedupe act on most pairs."""
    got = clip_convex(np.stack([pad(a) for a, _ in pairs]),
                      np.stack([pad(b) for _, b in pairs]), snap=snap)
    assert len(got) == len(pairs)
    for (a, b), poly in zip(pairs, got):
        ref = reference_clip(a, b, snap=snap)
        assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()
    a, b = pairs[0]
    single = clip_convex(a, b, snap=snap)
    assert single.tobytes() == got[0].tobytes() and single.ndim == 2


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
    assert sum(len(p) > 0 for p in whole) > 10
    assert [p.tobytes() for p in blocked] == [p.tobytes() for p in whole]
    assert clip_convex(a[:0], b[:0]) == []
    b[23] = pad(CHEVRON)
    with pytest.raises(ValueError, match=r"poly_b\[23\]"):
        clip_convex(a, b)


def test_norm_is_numpy_vector_norm_to_the_bit():
    d = np.random.default_rng(2).normal(size=(4000, 2)) * 1e3
    assert supermesh._norm(d).tolist() == [np.linalg.norm(v) for v in d]


def test_build_areas_equal_numpy_shoelace_with_octagons():
    """Quads turned 40 degrees against each other overlap in up to eight
    vertices; numpy sums eight shoelace terms in another order than the
    slot-by-slot sum, and the build's areas still equal np.sum's."""
    c, s = np.cos(np.radians(40.0)), np.sin(np.radians(40.0))
    b = tuple((f - 0.5) @ np.array([[c, s], [-s, c]]) + 0.5
              for f in grid_faces(5))
    sm = build_supermesh(InterfaceFaceSet("A", grid_faces(5)),
                         InterfaceFaceSet("B", b))
    terms = [shoelace_terms(p) for p in sm.polygons if len(p) == 8]
    assert any(np.cumsum(t)[-1] != np.sum(t) for t in terms)
    assert list(sm.polygon_pair) == list(range(len(sm.area)))
    assert sm.area.tolist() == [abs(0.5 * np.sum(shoelace_terms(p)))
                                for p in sm.polygons]


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(3, 12), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_signed_areas_match_numpy_shoelace(sizes, seed):
    """signed_area and the stacked areas (padded to 12 slots) equal the
    shoelace sum by np.sum bit for bit, at every vertex count."""
    rng = np.random.default_rng(seed)
    polys = [rng.normal(size=(k, 2)) * 10.0 ** rng.integers(-3, 4)
             for k in sizes]
    expect = [0.5 * np.sum(shoelace_terms(p)) for p in polys]
    assert [signed_area(p) for p in polys] == expect
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
    assert [p.tobytes() for p in traced.polygons] == \
        [p.tobytes() for p in plain.polygons]


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
    sm = build_supermesh(InterfaceFaceSet("A", a_faces),
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


@settings(max_examples=30, deadline=None)
@given(n_a=st.integers(1, 5), extra=st.integers(1, 3),
       turn=st.floats(-3.2, 3.2),
       shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       dart=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_candidates_match_all_pairs(n_a, extra, turn, shift, dart, seed):
    """The candidate search misses no overlapping pair: clipping every A
    piece against every B piece, with the same sliver filter, gives the
    same faces, areas and polygons in the same order."""
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
    side_a = InterfaceFaceSet("A", tuple(a_faces))
    side_b = InterfaceFaceSet("B", tuple(b_faces))
    sm = build_supermesh(side_a, side_b)

    pts = np.vstack(a_faces + b_faces)
    snap = 1e-12 * float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    areas: dict[tuple[int, int], float] = {}
    polygons = []
    face_a, pieces_a = _convex_pieces(side_a)
    face_b, pieces_b = _convex_pieces(side_b)
    ka, kb = np.divmod(np.arange(len(face_a) * len(face_b)), len(face_b))
    overlaps = clip_convex(pieces_a[ka], pieces_b[kb], snap=snap)
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
    assert len(sm.polygons) == len(polygons)
    assert all(np.array_equal(p, q) for p, q in zip(sm.polygons, polygons))


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
        assert np.allclose(side.faces, np.sort(ends, axis=1), atol=1e-15)
    sm = build_supermesh(side_a, side_b)
    assert np.allclose(sm.weight_sums(), 1.0)
    assert sm.total_area == pytest.approx(1.0)


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
