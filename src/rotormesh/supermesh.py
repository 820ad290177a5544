"""Conservative supermesh construction between non-conformal interfaces.

Both interface sides are first projected to a common plane or unrolled
z-axis cylinder (a line for 2D domains). Every overlapping pair of faces
contributes an intersection polygon (interval); its area (length) divided
by the receiving face's is the donor weight used for conservative data
exchange. Only the pairs of convex pieces (an interval being a two-vertex
one) whose bounding boxes meet are clipped, each box padded by how far the
clip's inside tolerance reaches past its piece; a grid of cells as large as
the largest B box finds them (see _candidates).
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .mesh import Mesh, _float_rows, _n_rows

if TYPE_CHECKING:  # only _assemble imports scipy.sparse, when it runs
    from scipy.sparse import csr_array


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a planar polygon (k, 2); 0 for a degenerate one."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        return 0.0
    return abs(float(_signed_areas(poly[None], np.array([len(poly)]))[0]))


# A stack of P polygons is a (P, k, 2) array; a polygon of n < k vertices
# repeats its last vertex in slots n..k-1 (the padding rule). A result is
# flat: (V, 2) vertices, polygon after polygon, and (P,) vertex counts.
# The kernels take these layouts in any memory order but run slot-major, on
# stack.T (2, k, P): x and y as one row per slot, contiguous for a stack in
# Fortran order, so that a reduction over slots is an elementwise op between
# rows. clip_convex puts each block in that order once on entry.
CLIP_BLOCK = 4096  # pairs per clip_convex pass; bounds its temporary arrays


def _counts(stack: np.ndarray) -> np.ndarray:
    """Vertex count of each polygon of a stack."""
    x, y = stack.T
    differs = (x != x[-1]) | (y != y[-1])
    return np.max(differs * np.arange(2, len(x) + 2)[:, None], axis=0,
                  initial=1)


def _slots(n: np.ndarray, k: int) -> np.ndarray:
    """(k, P) vertex indices that pad polygons of n vertices to k."""
    return np.minimum(np.arange(k)[:, None], n - 1)


def _stack(vertices: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat polygons of counts[i] >= 1 vertices each as one stack."""
    return np.take(vertices.T, np.cumsum(counts) - counts + _slots(
        counts, counts.max(initial=1)), axis=1).T


def _turns(stack: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Cross product of edge i with edge i + 1, i.e. the turn at vertex
    i + 1 (positive left, negative right); 0 in padding slots."""
    s = stack.T
    e = np.roll(s, -1, axis=1) - s  # slot j's edge, to slot j + 1
    if (n == s.shape[1]).all():  # no padding: the next edge is a roll away
        e_next = np.roll(e, -1, axis=1)
        return (e[0] * e_next[1] - e[1] * e_next[0]).T
    j = np.arange(s.shape[1])[:, None]  # the closing edge is the last slot's
    last = j == n - 1
    e = np.where(last, e[:, -1:], e)
    e_next = np.where(last, e[:, :1], np.roll(e, -1, axis=1))
    return np.where(j < n, e[0] * e_next[1] - e[1] * e_next[0], 0.0).T


def _convex(stack: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Cross-product sign test; collinear vertices are allowed. A polygon
    with a non-finite vertex or turn fails, with no floating-point warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        cross = _turns(stack, n)  # the turns over the largest |turn|, in sign
        lo, hi = cross.min(axis=1), cross.max(axis=1)
        scale = np.maximum(np.maximum(-lo, hi), 1e-300)
        return (n >= 3) & np.isfinite(scale) & ((lo / scale >= -1e-12)
                                                | (hi / scale <= 1e-12))


def _signed_areas(stack: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Shoelace signed area of each polygon. A padding slot adds an exact
    zero, and the terms are summed in order, as np.sum does for up to 7
    terms; more terms are summed by np.sum, which then sums pairwise."""
    x, y = stack.T
    terms = x * np.roll(y, -1, axis=0) - np.roll(x, -1, axis=0) * y
    area = 0.5 * reduce(np.add, terms)  # slot by slot
    for i in np.flatnonzero(n > 7).tolist():  # drop the padding terms
        area[i] = 0.5 * np.sum(np.delete(terms[:, i], np.s_[n[i] - 1:-1]))
    return area


def _ccw(stack: np.ndarray, n: np.ndarray, cw: np.ndarray) -> np.ndarray:
    """The stack with the polygons cw marks (its clockwise ones) reversed;
    the stack itself if it marks none."""
    cw = np.flatnonzero(cw)
    if len(cw) == 0:
        return stack
    s, j, m = stack.T.copy(), np.arange(stack.shape[1])[:, None], n[cw]
    s[..., cw] = np.take(s.reshape(2, -1), np.where(j < m, m - 1 - j, 0)
                         * s.shape[2] + cw, axis=1)
    return s.T


def _kept(keep: np.ndarray):
    """The slots keep (m, P) keeps, polygon after polygon, as indices j * P
    + c (polygon c) into a row of a (2, m, P) stack; their counts, starts."""
    (m, p), n = keep.shape, keep.sum(axis=0)  # flatnonzero gives c * m + j
    return np.flatnonzero(keep.T) * p - np.repeat(np.arange(p), n) * (
        m * p - 1), n, np.cumsum(n) - n


def clip_convex(poly_a: np.ndarray, poly_b: np.ndarray,
                snap: float | None = None):
    """Intersection of convex polygons (Sutherland-Hodgman), pair by pair.

    poly_a and poly_b are one polygon (k, 2) each, or stacks (P, k, 2) of
    P polygons; either may be CW or CCW. Returns the CCW intersection
    (m, 2), empty (0, 2) for disjoint polygons, or for stacks the flat
    vertices and counts (0 if disjoint) of P of them, clipped CLIP_BLOCK
    pairs at a time. Raises ValueError naming a non-convex polygon."""
    a, b = (np.asarray(p, dtype=float) for p in (poly_a, poly_b))
    single = a.ndim == 2
    a, b = (a[None], b[None]) if single else (a, b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[::2] != b.shape[::2] or \
            a.shape[2] != 2:
        raise ValueError("expected two (k, 2) polygons or two stacks")
    blocks, counts = [np.zeros((0, 2))], np.zeros(len(a), dtype=np.intp)
    for s in range(0, len(a), CLIP_BLOCK):
        block = slice(s, s + CLIP_BLOCK)
        clip, _ = _convex_ccw(a[block], "poly_a", s)
        subject, n = _convex_ccw(b[block], "poly_b", s)
        vertices, counts[block] = _clip_block(clip, subject, n, snap)
        blocks.append(vertices)
    vertices = np.concatenate(blocks)
    return vertices if single else (vertices, counts)


def _convex_ccw(stack: np.ndarray, name: str, first: int):
    """The stack, slot-major and wound CCW, and its vertex counts. Raises
    ValueError naming a non-convex polygon, or one whose area is not
    finite, as name[first + its index], with no floating-point warning."""
    stack = np.asfortranarray(stack)
    n = _counts(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        area = _signed_areas(stack, n)
    if (bad := ~(_convex(stack, n) & np.isfinite(area))).any():
        raise ValueError(f"clip_convex requires convex polygons: "
                         f"{name}[{first + int(np.argmax(bad))}] is not a "
                         "convex polygon of at least 3 finite vertices "
                         "and finite area")
    return _ccw(stack, n, area < 0.0), n


def _clip_block(a, b, n, snap) -> tuple[np.ndarray, np.ndarray]:
    """Clip each CCW polygon b (n vertices) by its CCW convex a, one pass
    per edge of a, with the inside tolerance eps that _candidates states,
    then drop each vertex within snap of the last kept one and closing
    vertices within snap of the first: the flat vertices and counts (0
    below 3). Every vertex is computed by the same float operations as a
    loop over pairs and vertices."""
    a, poly = a.T, b.T.copy()  # slot-major rows (2, k, P)
    if snap is None:  # 1e-12 of the diagonal of the pair's bounding box
        span = np.ptp(np.concatenate([a, poly], axis=1), axis=1)
        snap = 1e-12 * np.maximum(np.hypot(*span), 1e-300)
    snap = np.broadcast_to(np.asarray(snap, dtype=float), n.shape)
    eps = snap * np.maximum(np.abs(a).max(axis=(0, 1)),
                            np.abs(poly).max(axis=(0, 1)))
    k = a.shape[1]
    for i in range(k):  # a padding edge has zero length: all inside
        p0, edge = a[:, i], a[:, (i + 1) % k] - a[:, i]
        side = edge[0] * (poly[1] - p0[1]) - edge[1] * (poly[0] - p0[0])
        inside = side >= -eps
        n[~inside.any(axis=0)] = 0  # an empty polygon stays empty
        # only the polygons the edge cuts change
        if not (cut := (n > 0) & ~inside.all(axis=0)).any():
            continue
        cut, w = np.flatnonzero(cut), poly.shape[1]
        # each cut polygon, closed by a copy of its last slot before slot 0
        closed = np.arange(-1, w)[:, None] % w * len(n) + cut
        c_poly = np.take(poly.reshape(2, -1), closed, axis=1)
        c_side = np.take(side, closed)
        c_inside = c_side >= -eps[cut]
        prev, cur, before, after = c_poly[:, :-1], c_poly[:, 1:], \
            c_side[:-1], c_side[1:]
        # a padding slot repeats its predecessor, so never crosses
        crossing = c_inside[:-1] != c_inside[1:]
        u = np.divide(before, before - after, out=np.zeros_like(after),
                      where=crossing)
        u = np.where(u > 1.0, 1.0, np.where(u < 0.0, 0.0, u))
        # each slot's [crossing, vertex], kept in turn
        cand = np.stack([prev + u * (cur - prev), cur], axis=2)
        keep = np.stack([crossing, c_inside[1:] & (np.arange(w)[:, None]
                                                   < n[cut])], axis=1)
        kept, n[cut], first = _kept(keep.reshape(2 * w, -1))
        width = max(w, n.max())  # pad the narrower side to match
        if width > w:
            poly = np.take(poly, np.minimum(np.arange(width), w - 1), axis=1)
        poly[..., cut] = np.take(cand.reshape(2, -1), kept[
            first + _slots(n[cut], width)], axis=1)

    keep, last = [np.ones(len(n), dtype=bool)], poly[:, 0]
    for j in range(1, poly.shape[1]):
        keep.append((j < n) & (np.hypot(*(poly[:, j] - last)) > snap))
        last = np.where(keep[-1], poly[:, j], last)
    kept, n, first = _kept(np.stack(keep))
    xy, start = poly.reshape(2, -1), poly[:, 0]
    while (pop := (n > 1) & (np.hypot(*(np.take(
            xy, kept[first + n - 1], axis=1) - start)) <= snap)).any():
        n = n - pop
    n = np.where(n >= 3, n, 0)  # each polygon's first n kept slots
    return np.take(xy, kept[np.arange(n.sum()) + np.repeat(
        first - np.cumsum(n) + n, n)], axis=1).T, n


@dataclass(frozen=True)
class InterfaceFaceSet:
    """One side of a non-conformal interface after projection.

    faces is one array: (n, k, 2) polygons padded by the padding rule, as a
    3D domain's faces in their projection plane, or (n, 2) intervals, as a
    2D domain's faces on their projection line; manifold_dim (2 or 1)
    records which. Construction checks the whole array's shape, then each
    face's finiteness, vertex count and area (length), nonzero and not
    subnormal, naming the first bad face. It stores the faces as stack
    (intervals sorted) with counts vertices each, and measures their areas
    (or lengths) and ccw whether each polygon is wound counter-clockwise
    (always true for intervals).
    """

    side: str
    faces: InitVar[np.ndarray]
    manifold_dim: int = field(init=False)
    stack: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    measures: np.ndarray = field(init=False, repr=False)
    ccw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, faces):
        faces = np.asarray(faces, dtype=float)
        if faces.shape[:1] == (0,):
            raise ValueError(f"interface side {self.side!r} has no faces")
        polygons = faces.ndim == 3
        if faces.shape[1:] != ((max(faces.shape[1], 3), 2) if polygons
                               else (2,)):
            raise ValueError(f"interface side {self.side!r}: expected an "
                             "(n, k>=3, 2) polygon stack or (n, 2) "
                             f"intervals, got shape {faces.shape}")
        object.__setattr__(self, "manifold_dim", 2 if polygons else 1)
        n = _counts(faces) if polygons else np.full(len(faces), 2)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            if polygons:
                stack, signed = faces, _signed_areas(faces, n)
            else:  # sorted: a length is never negative
                stack = np.sort(faces, axis=1)
                signed = stack[:, 1] - stack[:, 0]
        what, kind = ("area", "polygon") if polygons else ("length", "segment")
        for bad, error in (
                (~np.isfinite(faces).reshape(len(n), -1).all(axis=1),
                 "non-finite coordinates"),
                ((n < 3) & polygons, "fewer than 3 vertices"),
                (~np.isfinite(signed), f"{what} is not finite"),
                (signed == 0.0, f"zero-{what} {kind}"),
                (np.abs(signed) < np.finfo(float).tiny,
                 f"{what} is subnormal")):
            if bad.any():
                raise ValueError(f"face {int(np.argmax(bad))}: {error}")
        object.__setattr__(self, "stack", np.ascontiguousarray(stack))
        object.__setattr__(self, "counts", n)
        object.__setattr__(self, "measures", np.abs(signed))
        object.__setattr__(self, "ccw", signed >= 0.0)


@dataclass(frozen=True)
class Supermesh:
    """Intersection faces and the donor operator between two face sets.

    Face q intersects A face parent_a[q] with B face parent_b[q] over
    area[q]; faces are sorted by (A face, B face). weights is the
    n_a x n_b CSR matrix W[a, b] = area(A & B) / area(A) with the same
    entries in the same order. polygon_vertices holds the clipped pieces in
    turn (several for a pair split into convex parts) and polygon_counts
    their vertex counts; both empty for 1D.
    """

    parent_a: np.ndarray
    parent_b: np.ndarray
    area: np.ndarray
    weights: csr_array
    polygon_vertices: np.ndarray
    polygon_counts: np.ndarray

    @property
    def n_a(self) -> int:
        return self.weights.shape[0]

    @property
    def n_b(self) -> int:
        return self.weights.shape[1]

    @property
    def total_area(self) -> float:
        return float(self.area.sum())

    def weight_sums(self) -> np.ndarray:
        """Covered fraction of each A face; below 1 means partial cover."""
        return self.weights.sum(axis=1)

    def to_csv(self) -> str:
        rows = np.column_stack([self.parent_a, self.parent_b, self.area,
                                self.weights.data])
        return "a_face,b_face,area,weight\n" + _float_rows(rows, 12, ",")


def _assemble(rows, cols, areas, area_a: np.ndarray, n_b: int,
              vertices: np.ndarray, counts: np.ndarray) -> Supermesh:
    """Supermesh of the A faces of area_a and n_b B faces from the pieces
    (rows[k], cols[k], areas[k]) in any order, a pair's summed in order;
    vertices and counts hold the clipped polygon of each piece, or none."""
    from scipy.sparse import coo_array  # only a build pays its ~20 MB
    pairs = coo_array((areas, (rows, cols)), shape=(len(area_a), n_b))
    pairs.sum_duplicates()
    parent_a, parent_b = pairs.row, pairs.col
    weights = pairs.tocsr()  # pairs is sorted, so the entry order is kept
    weights.data = weights.data / area_a[parent_a]
    return Supermesh(parent_a, parent_b, pairs.data, weights, vertices,
                     counts)


def _convex_pieces(side: InterfaceFaceSet) -> tuple[np.ndarray, np.ndarray]:
    """Convex CCW pieces of a side's faces in face order: the face index of
    each piece and the pieces as one stack. An interval is one two-vertex
    piece; non-convex quads are split at a reflex vertex. Faces wound
    against their side's majority orientation are reoriented with a warning
    (a consistently flipped side, e.g. from an arbitrary projection basis,
    is normalized silently)."""
    if side.manifold_dim == 1:  # an interval is a two-vertex piece on y = 0
        return np.arange(len(side.stack)), np.stack(
            [side.stack.T, np.zeros_like(side.stack.T)]).T
    majority_ccw = 2 * np.count_nonzero(side.ccw) >= len(side.ccw)
    for i in np.flatnonzero(side.ccw != majority_ccw).tolist():
        warnings.warn(f"reorienting inconsistently wound face {i} "
                      f"on side {side.side}")
    n = side.counts
    faces = _ccw(np.asfortranarray(side.stack), n, ~side.ccw)
    split = np.flatnonzero(~_convex(faces, n))
    if (n[split] != 4).any():
        i = split[n[split] != 4][0]
        raise ValueError(f"non-convex face {i} on side {side.side} with "
                         f"{n[i]} vertices is not supported")
    # two triangles from the vertex after the offending turn
    reflex = np.argmin(_turns(faces[split], n[split])[:, :4], axis=1) + 1
    tris = np.take_along_axis(faces[split], (
        (reflex[:, None] + [0, 1, 2, 0, 2, 3]) % 4)[..., None], axis=1)
    tris, three = tris.reshape(-1, 3, 2), np.full(2 * len(split), 3)
    tris = _ccw(tris, three, _signed_areas(tris, three) < 0.0)
    face = np.concatenate([np.delete(np.arange(len(n)), split),
                           np.repeat(split, 2)])
    pieces = np.concatenate([np.delete(faces, split, axis=0), tris[
        :, np.minimum(np.arange(faces.shape[1]), 2)]])  # padded to k slots
    order = np.argsort(face, kind="stable")
    return face[order], np.asfortranarray(pieces[order])


def _pads(pieces: np.ndarray, tol: float) -> np.ndarray:
    """How far the inside tolerance tol reaches past each piece, by the
    bound _candidates derives from its centre (vertex mean) and radius."""
    if not tol:
        return np.zeros(len(pieces))
    n, s = _counts(pieces), pieces.T
    centres = np.take_along_axis(np.cumsum(s, axis=1), n[None, None] - 1,
                                 axis=1)[:, 0] / n
    d = centres[:, None] - s
    radii = np.hypot(*d).max(axis=0)
    # edge j runs from slot j to j + 1; a padding edge has zero length
    e = np.roll(s, -1, axis=1) - s
    cross = e[0] * d[1] - e[1] * d[0]
    low = np.where((e[0] != 0.0) | (e[1] != 0.0), np.maximum(cross, 0.0),
                   np.inf).min(axis=0)
    with np.errstate(divide="ignore"):  # no interior centre: no bound
        return 2.0 * tol * (radii / low)  # no overflow


def _ranges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The ranges start[i] .. stop[i] - 1, one after another."""
    n = stop - start
    return np.arange(n.sum()) + np.repeat(start - np.cumsum(n) + n, n)


def _candidates(pieces_a: np.ndarray, pieces_b: np.ndarray, tol: float):
    """Index arrays of the (A piece, B piece) pairs whose padded bounding
    boxes meet, sorted by A piece, then B piece. No other pair can clip to
    a polygon (or, for intervals, overlap).

    The tolerance. At the edge e of an A piece from p, the clip counts a
    point v inside when cross(e, v - p) >= -eps, eps = snap * the pair's
    largest |coordinate|: both sides scale as length squared, so a
    power-of-two scale of the interface changes no test. tol is the same
    rule over the whole interface, so eps <= tol.

    The pad. Each vertex the clip emits is a vertex of B or a point
    between two earlier ones, and either passed that test at each edge or
    lies on the edge's line. So a clipped polygon lies in B and in A', the
    piece with each edge's line moved out by tol / |e| (up to rounding).
    The piece holds its centre c inside, cross(e, c - p) / |e| from each
    edge's line, so scaling it about c by 1 + s, s = tol / min_e cross(e,
    c - p), moves every line out by at least tol / |e|: A' lies within
    s * r of the piece (r its radius). A sharp vertex makes some cross(e,
    c - p) small and the reach long; a zero-length edge binds nothing and
    is left out. Boxes are padded by 2 * s * r, the second s * r for
    rounding, a few ulps of the coordinates, far below tol / |e| >= 1e-12
    * |coordinate| (snap being 1e-12 of the interface's diagonal, at least
    |e|). Boxes that do not meet leave no point of A' in B. Intervals come
    with tol = 0 and no pad: their overlap is measured exactly.

    The search. The B boxes are binned by low corner on square cells a
    little (2**-10, for rounding) larger than the largest B box, so a B box
    meeting an A box lies in a cell from the one below the A box's low
    corner to the one holding its high corner. Boxes are cut to the span
    of all pieces for this, which keeps every pair that meets, and the
    cells are at least 2**-20 of the span, which bounds their count.
    """
    (lo_a, hi_a), (lo_b, hi_b) = (  # padded boxes, x and y as rows
        (p.T.min(axis=1) - pad, p.T.max(axis=1) + pad)
        for p in (pieces_a, pieces_b) for pad in [_pads(p, tol)])
    pts = np.hstack([p.T.reshape(2, -1) for p in (pieces_a, pieces_b)])
    lo, hi = pts.min(axis=1, keepdims=True), pts.max(axis=1, keepdims=True)
    cut = [np.clip(x, lo, hi) - lo for x in (lo_a, hi_a, lo_b, hi_b)]
    side = max(float((cut[3] - cut[2]).max()),
               float((hi - lo).max()) * 2**-20) * (1.0 + 2**-10)
    (x0, y0), (x1, y1), cell_b = (np.floor(x / side).astype(np.intp)
                                  for x in cut[:3])
    x0, y0 = np.maximum(x0 - 1, 0), np.maximum(y0 - 1, 0)
    ny = int(np.floor((hi - lo)[1, 0] / side)) + 1  # y cells
    keys = cell_b[0] * ny + cell_b[1]
    order = np.argsort(keys)
    keys = keys[order]
    rows = np.repeat(np.arange(len(x0)), x1 + 1 - x0)  # (A piece, x cell)
    row_keys = _ranges(x0, x1 + 1) * ny
    start = np.searchsorted(keys, row_keys + y0[rows])
    stop = np.searchsorted(keys, row_keys + y1[rows], side="right")
    ia, ib = np.repeat(rows, stop - start), order[_ranges(start, stop)]
    meet = ((lo_a[:, ia] <= hi_b[:, ib]) & (lo_b[:, ib] <= hi_a[:, ia])
            ).all(axis=0)
    first = np.lexsort((ib[meet], ia[meet]))
    return ia[meet][first], ib[meet][first]


def build_supermesh(side_a: InterfaceFaceSet,
                    side_b: InterfaceFaceSet) -> Supermesh:
    """All pairwise intersections between the two face sets.

    Intersection areas below 1e-14 of the smaller parent are discarded as
    slivers. Faces are emitted sorted by (A index, B index).
    """
    if side_a.manifold_dim != side_b.manifold_dim:
        raise ValueError("both sides must share the manifold dimension")
    face_a, pieces_a = _convex_pieces(side_a)
    face_b, pieces_b = _convex_pieces(side_b)
    # padding repeats vertices, so the pieces span what the faces span
    all_pts = np.hstack([p.T.reshape(2, -1) for p in (pieces_a, pieces_b)])
    snap = 1e-12 * max(float(np.hypot(*np.ptp(all_pts, axis=1))), 1e-300)
    # the clip's eps over the whole interface; intervals have none
    tol = snap * np.abs(all_pts).max() if side_a.manifold_dim == 2 else 0.0
    ia, ib = _candidates(pieces_a, pieces_b, tol)

    if side_a.manifold_dim == 1:  # pieces are faces; overlaps, no polygons
        seg_a, seg_b = side_a.stack[ia], side_b.stack[ib]
        area = np.minimum(seg_a[:, 1], seg_b[:, 1]) - \
            np.maximum(seg_a[:, 0], seg_b[:, 0])
        keep = area > 1e-14 * np.minimum(side_a.measures[ia],
                                         side_b.measures[ib])
        return _assemble(ia[keep], ib[keep], area[keep], side_a.measures,
                         len(side_b.measures), np.zeros((0, 2)),
                         np.zeros(0, dtype=np.intp))

    vertices, n = clip_convex(pieces_a[ia], pieces_b[ib], snap=snap)
    hit = n > 0
    n = n[hit]
    area = np.abs(_signed_areas(_stack(vertices, n), n))  # polygon_area
    rows, cols = face_a[ia[hit]], face_b[ib[hit]]
    keep = area > 1e-14 * np.minimum(side_a.measures[rows],
                                     side_b.measures[cols])
    vertices = np.compress(np.repeat(keep, n), vertices, axis=0)
    return _assemble(rows[keep], cols[keep], area[keep], side_a.measures,
                     len(side_b.measures), vertices, n[keep])


def weighted_exchange(sm: Supermesh, field_on_b) -> np.ndarray:
    """Transfer per-B-face values to A faces: value_A = W @ value_B."""
    values = np.asarray(field_on_b, dtype=float)
    if values.ndim == 0 or values.shape[0] != sm.n_b:
        got = "a scalar" if values.ndim == 0 else values.shape[0]
        raise ValueError(f"expected {sm.n_b} B-face values, got {got}")
    out = sm.weights @ values.reshape(sm.n_b, -1)
    return out.reshape((sm.n_a,) + values.shape[1:])


# ---------------------------------------------------------------------------
# Projection of 3D/2D mesh markers onto a common interface parameterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneProjection:
    origin: np.ndarray
    basis: np.ndarray   # (2, 3) orthonormal rows
    max_offset: float   # worst out-of-plane distance seen

    def project(self, points: np.ndarray) -> np.ndarray:
        return (points - self.origin) @ self.basis.T


def fit_plane(points: np.ndarray) -> PlaneProjection:
    """Least-squares plane through a point cloud (SVD)."""
    pts = np.asarray(points, dtype=float)
    origin = pts.mean(axis=0)
    # scaled by a power of two first, exactly, so that LAPACK does not
    # rescale inside and the basis is the same at every scale
    scale = np.ldexp(1.0, -np.frexp(np.abs(pts - origin).max())[1])
    _, _, vt = np.linalg.svd((pts - origin) * scale, full_matrices=False)
    basis = vt[:2]
    offset = float(np.abs((pts - origin) @ vt[2]).max()) if len(vt) > 2 else 0.0
    return PlaneProjection(origin, basis, offset)


@dataclass(frozen=True)
class CylinderProjection:
    """Unwrap of a z-axis cylinder to (arc length, z) coordinates."""

    radius: float
    cut_angle: float
    max_offset: float   # worst distance off the cylinder seen

    def project(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        theta = np.mod(theta - self.cut_angle, 2.0 * np.pi)
        return np.column_stack([self.radius * theta, pts[:, 2]])


def fit_cylinder_z(points: np.ndarray) -> CylinderProjection:
    """Cylinder about +z; the branch cut goes through the largest angular
    gap so no face straddles it."""
    pts = np.asarray(points, dtype=float)
    # scaled by a power of two first, exactly, so that squares cannot overflow
    scale = np.ldexp(1.0, -np.frexp(np.abs(pts[:, :2]).max())[1])
    r_xy = np.linalg.norm(pts[:, :2] * scale, axis=1) / scale
    radius = float(r_xy.mean())
    theta = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
    gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
    k = int(np.argmax(gaps))
    cut = theta[k] + 0.5 * gaps[k]
    return CylinderProjection(radius, float(cut),
                              float(np.abs(r_xy - radius).max()))


def interface_from_markers(mesh: Mesh, marker_a: str, marker_b: str):
    """Project two mesh markers onto a shared parameterization.

    Returns (side_a, side_b, projection_object). 2D markers project onto
    their least-squares line. 3D markers are fitted by both a plane and a
    z-axis cylinder, and the fit whose farthest point lies nearer to it
    (max_offset) wins, the plane on a tie. A cylinder's branch cut goes
    through the widest azimuth gap, so a full 360-degree interface, which
    has none, raises ValueError naming the side and a face the cut splits.
    A fit collapsing a face of distinct points raises one naming both markers.
    """
    groups = [mesh.markers.get(marker_a), mesh.markers.get(marker_b)]
    if None in groups:
        missing = marker_a if groups[0] is None else marker_b
        raise KeyError(f"unknown marker {missing!r}")
    if not all(map(_n_rows, groups)):
        raise ValueError("interface markers must contain faces")

    conns = []  # each side's faces in marker order, padded to its widest
    for kinds in groups:
        k = max(conn.shape[1] for conn, _ in kinds.values())
        conn = np.empty((_n_rows(kinds), k), dtype=np.intp)
        for c, rows in kinds.values():
            conn[rows] = c[:, np.minimum(np.arange(k), c.shape[1] - 1)]
        conns.append(conn)
    idx, inverse = np.unique(np.concatenate([c.ravel() for c in conns]),
                             return_inverse=True)
    cloud = mesh.points[idx]
    if mesh.dim == 2:
        origin = cloud.mean(axis=0)
        _, _, vt = np.linalg.svd(cloud - origin, full_matrices=False)
        proj, flat = ("line", origin, vt[0]), (cloud - origin) @ vt[0]
    else:  # min keeps the first of equals: the plane
        proj = min(fit_plane(cloud), fit_cylinder_z(cloud),
                   key=lambda fit: fit.max_offset)
        flat = proj.project(cloud)
    faces = [f.reshape(c.shape + flat.shape[1:]) for f, c in  # A's, B's
             zip(np.split(flat[inverse], [conns[0].size]), conns)]
    try:
        sides = [InterfaceFaceSet(name, f) for name, f in zip("AB", faces)]
    except ValueError:  # the fit may have collapsed a face of distinct points
        for f, c, marker in zip(faces, conns, (marker_a, marker_b)):
            with np.errstate(over="ignore", invalid="ignore"):
                zero = (f[:, 0] == f[:, 1] if mesh.dim == 2
                        else _signed_areas(f, _counts(f)) == 0.0)
            if np.ptp(mesh.points[c[zero]], axis=1).any():
                fit = "line" if mesh.dim == 2 else "plane or z-axis cylinder"
                raise ValueError(
                    f"interface markers {marker_a!r} and {marker_b!r} do not "
                    f"lie on one common {fit}: the fit collapses faces of "
                    f"marker {marker!r}") from None
        raise
    if isinstance(proj, CylinderProjection):
        # A face the branch cut runs through unrolls across the width;
        # no real face spans half the circumference.
        for side, marker in zip(sides, (marker_a, marker_b)):
            width = np.ptp(side.stack[:, :, 0], axis=1)
            if (wide := width > np.pi * proj.radius).any():
                i = int(np.argmax(wide))
                raise ValueError(
                    f"interface side {side.side} (marker {marker!r}) face "
                    f"{i} unrolls to a width of {width[i]:.6g} of the "
                    f"cylinder's circumference {2 * np.pi * proj.radius:.6g}"
                    ": a full 360-degree interface has no branch cut outside "
                    "its faces")
    return (*sides, proj)
