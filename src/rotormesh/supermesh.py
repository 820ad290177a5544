"""Conservative supermesh construction between non-conformal interfaces.

Both interface sides are first projected to a common plane (or line for 2D
domains). Every overlapping pair of faces contributes an intersection
polygon; its area divided by the receiving face's area is the donor weight
used for conservative data exchange. Candidate pairs come from one k-d
tree query: each convex piece lies in the circle about its vertex mean
through its farthest vertex, so two pieces can only overlap when their
centres are closer than the sum of their radii.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.spatial import cKDTree

from .mesh import Mesh, _rows


def signed_area(poly: np.ndarray) -> float:
    """Shoelace signed area of a planar polygon (k, 2)."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        return 0.0
    return float(_signed_areas(poly[None], np.array([len(poly)]))[0])


def polygon_area(poly: np.ndarray) -> float:
    """Absolute polygon area; 0 for degenerate/collinear input."""
    return abs(signed_area(poly))


# A stack of P polygons is a (P, k, 2) array; a polygon of n < k vertices
# repeats its last vertex in slots n..k-1 (the padding rule).
CLIP_BLOCK = 4096  # pairs per clip_convex pass; bounds its temporary arrays


def _counts(stack: np.ndarray) -> np.ndarray:
    """Vertex count of each polygon of a stack."""
    differs = (stack != stack[:, -1:]).any(axis=2)[:, ::-1]
    return np.where(differs.any(axis=1),
                    stack.shape[1] + 1 - differs.argmax(axis=1), 1)


def _slots(n: np.ndarray, k: int) -> np.ndarray:
    """(P, k) vertex indices that pad polygons of n vertices to k."""
    return np.minimum(np.arange(k), n[:, None] - 1)


def _take(stack: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return np.take_along_axis(stack, idx[..., None], axis=1)


def _stack(polygons) -> tuple[np.ndarray, np.ndarray]:
    """Non-empty (n, 2) polygons as one stack, and their vertex counts."""
    n = np.fromiter(map(len, polygons), dtype=np.intp, count=len(polygons))
    flat = np.concatenate([np.zeros((0, 2)), *polygons])
    return flat[(np.cumsum(n) - n)[:, None] + _slots(n, n.max(initial=1))], n


def _norm(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each 2-vector to the bit (a dot, not x*x + y*y)."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _turns(stack: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Cross product of edge i with edge i + 1, i.e. the turn at vertex
    i + 1 (positive left, negative right); 0 in padding slots."""
    j = np.arange(stack.shape[1])
    nxt = np.where(j + 1 < n[:, None], j + 1, 0)
    e = _take(stack, nxt) - stack
    e_next = _take(e, nxt)
    cross = e[..., 0] * e_next[..., 1] - e[..., 1] * e_next[..., 0]
    return np.where(j < n[:, None], cross, 0.0)


def _convex(stack: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Cross-product sign test; collinear vertices are allowed."""
    cross = _turns(stack, n)
    cross = cross / np.maximum(np.abs(cross).max(axis=1), 1e-300)[:, None]
    return (n >= 3) & ((cross >= -1e-12).all(axis=1)
                       | (cross <= 1e-12).all(axis=1))


def _signed_areas(stack: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Shoelace signed area of each polygon. A padding slot adds an exact
    zero, and the terms are summed in order, as np.sum does for up to 7
    terms; more terms are summed by np.sum, which then sums pairwise."""
    x, y = stack[..., 0], stack[..., 1]
    terms = x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y
    area = 0.5 * np.cumsum(terms, axis=1)[:, -1]
    for i in np.flatnonzero(n > 7).tolist():  # drop the padding terms
        area[i] = 0.5 * np.sum(np.delete(terms[i], np.s_[n[i] - 1:-1]))
    return area


def _ccw(stack: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The stack with its clockwise polygons reversed."""
    j = np.arange(stack.shape[1])
    back = np.where(j < n[:, None], n[:, None] - 1 - j, 0)
    return _take(stack, np.where((_signed_areas(stack, n) < 0.0)[:, None],
                                 back, j))


def _compact(keep: np.ndarray, cand: np.ndarray):
    """The kept slots of each row of cand (P, w, 2) moved to its front in
    order (cumulative-sum compaction) and padded, and their counts."""
    n = keep.sum(axis=1)
    out = np.zeros((len(n), max(n.max(initial=0), 1), 2))
    out[np.nonzero(keep)[0], (np.cumsum(keep, axis=1) - 1)[keep]] = cand[keep]
    return _take(out, _slots(np.maximum(n, 1), out.shape[1])), n


def clip_convex(poly_a: np.ndarray, poly_b: np.ndarray,
                snap: float | None = None):
    """Intersection of convex polygons (Sutherland-Hodgman), pair by pair.

    poly_a and poly_b are one polygon (k, 2) each, or stacks (P, k, 2) of
    P polygons; either may be CW or CCW. Returns the CCW intersection
    (m, 2), empty (0, 2) for disjoint polygons, or a list of P of them for
    stacks, clipped CLIP_BLOCK pairs at a time. Raises ValueError naming
    a polygon that is not convex."""
    a, b = (np.asarray(p, dtype=float) for p in (poly_a, poly_b))
    single = a.ndim == 2
    a, b = (a[None], b[None]) if single else (a, b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[::2] != b.shape[::2] or \
            a.shape[2] != 2:
        raise ValueError("expected two (k, 2) polygons or two stacks")
    out = []
    for s in range(0, len(a), CLIP_BLOCK):
        block = slice(s, s + CLIP_BLOCK)
        clip, _ = _convex_ccw(a[block], "poly_a", s)
        subject, n = _convex_ccw(b[block], "poly_b", s)
        out += _clip_block(clip, subject, n, snap)
    return out[0] if single else out


def _convex_ccw(stack: np.ndarray, name: str, first: int):
    """The stack wound CCW and its vertex counts. Raises ValueError naming
    a polygon that is not convex, as name[first + its index]."""
    n = _counts(stack)
    finite = np.isfinite(stack).all(axis=(1, 2))
    bad = ~finite | ~_convex(np.where(finite[:, None, None], stack, 0.0), n)
    if bad.any():
        raise ValueError(f"clip_convex requires convex polygons: "
                         f"{name}[{first + int(np.argmax(bad))}] is not a "
                         "convex polygon of at least 3 finite vertices")
    return _ccw(stack, n), n


def _clip_block(a, b, n, snap) -> list[np.ndarray]:
    """Clip each CCW polygon b (n vertices) by its CCW convex a, one pass
    per edge of a, then drop each vertex within snap of the last kept one
    and closing vertices within snap of the first. Every vertex is computed
    by the same float operations as a loop over pairs and vertices."""
    if snap is None:  # 1e-12 of the diagonal of the pair's bounding box
        span = np.concatenate([a, b], axis=1)
        snap = 1e-12 * np.maximum(
            _norm(span.max(axis=1) - span.min(axis=1)), 1e-300)
    snap = np.broadcast_to(np.asarray(snap, dtype=float), (len(a),))
    eps = snap * np.maximum(np.maximum(np.abs(a).max(axis=(1, 2)),
                                       np.abs(b).max(axis=(1, 2))), 1.0)
    live = np.arange(len(a))  # pairs whose polygon is not yet empty
    poly, k = b, a.shape[1]
    for i in range(k):  # a padding edge has zero length: all inside
        p0, edge = a[:, i], a[:, (i + 1) % k] - a[:, i]
        side = edge[:, :1] * (poly[..., 1] - p0[:, 1:]) - \
            edge[:, 1:] * (poly[..., 0] - p0[:, :1])
        inside = side >= -eps[:, None]
        # a padding slot repeats its predecessor, so never crosses
        cross = inside != np.roll(inside, 1, axis=1)
        prev = np.roll(poly, 1, axis=1)[cross]
        before = np.roll(side, 1, axis=1)[cross]
        u = before / (before - side[cross])
        u = np.where(u > 1.0, 1.0, np.where(u < 0.0, 0.0, u))
        cand = np.stack([poly, poly], axis=2)  # [crossing, vertex] slots
        cand[:, :, 0][cross] = prev + u[:, None] * (poly[cross] - prev)
        keep = np.stack([cross, inside & (np.arange(poly.shape[1])
                                          < n[:, None])], axis=2)
        w = 2 * poly.shape[1]
        poly, n = _compact(keep.reshape(-1, w), cand.reshape(-1, w, 2))
        rows = n > 0  # an empty polygon stays empty: drop its pair
        live, a, eps, snap, poly, n = (x[rows] for x in
                                       (live, a, eps, snap, poly, n))

    keep = [np.ones(len(n), dtype=bool)]
    last = poly[:, 0]
    for j in range(1, poly.shape[1]):
        keep.append((j < n) & (_norm(poly[:, j] - last) > snap))
        last = np.where(keep[-1][:, None], poly[:, j], last)
    poly, n = _compact(np.stack(keep, axis=1), poly)
    while (pop := (n > 1) & (_norm(poly[np.arange(len(n)), n - 1]
                                   - poly[:, 0]) <= snap)).any():
        n = n - pop
    sizes = np.zeros(len(b), dtype=np.intp)
    sizes[live] = np.where(n >= 3, n, 0)
    verts = poly[np.arange(poly.shape[1]) < sizes[live, None]]
    ends = np.cumsum(sizes).tolist()
    return [verts[e - m:e] for e, m in zip(ends, sizes.tolist())]


def triangulate(poly: np.ndarray) -> np.ndarray:
    """Fan triangulation of a convex CCW polygon: (k - 2, 3, 2)."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        raise ValueError("cannot triangulate fewer than 3 vertices")
    tris = [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]
    return np.asarray(tris)


@dataclass(frozen=True)
class InterfaceFaceSet:
    """One side of a non-conformal interface after projection.

    For 3D domains faces are planar polygons (k, 2) in the projection
    plane; for 2D domains they are intervals (2,) on the projection line.
    Construction measures each face once: measures holds its area (or
    length) and ccw whether its polygon is wound counter-clockwise
    (always true for intervals, which are stored sorted).
    """

    side: str
    faces: tuple[np.ndarray, ...]
    manifold_dim: int = 2
    measures: np.ndarray = field(init=False, repr=False)
    ccw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.faces) == 0:
            raise ValueError(f"interface side {self.side!r} has no faces")
        faces = tuple(np.asarray(f, dtype=float) for f in self.faces)
        for i, f in enumerate(faces):
            if self.manifold_dim == 2 and (f.ndim != 2 or f.shape[1] != 2
                                           or len(f) < 3):
                raise ValueError(f"face {i}: expected (k>=3, 2) polygon")
            if not np.isfinite(f).all():
                raise ValueError(f"face {i}: non-finite coordinates")
        if self.manifold_dim == 2:
            signed = _signed_areas(*_stack(faces))
            zero, what = signed == 0.0, "zero-area polygon"
        else:
            faces = tuple(np.sort(f.reshape(2)) for f in faces)
            signed = np.array([f[1] - f[0] for f in faces])
            zero, what = signed <= 0.0, "zero-length segment"
        if zero.any():
            raise ValueError(f"face {int(np.argmax(zero))}: {what}")
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "measures", np.abs(signed))
        object.__setattr__(self, "ccw", signed >= 0.0)


@dataclass(frozen=True)
class Supermesh:
    """Intersection faces and the donor operator between two face sets.

    Face q intersects A face parent_a[q] with B face parent_b[q] over
    area[q]; faces are sorted by (A face, B face). weights is the
    n_a x n_b CSR matrix W[a, b] = area(A & B) / area(A) with the same
    entries in the same order. polygons holds every clipped piece (several
    for a pair whose faces were split into convex parts) and polygon_pair
    the index q of each piece's face; both are empty for 1D interfaces.
    """

    parent_a: np.ndarray
    parent_b: np.ndarray
    area: np.ndarray
    weights: csr_array
    area_a: np.ndarray
    area_b: np.ndarray
    polygons: tuple[np.ndarray, ...]
    polygon_pair: np.ndarray

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
        return "a_face,b_face,area,weight\n" + _rows("%d,%d,%.12g,%.12g\n",
                                                      rows)


def _assemble(rows, cols, areas, area_a: np.ndarray, area_b: np.ndarray,
              polygons: tuple[np.ndarray, ...] = ()) -> Supermesh:
    """Supermesh from intersection pieces (rows[k], cols[k], areas[k]) in
    any order; pieces of one (A, B) pair are summed in the order given.
    polygons, if given, holds the clipped polygon of each piece."""
    shape = (len(area_a), len(area_b))
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    pairs = coo_array((np.asarray(areas, dtype=float), (rows, cols)),
                      shape=shape)
    pairs.sum_duplicates()
    parent_a, parent_b = pairs.coords
    weights = pairs.tocsr()  # pairs is sorted, so the entry order is kept
    weights.data = weights.data / area_a[parent_a]
    polygon_pair = np.searchsorted(parent_a * shape[1] + parent_b,
                                   rows * shape[1] + cols)
    return Supermesh(parent_a, parent_b, pairs.data, weights, area_a, area_b,
                     polygons, polygon_pair[:len(polygons)])


def _convex_pieces(side: InterfaceFaceSet) -> tuple[np.ndarray, np.ndarray]:
    """Convex CCW pieces of a side's faces in face order: the face index of
    each piece and the pieces as one stack. Non-convex quads are split at a
    reflex vertex. Faces wound against their side's majority orientation
    are reoriented with a warning (a consistently flipped side, e.g. from
    an arbitrary projection basis, is normalized silently)."""
    majority_ccw = 2 * np.count_nonzero(side.ccw) >= len(side.ccw)
    for i in np.flatnonzero(side.ccw != majority_ccw).tolist():
        warnings.warn(f"reorienting inconsistently wound face {i} "
                      f"on side {side.side}")
    faces, n = _stack(side.faces)
    faces = _ccw(faces, n)
    split = np.flatnonzero(~_convex(faces, n))
    if (n[split] != 4).any():
        i = split[n[split] != 4][0]
        raise ValueError(f"non-convex face {i} on side {side.side} with "
                         f"{n[i]} vertices is not supported")
    # two triangles from the vertex after the offending turn
    reflex = np.argmin(_turns(faces[split], n[split])[:, :4], axis=1) + 1
    tris = _take(faces[split], (reflex[:, None] + [0, 1, 2, 0, 2, 3]) % 4)
    tris = _ccw(tris.reshape(-1, 3, 2), np.full(2 * len(split), 3))
    face = np.concatenate([np.delete(np.arange(len(n)), split),
                           np.repeat(split, 2)])
    pieces = np.concatenate([np.delete(faces, split, axis=0), _take(
        tris, _slots(np.full(len(tris), 3), faces.shape[1]))])
    order = np.argsort(face, kind="stable")
    return face[order], pieces[order]


def _bounding_circles(pieces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre (vertex mean) and radius (farthest vertex) of each piece."""
    n = _counts(pieces)
    centres = np.cumsum(pieces, axis=1)[np.arange(len(n)), n - 1] / n[:, None]
    radii = np.linalg.norm(pieces - centres[:, None], axis=2).max(axis=1)
    return centres, radii


def _candidates(pieces_a: np.ndarray, pieces_b: np.ndarray, snap: float):
    """Index arrays of the (A piece, B piece) pairs whose bounding circles
    may overlap, sorted by A piece, then B piece."""
    (centres_a, radii_a), (centres_b, radii_b) = map(_bounding_circles,
                                                     (pieces_a, pieces_b))
    # pieces overlap only if their centres are within r_a + r_b
    near = cKDTree(centres_b).query_ball_point(
        centres_a, radii_a + radii_b.max() + snap, return_sorted=True)
    ia = np.repeat(np.arange(len(near)), [len(c) for c in near])
    return ia, np.fromiter(chain.from_iterable(near), dtype=np.intp,
                           count=len(ia))


def build_supermesh(side_a: InterfaceFaceSet,
                    side_b: InterfaceFaceSet) -> Supermesh:
    """All pairwise intersections between the two face sets.

    Intersection areas below 1e-14 of the smaller parent are discarded as
    slivers. Faces are emitted sorted by (A index, B index).
    """
    if side_a.manifold_dim != side_b.manifold_dim:
        raise ValueError("both sides must share the manifold dimension")
    if side_a.manifold_dim == 1:
        return _build_supermesh_1d(side_a, side_b)

    all_pts = np.vstack([np.vstack(side_a.faces), np.vstack(side_b.faces)])
    diag = float(np.linalg.norm(all_pts.max(axis=0) - all_pts.min(axis=0)))
    snap = 1e-12 * max(diag, 1e-300)

    face_a, pieces_a = _convex_pieces(side_a)
    face_b, pieces_b = _convex_pieces(side_b)
    ia, ib = _candidates(pieces_a, pieces_b, snap)
    overlaps = clip_convex(pieces_a[ia], pieces_b[ib], snap=snap)
    hit = np.flatnonzero([len(p) for p in overlaps])
    stack, n = _stack([overlaps[i] for i in hit.tolist()])
    area = np.abs(_signed_areas(stack, n))  # polygon_area of each overlap
    rows, cols = face_a[ia[hit]], face_b[ib[hit]]
    keep = area > 1e-14 * np.minimum(side_a.measures[rows],
                                     side_b.measures[cols])
    return _assemble(rows[keep], cols[keep], area[keep], side_a.measures,
                     side_b.measures,
                     tuple(overlaps[i] for i in hit[keep].tolist()))


def _build_supermesh_1d(side_a: InterfaceFaceSet,
                        side_b: InterfaceFaceSet) -> Supermesh:
    len_a = side_a.measures
    len_b = side_b.measures
    seg_a = np.asarray(side_a.faces)[:, None, :]
    seg_b = np.asarray(side_b.faces)[None, :, :]
    overlap = np.minimum(seg_a[..., 1], seg_b[..., 1]) - \
        np.maximum(seg_a[..., 0], seg_b[..., 0])
    ia, ib = np.nonzero(overlap > 1e-14 * np.minimum(len_a[:, None],
                                                      len_b[None, :]))
    return _assemble(ia, ib, overlap[ia, ib], len_a, len_b)


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
    _, _, vt = np.linalg.svd(pts - origin, full_matrices=False)
    basis = vt[:2]
    offset = float(np.abs((pts - origin) @ vt[2]).max()) if len(vt) > 2 else 0.0
    return PlaneProjection(origin, basis, offset)


@dataclass(frozen=True)
class CylinderProjection:
    """Unwrap of a z-axis cylinder to (arc length, z) coordinates."""

    radius: float
    cut_angle: float

    def project(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        theta = np.mod(theta - self.cut_angle, 2.0 * np.pi)
        return np.column_stack([self.radius * theta, pts[:, 2]])


def fit_cylinder_z(points: np.ndarray) -> CylinderProjection:
    """Cylinder about +z; the branch cut goes through the largest angular
    gap so no face straddles it."""
    pts = np.asarray(points, dtype=float)
    radius = float(np.linalg.norm(pts[:, :2], axis=1).mean())
    theta = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
    gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
    k = int(np.argmax(gaps))
    cut = theta[k] + 0.5 * gaps[k]
    return CylinderProjection(radius, float(cut))


def interface_from_markers(mesh: Mesh, marker_a: str, marker_b: str,
                           projection: str = "auto"):
    """Project two mesh markers onto a shared parameterization.

    Returns (side_a, side_b, projection_object). projection may be "auto",
    "plane", or "cylinder-z"; auto falls back to the cylinder when the
    plane fit leaves points more than 1e-6 of the diagonal out of plane.
    """
    faces_a = mesh.markers.get(marker_a)
    faces_b = mesh.markers.get(marker_b)
    if faces_a is None or faces_b is None:
        missing = marker_a if faces_a is None else marker_b
        raise KeyError(f"unknown marker {missing!r}")
    if len(faces_a) == 0 or len(faces_b) == 0:
        raise ValueError("interface markers must contain faces")

    idx = np.unique(np.fromiter(chain.from_iterable(faces_a + faces_b),
                                dtype=np.intp))
    cloud = mesh.points[idx]

    def faces_of(projected, faces):
        return tuple(projected[np.searchsorted(idx, f)] for f in faces)

    if mesh.dim == 2:
        origin = cloud.mean(axis=0)
        _, _, vt = np.linalg.svd(cloud - origin, full_matrices=False)
        axis = vt[0]
        line = (cloud - origin) @ axis
        return (InterfaceFaceSet("A", faces_of(line, faces_a), manifold_dim=1),
                InterfaceFaceSet("B", faces_of(line, faces_b), manifold_dim=1),
                ("line", origin, axis))

    proj: PlaneProjection | CylinderProjection
    if projection == "plane":
        proj = fit_plane(cloud)
    elif projection == "cylinder-z":
        proj = fit_cylinder_z(cloud)
    elif projection == "auto":
        plane = fit_plane(cloud)
        diag = float(np.linalg.norm(cloud.max(axis=0) - cloud.min(axis=0)))
        proj = plane if plane.max_offset <= 1e-6 * max(diag, 1e-300) \
            else fit_cylinder_z(cloud)
    else:
        raise ValueError(f"unknown projection {projection!r}")

    flat = proj.project(cloud)
    return (InterfaceFaceSet("A", faces_of(flat, faces_a)),
            InterfaceFaceSet("B", faces_of(flat, faces_b)),
            proj)
