"""Conservative supermesh construction between non-conformal interfaces.

Both interface sides are first projected to a common plane (or line for 2D
domains). Every overlapping pair of faces contributes an intersection
polygon; its area divided by the receiving face's area is the donor weight
used for conservative data exchange. Candidate pairs come from a uniform
background bin grid sized to the median face diameter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csr_array

from .mesh import Mesh


def signed_area(poly: np.ndarray) -> float:
    """Shoelace signed area of a planar polygon (k, 2)."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def polygon_area(poly: np.ndarray) -> float:
    """Absolute polygon area; 0 for degenerate/collinear input."""
    return abs(signed_area(poly))


def is_convex(poly: np.ndarray) -> bool:
    """Cross-product sign test; collinear vertices are allowed."""
    poly = np.asarray(poly, dtype=float)
    n = len(poly)
    if n < 3:
        return False
    e = np.roll(poly, -1, axis=0) - poly
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - \
        e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    scale = max(float(np.abs(cross).max()), 1e-300)
    cross = cross / scale
    return bool(np.all(cross >= -1e-12) or np.all(cross <= 1e-12))


def ensure_ccw(poly: np.ndarray) -> np.ndarray:
    return poly if signed_area(poly) >= 0.0 else poly[::-1].copy()


def _dedupe(poly: np.ndarray, snap: float) -> np.ndarray:
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


def clip_convex(poly_a: np.ndarray, poly_b: np.ndarray,
                snap: float | None = None) -> np.ndarray:
    """Intersection of two convex polygons (Sutherland-Hodgman).

    Inputs may be CW or CCW; the result is CCW, empty (0, 2) when the
    polygons are disjoint. Raises ValueError for non-convex input.
    """
    a = np.asarray(poly_a, dtype=float)
    b = np.asarray(poly_b, dtype=float)
    if len(a) < 3 or len(b) < 3:
        raise ValueError("polygons need at least 3 vertices")
    if not is_convex(a) or not is_convex(b):
        raise ValueError("clip_convex requires convex polygons")
    a = ensure_ccw(a)
    b = ensure_ccw(b)

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


def _edge_intersection(s: np.ndarray, e: np.ndarray, side_s: float,
                       side_e: float) -> np.ndarray:
    """Crossing point of segment s-e with the clip line, from the signed
    side values (linear along the segment). Near-parallel edges can push u
    outside [0, 1]; clamping snaps the crossing onto the segment."""
    u = side_s / (side_s - side_e)
    u = min(max(u, 0.0), 1.0)
    return s + u * (e - s)


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
    """

    side: str
    faces: tuple[np.ndarray, ...]
    manifold_dim: int = 2

    def __post_init__(self):
        if len(self.faces) == 0:
            raise ValueError(f"interface side {self.side!r} has no faces")
        faces = []
        for i, f in enumerate(self.faces):
            f = np.asarray(f, dtype=float)
            if self.manifold_dim == 2:
                if f.ndim != 2 or f.shape[1] != 2 or len(f) < 3:
                    raise ValueError(f"face {i}: expected (k>=3, 2) polygon")
                if polygon_area(f) <= 0.0:
                    raise ValueError(f"face {i}: zero-area polygon")
            else:
                f = np.sort(f.reshape(2))
                if f[1] - f[0] <= 0.0:
                    raise ValueError(f"face {i}: zero-length segment")
            faces.append(f)
        object.__setattr__(self, "faces", tuple(faces))

    @property
    def measures(self) -> np.ndarray:
        if self.manifold_dim == 2:
            return np.asarray([polygon_area(f) for f in self.faces])
        return np.asarray([f[1] - f[0] for f in self.faces])


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
        rows = zip(self.parent_a.tolist(), self.parent_b.tolist(),
                   self.area.tolist(), self.weights.data.tolist())
        lines = ["a_face,b_face,area,weight"]
        lines.extend(f"{a},{b},{area:.12g},{w:.12g}" for a, b, area, w in rows)
        return "\n".join(lines) + "\n"


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


def _split_convex(face: np.ndarray, index: int, side: str,
                  majority_ccw: bool = True):
    """Yield convex CCW pieces of a face; non-convex quads are split at a
    reflex vertex. Faces wound against their side's majority orientation
    are reoriented with a warning (a consistently flipped side, e.g. from
    an arbitrary projection basis, is normalized silently)."""
    ccw = signed_area(face) >= 0.0
    if ccw != majority_ccw:
        warnings.warn(f"reorienting inconsistently wound face {index} "
                      f"on side {side}")
    if not ccw:
        face = face[::-1].copy()
    if is_convex(face):
        yield face
        return
    if len(face) != 4:
        raise ValueError(
            f"non-convex face {index} on side {side} with {len(face)} "
            "vertices is not supported")
    e = np.roll(face, -1, axis=0) - face
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - \
        e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    reflex = int(np.argmin(cross))  # vertex after the offending turn
    reflex = (reflex + 1) % 4
    order = [(reflex + k) % 4 for k in range(4)]
    yield ensure_ccw(face[[order[0], order[1], order[2]]])
    yield ensure_ccw(face[[order[0], order[2], order[3]]])


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

    ccw_a = np.count_nonzero([signed_area(f) >= 0.0 for f in side_a.faces])
    ccw_b = np.count_nonzero([signed_area(f) >= 0.0 for f in side_b.faces])
    pieces_a = []
    for i, f in enumerate(side_a.faces):
        for piece in _split_convex(f, i, "A", 2 * ccw_a >= len(side_a.faces)):
            pieces_a.append((i, piece))
    pieces_b = []
    for j, f in enumerate(side_b.faces):
        for piece in _split_convex(f, j, "B", 2 * ccw_b >= len(side_b.faces)):
            pieces_b.append((j, piece))

    # uniform background bins sized to the median face diameter
    diameters = [np.linalg.norm(p.max(axis=0) - p.min(axis=0))
                 for _, p in pieces_a + pieces_b]
    h = float(np.median(diameters))
    h = h if h > 0.0 else 1.0
    lo = all_pts.min(axis=0)

    def bin_range(poly):
        bmin = np.floor((poly.min(axis=0) - lo) / h).astype(int)
        bmax = np.floor((poly.max(axis=0) - lo) / h).astype(int)
        return bmin, bmax

    bins: dict[tuple[int, int], list[int]] = {}
    for k, (_, poly) in enumerate(pieces_b):
        bmin, bmax = bin_range(poly)
        for bx in range(bmin[0], bmax[0] + 1):
            for by in range(bmin[1], bmax[1] + 1):
                bins.setdefault((bx, by), []).append(k)

    area_a = side_a.measures
    area_b = side_b.measures
    rows: list[int] = []
    cols: list[int] = []
    areas: list[float] = []
    polygons: list[np.ndarray] = []
    for ia, poly_a in pieces_a:
        bmin, bmax = bin_range(poly_a)
        candidates: set[int] = set()
        for bx in range(bmin[0], bmax[0] + 1):
            for by in range(bmin[1], bmax[1] + 1):
                candidates.update(bins.get((bx, by), ()))
        for k in sorted(candidates):
            ib, poly_b = pieces_b[k]
            overlap = clip_convex(poly_a, poly_b, snap=snap)
            if len(overlap) == 0:
                continue
            area = polygon_area(overlap)
            if area <= 1e-14 * min(area_a[ia], area_b[ib]):
                continue
            rows.append(ia)
            cols.append(ib)
            areas.append(area)
            polygons.append(overlap)
    return _assemble(rows, cols, areas, area_a, area_b, tuple(polygons))


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

    idx = sorted({v for face in faces_a + faces_b for v in face})
    cloud = mesh.points[np.asarray(idx, dtype=np.intp)]

    if mesh.dim == 2:
        origin = cloud.mean(axis=0)
        _, _, vt = np.linalg.svd(cloud - origin, full_matrices=False)
        axis = vt[0]
        segs_a = [np.sort((mesh.points[list(f)] - origin) @ axis)
                  for f in faces_a]
        segs_b = [np.sort((mesh.points[list(f)] - origin) @ axis)
                  for f in faces_b]
        return (InterfaceFaceSet("A", tuple(segs_a), manifold_dim=1),
                InterfaceFaceSet("B", tuple(segs_b), manifold_dim=1),
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

    def project_faces(faces):
        return tuple(proj.project(mesh.points[list(f)]) for f in faces)

    return (InterfaceFaceSet("A", project_faces(faces_a)),
            InterfaceFaceSet("B", project_faces(faces_b)),
            proj)
