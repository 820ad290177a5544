"""Output checks. Each check reads what the program produced and decides,
with the benchmark's own arithmetic, whether an operation failed.

The geometry here is deliberately independent of the package: hexahedron
volumes come from a fixed face triangulation about the vertex mean, and the
overlap of two convex polygons from their vertices and edge crossings, not
from Sutherland-Hodgman clipping.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

# Outward faces of a positively ordered hexahedron.
_HEX_FACES = ((0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
              (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7))

WEIGHT_SUM_TOL = 1e-9
AREA_RTOL = 1e-9
CONSERVATION_RTOL = 1e-9


def hex_volumes(points: np.ndarray, hexes: np.ndarray) -> np.ndarray:
    """Signed volumes: tetrahedra from the vertex mean to each face
    triangle, quads split along their 0-2 diagonal."""
    corners = points[hexes]                       # (n, 8, 3)
    apex = corners.mean(axis=1)
    vol = np.zeros(len(hexes))
    for a, b, c, d in _HEX_FACES:
        for p, q, r in ((a, b, c), (a, c, d)):
            u = corners[:, p] - apex
            v = corners[:, q] - apex
            w = corners[:, r] - apex
            vol += np.einsum("ij,ij->i", u, np.cross(v, w)) / 6.0
    return vol


def step_failures(converged: bool, points: np.ndarray, hexes: np.ndarray,
                  velocity: np.ndarray) -> list[str]:
    """Reasons a deformation step failed; empty when it passed."""
    reasons = []
    if not converged:
        reasons.append("greedy did not converge")
    inverted = int(np.count_nonzero(hex_volumes(points, hexes) <= 0.0))
    if inverted:
        reasons.append(f"{inverted} inverted cells")
    if not np.all(np.isfinite(velocity)):
        reasons.append("non-finite grid velocity")
    return reasons


def drift(first: np.ndarray, last: np.ndarray) -> float:
    """Largest distance any node moved between two states."""
    return float(np.linalg.norm(last - first, axis=1).max())


# ---------------------------------------------------------------------------
# `rotormesh deform` artifacts
# ---------------------------------------------------------------------------

def greedy_final_errors(text: str) -> dict[int, float]:
    """Final-level max_err per step from greedy.csv."""
    final: dict[int, float] = {}
    for row in csv.DictReader(io.StringIO(text)):
        final[int(row["step"])] = float(row["max_err"])
    return final


def quality_min_orth(text: str) -> dict[int, float]:
    return {int(row["step"]): float(row["min_orthogonality_deg"])
            for row in csv.DictReader(io.StringIO(text))}


def read_vtk_frame(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Points and the grid_velocity vectors of a legacy ASCII VTK frame."""
    lines = text.splitlines()
    head = next(i for i, s in enumerate(lines) if s.startswith("POINTS "))
    n = int(lines[head].split()[1])
    points = np.array(" ".join(lines[head + 1:head + 1 + n]).split(),
                      dtype=float).reshape(n, 3)
    vec = lines.index("VECTORS grid_velocity double")
    velocity = np.array(" ".join(lines[vec + 1:vec + 1 + n]).split(),
                        dtype=float).reshape(n, 3)
    return points, velocity


def cli_failures(exit_code: int, outdir: Path, n_steps: int, tol: float,
                 hexes: np.ndarray) -> tuple[dict[int, list[str]], dict]:
    """Failed steps of one `rotormesh deform` run, and each frame's points
    for the drift figure."""
    if exit_code != 0:
        return {k: [f"exit code {exit_code}"] for k in range(n_steps)}, {}
    final = greedy_final_errors((outdir / "greedy.csv").read_text())
    failed: dict[int, list[str]] = {}
    frames = {}
    for k in range(n_steps):
        path = outdir / f"step_{k:04d}.vtk"
        if not path.exists():
            failed[k] = ["missing frame"]
            continue
        points, velocity = read_vtk_frame(path.read_text())
        converged = final.get(k, np.inf) < tol
        reasons = step_failures(converged, points, hexes, velocity)
        if reasons:
            failed[k] = reasons
        frames[k] = points
    return failed, frames


# ---------------------------------------------------------------------------
# Sliding interface
# ---------------------------------------------------------------------------

def _cross(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - \
        (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0])


def inside_convex(poly: np.ndarray, pts: np.ndarray,
                  tol: float = 0.0) -> np.ndarray:
    """Points inside (or within tol of) a CCW convex polygon."""
    pts = np.atleast_2d(pts)
    ok = np.ones(len(pts), dtype=bool)
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        edge = np.linalg.norm(b - a)
        ok &= _cross(a, b, pts) >= -tol * edge
    return ok


def shoelace(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def convex_overlap_area(p: np.ndarray, q: np.ndarray) -> float:
    """Area of the intersection of two CCW convex polygons.

    The intersection is the convex hull of the vertices of each polygon that
    lie inside the other plus every crossing of their edges; it is ordered
    by angle about its vertex mean.
    """
    pts = [p[inside_convex(q, p, 1e-12)], q[inside_convex(p, q, 1e-12)]]
    for i in range(len(p)):
        a, b = p[i], p[(i + 1) % len(p)]
        for j in range(len(q)):
            c, d = q[j], q[(j + 1) % len(q)]
            den = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
            if den == 0.0:
                continue
            t = ((c[0] - a[0]) * (d[1] - c[1]) -
                 (c[1] - a[1]) * (d[0] - c[0])) / den
            u = ((c[0] - a[0]) * (b[1] - a[1]) -
                 (c[1] - a[1]) * (b[0] - a[0])) / den
            if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
                pts.append((a + t * (b - a))[None])
    hull = np.vstack(pts)
    if len(hull) < 3:
        return 0.0
    center = hull.mean(axis=0)
    order = np.argsort(np.arctan2(hull[:, 1] - center[1],
                                  hull[:, 0] - center[0]))
    return abs(shoelace(hull[order]))


def read_weights(text: str) -> dict[str, np.ndarray]:
    """The weights CSV as arrays a_face, b_face, area, weight."""
    body = np.array([line.split(",") for line in text.splitlines()[1:]],
                    dtype=float).reshape(-1, 4)
    return {"a_face": body[:, 0].astype(np.intp),
            "b_face": body[:, 1].astype(np.intp),
            "area": body[:, 2], "weight": body[:, 3]}


def supermesh_failures(weights: dict[str, np.ndarray], faces_a: np.ndarray,
                       outline_a: np.ndarray,
                       outline_b: np.ndarray) -> list[str]:
    """Reasons the weights are wrong; empty when they pass.

    A faces lying wholly inside side B's outline must have weight sums of
    1, and the total intersection area must equal the overlap of the two
    sides' outlines.
    """
    reasons = []
    sums = np.bincount(weights["a_face"], weights["weight"],
                       minlength=len(faces_a))
    covered = inside_convex(outline_b, faces_a.reshape(-1, 2),
                            -1e-9).reshape(len(faces_a), -1).all(axis=1)
    bad = int(np.count_nonzero(np.abs(sums[covered] - 1.0) > WEIGHT_SUM_TOL))
    if not covered.any():
        reasons.append("no A face lies inside side B")
    if bad:
        reasons.append(f"{bad} covered A faces have weight sums off 1")
    expected = convex_overlap_area(outline_a, outline_b)
    total = float(weights["area"].sum())
    if abs(total - expected) > AREA_RTOL * expected:
        reasons.append(f"total area {total!r} differs from the outline "
                       f"overlap {expected!r}")
    return reasons


def exchange_conserved(weights: dict[str, np.ndarray], area_a: np.ndarray,
                       values_b: np.ndarray, values_a: np.ndarray) -> bool:
    """sum over A of area * value equals sum over the supermesh of
    intersection area * donor value, per component."""
    donor = values_b[weights["b_face"]] * weights["area"][:, None]
    expected = donor.sum(axis=0)
    got = (values_a * area_a[:, None]).sum(axis=0)
    scale = np.abs(donor).sum(axis=0)
    return bool(np.all(np.abs(got - expected) <= CONSERVATION_RTOL * scale))
