"""Radial basis function mesh deformation.

Surface displacements are interpolated by a weighted sum of radial kernels
(plus an optional affine polynomial) and evaluated at volume nodes. Control
points are chosen by a multi-level greedy worst-point selection: each level
grows its center set one worst-residual point at a time up to a cap, the
next level interpolates whatever residual is left, and the final field is
the sum of the per-level fields. For positive definite kernels the greedy
loop grows a Newton basis of the centers by one column per added point and
re-solves only once per level to verify the level's solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_triangular
from scipy.sparse import coo_array
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .geometry import QualityReport, orthogonality_metrics
from .mesh import Mesh, extract_marker_points

KERNEL_KINDS = ("wendland_c2", "thin_plate_spline", "gaussian",
                "multiquadric", "inverse_multiquadric")

_NEEDS_RADIUS = ("wendland_c2", "gaussian", "multiquadric",
                 "inverse_multiquadric")

# Strictly positive definite in 3D: the kernel matrix alone has a Cholesky
# factor (Wendland C2: Wendland, Adv. Comput. Math. 4, 1995).
_SPD_KINDS = ("wendland_c2", "gaussian", "inverse_multiquadric")

EVAL_CHUNK = 2048  # targets per evaluate_field block


class RbfSystemError(RuntimeError):
    """Singular or hopelessly ill-conditioned interpolation system."""

    def __init__(self, message: str, condition: float | None = None):
        if condition is not None:
            message += f" (condition estimate {condition:.3e})"
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class RbfKernel:
    """Radial kernel; support_radius doubles as the shape parameter for the
    gaussian and multiquadric families and is unused by the thin plate
    spline."""

    kind: str
    support_radius: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind in _NEEDS_RADIUS:
            if self.support_radius is None or self.support_radius <= 0.0:
                raise ValueError(
                    f"{self.kind} kernel requires a positive support_radius")

    @property
    def compact(self) -> bool:
        return self.kind == "wendland_c2"


def kernel_eval(kernel: RbfKernel, d):
    """Evaluate the kernel at distances d >= 0 (scalar or array)."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("distances must be non-negative")
    rho = kernel.support_radius
    if kernel.kind == "wendland_c2":
        q = d / rho
        out = np.zeros_like(q)
        inside = q < 1.0  # compact support: evaluate only inside it
        q = q[inside]
        out[inside] = (1.0 - q) ** 4 * (4.0 * q + 1.0)
    elif kernel.kind == "thin_plate_spline":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(d > 0.0, d * d * np.log(np.where(d > 0.0, d, 1.0)),
                           0.0)
    elif kernel.kind == "gaussian":
        out = np.exp(-((d / rho) ** 2))
    elif kernel.kind == "multiquadric":
        out = np.sqrt(1.0 + (d / rho) ** 2)
    else:  # inverse_multiquadric
        out = 1.0 / np.sqrt(1.0 + (d / rho) ** 2)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class RbfSolution:
    """Solved displacement field f(r) = sum_i alpha_i phi(|r - r_i|) + affine."""

    centers: np.ndarray            # (m, 3)
    weights: np.ndarray            # (m, k)
    kernel: RbfKernel
    affine: np.ndarray | None = None  # (4, k): constant, x, y, z rows


def _poly_block(points: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((len(points), 1)), points])


def _assemble(centers: np.ndarray, data: np.ndarray, kernel: RbfKernel,
              with_affine: bool):
    phi = kernel_eval(kernel, cdist(centers, centers))
    if not with_affine:
        return phi, data
    p = _poly_block(centers)
    m = len(centers)
    a = np.zeros((m + 4, m + 4))
    a[:m, :m] = phi
    a[:m, m:] = p
    a[m:, :m] = p.T
    rhs = np.vstack([data, np.zeros((4, data.shape[1]))])
    return a, rhs


def _solve_dense(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve with one refinement pass; least-squares fallback for
    rank-deficient affine blocks (e.g. coplanar centers)."""
    try:
        lu = lu_factor(a)
        x = lu_solve(lu, rhs)
        if np.all(np.isfinite(x)):
            x += lu_solve(lu, rhs - a @ x)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.isfinite(x)):
        x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        if not np.all(np.isfinite(x)):
            raise RbfSystemError("interpolation system is singular",
                                 condition=float(np.linalg.cond(a)))
    return x


def solve_weights(centers, displacements, kernel: RbfKernel,
                  with_affine: bool = False) -> RbfSolution:
    """Solve the dense symmetric interpolation system per component.

    Raises RbfSystemError (with a condition estimate) when the system
    cannot reproduce the data, and ValueError for duplicate centers.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    data = np.asarray(displacements, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if len(centers) != len(data):
        raise ValueError("one displacement per center required")
    if len(centers) == 0:
        raise ValueError("at least one center required")
    if len(centers) > 1:
        d2 = cdist(centers, centers)
        np.fill_diagonal(d2, np.inf)
        if d2.min() == 0.0:
            raise ValueError("duplicate centers")

    a, rhs = _assemble(centers, data, kernel, with_affine)
    x = _solve_dense(a, rhs)
    m = len(centers)
    weights = x[:m]
    affine = x[m:] if with_affine else None
    sol = RbfSolution(centers, weights, kernel, affine)

    achieved = evaluate_field(sol, centers)
    scale = 1.0 + float(np.abs(data).max(initial=0.0))
    err = float(np.abs(achieved - data).max())
    if err > 1e-8 * scale:
        raise RbfSystemError(
            f"interpolation residual {err:.3e} exceeds tolerance; system is "
            "ill-conditioned", condition=float(np.linalg.cond(a)))
    return sol


def evaluate_field(solution: RbfSolution, targets) -> np.ndarray:
    """Displacement field at target points, in blocks of EVAL_CHUNK targets.

    Compact kernels build one KD-tree of the centers and, per block, one
    sparse kernel matrix of the (target, center) pairs inside the support
    times the weights; other kernels evaluate each block densely.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n = len(targets)
    k = solution.weights.shape[1]
    out = np.zeros((n, k))
    centers = solution.centers
    kernel = solution.kernel
    sparse = kernel.compact and n * len(centers) > 512 * 512
    if sparse:
        center_tree = cKDTree(centers)

    for start in range(0, n, EVAL_CHUNK):
        block = targets[start:start + EVAL_CHUNK]
        if sparse:
            pairs = cKDTree(block).sparse_distance_matrix(
                center_tree, kernel.support_radius, output_type="ndarray")
            # canonical CSR: centers ascending within each target's row
            phi = coo_array((kernel_eval(kernel, pairs["v"]),
                             (pairs["i"], pairs["j"])),
                            shape=(len(block), len(centers))).tocsr()
        else:
            phi = kernel_eval(kernel, cdist(block, centers))
        out[start:start + len(block)] = phi @ solution.weights

    if solution.affine is not None:
        out += _poly_block(targets) @ solution.affine
    return out


@dataclass(frozen=True)
class GreedyLevel:
    level: int
    points: int          # cumulative selected control points at level end
    max_err: float       # meters, over all surface points
    mean_err: float
    seconds: float


@dataclass(frozen=True)
class GreedyHistory:
    levels: tuple[GreedyLevel, ...]
    converged: bool

    @property
    def selected_points(self) -> int:
        return self.levels[-1].points if self.levels else 0

    @property
    def final_max_err(self) -> float:
        return self.levels[-1].max_err if self.levels else 0.0


def _affine_seed(points: np.ndarray, first: int) -> list[int]:
    """First point plus up to three more spanning points so the affine
    block starts well-posed (farthest-point heuristic)."""
    seed = [first]
    if len(points) < 2:
        return seed
    d = np.linalg.norm(points - points[first], axis=1)
    seed.append(int(np.argmax(d)))
    if len(points) < 3:
        return seed
    ab = points[seed[1]] - points[seed[0]]
    area = np.linalg.norm(np.cross(ab, points - points[seed[0]]), axis=1)
    area[seed] = -1.0
    third = int(np.argmax(area))
    if area[third] > 0.0:
        seed.append(third)
    if len(points) >= 4 and len(seed) == 3:
        normal = np.cross(ab, points[seed[2]] - points[seed[0]])
        height = np.abs((points - points[seed[0]]) @ normal)
        height[seed] = -1.0
        fourth = int(np.argmax(height))
        if height[fourth] > 0.0:
            seed.append(fourth)
    return seed


def _extend_newton(cols: np.ndarray, factor: np.ndarray, selected: list[int],
                   start: int, phi0: float, pts: np.ndarray,
                   kernel: RbfKernel) -> None:
    """Turn the kernel columns cols[:, start:m] of the selected centers into
    Newton basis columns (Pazouki & Schaback, J. Comput. Appl. Math. 236,
    2011) and extend the lower Cholesky factor of their kernel matrix, one
    center at a time: the center's Cholesky row l is the basis row at that
    center, the new pivot is d^2 = phi(0) - l.l, and its basis column is
    (kernel column - basis @ l) / d, one n x j product per center."""
    for j in range(start, len(selected)):
        row = cols[selected[j], :j].copy()
        d2 = phi0 - float(row @ row)
        if not (np.isfinite(d2) and d2 > np.finfo(float).eps * phi0):
            centers = pts[selected[:j + 1]]
            block = kernel_eval(kernel, cdist(centers, centers))
            raise RbfSystemError(
                f"kernel matrix not positive definite at center {j + 1} "
                f"(pivot {d2:.3e})", condition=float(np.linalg.cond(block)))
        d = np.sqrt(d2)
        cols[:, j] -= cols[:, :j] @ row
        cols[:, j] /= d
        factor[j, :j] = row
        factor[j, j] = d


def _next_point(err: np.ndarray, selected: list[int]) -> int | None:
    """Worst-residual point not yet selected, or None if none is left."""
    masked = err.copy()
    masked[selected] = -1.0
    nxt = int(np.argmax(masked))
    return nxt if masked[nxt] > 0.0 else None


def greedy_select(surface_points, displacements, kernel: RbfKernel,
                  tol: float, level_caps=(8, 32, 64, 256),
                  with_affine: bool = False) -> tuple[RbfSolution, GreedyHistory]:
    """Multi-level greedy control-point reduction.

    Each iteration adds the worst-residual surface point and re-solves;
    a level ends when the cumulative point count reaches its cap, and the
    following level interpolates the remaining residual (previously
    selected points stay in the center set, pinning the field there).
    Terminates once the max surface residual drops below tol.

    Positive definite kernels without an affine block keep the surface
    residual in a Newton basis of the selected centers: an added point
    costs one basis column (an n x m product) and a rank-1 residual
    update. The affine level and conditionally positive kernels call
    solve_weights every iteration. Either way the level ends with a
    solve_weights call on its centers, whose checked solution, residual
    and error make the level's record and decide convergence.
    """
    pts = np.atleast_2d(np.asarray(surface_points, dtype=float))
    data = np.asarray(displacements, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if len(pts) == 0:
        raise ValueError("at least one surface point required")
    if len(pts) != len(data):
        raise ValueError("one displacement per surface point required")
    if not np.all(np.isfinite(data)):
        raise ValueError("displacements must be finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    caps = [int(c) for c in level_caps]
    if not caps:
        raise ValueError("at least one level required")

    n = len(pts)
    first = int(np.argmax(np.linalg.norm(data, axis=1)))
    selected = _affine_seed(pts, first) if with_affine else [first]
    selected = list(dict.fromkeys(selected))

    residual = data.copy()
    # columns of the selected centers at every surface point, one written
    # per added point: kernel columns, turned into Newton basis columns
    # once a positive definite level needs them
    width = max(min(max(caps), n), len(selected))
    cols = np.empty((n, width), order="F")
    cols[:, :len(selected)] = kernel_eval(kernel, cdist(pts, pts[selected]))
    poly = _poly_block(pts)
    spd = kernel.kind in _SPD_KINDS
    phi0 = kernel_eval(kernel, 0.0)
    factor = np.zeros((width, width)) if spd else None
    basis = 0  # leading columns of cols that are Newton basis columns

    level_records: list[GreedyLevel] = []
    level_solutions: list[tuple[int, np.ndarray, np.ndarray | None]] = []
    converged = False

    for level, cap in enumerate(caps):
        level_t0 = time.perf_counter()
        affine_here = with_affine and level == 0
        newton = spd and not affine_here
        if newton:
            _extend_newton(cols, factor, selected, basis, phi0, pts, kernel)
            basis = len(selected)
            # residual left by interpolating this level's data on the centers
            running = residual - cols[:, :basis] @ solve_triangular(
                factor[:basis, :basis], residual[selected], lower=True)
        while True:
            m = len(selected)
            at_cap = m >= min(cap, n)
            nxt = None
            if newton:
                err = np.linalg.norm(running, axis=1)
                if not (at_cap or err.max() < tol):
                    nxt = _next_point(err, selected)
            if nxt is None:
                sol = solve_weights(pts[selected], residual[selected], kernel,
                                    with_affine=affine_here)
                # kernel weights, or their Newton basis coefficients L^T w
                coeffs = factor[:m, :m].T @ sol.weights if newton \
                    else sol.weights
                surf_field = cols[:, :m] @ coeffs
                if sol.affine is not None:
                    surf_field += poly @ sol.affine
                err_vec = residual - surf_field
                err = np.linalg.norm(err_vec, axis=1)
                max_err = float(err.max())
                if max_err < tol:
                    converged = True
                    break
                nxt = None if at_cap else _next_point(err, selected)
                if nxt is None:
                    break
                # Newton updates go on from the checked residual
                running = err_vec
            selected.append(nxt)
            cols[:, m] = kernel_eval(kernel, cdist(pts, pts[[nxt]]))[:, 0]
            if newton:
                _extend_newton(cols, factor, selected, m, phi0, pts, kernel)
                basis = m + 1
                running = running - np.outer(cols[:, m],
                                             running[nxt] / factor[m, m])
        level_records.append(GreedyLevel(
            level=level + 1, points=len(selected), max_err=max_err,
            mean_err=float(err.mean()),
            seconds=time.perf_counter() - level_t0))
        level_solutions.append((len(selected), sol.weights, sol.affine))
        residual = err_vec
        if converged:
            break

    total_weights = np.zeros((len(selected), data.shape[1]))
    affine_total: np.ndarray | None = None
    for count, weights, affine in level_solutions:
        total_weights[:count] += weights
        if affine is not None:
            affine_total = affine if affine_total is None else affine_total + affine
    merged = RbfSolution(pts[selected], total_weights, kernel, affine_total)
    return merged, GreedyHistory(tuple(level_records), converged)


@dataclass(frozen=True)
class RbfConfig:
    """Deformation settings: kernel, affine augmentation, greedy controls."""

    kernel: RbfKernel
    with_affine: bool = False
    greedy_tol: float = 1e-6
    level_caps: tuple[int, ...] = (8, 32, 64, 256)


@dataclass(frozen=True)
class DeformResult:
    mesh: Mesh
    history: GreedyHistory
    quality_after: QualityReport


def _merge_displacements(entries) -> tuple[np.ndarray, np.ndarray]:
    """One displacement per point from (indices, disp, label) entries, in
    processing order: each must be np.allclose (atol 1e-12) to the one
    before it for the same point, or the first that is not raises; the last
    one wins. Returns the sorted point indices and their displacements."""
    indices = np.concatenate([np.empty(0, np.intp), *(e[0] for e in entries)])
    disp = np.concatenate([np.empty((0, 3)), *(e[1] for e in entries)])
    order = np.argsort(indices, kind="stable")
    idx, disp = indices[order], disp[order]
    again = np.flatnonzero(idx[1:] == idx[:-1]) + 1
    bad = again[~np.isclose(disp[again - 1], disp[again],
                            atol=1e-12).all(axis=1)]
    if len(bad):
        first = int(order[bad].min())
        ends = np.cumsum([len(e[0]) for e in entries])
        label = entries[int(np.searchsorted(ends, first, side="right"))][2]
        raise ValueError(f"conflicting displacement at point "
                         f"{indices[first]} from {label}")
    last = np.diff(idx, append=-1) != 0
    return idx[last], disp[last]


def deform_mesh(mesh: Mesh, marker_displacements: dict[str, np.ndarray],
                fixed_markers=(), config: RbfConfig | None = None) -> DeformResult:
    """Deform the volume mesh so marker points follow their prescribed
    displacements while fixed markers stay put.

    Displacement arrays align with the sorted unique point indices returned
    by extract_marker_points. Overlapping markers must agree on shared
    points.
    """
    if config is None:
        raise ValueError("an RbfConfig is required")
    entries = []
    for name, disp in marker_displacements.items():
        indices, _ = extract_marker_points(mesh, name)
        disp = np.asarray(disp, dtype=float)
        if disp.shape != (len(indices), 3):
            raise ValueError(
                f"marker {name!r} expects displacement shape "
                f"{(len(indices), 3)}, got {disp.shape}")
        if not np.all(np.isfinite(disp)):
            raise ValueError(f"marker {name!r} displacement must be finite")
        entries.append((indices, disp, f"marker {name!r}"))
    for name in fixed_markers:
        indices, _ = extract_marker_points(mesh, name)
        entries.append((indices, np.zeros((len(indices), 3)),
                        f"fixed marker {name!r}"))
    surf_idx, surf_disp = _merge_displacements(entries)

    if np.abs(surf_disp).max(initial=0.0) == 0.0:
        # nothing moves; keep the exact point array
        history = GreedyHistory((GreedyLevel(1, 1, 0.0, 0.0, 0.0),), True)
        return DeformResult(mesh, history, orthogonality_metrics(mesh))

    solution, history = greedy_select(
        mesh.points[surf_idx], surf_disp, config.kernel,
        tol=config.greedy_tol, level_caps=config.level_caps,
        with_affine=config.with_affine)
    displacement = evaluate_field(solution, mesh.points)
    deformed = mesh.with_points(mesh.points + displacement)
    return DeformResult(deformed, history, orthogonality_metrics(deformed))
