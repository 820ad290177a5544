"""Radial basis function mesh deformation.

Surface displacements are interpolated by a weighted sum of strictly
positive definite radial kernels and evaluated at volume nodes. Control
points are chosen by a multi-level greedy worst-point selection: each level
grows its center set one worst-residual point at a time up to a cap, the
next level interpolates whatever residual is left, and the final field is
the sum of the per-level fields. The greedy loop grows a Newton basis of
the centers by one column per added point and re-solves only once per
level to verify the level's solution. The field is evaluated the same way
for every kernel, compact or global: a dense kernel matrix per block of
targets times the weights. solve_weights can add an affine polynomial to
the kernel sum; the greedy selection does not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import QualityReport, orthogonality_metrics
from .kinematics import _check, _count, _positive
from .mesh import Mesh

KERNEL_KINDS = ("wendland_c2", "gaussian", "inverse_multiquadric")

EVAL_CHUNK = 256  # targets per evaluate_field block
LEVEL_CAPS = (8, 32, 64, 256)  # default cumulative caps of the greedy levels


class RbfSystemError(RuntimeError):
    """Singular or hopelessly ill-conditioned interpolation system."""

    def __init__(self, message: str, condition: float | None = None):
        if condition is not None:
            message += f" (condition estimate {condition:.3e})"
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class RbfKernel:
    """Strictly positive definite radial kernel: its kernel matrix alone
    has a Cholesky factor (Wendland C2: Wendland, Adv. Comput. Math. 4,
    1995). support_radius is the compact support of wendland_c2 and the
    shape parameter of the gaussian and the inverse multiquadric."""

    kind: str
    support_radius: float

    def __post_init__(self):
        _check(self, kind=(lambda v: isinstance(v, str) and v in KERNEL_KINDS,
                           "one of " + ", ".join(KERNEL_KINDS)),
               support_radius=(_positive, "a finite positive number"))


def kernel_eval(kernel: RbfKernel, d):
    """Evaluate the kernel at distances d >= 0 (scalar or array); NaN
    distances raise like negative ones. Every kernel is at most 1 and
    falls to 0 at far (even infinite) distances, with no warning."""
    d = np.asarray(d, dtype=float)
    if not np.all(d >= 0.0):
        raise ValueError("distances must be non-negative, not NaN")
    rho = kernel.support_radius
    if kernel.kind == "wendland_c2":
        # (1 - q)^4 (4q + 1) on the values inside the compact support only,
        # in place on q = d / rho and on one compact array of those values
        out = np.divide(d, rho, out=np.empty_like(d))
        inside = out < 1.0
        q = out[inside]
        poly = 1.0 - q
        poly **= 4
        q *= 4.0
        q += 1.0
        poly *= q
        out.fill(0.0)
        out[inside] = poly
    else:  # the gaussian and the inverse multiquadric of (d / rho)^2
        with np.errstate(over="ignore"):
            r2 = (d / rho) ** 2
        out = np.exp(-r2) if kernel.kind == "gaussian" \
            else 1.0 / np.sqrt(1.0 + r2)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class RbfSolution:
    """Solved displacement field f(r) = sum_i alpha_i phi(|r - r_i|) + affine."""

    centers: np.ndarray            # (m, 3)
    weights: np.ndarray            # (m, k)
    kernel: RbfKernel
    affine: np.ndarray | None = None  # (4, k): constant, x, y, z rows


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances (n, m) from rows x (n, c) to rows y (m, c), bit
    for bit as scipy's cdist: the squared coordinate differences summed in
    coordinate order, then the square root; far points give inf."""
    with np.errstate(over="ignore"):
        sq = x[:, 0, None] - y[:, 0]
        sq *= sq
        d = np.empty_like(sq)
        for c in range(1, x.shape[1]):
            np.subtract(x[:, c, None], y[:, c], out=d)
            d *= d
            sq += d
    return np.sqrt(sq, out=sq)


def _poly_block(points: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((len(points), 1)), points])


def _assemble(centers: np.ndarray, dist: np.ndarray, data: np.ndarray,
              kernel: RbfKernel, with_affine: bool):
    phi = kernel_eval(kernel, dist)
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


def _rows(what: str, points, displacements=None):
    """points as float coordinate rows (1-D: one point) and displacements,
    if given, as (n, k) rows, one per point, n > 0; names a non-finite row."""
    rows = {what: np.atleast_2d(np.asarray(points, dtype=float))}
    if displacements is not None:
        rows["displacement"] = np.asarray(displacements, dtype=float)
    for name, a in rows.items():
        if a.ndim != 2:
            raise ValueError(f"{name}s must be 2-D rows, got shape {a.shape}")
        bad = ~np.isfinite(a).all(axis=1)
        if bad.any():
            raise ValueError(f"{name} {int(np.argmax(bad))} is not finite; "
                             f"{name}s must be finite")
    pts, data = rows[what], rows.get("displacement")
    if data is not None and not 0 < len(pts) == len(data):
        raise ValueError(f"need at least one {what} and one displacement "
                         f"per {what}, got {len(pts)} and {len(data)}")
    return pts, data


def _solve_dense(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve with one refinement pass; an exactly zero LU pivot or a
    non-finite solution (rank-deficient affine blocks, e.g. coplanar
    centers) goes to least squares."""
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:  # a zero pivot
        x = None
    if x is not None and np.all(np.isfinite(x)):
        x += np.linalg.solve(a, rhs - a @ x)
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
    cannot reproduce the data, and ValueError for duplicate centers or for
    rows _rows rejects.
    """
    centers, data = _rows("center", centers, displacements)
    dist = _distances(centers, centers)
    # a zero off the diagonal is a duplicate center
    if np.count_nonzero(dist == 0.0) > len(centers):
        raise ValueError("duplicate centers")

    a, rhs = _assemble(centers, dist, data, kernel, with_affine)
    x = _solve_dense(a, rhs)
    m = len(centers)
    sol = RbfSolution(centers, x[:m], kernel, x[m:] if with_affine else None)

    scale = 1.0 + float(np.abs(data).max(initial=0.0))
    err = float(np.abs(evaluate_field(sol, centers) - data).max())
    if err > 1e-8 * scale:
        raise RbfSystemError(
            f"interpolation residual {err:.3e} exceeds tolerance; system is "
            "ill-conditioned", condition=float(np.linalg.cond(a)))
    return sol


def evaluate_field(solution: RbfSolution, targets) -> np.ndarray:
    """Displacement field at target points: per block of EVAL_CHUNK targets,
    the dense kernel matrix of the block against the centers times the
    weights, for every kernel. Non-finite targets raise ValueError."""
    targets, _ = _rows("target", targets)
    out = np.empty((len(targets), solution.weights.shape[1]))
    for start in range(0, len(targets), EVAL_CHUNK):
        block = targets[start:start + EVAL_CHUNK]
        out[start:start + len(block)] = kernel_eval(solution.kernel, _distances(
            block, solution.centers)) @ solution.weights
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


def _check_greedy(settings, tol_name: str = "tol") -> None:
    """The greedy controls of settings, an RbfConfig or greedy_select's
    arguments: a ValueError naming the first that breaks its rule."""
    _check(settings, **{
        tol_name: (_positive, "a finite positive number"),
        "level_caps": (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                       and all(map(_count, v))
                       and all(a < b for a, b in zip(v, v[1:])),
                       "a non-empty, strictly increasing list of positive "
                       "integers")})


def _extend_newton(cols: np.ndarray, factor: np.ndarray, selected: list[int],
                   start: int, phi0: float, pts: np.ndarray,
                   kernel: RbfKernel) -> None:
    """Turn the kernel columns cols[:, start:m] of the selected centers into
    Newton basis columns (Pazouki & Schaback, J. Comput. Appl. Math. 236,
    2011) and extend the lower Cholesky factor of their kernel matrix, one
    center at a time: the center's Cholesky row l is the basis row at that
    center, the new pivot is d^2 = phi(0) - l.l, and its basis column is
    (kernel column - basis @ l) / d, one n x j product per center. A pivot
    that is not positive raises RbfSystemError, naming both surface points
    if the center coincides with a selected one."""
    for j in range(start, len(selected)):
        row = cols[selected[j], :j].copy()
        d2 = phi0 - float(row @ row)
        if not (np.isfinite(d2) and d2 > np.finfo(float).eps * phi0):
            same = np.flatnonzero(
                (pts[selected[:j]] == pts[selected[j]]).all(axis=1))
            if len(same):
                raise RbfSystemError(
                    f"duplicate centers: surface points {selected[same[0]]} "
                    f"and {selected[j]} coincide")
            centers = pts[selected[:j + 1]]
            block = kernel_eval(kernel, _distances(centers, centers))
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


def _kernel_column(kernel: RbfKernel, pts: np.ndarray, i: int) -> np.ndarray:
    """The kernel column of point i at every point: the kernel of the
    _distances column to point i."""
    return kernel_eval(kernel, _distances(pts, pts[[i]])[:, 0])


def greedy_select(surface_points, displacements, kernel: RbfKernel,
                  tol: float, level_caps=LEVEL_CAPS
                  ) -> tuple[RbfSolution, GreedyHistory]:
    """Multi-level greedy control-point reduction.

    Each iteration adds the worst-residual surface point; a level ends
    when the cumulative point count reaches its cap, and the following
    level interpolates the remaining residual (previously selected points
    stay in the center set, pinning the field there). Terminates once the
    max surface residual drops below tol.

    The surface residual is kept in a Newton basis of the selected
    centers: an added point costs one basis column (an n x m product) and
    a rank-1 residual update. Each level ends with a solve_weights call on
    its centers, whose checked solution, residual and error make the
    level's record and decide convergence. tol and level_caps are checked
    as RbfConfig checks them.
    """
    pts, data = _rows("surface point", surface_points, displacements)
    _check_greedy(SimpleNamespace(tol=tol, level_caps=level_caps))

    n = len(pts)
    selected = [int(np.argmax(np.linalg.norm(data, axis=1)))]
    residual = data.copy()
    # Newton basis columns of the selected centers at every surface point,
    # one added per selected point, and the Cholesky factor of their
    # kernel matrix
    width = min(level_caps[-1], n)
    cols = np.empty((n, width), order="F")
    cols[:, :1] = kernel_eval(kernel, _distances(pts, pts[selected]))
    phi0 = kernel_eval(kernel, 0.0)
    factor = np.zeros((width, width))
    _extend_newton(cols, factor, selected, 0, phi0, pts, kernel)

    level_records: list[GreedyLevel] = []
    # each level's solution is added in as the level ends
    total_weights = np.zeros((width, data.shape[1]))
    converged = False

    for level, cap in enumerate(level_caps):
        level_t0 = time.perf_counter()
        m = len(selected)
        # residual left by interpolating this level's data on the centers
        running = residual - cols[:, :m] @ np.linalg.solve(
            factor[:m, :m], residual[selected])
        while True:
            m = len(selected)
            at_cap = m >= min(cap, n)
            err = np.linalg.norm(running, axis=1)
            nxt = None if at_cap or err.max() < tol \
                else _next_point(err, selected)
            if nxt is None:
                sol = solve_weights(pts[selected], residual[selected], kernel)
                # the weights' Newton basis coefficients are L^T w
                err_vec = residual - cols[:, :m] @ (factor[:m, :m].T
                                                    @ sol.weights)
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
            cols[:, m] = _kernel_column(kernel, pts, nxt)
            _extend_newton(cols, factor, selected, m, phi0, pts, kernel)
            running = running - np.outer(cols[:, m],
                                         running[nxt] / factor[m, m])
        level_records.append(GreedyLevel(
            level=level + 1, points=len(selected), max_err=max_err,
            mean_err=float(err.mean()),
            seconds=time.perf_counter() - level_t0))
        total_weights[:len(selected)] += sol.weights
        residual = err_vec
        if converged:
            break

    merged = RbfSolution(pts[selected], total_weights[:len(selected)], kernel)
    return merged, GreedyHistory(tuple(level_records), converged)


@dataclass(frozen=True)
class RbfConfig:
    """Deformation settings: the kernel and the greedy controls, checked
    on construction as greedy_select checks them."""

    kernel: RbfKernel
    greedy_tol: float = 1e-6
    level_caps: tuple[int, ...] = LEVEL_CAPS

    def __post_init__(self):
        _check_greedy(self, "greedy_tol")


@dataclass(frozen=True)
class DeformResult:
    mesh: Mesh
    history: GreedyHistory
    quality_after: QualityReport


def deform_mesh(mesh: Mesh, indices, displacements, *,
                config: RbfConfig) -> DeformResult:
    """Deform the volume mesh so each listed point moves by its row of
    displacements and every other point follows the interpolated field.

    The indices are distinct, in any order; a point that must stay put is
    listed with a zero row, and no marker merging is done. The greedy sees
    the points sorted by index, so their order does not change the result.
    """
    idx = np.asarray(indices)
    disp = np.asarray(displacements, dtype=float)
    if idx.ndim != 1 or disp.shape != (len(idx), 3):
        raise ValueError(f"expected 1-D indices and (n, 3) displacements, "
                         f"got shapes {idx.shape} and {disp.shape}")
    order = np.argsort(idx)
    idx, disp = idx[order], disp[order]
    if len(idx) and not 0 <= idx[0] <= idx[-1] < len(mesh.points):
        raise ValueError(f"point indices must lie in [0, {len(mesh.points)})")
    again = idx[1:][idx[1:] == idx[:-1]]
    if len(again):
        raise ValueError(f"point {again[0]} is listed twice")

    if np.abs(disp).max(initial=0.0) == 0.0:
        # nothing moves; keep the exact point array
        history = GreedyHistory((GreedyLevel(1, 0, 0.0, 0.0, 0.0),), True)
        return DeformResult(mesh, history, orthogonality_metrics(mesh))

    solution, history = greedy_select(
        mesh.points[idx], disp, config.kernel,
        tol=config.greedy_tol, level_caps=config.level_caps)
    displacement = evaluate_field(solution, mesh.points)
    deformed = mesh.with_points(mesh.points + displacement)
    return DeformResult(deformed, history, orthogonality_metrics(deformed))
