"""Time-stepping driver for blade-motion mesh deformation sweeps.

Blades move rigidly about their hinge, so in the rotating frame blade b moves
by (x - h_b) @ A_b(psi), A_b = R_b (C^T - I) R_b^T for the hinge matrix C and
the blade's offset rotation R_b. RBF interpolation on fixed centers is linear
in its data: one greedy selection per blade marker, before the first step,
solves a basis field G_b (x - h_b on blade b, zero on the other markers), and
a step's rotating-frame grid is X + sum_b G_b @ A_b(psi), rotated rigidly to
its azimuth. Later revolutions repeat the first and reuse its quality. Grid
velocities come from the lab-frame history: zero at the first state,
first-order backward at the second, second-order backward (BDF2) after.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np
from scipy.linalg import block_diag

from .config import MotionConfig
from .geometry import QualityReport, orthogonality_metrics
from .kinematics import (azimuth_matrix, eval_series, grid_velocity_backward,
                         grid_velocity_bdf2, hinge_matrix)
from .mesh import Mesh, extract_marker_points
from .rbf import GreedyHistory, deform_mesh


class DeformationFailure(RuntimeError):
    """Deformation produced inverted cells; remembers the last good step."""

    def __init__(self, step: int, last_good: int, report: QualityReport):
        super().__init__(
            f"negative volumes ({report.negative_volume_count}) at step "
            f"{step}; last good step {last_good}")
        self.step = step
        self.last_good = last_good
        self.report = report


@dataclass(frozen=True)
class StepResult:
    step: int
    time: float
    psi: float                      # grid azimuth, radians
    points: np.ndarray              # lab-frame coordinates
    rotor_points: np.ndarray        # rotating-frame coordinates
    grid_velocity: np.ndarray
    velocity_scheme: str            # zero | backward1 | bdf2
    quality: QualityReport
    history: GreedyHistory
    surface_max_err: float


def run_deformation(mesh: Mesh, cfg: MotionConfig, blade_markers,
                    steps_per_rev: int = 360,
                    revolutions: float = 5.0) -> Iterator[StepResult]:
    """Iterator of one StepResult per physical time step, step 0 included.

    The as-built mesh is the blade geometry at zero flap, lead-lag and pitch,
    blade marker i sitting at azimuth offset 2 pi i / n_blades, so step 0
    already moves it into its t = 0 attitude. Before the first step,
    deform_mesh runs once per blade marker; a step is then one product with
    the basis. Step k takes the hinge motion and the quality report of step
    k % steps_per_rev and carries the run's greedy history and its own
    surface error. The arguments are checked on call, before any step runs.
    """
    if steps_per_rev < 1:
        raise ValueError("steps_per_rev must be >= 1")
    if revolutions < 0:
        raise ValueError("revolutions must be >= 0")
    blade_markers = list(blade_markers)
    if not blade_markers:
        raise ValueError("at least one blade marker required")
    if cfg.rbf is None:
        raise ValueError("config lacks [rbf] deformation settings")
    for i, name in enumerate(blade_markers):
        if name in blade_markers[:i]:
            raise ValueError(f"blade marker {name!r} is listed twice")
        if name in cfg.fixed_markers:
            raise ValueError(f"blade marker {name!r} is also a fixed marker")

    markers = {name: extract_marker_points(mesh, name)[0]
               for name in (*blade_markers, *cfg.fixed_markers)}
    return _steps(mesh, cfg, blade_markers, markers, steps_per_rev,
                  revolutions)


def _steps(mesh: Mesh, cfg: MotionConfig, blade_markers: list,
           markers: dict, steps_per_rev: int,
           revolutions: float) -> Iterator[StepResult]:
    dt = cfg.revolution_period / steps_per_rev
    points = mesh.points
    series = (cfg.flap, cfg.leadlag, cfg.pitch)
    offsets = 2.0 * np.pi * np.arange(len(blade_markers)) / cfg.n_blades
    rots = np.stack([azimuth_matrix(offset) for offset in offsets])
    # x - h_b, h_b blade b's own hinge: its displacement per unit of A_b
    arms = [points[markers[name]] - rot @ np.asarray(cfg.hinge)
            for name, rot in zip(blade_markers, rots)]
    # |eval_series| <= |mean| + sum |s_k| + sum |c_k|, and three rotations
    # by beta, delta, theta give ||C - I||_2 <= min(2, |beta| + |delta| +
    # |theta|), which bounds every ||A_b||_2. Each basis field is solved on
    # its arm times n_blades times that bound, so a greedy converged to
    # greedy_tol keeps every step's surface error below it.
    bound = sum(abs(s.mean) + sum(map(abs, s.sine_coeffs))
                + sum(map(abs, s.cosine_coeffs)) for s in series)
    scale = len(blade_markers) * min(2.0, bound)
    fields, levels, converged = [], [], True
    for name, arm in zip(blade_markers, arms):
        res = deform_mesh(mesh, {name: scale * arm}, config=cfg.rbf,
                          fixed_markers=[*cfg.fixed_markers, *(
                              b for b in blade_markers if b != name)])
        # with no hinge motion nothing moves and every field is zero
        fields.append((res.mesh.points - points) / (scale or 1.0))
        before = levels[-1].points if levels else 0
        levels += [replace(lv, level=len(levels) + i,
                           points=before + lv.points)
                   for i, lv in enumerate(res.history.levels, start=1)]
        converged = converged and res.history.converged
    basis = np.hstack(fields)
    history = GreedyHistory(tuple(levels), converged)
    # every marker point and its rigid displacement per unit of each A_b
    surface = np.concatenate(list(markers.values()))
    n_fixed = len(surface) - sum(map(len, arms))
    rigid = block_diag(*arms, np.zeros((n_fixed, 0)))
    reports: list[QualityReport] = []  # one per first-revolution step
    previous: list[np.ndarray] = []    # the last two lab-frame grids

    for k in range(int(round(steps_per_rev * revolutions)) + 1):
        psi = cfg.omega * (k * dt)
        j = k % steps_per_rev
        # C_b^T of every blade, (n_blades, 3, 3), then the stacked A_b
        c_hinge = hinge_matrix(*(eval_series(s, cfg.omega * (j * dt) + offsets)
                                 for s in series)).transpose(2, 1, 0)
        motion = (rots @ (c_hinge - np.eye(3)) @ rots.transpose(0, 2, 1)
                  ).reshape(-1, 3)
        rotor_points = points + basis @ motion
        if j == len(reports):
            report = orthogonality_metrics(mesh.with_points(rotor_points))
            if report.negative_volume_count > 0:
                raise DeformationFailure(k, k - 1, report)
            reports.append(report)
        surface_err = np.linalg.norm(
            rotor_points[surface] - points[surface] - rigid @ motion,
            axis=1).max(initial=0.0)

        lab_points = rotor_points @ azimuth_matrix(psi).T
        if len(previous) == 2:
            velocity = grid_velocity_bdf2(lab_points, *previous[::-1], dt)
        elif previous:
            velocity = grid_velocity_backward(lab_points, previous[0], dt)
        else:
            velocity = np.zeros_like(lab_points)
        scheme = ("zero", "backward1", "bdf2")[len(previous)]
        previous = [*previous[-1:], lab_points]

        yield StepResult(
            step=k, time=k * dt, psi=psi, points=lab_points,
            rotor_points=rotor_points, grid_velocity=velocity,
            velocity_scheme=scheme, quality=reports[j], history=history,
            surface_max_err=float(surface_err))
