"""Time-stepping driver for blade-motion mesh deformation sweeps.

Blades move rigidly about their hinge, so in the rotating frame blade b moves
by (x - h_b) @ A_b(psi), A_b = R_b (C^T - I) R_b^T for the hinge matrix C and
the blade's offset rotation R_b. RBF interpolation on fixed centers is linear
in its data: one greedy selection per blade marker, before the first step,
solves a basis field G_b (x - h_b on blade b, zero on the other markers), and
a step's rotating-frame grid is X + sum_b G_b @ A_b(psi), rotated rigidly to
its azimuth taken within the first revolution. Later revolutions therefore
repeat the first bit for bit, in the lab frame too, and reuse its quality.
Grid velocities come from the lab-frame history: zero at the first state,
first-order backward at the second, second-order backward (BDF2) after, so
every BDF2 step repeats the velocity of the BDF2 steps at its phase.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

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
    psi: float                      # azimuth omega * time, radians
    points: np.ndarray              # lab-frame coordinates at psi mod 2 pi
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
    the basis. Step k takes the hinge motion, the lab-frame points and the
    quality report of step k % steps_per_rev and carries the run's greedy
    history and its own surface error. On call, before any step runs, the
    arguments are checked and the hinge motion of every phase tabulated:
    more blade markers than n_blades, a 2D mesh, a blade marker that shares
    a point with another blade or fixed marker, and a steps_per_rev whose
    table numpy cannot size or hold are each a ValueError.
    """
    if steps_per_rev < 1:
        raise ValueError("steps_per_rev must be >= 1")
    if not 0 <= revolutions < np.inf:  # NaN fails too
        raise ValueError("revolutions must be finite and >= 0")
    # compared first: an int beyond float range times a float overflows
    if steps_per_rev > sys.float_info.max \
            or steps_per_rev * revolutions == np.inf:
        raise ValueError(f"steps_per_rev x revolutions = {steps_per_rev} x "
                         f"{revolutions:g} is not a finite step count")
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
    if len(blade_markers) > cfg.n_blades:
        raise ValueError(f"{len(blade_markers)} blade markers for a rotor "
                         f"of n_blades = {cfg.n_blades}")

    markers = {name: extract_marker_points(mesh, name)[0]
               for name in (*blade_markers, *cfg.fixed_markers)}
    if mesh.dim != 3:  # flap and pitch move a blade out of a 2D mesh's plane
        raise ValueError("deformation needs a 3D mesh, got a 2D one")
    for i, name in enumerate(blade_markers):  # a blade moves its points alone
        for other in (*blade_markers[i + 1:], *cfg.fixed_markers):
            shared = len(np.intersect1d(markers[name], markers[other],
                                        assume_unique=True))
            if shared:
                kind = "fixed" if other in cfg.fixed_markers else "blade"
                raise ValueError(f"blade marker {name!r} shares {shared} "
                                 f"points with {kind} marker {other!r}")

    dt = cfg.revolution_period / steps_per_rev
    offsets = 2.0 * np.pi * np.arange(len(blade_markers)) / cfg.n_blades
    rots = np.stack([azimuth_matrix(offset) for offset in offsets])
    try:  # a phase count numpy cannot size or a table it cannot hold
        phases = cfg.omega * (np.arange(steps_per_rev) * dt)
        motions = np.empty((steps_per_rev, len(offsets), 3, 3))
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"steps_per_rev {steps_per_rev} is too many: "
                         f"{exc}") from None
    # every step takes one of the phases of revolution 1: C_b^T for each
    # phase and blade, (steps_per_rev, n_blades, 3, 3), then the stacked A_b
    c_hinge = hinge_matrix(*(eval_series(s, phases[:, None] + offsets)
                             for s in (cfg.flap, cfg.leadlag, cfg.pitch)))
    np.matmul(rots @ (c_hinge.transpose(2, 3, 1, 0) - np.eye(3)),
              rots.transpose(0, 2, 1), out=motions)
    return _steps(mesh, cfg, blade_markers, markers, dt, rots, phases,
                  motions, revolutions)


def _steps(mesh: Mesh, cfg: MotionConfig, blade_markers: list,
           markers: dict, dt: float, rots: np.ndarray, phases: np.ndarray,
           motions: np.ndarray, revolutions: float) -> Iterator[StepResult]:
    steps_per_rev = len(phases)
    points = mesh.points
    # every marker point once, and its rigid displacement per unit of each
    # A_b: x - h_b on blade b, h_b its own hinge, and zero elsewhere
    surface = np.unique(np.concatenate(list(markers.values())))
    rigid = np.zeros((len(surface), 3 * len(blade_markers)))
    for b, (name, rot) in enumerate(zip(blade_markers, rots)):
        rigid[np.searchsorted(surface, markers[name]), 3 * b:3 * b + 3] = \
            points[markers[name]] - rot @ np.asarray(cfg.hinge)
    # each basis field is solved on its rigid displacement times n_blades
    # times the largest ||A_b||_2 of any step, so a greedy converged to
    # greedy_tol keeps every step's surface error below it
    scale = len(blade_markers) * np.linalg.norm(motions, 2,
                                                axis=(-2, -1)).max()
    fields, levels, converged = [], [], True
    for unit in np.hsplit(scale * rigid, len(blade_markers)):
        res = deform_mesh(mesh, surface, unit, config=cfg.rbf)
        # with no hinge motion nothing moves and every field is zero
        fields.append((res.mesh.points - points) / (scale or 1.0))
        before = levels[-1].points if levels else 0
        levels += [replace(lv, level=len(levels) + i,
                           points=before + lv.points)
                   for i, lv in enumerate(res.history.levels, start=1)]
        converged = converged and res.history.converged
    basis = np.hstack(fields)
    history = GreedyHistory(tuple(levels), converged)
    reports: list[QualityReport] = []  # one per first-revolution step
    previous: list[np.ndarray] = []    # the last two lab-frame grids

    for k in range(int(round(steps_per_rev * revolutions)) + 1):
        j = k % steps_per_rev
        motion = motions[j].reshape(-1, 3)
        rotor_points = points + basis @ motion
        if j == len(reports):
            report = orthogonality_metrics(mesh.with_points(rotor_points))
            if report.negative_volume_count > 0:
                raise DeformationFailure(k, k - 1, report)
            reports.append(report)
        surface_err = np.linalg.norm(
            rotor_points[surface] - points[surface] - rigid @ motion,
            axis=1).max(initial=0.0)

        lab_points = rotor_points @ azimuth_matrix(phases[j]).T
        if len(previous) == 2:
            velocity = grid_velocity_bdf2(lab_points, *previous[::-1], dt)
        elif previous:
            velocity = grid_velocity_backward(lab_points, previous[0], dt)
        else:
            velocity = np.zeros_like(lab_points)
        scheme = ("zero", "backward1", "bdf2")[len(previous)]
        previous = [*previous[-1:], lab_points]

        yield StepResult(
            step=k, time=k * dt, psi=cfg.omega * (k * dt), points=lab_points,
            rotor_points=rotor_points, grid_velocity=velocity,
            velocity_scheme=scheme, quality=reports[j], history=history,
            surface_max_err=float(surface_err))
