"""Time-stepping driver for blade-motion mesh deformation sweeps.

Per step the azimuthal rotation is applied as a rigid rotation of the whole
grid while the hinge-frame flap/lead-lag/pitch motion of each blade marker
is absorbed by RBF deformation of the as-built mesh in the rotating frame.
The motion depends on the azimuth alone, so the rotating-frame state of
step k is that of step k - steps_per_rev: the first revolution is computed
and later ones replay it, which keeps the grid periodic. Grid velocities
come from the lab-frame position history: zero at the first state,
first-order backward at the second, second-order backward differences
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import MotionConfig
from .geometry import QualityReport
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


@dataclass(frozen=True)
class _BladeMarker:
    name: str
    indices: np.ndarray
    reference: np.ndarray           # blade coordinates at azimuth zero
    offset: float
    rotate_into_place: np.ndarray   # azimuth_matrix(offset)


def run_deformation(mesh: Mesh, cfg: MotionConfig, blade_markers,
                    steps_per_rev: int = 360,
                    revolutions: float = 5.0) -> Iterator[StepResult]:
    """Iterator of one StepResult per physical time step, step 0 included.

    The as-built mesh is taken as the blade geometry at zero flap, lead-lag
    and pitch, each blade marker sitting at its own azimuth offset
    2 pi i / n_blades in marker order. Every step deforms the as-built mesh,
    so step 0 already moves it into the t = 0 attitude. Steps from
    steps_per_rev on yield the stored rotating-frame state of step
    k % steps_per_rev (points, quality and greedy history), rotated to
    their own azimuth; the store holds steps_per_rev x n_points x 3
    floats. The arguments are checked on call, before any step runs.
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

    hinge = np.asarray(cfg.hinge)
    blades = []
    for i, name in enumerate(blade_markers):
        indices, coords = extract_marker_points(mesh, name)
        offset = 2.0 * np.pi * i / cfg.n_blades
        rot = azimuth_matrix(offset)
        blades.append(_BladeMarker(
            name=name, indices=indices, reference=coords @ rot,
            offset=offset, rotate_into_place=rot))
    for name in cfg.fixed_markers:
        extract_marker_points(mesh, name)  # existence check
    return _steps(mesh, cfg, hinge, blades, steps_per_rev, revolutions)


def _steps(mesh: Mesh, cfg: MotionConfig, hinge: np.ndarray, blades: list,
           steps_per_rev: int, revolutions: float) -> Iterator[StepResult]:
    omega = cfg.omega
    dt = cfg.revolution_period / steps_per_rev
    n_steps = int(round(steps_per_rev * revolutions))

    # first-revolution states that a later step replays
    stored: list[tuple[np.ndarray, QualityReport, GreedyHistory]] = []
    lab_history: list[np.ndarray] = []

    for k in range(n_steps + 1):
        t = k * dt
        psi = omega * t
        if k < steps_per_rev:
            displacements = {}
            for blade in blades:
                psi_blade = psi + blade.offset
                beta = eval_series(cfg.flap, psi_blade)
                delta = eval_series(cfg.leadlag, psi_blade)
                theta = eval_series(cfg.pitch, psi_blade)
                c_hinge = hinge_matrix(beta, delta, theta)
                hinge_frame = hinge + (blade.reference - hinge) @ c_hinge.T
                target = hinge_frame @ blade.rotate_into_place.T
                displacements[blade.name] = target - mesh.points[blade.indices]
            result = deform_mesh(mesh, displacements,
                                 fixed_markers=cfg.fixed_markers,
                                 config=cfg.rbf)
            state = (result.mesh.points, result.quality_after,
                     result.history)
            if result.quality_after.negative_volume_count > 0:
                raise DeformationFailure(k, k - 1, result.quality_after)
            if k + steps_per_rev <= n_steps:
                stored.append(state)
        else:
            state = stored[k % steps_per_rev]
        rotor_points, quality, history = state

        lab_points = rotor_points @ azimuth_matrix(psi).T
        if len(lab_history) >= 2:
            velocity = grid_velocity_bdf2(lab_points, lab_history[-1],
                                          lab_history[-2], dt)
            scheme = "bdf2"
        elif len(lab_history) == 1:
            velocity = grid_velocity_backward(lab_points, lab_history[-1], dt)
            scheme = "backward1"
        else:
            velocity = np.zeros_like(lab_points)
            scheme = "zero"
        lab_history.append(lab_points)
        if len(lab_history) > 2:
            lab_history.pop(0)

        yield StepResult(
            step=k, time=t, psi=psi, points=lab_points,
            rotor_points=rotor_points, grid_velocity=velocity,
            velocity_scheme=scheme, quality=quality, history=history,
            surface_max_err=history.final_max_err)
