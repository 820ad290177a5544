"""Time-stepping driver for blade-motion mesh deformation sweeps.

Per step the azimuthal rotation is applied as a rigid rotation of the whole
grid while the hinge-frame flap/lead-lag/pitch motion of each blade marker
is absorbed by RBF deformation in the rotating frame. Grid velocities come
from position history: zero at the first state, first-order backward at the
second, second-order backward differences afterwards.
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
    """Yield one StepResult per physical time step, step 0 included.

    The as-built mesh is taken as the blade geometry at zero flap, lead-lag
    and pitch, each blade marker sitting at its own azimuth offset
    2 pi i / n_blades in marker order. Step 0 therefore already deforms the
    mesh into the t = 0 attitude.
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

    omega = cfg.omega
    dt = cfg.revolution_period / steps_per_rev
    n_steps = int(round(steps_per_rev * revolutions))

    rotor_points = np.array(mesh.points)
    lab_history: list[np.ndarray] = []

    for k in range(n_steps + 1):
        t = k * dt
        psi = omega * t
        displacements = {}
        for blade in blades:
            psi_blade = psi + blade.offset
            beta = eval_series(cfg.flap, psi_blade)
            delta = eval_series(cfg.leadlag, psi_blade)
            theta = eval_series(cfg.pitch, psi_blade)
            c_hinge = hinge_matrix(beta, delta, theta)
            hinge_frame = hinge + (blade.reference - hinge) @ c_hinge.T
            target = hinge_frame @ blade.rotate_into_place.T
            displacements[blade.name] = target - rotor_points[blade.indices]

        frame = mesh.with_points(rotor_points)
        result = deform_mesh(frame, displacements,
                             fixed_markers=cfg.fixed_markers, config=cfg.rbf)
        rotor_points = np.array(result.mesh.points)
        quality = result.quality_after

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

        if quality.negative_volume_count > 0:
            raise DeformationFailure(k, k - 1, quality)

        yield StepResult(
            step=k, time=t, psi=psi, points=lab_points,
            grid_velocity=velocity, velocity_scheme=scheme, quality=quality,
            history=result.history,
            surface_max_err=result.history.final_max_err)
