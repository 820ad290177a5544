"""Rigid rotor-blade kinematics.

Motion laws are truncated Fourier series in azimuth with the rotorcraft
sign convention value = mean - sum_k (s_k sin k*psi + c_k cos k*psi).
Blade attitude is the composition of flap (about y), lead-lag (about z)
and pitch (about x) rotations applied about the hinge point, followed by
the azimuthal rotation of the whole rotor about +z.

Sign conventions follow the combined flap/lead-lag/pitch matrix: positive
pitch rotates +y toward +z (leading edge up for a blade along +x), positive
lead-lag rotates +x toward +y, and positive flap rotates +x toward -z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MotionSeries:
    """Fourier motion law: mean - sum_k (s_k sin k*psi + c_k cos k*psi).

    Coefficients are radians; index k starts at 1. Harmonics beyond the
    supplied coefficients are zero.
    """

    mean: float = 0.0
    sine_coeffs: tuple[float, ...] = ()
    cosine_coeffs: tuple[float, ...] = ()


def eval_series(series: MotionSeries, psi):
    """Evaluate a MotionSeries at azimuth psi (radians, scalar or array)."""
    psi = np.asarray(psi, dtype=float)
    value = np.full(psi.shape, series.mean)
    for k, s in enumerate(series.sine_coeffs, start=1):
        value -= s * np.sin(k * psi)
    for k, c in enumerate(series.cosine_coeffs, start=1):
        value -= c * np.cos(k * psi)
    return value if value.shape else float(value)


@dataclass(frozen=True)
class BladeMotion:
    """Blade motion laws plus hinge location and rotor speed (about +z)."""

    flap: MotionSeries
    leadlag: MotionSeries
    pitch: MotionSeries
    hinge: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rotation_rate: float = 1.0      # rad/s
    azimuth_offset: float = 0.0     # per-blade phase, radians

    def __post_init__(self):
        if not self.rotation_rate > 0.0:
            raise ValueError("rotation_rate must be positive")
        object.__setattr__(self, "hinge", tuple(float(c) for c in self.hinge))

    def azimuth(self, t: float) -> float:
        return self.rotation_rate * t + self.azimuth_offset


@dataclass(frozen=True)
class FlightCondition:
    """Rotor operating point; advance ratio defaults to the Mach ratio.

    If both advance_ratio and freestream_mach are supplied they must be
    consistent (mu = M_inf / M_tip) to within 1e-6.
    """

    tip_mach: float
    rotor_radius: float
    advance_ratio: float | None = None
    freestream_mach: float | None = None
    thrust_coefficient: float | None = None

    def __post_init__(self):
        if self.tip_mach <= 0.0:
            raise ValueError("tip_mach must be positive")
        mu, minf = self.advance_ratio, self.freestream_mach
        if mu is None and minf is None:
            object.__setattr__(self, "advance_ratio", 0.0)
            object.__setattr__(self, "freestream_mach", 0.0)
        elif mu is None:
            object.__setattr__(self, "advance_ratio", minf / self.tip_mach)
        elif minf is None:
            object.__setattr__(self, "freestream_mach", mu * self.tip_mach)
        elif abs(mu - minf / self.tip_mach) > 1e-6:
            raise ValueError(
                f"advance_ratio {mu} inconsistent with freestream/tip Mach "
                f"ratio {minf / self.tip_mach}")


def azimuth_matrix(psi: float) -> np.ndarray:
    """Proper rotation by psi about +z."""
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def flap_matrix(beta: float) -> np.ndarray:
    """Flap rotation about +y (positive flap takes +x toward -z)."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def leadlag_matrix(delta: float) -> np.ndarray:
    """Lead-lag rotation about +z (positive takes +x toward +y)."""
    c, s = np.cos(delta), np.sin(delta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def pitch_matrix(theta: float) -> np.ndarray:
    """Pitch rotation about +x (positive takes +y toward +z)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def hinge_matrix(beta: float, delta: float, theta: float) -> np.ndarray:
    """Combined flap * lead-lag * pitch rotation, written out explicitly."""
    cb, sb = np.cos(beta), np.sin(beta)
    cd, sd = np.cos(delta), np.sin(delta)
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([
        [cb * cd, sb * st - cb * ct * sd, ct * sb + cb * sd * st],
        [sd, cd * ct, -cd * st],
        [-cd * sb, cb * st + ct * sb * sd, cb * ct - sb * sd * st],
    ])


def blade_point(x, motion: BladeMotion, t: float, *,
                keep_hinge_offset: bool = True):
    """Position of blade point(s) x at time t, plus the hinge-frame stage.

    Returns (position, hinge_frame) where hinge_frame is the point after
    the flap/lead-lag/pitch rotation but before the azimuthal rotation.
    With keep_hinge_offset the hinge acts as a fixed pivot,
    hinge_frame = x_hinge + C_hinge (x - x_hinge); without it the hinge
    offset is dropped, hinge_frame = C_hinge (x - x_hinge), which slides
    the blade root onto the rotation axis.
    """
    x = np.asarray(x, dtype=float)
    psi = motion.azimuth(t)
    beta = eval_series(motion.flap, psi)
    delta = eval_series(motion.leadlag, psi)
    theta = eval_series(motion.pitch, psi)
    hinge = np.asarray(motion.hinge)
    c_hinge = hinge_matrix(beta, delta, theta)
    rel = (x - hinge) @ c_hinge.T
    hinge_frame = hinge + rel if keep_hinge_offset else rel
    position = hinge_frame @ azimuth_matrix(psi).T
    return position, hinge_frame


def blade_normal_mach(r_over_R, fc: FlightCondition, psi):
    """Blade normal Mach number M_tip (r/R + mu sin psi).

    Negative values on the retreating side indicate reverse flow.
    """
    r = np.asarray(r_over_R, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError("r_over_R must lie in [0, 1]")
    out = fc.tip_mach * (r + fc.advance_ratio * np.sin(psi))
    return out if out.shape else float(out)


def rotating_frame_velocity(omega, r):
    """Rigid-rotation velocity omega x r (both broadcastable to (..., 3))."""
    return np.cross(np.asarray(omega, dtype=float), np.asarray(r, dtype=float))


def grid_velocity_bdf2(x_np1, x_n, x_nm1, dt: float):
    """Second-order backward-difference grid velocity.

    (3 x^{n+1} - 4 x^n + x^{n-1}) / (2 dt), applied componentwise.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    x_np1 = np.asarray(x_np1, dtype=float)
    x_n = np.asarray(x_n, dtype=float)
    x_nm1 = np.asarray(x_nm1, dtype=float)
    if x_np1.shape != x_n.shape or x_n.shape != x_nm1.shape:
        raise ValueError("position arrays must have matching shapes")
    return (3.0 * x_np1 - 4.0 * x_n + x_nm1) / (2.0 * dt)


def grid_velocity_backward(x_np1, x_n, dt: float):
    """First-order one-sided grid velocity for start-up steps."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    x_np1 = np.asarray(x_np1, dtype=float)
    x_n = np.asarray(x_n, dtype=float)
    if x_np1.shape != x_n.shape:
        raise ValueError("position arrays must have matching shapes")
    return (x_np1 - x_n) / dt


def rpm_to_rad_s(rpm: float) -> float:
    return rpm * 2.0 * np.pi / 60.0
