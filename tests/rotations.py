"""Single-axis blade rotations, the factors that hinge_matrix, written out
explicitly in the package, is checked against: flap x lead-lag x pitch."""

import numpy as np


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
