"""Harmonic-balance spectral time-derivative operator.

A signal resolved by the K positive tones w_k (and so by 0 and -w_k) is
represented by its values at N = 2K + 1 time instances. The operator matrix
maps those samples to the samples of the exact time derivative of the
trigonometric interpolant: H = E' E^-1, where E evaluates the real basis
{1, cos(w_k t), sin(w_k t)} at the instances and E' its derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MAX_CONDITION = 1e12  # of a basis matrix build_operator accepts
_OVERSAMPLING = 32   # candidate instances per instance for the pivoted QR
# no instance set beats sqrt(2): the constant column gives sigma_max >=
# sqrt(N), and any cos/sin pair has a column that gives sigma_min <= sqrt(N/2)
_OPTIMAL_CONDITION = math.sqrt(2.0) * (1.0 + 1e-9)


@dataclass(frozen=True)
class FrequencySet:
    """The K positive angular frequencies (rad/s) of a harmonic-balance set,
    given in any order and kept sorted; 0 and the negated tones follow from
    them. Its base period is 2 pi over the smallest tone, its window 2 pi over
    the smallest gap in {0, w_1, ..., w_K}; harmonics builds w1, ..., K w1."""

    positive: tuple[float, ...]
    window: float = field(init=False, repr=False)

    def __post_init__(self):
        tones = tuple(sorted(float(w) for w in self.positive))
        if not tones or not all(0 < w < math.inf for w in tones):  # NaN fails
            raise ValueError(f"need positive finite tones (0 and the negative "
                             f"ones follow from them), got {list(tones)}")
        gaps = [b - a for a, b in zip((0.0, *tones), tones)]
        if 0.0 in gaps:  # two equal tones make the basis singular
            raise ValueError(f"tone {tones[gaps.index(0.0)]!r} is repeated")
        object.__setattr__(self, "positive", tones)
        # in Python floats a subnormal gap gives inf, not a numpy warning
        object.__setattr__(self, "window", 2.0 * math.pi / min(gaps))
        # instances i T / N < N T or in [0, W) with T <= W, phases below w_K W
        if not math.isfinite(self.count * self.window * max(*tones, 1.0)):
            raise ValueError(f"tones {list(tones)} have time instances or "
                             f"phases over their window that overflow")

    @classmethod
    def harmonics(cls, omega1: float, count: int) -> "FrequencySet":
        """omega1, 2 omega1, ..., count * omega1."""
        return cls(tuple(k * omega1 for k in range(1, count + 1)))

    @property
    def count(self) -> int:
        return 2 * len(self.positive) + 1

    @property
    def base_period(self) -> float:
        return 2.0 * np.pi / self.positive[0]


@dataclass(frozen=True)
class SpectralOperator:
    """Dense real N x N spectral derivative matrix with its time instances."""

    matrix: np.ndarray
    instances: np.ndarray
    condition: float

    @property
    def size(self) -> int:
        return len(self.instances)


def choose_instances(fs: FrequencySet) -> np.ndarray:
    """The fs.count time instances: the N equispaced ones over the base
    period when their condition is sqrt(2), the optimum, within 1e-9 (for
    multiples of the smallest tone no two of which alias there); otherwise
    the N, sorted, that QR with column pivoting of the basis matrix picks
    first from _OVERSAMPLING N golden-ratio points W frac(j phi) over the
    window W (Kundert et al., IEEE MTT 36(2), 1988; Guedeney et al., 2013).
    numpy has no pivoted QR, so only this path imports scipy.linalg: a
    second BLAS that every other command does without."""
    n = fs.count
    base = np.arange(n) * fs.base_period / n
    if np.linalg.cond(_basis_matrix(fs, base)[0]) <= _OPTIMAL_CONDITION:
        return base
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    candidates = fs.window * (np.arange(_OVERSAMPLING * n) * golden % 1.0)
    import scipy.linalg
    pivots = scipy.linalg.qr(_basis_matrix(fs, candidates)[0].T,
                             pivoting=True, mode="r")[1]
    return np.sort(candidates[pivots[:n]])


def _basis_matrix(fs: FrequencySet, instances: np.ndarray):
    t = np.asarray(instances, dtype=float)
    cols = [np.ones_like(t)]
    dcols = [np.zeros_like(t)]
    for w in fs.positive:
        cols.extend([np.cos(w * t), np.sin(w * t)])
        dcols.extend([-w * np.sin(w * t), w * np.cos(w * t)])
    return np.stack(cols, axis=-1), np.stack(dcols, axis=-1)


def build_operator(fs: FrequencySet) -> SpectralOperator:
    """Spectral derivative operator of the frequency set at the instances
    choose_instances picks; a ValueError reports the condition when its
    basis matrix E is near-singular there."""
    t = choose_instances(fs)
    e, edot = _basis_matrix(fs, t)
    cond = float(np.linalg.cond(e))
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ValueError(
            f"basis matrix near-singular at these instances "
            f"(condition estimate {cond:.3e})")
    h = np.linalg.solve(e.T, edot.T).T
    return SpectralOperator(h, t, cond)


def apply(op: SpectralOperator, samples) -> np.ndarray:
    """Per-instance time derivative: H @ samples along the first axis."""
    values = np.asarray(samples, dtype=float)
    if values.shape[0] != op.size:
        raise ValueError(
            f"expected {op.size} per-instance samples, got {values.shape[0]}")
    return (op.matrix @ values.reshape(op.size, -1)).reshape(values.shape)
