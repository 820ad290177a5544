"""Harmonic-balance spectral time-derivative operator.

A signal resolved by frequencies (0, +-w_1, ..., +-w_K) is represented by
its values at N = 2K + 1 time instances. The operator matrix maps those
samples to the samples of the exact time derivative of the trigonometric
interpolant: H = E' E^-1, where E evaluates the real basis
{1, cos(w_k t), sin(w_k t)} at the instances and E' its derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_COMMENSURATE_RTOL = 1e-9
_MAX_CONDITION = 1e12  # of a basis matrix build_operator accepts
_CANDIDATES = 200    # jittered instance sets tried for a non-commensurate set
_SEED = 20210527     # their seed, so the choice is reproducible


@dataclass(frozen=True)
class FrequencySet:
    """Symmetric, zero-inclusive angular frequency set (rad/s), such as
    (0, w1, -w1, 2 w1, -2 w1) in any order. Its base period is 2 pi over
    the smallest positive tone; harmonics builds the set from w1 alone."""

    frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = np.asarray(sorted(self.frequencies))
        if len(freqs) % 2 == 0 or len(freqs) == 0:
            raise ValueError("frequency count must be odd (0 plus +- pairs)")
        repeated = freqs[1:][np.diff(freqs) == 0.0]
        if len(repeated):  # two equal tones make the basis singular
            raise ValueError(f"tone {float(repeated[-1])!r} is repeated")
        if not np.any(freqs == 0.0):
            raise ValueError("frequency set must include 0")
        pos = freqs[freqs > 0.0]
        neg = -freqs[freqs < 0.0][::-1]
        if len(pos) != len(neg) or not np.allclose(pos, neg, rtol=1e-12):
            raise ValueError("frequency set must be symmetric about 0")
        if len(pos) == 0:
            raise ValueError("at least one nonzero frequency required")
        object.__setattr__(self, "frequencies", tuple(float(f) for f in freqs))

    @classmethod
    def harmonics(cls, omega1: float, count: int) -> "FrequencySet":
        """0, +-omega1, ..., +-count*omega1."""
        if omega1 <= 0.0 or count < 1:
            raise ValueError("omega1 must be positive, count >= 1")
        freqs = [0.0]
        for k in range(1, count + 1):
            freqs.extend([k * omega1, -k * omega1])
        return cls(tuple(freqs))

    @property
    def count(self) -> int:
        return len(self.frequencies)

    @property
    def positive(self) -> np.ndarray:
        return np.asarray([f for f in self.frequencies if f > 0.0])

    @property
    def base_period(self) -> float:
        return float(2.0 * np.pi / self.positive[0])

    @property
    def commensurate(self) -> bool:
        pos = self.positive
        ratios = pos / pos[0]
        return bool(np.all(np.abs(ratios - np.round(ratios))
                           <= _COMMENSURATE_RTOL * ratios))


@dataclass(frozen=True)
class SpectralOperator:
    """Dense real N x N spectral derivative matrix with its time instances."""

    matrix: np.ndarray
    instances: np.ndarray
    frequencies: FrequencySet
    condition: float

    @property
    def size(self) -> int:
        return len(self.instances)


def choose_instances(fs: FrequencySet) -> np.ndarray:
    """The fs.count time instances for the operator.

    Commensurate sets get the classic equispaced placement over the base
    period, unless two of their tones alias there (as 4 = -1 mod 5 does for
    the tones 1 and 4). Those and non-commensurate (almost-periodic) sets
    pick, out of a seeded batch of jittered equispaced candidates, the one
    whose basis matrix is best conditioned.
    """
    n = fs.count
    base = np.arange(n) * fs.base_period / n
    if fs.commensurate and \
            np.linalg.cond(_basis_matrix(fs, base)[0]) <= _MAX_CONDITION:
        return base
    jitter = np.random.default_rng(_SEED).uniform(-0.45, 0.45,
                                                  (_CANDIDATES, n))
    trials = np.vstack([base, (np.arange(n) + jitter) * fs.base_period / n])
    return trials[np.argmin(np.linalg.cond(_basis_matrix(fs, trials)[0]))]


def _basis_matrix(fs: FrequencySet, instances: np.ndarray):
    t = np.asarray(instances, dtype=float)
    cols = [np.ones_like(t)]
    dcols = [np.zeros_like(t)]
    for w in fs.positive:
        cols.extend([np.cos(w * t), np.sin(w * t)])
        dcols.extend([-w * np.sin(w * t), w * np.cos(w * t)])
    return np.stack(cols, axis=-1), np.stack(dcols, axis=-1)


def build_operator(fs: FrequencySet, instances=None) -> SpectralOperator:
    """Spectral derivative operator for the frequency set.

    Raises ValueError for duplicate/resonant instances (singular or
    extremely ill-conditioned basis matrix), reporting its condition.
    """
    if instances is None:
        instances = choose_instances(fs)
    t = np.asarray(instances, dtype=float)
    if t.ndim != 1 or len(t) != fs.count:
        raise ValueError(f"need exactly {fs.count} instances")
    if len(np.unique(t)) != len(t):
        raise ValueError("time instances must be distinct")
    e, edot = _basis_matrix(fs, t)
    cond = float(np.linalg.cond(e))
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ValueError(
            f"basis matrix near-singular at these instances "
            f"(condition estimate {cond:.3e})")
    h = np.linalg.solve(e.T, edot.T).T
    return SpectralOperator(h, t, fs, cond)


def apply(op: SpectralOperator, samples) -> np.ndarray:
    """Per-instance time derivative: H @ samples along the first axis."""
    values = np.asarray(samples, dtype=float)
    if values.shape[0] != op.size:
        raise ValueError(
            f"expected {op.size} per-instance samples, got {values.shape[0]}")
    flat = values.reshape(op.size, -1)
    out = op.matrix @ flat
    return out.reshape(values.shape)
