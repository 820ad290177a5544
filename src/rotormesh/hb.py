"""Harmonic-balance spectral time-derivative operator.

A signal resolved by the K positive tones w_k (and so by 0 and -w_k) is
represented by its values at N = 2K + 1 time instances. The operator matrix
maps those samples to the samples of the exact time derivative of the
trigonometric interpolant: H = E' E^-1, where E evaluates the real basis
{1, cos(w_k t), sin(w_k t)} at the instances and E' its derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MAX_CONDITION = 1e12  # of a basis matrix build_operator accepts
_CANDIDATES = 200    # jittered instance sets tried after the equispaced one
_SEED = 20210527     # their seed, so the choice is reproducible
# no instance set beats sqrt(2): the constant column gives sigma_max >=
# sqrt(N), and any cos/sin pair has a column that gives sigma_min <= sqrt(N/2)
_OPTIMAL_CONDITION = math.sqrt(2.0) * (1.0 + 1e-9)


@dataclass(frozen=True)
class FrequencySet:
    """The K positive angular frequencies (rad/s) of a harmonic-balance set,
    given in any order and kept sorted; 0 and the negated tones follow from
    them. Its base period is 2 pi over the smallest tone; harmonics builds
    the set w1, 2 w1, ..., K w1."""

    positive: tuple[float, ...]

    def __post_init__(self):
        tones = tuple(sorted(float(w) for w in self.positive))
        if not tones or not all(0 < w < math.inf for w in tones):  # NaN fails
            raise ValueError(f"need positive finite tones (0 and the negative "
                             f"ones follow from them), got {list(tones)}")
        repeated = [a for a, b in zip(tones, tones[1:]) if a == b]
        if repeated:  # two equal tones make the basis singular
            raise ValueError(f"tone {repeated[-1]!r} is repeated")
        object.__setattr__(self, "positive", tones)
        # instances (i + jitter) T / N with i + jitter < N, phases below w_K T
        if not math.isfinite(self.count * self.base_period * max(*tones, 1.0)):
            raise ValueError(f"tones {list(tones)} have time instances or "
                             f"phases over their base period that overflow")

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
    """The fs.count time instances for the operator: the best conditioned
    of the N equispaced instances over the base period and a seeded batch
    of jittered ones (Guedeney et al., J. Comput. Phys. 236, 2013). The
    equispaced set, taken without the search when its condition is sqrt(2)
    within 1e-9 relative, is optimal for integer multiples of the smallest
    tone no two of which alias there (as 4 = -1 mod 5 does for 1 and 4).
    """
    n = fs.count
    base = np.arange(n) * fs.base_period / n
    if np.linalg.cond(_basis_matrix(fs, base)[0]) <= _OPTIMAL_CONDITION:
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
    return SpectralOperator(h, t, cond)


def apply(op: SpectralOperator, samples) -> np.ndarray:
    """Per-instance time derivative: H @ samples along the first axis."""
    values = np.asarray(samples, dtype=float)
    if values.shape[0] != op.size:
        raise ValueError(
            f"expected {op.size} per-instance samples, got {values.shape[0]}")
    return (op.matrix @ values.reshape(op.size, -1)).reshape(values.shape)
