import contextlib
import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotormesh import hb
from rotormesh.cli import main
from rotormesh.hb import (FrequencySet, _basis_matrix, apply, build_operator,
                          choose_instances)


def single_tone(omega1=2.0 * np.pi):
    return FrequencySet.harmonics(omega1, 1)


def two_tone(omega1=2.0 * np.pi):
    return FrequencySet.harmonics(omega1, 2)


BAD_TONES = [
    ((), "need positive finite tones"),
    ((0.0,), r"got \[0.0\]"),
    ((1.0, 0.0), r"got \[0.0, 1.0\]"),
    ((-1.0, 2.0), r"got \[-1.0, 2.0\]"),
    ((np.inf,), r"got \[inf\]"),
    ((1.0, np.nan), "need positive finite tones"),
    ((1.0, 1.0), "tone 1.0 is repeated"),
    ((2.5, 1.0, 2.5), "tone 2.5 is repeated"),
    ((1e-310,), r"tones \[1e-310\] have time instances or phases over "
                "their window that overflow"),
    ((1e-300, 1e300), r"tones \[1e-300, 1e\+300\] have"),
]


def test_frequency_set_validation():
    """An empty set, 0, a negative, infinite, NaN or repeated tone, and a
    set whose instances or phases overflow (a subnormal tone, a ratio of
    1e600) are each a ValueError naming the tones, raised before any
    arithmetic that could warn."""
    for tones, message in BAD_TONES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                FrequencySet(tones)


def test_frequency_set_fields():
    with pytest.raises(TypeError):
        FrequencySet((1.0,), base_period=2 * np.pi)
    with pytest.raises(ValueError, match="need positive finite tones"):
        FrequencySet.harmonics(-1.0, 2)
    with pytest.raises(ValueError, match="need positive finite tones"):
        FrequencySet.harmonics(1.0, 0)


def test_positive_tones_derive_base_period():
    """The tones are kept sorted, the base period is 2 pi over the smallest
    and the window 2 pi over the smallest gap in {0, w_1, ..., w_K},
    whatever the order of the list."""
    fs = FrequencySet([4 * np.pi, 2 * np.pi])
    assert fs.count == 5
    assert fs.positive == (2 * np.pi, 4 * np.pi)
    assert fs.base_period == 1.0 and fs.window == 1.0
    assert FrequencySet([3.0, 1.0, 1.5]).window == 2 * np.pi / 0.5
    assert FrequencySet.harmonics(2.5, 3).positive == (2.5, 5.0, 7.5)
    assert FrequencySet.harmonics(2.5, 3).base_period == 2 * np.pi / 2.5


def test_choose_instances_equispaced():
    fs = single_tone()
    t = choose_instances(fs)
    assert np.allclose(t, [0.0, 1.0 / 3.0, 2.0 / 3.0])


def test_constant_signal_zero_derivative():
    for fs in (single_tone(), two_tone(3.0)):
        op = build_operator(fs)
        out = apply(op, np.full(fs.count, 4.2))
        h = op.matrix
        assert np.abs(out).max() < 1e-12 * max(np.abs(h).max(), 1.0)
        assert np.abs(h.sum(axis=1)).max() < 1e-12 * np.abs(h).max()


def test_single_tone_sine_derivative():
    fs = single_tone()
    op = build_operator(fs)
    t = op.instances
    out = apply(op, np.sin(2 * np.pi * t))
    exact = 2 * np.pi * np.cos(2 * np.pi * t)
    assert np.abs(out - exact).max() < 1e-12 * 2 * np.pi


def test_two_harmonic_cosine_derivative():
    w1 = 2.0
    fs = two_tone(w1)
    op = build_operator(fs)
    t = op.instances
    out = apply(op, np.cos(2 * w1 * t))
    exact = -2 * w1 * np.sin(2 * w1 * t)
    assert np.abs(out - exact).max() < 1e-11


def test_apply_zero_and_linearity():
    fs = two_tone()
    op = build_operator(fs)
    assert np.all(apply(op, np.zeros(5)) == 0.0)
    t = op.instances
    s1 = np.sin(2 * np.pi * t)
    s2 = np.cos(4 * np.pi * t)
    lhs = apply(op, 0.3 * s1 - 1.7 * s2)
    rhs = 0.3 * apply(op, s1) - 1.7 * apply(op, s2)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(rhs).max(), 1.0)


def test_apply_mixed_tone():
    fs = single_tone()
    op = build_operator(fs)
    t = op.instances
    a, b, w = 1.0, 2.0, 2 * np.pi
    out = apply(op, a * np.sin(w * t) + b * np.cos(w * t))
    exact = a * w * np.cos(w * t) - b * w * np.sin(w * t)
    assert np.abs(out - exact).max() < 1e-11


def test_apply_componentwise():
    fs = single_tone()
    op = build_operator(fs)
    t = op.instances
    field = np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
    out = apply(op, field)
    assert out.shape == (3, 2)
    assert np.allclose(out[:, 0], 2 * np.pi * np.cos(2 * np.pi * t),
                       atol=1e-11)


def test_apply_length_mismatch():
    op = build_operator(single_tone())
    with pytest.raises(ValueError, match="3"):
        apply(op, np.zeros(4))


def test_spectral_exactness_on_basis():
    w1 = 5.0
    fs = FrequencySet.harmonics(w1, 3)
    op = build_operator(fs)
    t = op.instances
    w_max = 3 * w1
    for w in fs.positive:
        for sig, dsig in ((np.sin(w * t), w * np.cos(w * t)),
                          (np.cos(w * t), -w * np.sin(w * t))):
            err = np.abs(apply(op, sig) - dsig).max()
            assert err < 1e-10 * w_max * max(np.abs(sig).max(), 1.0)


def test_antisymmetry_equispaced_single_tone():
    op = build_operator(single_tone(3.7))
    h = op.matrix
    assert np.abs(h + h.T).max() < 1e-12 * np.abs(h).max()


def test_resonant_instances_rejected(monkeypatch):
    """The condition guard: instances that alias (here t = 0, 1 and 2 for
    period 1) give a near-singular basis matrix, which build_operator
    rejects with its condition estimate."""
    monkeypatch.setattr(hb, "choose_instances",
                        lambda fs: np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="near-singular.*condition"):
        build_operator(single_tone())  # period 1


def test_quasi_periodic_instances():
    w1 = 1.0
    w2 = np.sqrt(2.0)
    fs = FrequencySet((w1, w2))
    op = build_operator(fs)
    t = op.instances
    assert np.array_equal(t, choose_instances(fs))
    assert len(np.unique(t)) == 5
    sig = np.sin(w2 * t) + 0.5 * np.cos(w1 * t)
    exact = w2 * np.cos(w2 * t) - 0.5 * w1 * np.sin(w1 * t)
    assert np.abs(apply(op, sig) - exact).max() < 1e-10 * w2


def test_quasi_periodic_choice_deterministic():
    fs = FrequencySet((1.0, np.e))
    assert np.array_equal(choose_instances(fs), choose_instances(fs))


def test_commensurate_multi_harmonic_equispaced():
    fs = two_tone(4.0)
    t = choose_instances(fs)
    period = 2 * np.pi / 4.0
    assert np.allclose(t, np.arange(5) * period / 5)


@st.composite
def tone_sets(draw):
    """w1 and the 1-6 multiples of it that are the tones, 1 among them:
    either any multiples up to 12, two of which may alias at the N = 2K + 1
    equispaced instances of K tones, or a set that does not alias, whose
    multiple for each residue r = 2..K is r or N - r, plus N or not (the
    harmonics 1..K among them)."""
    w1 = draw(st.floats(0.01, 100.0))
    if draw(st.booleans()):
        return w1, sorted({1, *draw(st.lists(st.integers(2, 12),
                                             max_size=5))})
    n = 2 * draw(st.integers(1, 6)) + 1
    return w1, [1, *(draw(st.sampled_from([r, n - r]))
                     + n * draw(st.integers(0, 1))
                     for r in range(2, n // 2 + 1))]


# 0 or at least 1e-6 in size: products that underflow keep no relative
# precision to test
COEF = st.floats(-1.0, 1.0).map(lambda x: round(x, 6))


@pytest.mark.thorough
@settings(deadline=None)
@given(tones=tone_sets(),
       shift=st.tuples(st.integers(0, 5),
                       st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6])),
       multiple=st.integers(-26, 26),
       coefs=st.lists(COEF, min_size=13, max_size=13))
@example(tones=(1.0, [1, 4]), shift=(1, 1e-10), multiple=1,
         coefs=[0.5] * 13)
@example(tones=(2.0, [1, 2, 5]), shift=(0, 1e-10), multiple=2,
         coefs=[0.5] * 13)
def test_exact_on_resolved_tones_of_any_set(tones, shift, multiple, coefs):
    """apply is exact to 1e-10 relative on any signal of the tones, also
    when one of them is shifted by delta relative, which makes the set
    near-harmonic; rotormesh hb reports a test tone resolved only when it
    is 0 or one of the tones, and a resolved one exact. Unshifted sets get
    equispaced instances unless two tones alias there, and only at
    equispaced instances is an unresolved tone visibly not differentiated.
    The examples are near-aliasing sets, whose equispaced instances have
    condition 1e10 and more."""
    w1, ks = tones
    index, delta = shift
    w = w1 * np.array(ks, dtype=float)
    w[index % len(ks)] *= 1.0 + delta
    fs = FrequencySet(w.tolist())
    n = fs.count
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["hb", "--omega=" + ",".join(map(repr, w.tolist())),
                     f"--tone-multiple={multiple}", "--output", os.devnull])
    op = build_operator(fs)
    aliased = len({0, *(k % n for k in ks), *(-k % n for k in ks)}) < n
    equispaced = np.array_equal(op.instances,
                                np.arange(n) * fs.base_period / n)
    assert delta or equispaced != aliased

    c0, a, b = coefs[0], np.array(coefs[1:7]), np.array(coefs[7:])
    a, b = a[:len(ks)], b[:len(ks)]
    wt = np.outer(op.instances, w)
    signal = c0 + (a * np.cos(wt) + b * np.sin(wt)).sum(axis=1)
    exact = (w * (b * np.cos(wt) - a * np.sin(wt))).sum(axis=1)
    scale = w.max() * (abs(c0) + np.abs(a).sum() + np.abs(b).sum())
    assert np.abs(apply(op, signal) - exact).max() <= 1e-10 * scale

    assert code == 0
    report = err.getvalue().splitlines()[-1]
    error = float(report.rsplit(" ", 1)[1])
    if "(resolved)" in report:
        assert error <= 1e-10 * abs(multiple) * fs.positive[0]
    if delta:
        return
    if multiple == 0 or abs(multiple) in ks:
        assert "(resolved)" in report
    else:
        # at equispaced instances it aliases to a tone of another
        # magnitude, or to 0
        assert "(unresolved)" in report
        assert aliased or error >= 0.5 * w1


@pytest.mark.parametrize("tones", [
    (1.0, 4.0000000001), (1.0 + 1e-10, 4.0), (1.0, 4.0 - 1e-11),
    (1.0, 2.0, 5.0000000001), (0.37, 0.37 * 4 * (1 + 1e-10)),
    tuple(math.sqrt(k) for k in range(2, 13)), (1.0, 1.000001),
])
def test_near_aliasing_tones_get_well_conditioned_instances(tones):
    """Tones within 1e-9 of multiples that alias at the equispaced instances
    (1 and 4 at N = 5, 2 and 5 at N = 7), and tones closer to each other
    than the smallest tone (sqrt(2), ..., sqrt(12); 1 and 1.000001), make
    those instances ill-conditioned (condition 1e6 and more), so the set
    gets the instances that pivoted QR picks over its window, on which
    every tone is exact; rotormesh hb reports the fundamental resolved and
    exact."""
    fs = FrequencySet(tones)
    n = fs.count
    equispaced = np.arange(n) * fs.base_period / n
    assert np.linalg.cond(_basis_matrix(fs, equispaced)[0]) > 1e6
    op = build_operator(fs)
    assert op.condition < 10.0
    t = op.instances
    for w in fs.positive:
        for sig, dsig in ((np.sin(w * t), w * np.cos(w * t)),
                          (np.cos(w * t), -w * np.sin(w * t))):
            assert np.abs(apply(op, sig) - dsig).max() <= 1e-12 * w
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["hb", "--omega=" + ",".join(map(repr, tones)),
                     "--tone-multiple", "1", "--output", os.devnull])
    assert code == 0
    report = err.getvalue().splitlines()[-1]
    assert "(resolved)" in report
    assert float(report.rsplit(" ", 1)[1]) <= 1e-12 * fs.positive[0]


def test_tones_aliasing_at_equispaced_instances_get_pivoted_ones(
        monkeypatch):
    """4 = -1 mod 5: the tones 1 and 4 alias at the 5 equispaced instances,
    where the basis matrix is singular, so the set gets the instances that
    pivoted QR picks over its window, on which it is exact."""
    fs = FrequencySet((1.0, 4.0))
    with monkeypatch.context() as patch:
        patch.setattr(hb, "choose_instances",
                      lambda fs: np.arange(5) * fs.base_period / 5)
        with pytest.raises(ValueError, match="near-singular"):
            build_operator(fs)
    t = choose_instances(fs)
    assert np.array_equal(t, choose_instances(fs))
    op = build_operator(fs)
    assert np.array_equal(op.instances, t)
    assert op.condition < 10.0
    signal = np.sin(4.0 * t) + 0.5 * np.cos(t) - 0.25
    exact = 4.0 * np.cos(4.0 * t) - 0.5 * np.sin(t)
    assert np.abs(apply(op, signal) - exact).max() <= 1e-13
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["hb", "--omega", "1,4", "--tone-multiple", "4",
                     "--output", os.devnull])
    assert code == 0
    report = err.getvalue().splitlines()[-1]
    assert "(resolved)" in report and float(report.rsplit(" ", 1)[1]) <= 1e-13


@st.composite
def any_tone_sets(draw):
    """1 to 20 tones: random (four decimals in [1, 3]), near-harmonic
    (distinct multiples of 1, each shifted by up to 1e-3 relative) or evenly
    spaced 1 + g k with g from 1e-6 to 1; all scaled by 1e-2 to 1e3."""
    k = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["random", "near-harmonic", "even"]))
    if kind == "random":
        tones = draw(st.lists(st.floats(1.0, 3.0).map(lambda x: round(x, 4)),
                              min_size=k, max_size=k, unique=True))
    elif kind == "near-harmonic":
        multiples = draw(st.lists(st.integers(1, 2 * k + 1), min_size=k,
                                  max_size=k, unique=True))
        tones = [m * (1.0 + draw(st.floats(-1e-3, 1e-3))) for m in multiples]
    else:
        g = 10.0 ** draw(st.floats(-6.0, 0.0))
        tones = [1.0 + g * i for i in range(k)]
    scale = 10.0 ** draw(st.floats(-2.0, 3.0))
    return [scale * w for w in tones]


@pytest.mark.thorough
@settings(deadline=None)
@given(tones=any_tone_sets())
@example(tones=[math.sqrt(k) for k in range(2, 13)])
@example(tones=[1.0 + 2e-6 * k for k in range(20)])
def test_pivoted_instances_resolve_any_set(tones):
    """Whatever the set, close, near-harmonic or evenly spaced tones
    included, the instances have condition at most 1e6, every tone is
    differentiated to 1e-10 relative to the largest, and rotormesh hb exits
    0 with the fundamental resolved to the same tolerance."""
    fs = FrequencySet(tones)
    op = build_operator(fs)
    assert op.condition <= 1e6
    t, w_max = op.instances, fs.positive[-1]
    for w in fs.positive:
        for sig, dsig in ((np.sin(w * t), w * np.cos(w * t)),
                          (np.cos(w * t), -w * np.sin(w * t))):
            assert np.abs(apply(op, sig) - dsig).max() <= 1e-10 * w_max
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["hb", "--omega=" + ",".join(map(repr, tones)),
                     "--tone-multiple", "1", "--output", os.devnull])
    assert code == 0
    report = err.getvalue().splitlines()[-1]
    assert "(resolved)" in report
    assert float(report.rsplit(" ", 1)[1]) <= 1e-10 * w_max
