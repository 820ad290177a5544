import numpy as np
import pytest

from rotormesh.hb import (FrequencySet, apply, build_operator,
                          choose_instances)


def single_tone(omega1=2.0 * np.pi):
    return FrequencySet.harmonics(omega1, 1)


def two_tone(omega1=2.0 * np.pi):
    return FrequencySet.harmonics(omega1, 2)


def test_frequency_set_validation():
    with pytest.raises(ValueError, match="odd"):
        FrequencySet((0.0, 1.0), base_period=2 * np.pi)
    with pytest.raises(ValueError, match="include 0"):
        FrequencySet((-1.0, 0.5, 1.0), base_period=2 * np.pi)
    with pytest.raises(ValueError, match="symmetric"):
        FrequencySet((-2.0, 0.0, 1.0), base_period=2 * np.pi)
    with pytest.raises(ValueError, match="nonzero"):
        FrequencySet.from_values([0.0])


def test_from_values_symmetric_list():
    fs = FrequencySet.from_values([0.0, 2 * np.pi, -2 * np.pi])
    assert fs.count == 3
    assert fs.base_period == pytest.approx(1.0)


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


def test_resonant_instances_rejected():
    fs = single_tone()  # period 1
    with pytest.raises(ValueError, match="condition"):
        build_operator(fs, np.array([0.0, 1.0, 2.0]))  # aliases of t = 0
    with pytest.raises(ValueError, match="distinct"):
        build_operator(fs, np.array([0.0, 0.0, 0.5]))


def test_quasi_periodic_instances():
    w1 = 1.0
    w2 = np.sqrt(2.0)
    fs = FrequencySet.from_values([0.0, w1, -w1, w2, -w2])
    assert not fs.commensurate
    t = choose_instances(fs)
    assert len(np.unique(t)) == 5
    op = build_operator(fs, t)
    sig = np.sin(w2 * t) + 0.5 * np.cos(w1 * t)
    exact = w2 * np.cos(w2 * t) - 0.5 * w1 * np.sin(w1 * t)
    assert np.abs(apply(op, sig) - exact).max() < 1e-10 * w2


def test_quasi_periodic_choice_deterministic():
    fs = FrequencySet.from_values([0.0, 1.0, -1.0, np.e, -np.e])
    assert np.array_equal(choose_instances(fs), choose_instances(fs))


def test_commensurate_multi_harmonic_equispaced():
    fs = two_tone(4.0)
    t = choose_instances(fs)
    period = 2 * np.pi / 4.0
    assert np.allclose(t, np.arange(5) * period / 5)
