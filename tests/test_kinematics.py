import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotations import flap_matrix, leadlag_matrix, pitch_matrix

from rotormesh.config import MotionConfig
from rotormesh.kinematics import (FlightCondition, MotionSeries,
                                  azimuth_matrix, blade_normal_mach,
                                  blade_point, eval_series,
                                  grid_velocity_backward,
                                  grid_velocity_bdf2, hinge_matrix,
                                  rpm_to_rad_s)

DEG = np.pi / 180.0

PITCH_LOW = MotionSeries(mean=11.7 * DEG, sine_coeffs=(1.7 * DEG,),
                         cosine_coeffs=(-5.5 * DEG,))
FLAP_LOW = MotionSeries(mean=2.75 * DEG, sine_coeffs=(-0.15 * DEG,),
                        cosine_coeffs=(2.13 * DEG,))


def test_eval_series_low_speed_pitch():
    assert eval_series(PITCH_LOW, 0.0) == pytest.approx(17.2 * DEG, abs=1e-15)
    assert eval_series(PITCH_LOW, np.pi / 2) == pytest.approx(10.0 * DEG,
                                                              abs=1e-15)
    assert eval_series(PITCH_LOW, np.pi) == pytest.approx(6.2 * DEG,
                                                          abs=1e-15)


def test_eval_series_flap_at_90():
    assert eval_series(FLAP_LOW, np.pi / 2) == pytest.approx(2.90 * DEG,
                                                             abs=1e-15)


def test_eval_series_zero():
    s = MotionSeries()
    for psi in (0.0, 0.3, 2.0, -5.0):
        assert eval_series(s, psi) == 0.0


def test_eval_series_periodic():
    s = MotionSeries(mean=0.1, sine_coeffs=(0.2, -0.05, 0.01),
                     cosine_coeffs=(0.3, 0.02))
    psi = np.linspace(0.0, 2.0 * np.pi, 37)
    assert np.allclose(eval_series(s, psi), eval_series(s, psi + 2 * np.pi),
                       atol=1e-12)


def test_eval_series_vectorized():
    psi = np.linspace(0, 1, 5)
    out = eval_series(PITCH_LOW, psi)
    assert out.shape == (5,)


def test_azimuth_matrix_values():
    assert np.allclose(azimuth_matrix(0.0), np.eye(3))
    assert np.allclose(azimuth_matrix(np.pi / 2) @ [1, 0, 0], [0, 1, 0],
                       atol=1e-15)
    assert np.allclose(azimuth_matrix(np.pi), np.diag([-1.0, -1.0, 1.0]),
                       atol=1e-15)


def test_rotation_matrices_proper():
    rng = np.random.default_rng(11)
    for _ in range(100):
        psi, b, d, t = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
        for m in (azimuth_matrix(psi), hinge_matrix(b, d, t)):
            assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_hinge_matrix_identity():
    assert np.allclose(hinge_matrix(0.0, 0.0, 0.0), np.eye(3))


def test_hinge_matrix_matches_factor_product():
    rng = np.random.default_rng(123)
    for _ in range(100):
        b, d, t = rng.uniform(-np.pi, np.pi, 3)
        product = flap_matrix(b) @ leadlag_matrix(d) @ pitch_matrix(t)
        assert np.abs(hinge_matrix(b, d, t) - product).max() <= 1e-13


def test_pure_flap_action():
    # positive flap takes +x toward -z in this convention
    out = hinge_matrix(np.pi / 2, 0.0, 0.0) @ [1.0, 0.0, 0.0]
    assert np.allclose(out, [0.0, 0.0, -1.0], atol=1e-15)


def test_pure_pitch_action():
    out = hinge_matrix(0.0, 0.0, np.pi / 2) @ [0.0, 1.0, 0.0]
    assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-15)


def _motion(pitch=MotionSeries(), flap=MotionSeries(), leadlag=MotionSeries(),
            hinge=(0.0, 0.0, 0.0), rate=1.0, n_blades=1):
    """A rotor turning at rate rad/s with these laws and hinge."""
    return MotionConfig(rpm=rate * 60.0 / (2.0 * np.pi),
                        n_blades=n_blades, hinge=hinge, pitch=pitch,
                        flap=flap, leadlag=leadlag)


def test_blade_point_identity():
    pos, inter = blade_point([0.3, 0.2, 0.1], _motion(), 0.0)
    assert np.allclose(pos, [0.3, 0.2, 0.1])
    assert np.allclose(inter, [0.3, 0.2, 0.1])


def test_blade_point_hinge_fixed():
    motion = _motion(pitch=MotionSeries(mean=0.4),
                     flap=MotionSeries(mean=-0.2), hinge=(0.5, 0.1, 0.0),
                     rate=2.0)
    t = 0.7
    pos, _ = blade_point([0.5, 0.1, 0.0], motion, t)
    expected = azimuth_matrix(motion.omega * t) @ [0.5, 0.1, 0.0]
    assert np.allclose(pos, expected, atol=1e-14)


def test_blade_point_pitch_lever():
    c = 0.25
    motion = _motion(pitch=MotionSeries(mean=np.pi / 2),
                     hinge=(1.0, 0.0, 0.0), rate=2 * np.pi)
    pos, inter = blade_point([1.0, c, 0.0], motion, 0.0)
    assert np.allclose(inter, [1.0, 0.0, c], atol=1e-15)
    assert np.allclose(pos, [1.0, 0.0, c], atol=1e-15)


def test_blade_point_periodic():
    motion = _motion(pitch=PITCH_LOW, flap=FLAP_LOW, hinge=(0.2, 0.0, 0.0),
                     rate=3.0)
    period = motion.revolution_period
    x = np.array([1.1, 0.2, -0.1])
    p1, _ = blade_point(x, motion, 0.37)
    p2, _ = blade_point(x, motion, 0.37 + period)
    assert np.allclose(p1, p2, atol=1e-12)


def test_hover_axisymmetry():
    # zero cyclic: blade 1 (offset pi) mirrors blade 0 rotated by pi
    rotor = _motion(pitch=MotionSeries(mean=8.0 * DEG),
                    flap=MotionSeries(mean=2.0 * DEG), hinge=(0.1, 0.0, 0.0),
                    rate=rpm_to_rad_s(1250.0), n_blades=2)
    x = np.array([1.0, 0.05, 0.02])
    for t in (0.0, 0.013, 0.4):
        p1, _ = blade_point(x, rotor, t)
        p2, _ = blade_point(x, rotor, t, blade=1)
        assert np.allclose(p2, azimuth_matrix(np.pi) @ p1, atol=1e-12)


@pytest.mark.parametrize("blade", [-1, 2, 3])
def test_blade_point_rejects_a_blade_the_rotor_lacks(blade):
    """Blade 2 of a two-bladed rotor would sit at blade 0's azimuth."""
    with pytest.raises(ValueError, match=f"blade {blade} is not one of the "
                       "2 blades"):
        blade_point([1.0, 0.0, 0.0], _motion(n_blades=2), 0.0, blade=blade)


def test_blade_point_array_input():
    motion = _motion(pitch=PITCH_LOW, rate=2.0)
    xs = np.random.default_rng(0).normal(size=(10, 3))
    pos, inter = blade_point(xs, motion, 0.2)
    assert pos.shape == (10, 3)
    single, _ = blade_point(xs[3], motion, 0.2)
    assert np.allclose(pos[3], single)


# ---------------------------------------------------------------------------
# Flight condition and blade normal Mach
# ---------------------------------------------------------------------------

def test_blade_normal_mach_advancing_tip():
    fc = FlightCondition(tip_mach=0.65, advance_ratio=0.19)
    assert blade_normal_mach(1.0, fc, np.pi / 2) == pytest.approx(0.7735)


def test_blade_normal_mach_zero_azimuth():
    fc = FlightCondition(tip_mach=0.439)  # hover: advance ratio 0
    assert fc.advance_ratio == 0.0
    assert blade_normal_mach(1.0, fc, 0.0) == pytest.approx(0.439)


def test_blade_normal_mach_reverse_flow():
    fc = FlightCondition(tip_mach=0.64, advance_ratio=0.38)
    assert blade_normal_mach(0.2, fc, 1.5 * np.pi) == pytest.approx(-0.1152)


def test_blade_normal_mach_sine_symmetry():
    fc = FlightCondition(tip_mach=0.65, advance_ratio=0.19)
    for psi in np.linspace(-3.0, 3.0, 17):
        a = blade_normal_mach(0.7, fc, psi)
        b = blade_normal_mach(0.7, fc, np.pi - psi)
        assert a == pytest.approx(b, abs=1e-14)


def test_blade_normal_mach_range_check():
    fc = FlightCondition(tip_mach=0.65, advance_ratio=0.19)
    with pytest.raises(ValueError, match="r_over_R"):
        blade_normal_mach(1.2, fc, 0.0)


# ---------------------------------------------------------------------------
# Grid velocity
# ---------------------------------------------------------------------------

def test_grid_velocity_constant_positions():
    x = np.ones((7, 3))
    assert np.allclose(grid_velocity_bdf2(x, x, x, 0.1), 0.0)


def test_grid_velocity_linear_exact():
    v = np.array([0.3, -1.2, 0.5])
    dt = 0.05

    def x(t):
        return np.outer(np.ones(4), v) * t

    out = grid_velocity_bdf2(x(1.0), x(1.0 - dt), x(1.0 - 2 * dt), dt)
    assert np.allclose(out, np.outer(np.ones(4), v), atol=1e-12)


def test_grid_velocity_quadratic_exact():
    dt, t = 0.125, 2.0
    samples = [np.array([[s * s]]) for s in (t, t - dt, t - 2 * dt)]
    out = grid_velocity_bdf2(*samples, dt)
    assert out[0, 0] == pytest.approx(2.0 * t, abs=1e-12)


def test_grid_velocity_errors():
    x = np.zeros((3, 3))
    with pytest.raises(ValueError, match="dt"):
        grid_velocity_bdf2(x, x, x, 0.0)
    with pytest.raises(ValueError, match="shape"):
        grid_velocity_bdf2(x, x, np.zeros((2, 3)), 0.1)
    for dt in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="^dt must be positive$"):
            grid_velocity_backward(x, x, dt)
    with pytest.raises(ValueError, match="^position arrays must have "
                       "matching shapes$"):
        grid_velocity_backward(x, np.zeros((2, 3)), 0.1)


def test_grid_velocity_order_on_sine():
    errors = []
    for dt in (0.1, 0.05, 0.025):
        t = np.arange(dt * 2, 6.0, dt)
        err = np.abs(grid_velocity_bdf2(np.sin(t), np.sin(t - dt),
                                        np.sin(t - 2 * dt), dt) - np.cos(t))
        errors.append(err.max())
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


ANGLES = st.floats(-4.0, 4.0)
SERIES = st.builds(MotionSeries, mean=ANGLES,
                   sine_coeffs=st.lists(ANGLES, max_size=3).map(tuple),
                   cosine_coeffs=st.lists(ANGLES, max_size=3).map(tuple))


@settings(max_examples=200, deadline=None)
@given(series=SERIES, psi=st.floats(-20.0, 20.0))
def test_series_bounded_by_coefficient_sum(series, psi):
    """A motion law never exceeds the sum of its coefficients' sizes."""
    bound = (abs(series.mean) + sum(map(abs, series.sine_coeffs))
             + sum(map(abs, series.cosine_coeffs)))
    assert abs(eval_series(series, psi)) <= bound * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(beta=ANGLES, delta=ANGLES, theta=ANGLES)
def test_hinge_rotation_departs_from_identity_by_at_most_angle_sum(
        beta, delta, theta):
    """||C - I||_2 <= min(2, |beta| + |delta| + |theta|): each rotation by
    a moves a unit vector by at most 2 |sin(a / 2)| <= |a|, and a rotation
    never by more than 2. With the bound above, the largest hinge motion
    that the driver measures never exceeds a bound from the config."""
    norm = np.linalg.norm(hinge_matrix(beta, delta, theta) - np.eye(3), 2)
    bound = min(2.0, abs(beta) + abs(delta) + abs(theta))
    assert norm <= bound * (1.0 + 1e-12) + 1e-15
