import numpy as np
import pytest

from rotormesh.config import (ConfigError, load_fixture, parse_motion_config,
                              FIXTURE_NAMES)

MINIMAL = """
[rotor]
radius_m = 1.0
rpm = 60.0
"""


def test_minimal_config_defaults():
    cfg = parse_motion_config(MINIMAL)
    assert cfg.n_blades == 1
    assert cfg.hinge == (0.0, 0.0, 0.0)
    assert cfg.omega == pytest.approx(2.0 * np.pi)
    assert cfg.pitch.mean == 0.0
    assert cfg.flight is None
    assert cfg.rbf is None


def test_fixture_low_speed_values():
    cfg = load_fixture("ah1g_low_speed")
    assert cfg.radius_m == 6.71
    assert cfg.chord_m == 0.686
    assert cfg.n_blades == 2
    assert np.degrees(cfg.pitch.mean) == pytest.approx(11.7)
    assert np.degrees(cfg.pitch.sine_coeffs[0]) == pytest.approx(1.7)
    assert np.degrees(cfg.pitch.cosine_coeffs[0]) == pytest.approx(-5.5)
    assert np.degrees(cfg.flap.mean) == pytest.approx(2.75)
    assert np.degrees(cfg.flap.sine_coeffs[0]) == pytest.approx(-0.15)
    assert np.degrees(cfg.flap.cosine_coeffs[0]) == pytest.approx(2.13)
    assert cfg.flight.tip_mach == 0.65
    assert cfg.flight.advance_ratio == 0.19
    assert cfg.flight.thrust_coefficient == 0.00464
    # rotor speed reproduces the tip Mach at the reference speed of sound
    assert cfg.omega * cfg.radius_m / 340.8 == pytest.approx(0.65, abs=1e-12)
    assert cfg.rbf.kernel.support_radius == pytest.approx(2.5 * 0.686)
    assert cfg.fixed_markers == ("farfield",)


def test_fixture_high_speed_values():
    cfg = load_fixture("ah1g_high_speed")
    assert np.degrees(cfg.pitch.mean) == pytest.approx(18.0)
    assert np.degrees(cfg.pitch.sine_coeffs[0]) == pytest.approx(3.6)
    assert np.degrees(cfg.pitch.cosine_coeffs[0]) == pytest.approx(-11.8)
    assert np.degrees(cfg.flap.sine_coeffs[0]) == pytest.approx(1.11)
    assert cfg.flight.advance_ratio == 0.38
    assert cfg.flight.thrust_coefficient == 0.00474


def test_fixture_hover_values():
    cfg = load_fixture("caradonna_tung_hover")
    assert cfg.radius_m == 1.143
    assert cfg.rpm == 1250.0
    assert np.degrees(cfg.pitch.mean) == pytest.approx(8.0)
    assert cfg.flight.tip_mach == 0.439
    assert cfg.flight.advance_ratio == 0.0
    assert cfg.pitch.sine_coeffs == cfg.pitch.cosine_coeffs == ()


def test_all_fixtures_parse():
    for name in FIXTURE_NAMES:
        cfg = load_fixture(name)
        assert cfg.omega > 0.0


def test_blade_motion_offsets():
    cfg = load_fixture("ah1g_low_speed")
    m0 = cfg.blade_motion(0)
    m1 = cfg.blade_motion(1)
    assert m0.azimuth_offset == 0.0
    assert m1.azimuth_offset == pytest.approx(np.pi)
    assert m0.rotation_rate == pytest.approx(cfg.omega)


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match=r"\[rotor\] radius_m"):
        parse_motion_config("[rotor]\nrpm = 1.0\n")
    with pytest.raises(ConfigError, match=r"\[rotor\] rpm"):
        parse_motion_config("[rotor]\nradius_m = 1.0\n")


def test_unknown_keys_listed():
    text = MINIMAL + "typo_key = 3\n"
    with pytest.raises(ConfigError, match="typo_key"):
        parse_motion_config(text)


def test_bad_series_key():
    text = MINIMAL + "[pitch]\nmean_degrees = 8.0\n"
    with pytest.raises(ConfigError, match="mean_degrees"):
        parse_motion_config(text)


def test_rbf_section_parsing():
    text = MINIMAL + """
[rbf]
kernel = gaussian
support_radius_m = 0.4
affine = true
greedy_tol_m = 1e-3
level_caps = [4, 16]
fixed_markers = ["outer", "walls"]
"""
    cfg = parse_motion_config(text)
    assert cfg.rbf.kernel.kind == "gaussian"
    assert cfg.rbf.kernel.support_radius == 0.4
    assert cfg.rbf.with_affine is True
    assert cfg.rbf.greedy_tol == 1e-3
    assert cfg.rbf.level_caps == (4, 16)
    assert cfg.fixed_markers == ("outer", "walls")


def test_support_radius_in_chords_requires_chord():
    text = MINIMAL + "[rbf]\nkernel = wendland_c2\n"
    with pytest.raises(ConfigError, match="chord_m"):
        parse_motion_config(text)


def test_interface_pair():
    text = MINIMAL + '[interface]\npair = ["rotor_outer", "stator_inner"]\n'
    cfg = parse_motion_config(text)
    assert cfg.interface_pair == ("rotor_outer", "stator_inner")


def test_flight_requires_tip_mach():
    text = MINIMAL + "[flight]\nadvance_ratio = 0.1\n"
    with pytest.raises(ConfigError, match="tip_mach"):
        parse_motion_config(text)


WITH_RBF = MINIMAL + "chord_m = 0.3\n[rbf]\n"


@pytest.mark.parametrize("text,key", [
    (WITH_RBF + "kernel = foo\n", r"\[rbf\] kernel"),
    (WITH_RBF + "support_radius_chords = -1\n",
     r"\[rbf\] support_radius_chords"),
    (WITH_RBF + "kernel = gaussian\nsupport_radius_m = 0\n",
     r"\[rbf\] support_radius_m"),
    (WITH_RBF + "greedy_tol_m = 0\n", r"\[rbf\] greedy_tol_m"),
    (WITH_RBF + "level_caps = []\n", r"\[rbf\] level_caps"),
    (WITH_RBF + "level_caps = [8, 0]\n", r"\[rbf\] level_caps"),
    (WITH_RBF + "level_caps = 8\n", r"\[rbf\] level_caps"),
    (MINIMAL + "n_blades = 0\n", r"\[rotor\] n_blades"),
    (MINIMAL.replace("60.0", "0"), r"\[rotor\] rpm"),
    (MINIMAL.replace("60.0", "-300"), r"\[rotor\] rpm"),
    (MINIMAL + "[flight]\ntip_mach = 0\n", r"\[flight\] tip_mach"),
    (MINIMAL + "[flight]\ntip_mach = 0.6\nadvance_ratio = 0.2\n"
     "freestream_mach = 0.3\n", r"\[flight\] advance_ratio"),
])
def test_bad_values_name_their_key(text, key):
    with pytest.raises(ConfigError, match=key):
        parse_motion_config(text)
