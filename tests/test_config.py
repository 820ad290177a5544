import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rotormesh import config
from rotormesh.config import (ConfigError, MotionConfig, load_fixture,
                              parse_motion_config, FIXTURE_NAMES)
from rotormesh.kinematics import FlightCondition, MotionSeries
from rotormesh.rbf import RbfConfig, RbfKernel

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


@pytest.mark.parametrize("rbf,message", [
    ("support_radius_m = 0.4\nsupport_radius_chords = 9\n",
     "bad config keys: [rbf] support_radius_chords (conflicts with "
     "support_radius_m)"),
    ("kernel = thin_plate_spline\nsupport_radius_m = 0.4\n",
     "bad config keys: [rbf] support_radius_m (unused by thin_plate_spline)"),
    ("kernel = thin_plate_spline\nsupport_radius_chords = 2.5\n",
     "bad config keys: [rbf] support_radius_chords (unused by "
     "thin_plate_spline)"),
    ("kernel = thin_plate_spline\nsupport_radius_m = 0.4\n"
     "support_radius_chords = 2.5\n",
     "bad config keys: [rbf] support_radius_m (unused by thin_plate_spline); "
     "[rbf] support_radius_chords (unused by thin_plate_spline)"),
])
def test_support_keys_that_would_be_ignored_are_rejected(rbf, message):
    """A support key the kernel would not use is an error, not a value read,
    checked and dropped."""
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        parse_motion_config(MINIMAL + "chord_m = 0.3\n[rbf]\n" + rbf)


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


# ---------------------------------------------------------------------------
# The key table: every section and key, its converter and its errors
# ---------------------------------------------------------------------------

# every section and key of the format with a valid raw value
FULL = {
    "rotor": {"radius_m": "1.0", "rpm": "60.0", "chord_m": "0.3",
              "n_blades": "2", "hinge": "[0.0, 0.1, 0.0]"},
    **{name: {"mean_deg": "8", "sin_deg": "[1.5, 0.5]", "cos_deg": "-2"}
       for name in ("pitch", "flap", "leadlag")},
    "flight": {"tip_mach": "0.6", "advance_ratio": "0.2",
               "freestream_mach": "0.12", "thrust_coefficient": "0.005"},
    "rbf": {"kernel": "wendland_c2", "support_radius_m": "0.5",
            "support_radius_chords": "2.5", "affine": "false",
            "greedy_tol_m": "1e-6", "level_caps": "[8, 32]",
            "fixed_markers": '["farfield"]'},
    "interface": {"pair": '["a", "b"]'},
}

_POSITIVE = ["abc", "0", "-1", "nan", "1e999", "-1e999", "true", "[1.0]",
             '"1.0"', ""]
_NUMBER = ["abc", "nan", "1e999", "true", "[1.0]", '"1.0"', ""]
_NON_NEGATIVE = _NUMBER + ["-0.2", "-1e-300", "-1e999"]
# per key: raw values its converter must reject
BAD_VALUES = {
    **dict.fromkeys(("radius_m", "rpm", "chord_m", "support_radius_m",
                     "support_radius_chords", "greedy_tol_m", "tip_mach"),
                    _POSITIVE),
    **dict.fromkeys(("mean_deg", "thrust_coefficient"), _NUMBER),
    **dict.fromkeys(("advance_ratio", "freestream_mach"), _NON_NEGATIVE),
    **dict.fromkeys(("sin_deg", "cos_deg"),
                    ["abc", "nan", "1e999", "true", '"1.0"', "",
                     '[1.0, "x"]', "[1e999]", "[true]"]),
    "n_blades": ["abc", "0", "-1", "2.0", "true", "[2]"],
    "hinge": ['[0, "x", 0]', "[0, 0]", "[0, 0, 0, 0]", "0", "abc",
              "[0, 0, 1e999]", "[0, 0, true]"],
    "kernel": ["foo", "5", "[1]"],
    "affine": ['"yes"', "1", "abc", "[true]"],
    "level_caps": ["[]", "()", "[8, 0]", "8", "[8, 2.5]", "[8, true]", "abc"],
    "fixed_markers": ["5", "[1, 2]", '["a", 3]', "true"],
    "pair": ['["a"]', '["a", "b", "c"]', "abc", "[1, 2]", '"a"'],
}


def _config(values: dict[str, dict[str, str]]) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {raw}\n"
                                             for key, raw in keys.items())
                   for name, keys in values.items())


def _with(section: str, key: str, raw: str) -> str:
    return _config({**FULL, section: {**FULL[section], key: raw}})


TABLE = [(section, key) for section, keys in config._KEYS.items()
         for key in keys]


def test_full_config_covers_the_table():
    assert {s: set(k) for s, k in FULL.items()} == \
        {s: set(k) for s, k in config._KEYS.items()}
    assert set(BAD_VALUES) == {key for _, key in TABLE}
    # the two support keys exclude each other; FULL lists both for the
    # per-key tests
    rbf = dict(FULL["rbf"])
    del rbf["support_radius_chords"]
    cfg = parse_motion_config(_config({**FULL, "rbf": rbf}))
    assert cfg.hinge == (0.0, 0.1, 0.0)
    assert cfg.leadlag == MotionSeries(np.radians(8.0), tuple(
        np.radians([1.5, 0.5])), (np.radians(-2.0),))
    assert cfg.rbf == RbfConfig(RbfKernel("wendland_c2", 0.5), False, 1e-6,
                                (8, 32))
    assert cfg.flight.freestream_mach == 0.12
    assert cfg.interface_pair == ("a", "b")


@pytest.mark.parametrize("section,key", TABLE)
def test_bad_value_names_section_and_key(section, key):
    for raw in BAD_VALUES[key]:
        with pytest.raises(ConfigError, match=re.escape(
                f"bad config value: [{section}] {key}") + r"\b"):
            parse_motion_config(_with(section, key, raw))


@pytest.mark.parametrize("section", list(config._KEYS))
def test_unknown_key_listed_in_every_section(section):
    text = _with(section, "typo_key", "1")
    with pytest.raises(ConfigError, match=re.escape(
            f"bad config keys: [{section}] typo_key (unknown)")):
        parse_motion_config(text)


def test_unknown_section_listed():
    with pytest.raises(ConfigError, match=re.escape(
            "bad config keys: [flapp] (unknown section)")):
        parse_motion_config(MINIMAL + "[flapp]\nmean_deg = 2.0\n")


def test_every_key_problem_in_one_error():
    text = """
[rotor]
rpm = 60.0
radius = 1.0
[flapp]
[pitch]
mean_degrees = 1.0
[flight]
advance_ratio = 0.1
[rbf]
fixed_marker = ["farfield"]
greedy_tol = 1e-3
"""
    with pytest.raises(ConfigError) as info:
        parse_motion_config(text)
    assert str(info.value) == (
        "bad config keys: [flapp] (unknown section); [rotor] radius "
        "(unknown); [rotor] radius_m (missing); [pitch] mean_degrees "
        "(unknown); [flight] tip_mach (missing); [rbf] fixed_marker "
        "(unknown); [rbf] greedy_tol (unknown)")


@pytest.mark.parametrize("section,key,raw,message", [
    ("rotor", "hinge", '[0, "x", 0]',
     "[rotor] hinge must be a list of 3 numbers, got [0, 'x', 0]"),
    ("rotor", "radius_m", "-1",
     "[rotor] radius_m must be a positive number, got -1"),
    ("rotor", "radius_m", "abc",
     "[rotor] radius_m must be a positive number, got 'abc'"),
    ("rotor", "chord_m", "-1",
     "[rotor] chord_m must be a positive number, got -1"),
    ("rbf", "affine", '"yes"', "[rbf] affine must be true or false, got 'yes'"),
])
def test_bad_value_message(section, key, raw, message):
    with pytest.raises(ConfigError, match=re.escape(
            f"bad config value: {message}")):
        parse_motion_config(_with(section, key, raw))


# ---------------------------------------------------------------------------
# Parity: the shipped fixtures and the README example keep their values
# ---------------------------------------------------------------------------

def _series(mean, sine=(), cosine=()):
    return MotionSeries(float(np.radians(mean)),
                        tuple(float(np.radians(v)) for v in sine),
                        tuple(float(np.radians(v)) for v in cosine))


def _ah1g(rpm, pitch, flap, tip_mach, mu, ct):
    return MotionConfig(
        radius_m=6.71, rpm=rpm, n_blades=2, hinge=(0.0, 0.0, 0.0),
        chord_m=0.686, pitch=_series(*pitch), flap=_series(*flap),
        leadlag=_series(0.0),
        flight=FlightCondition(tip_mach, 6.71, advance_ratio=mu,
                               thrust_coefficient=ct),
        rbf=RbfConfig(RbfKernel("wendland_c2", 2.5 * 0.686), False, 1e-4,
                      (8, 32, 128, 512)),
        fixed_markers=("farfield",))


PARITY = {
    "caradonna_tung_hover": MotionConfig(
        radius_m=1.143, rpm=1250.0, n_blades=2, hinge=(0.0, 0.0, 0.0),
        chord_m=0.191, pitch=_series(8.0), flap=_series(0.0),
        leadlag=_series(0.0),
        flight=FlightCondition(0.439, 1.143, advance_ratio=0.0),
        rbf=RbfConfig(RbfKernel("wendland_c2", 2.5 * 0.191), False, 1e-5,
                      (8, 32, 64, 256)),
        fixed_markers=("farfield",)),
    "ah1g_low_speed": _ah1g(315.2548702865871, (11.7, [1.7], [-5.5]),
                            (2.75, [-0.15], [2.13]), 0.65, 0.19, 0.00464),
    "ah1g_high_speed": _ah1g(310.40479535910123, (18.0, [3.6], [-11.8]),
                             (2.75, [1.11], [2.13]), 0.64, 0.38, 0.00474),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_parity(name):
    assert load_fixture(name) == PARITY[name]


def test_readme_example_parity():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    expected = replace(
        _ah1g(315.25, (11.7, [1.7], [-5.5]), (0.0,), 0.65, 0.19, 0.00464),
        interface_pair=("rotor_outer", "stator_inner"))
    assert parse_motion_config(example) == expected
