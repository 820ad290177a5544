import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotormesh import config
from rotormesh.config import (ConfigError, MotionConfig, load_fixture,
                              parse_motion_config, FIXTURE_NAMES)
from rotormesh.kinematics import FlightCondition, MotionSeries, blade_point
from rotormesh.rbf import KERNEL_KINDS, RbfConfig, RbfKernel

MINIMAL = """
[rotor]
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
    assert cfg.n_blades == 2
    assert np.degrees(cfg.pitch.mean) == pytest.approx(11.7)
    assert np.degrees(cfg.pitch.sine_coeffs[0]) == pytest.approx(1.7)
    assert np.degrees(cfg.pitch.cosine_coeffs[0]) == pytest.approx(-5.5)
    assert np.degrees(cfg.flap.mean) == pytest.approx(2.75)
    assert np.degrees(cfg.flap.sine_coeffs[0]) == pytest.approx(-0.15)
    assert np.degrees(cfg.flap.cosine_coeffs[0]) == pytest.approx(2.13)
    assert cfg.flight.tip_mach == 0.65
    assert cfg.flight.advance_ratio == 0.19
    # rotor speed reproduces the tip Mach at the reference speed of sound
    # for the header's rotor radius R = 6.71 m
    assert cfg.omega * 6.71 / 340.8 == pytest.approx(0.65, abs=1e-12)
    # support_radius_chords = 2.5 of chord_m = 0.686
    assert cfg.rbf.kernel.support_radius == pytest.approx(2.5 * 0.686)
    assert cfg.fixed_markers == ("farfield",)


def test_fixture_high_speed_values():
    cfg = load_fixture("ah1g_high_speed")
    assert np.degrees(cfg.pitch.mean) == pytest.approx(18.0)
    assert np.degrees(cfg.pitch.sine_coeffs[0]) == pytest.approx(3.6)
    assert np.degrees(cfg.pitch.cosine_coeffs[0]) == pytest.approx(-11.8)
    assert np.degrees(cfg.flap.sine_coeffs[0]) == pytest.approx(1.11)
    assert cfg.flight.advance_ratio == 0.38
    assert cfg.omega * 6.71 / 340.8 == pytest.approx(0.64, abs=1e-12)


def test_fixture_hover_values():
    cfg = load_fixture("caradonna_tung_hover")
    assert cfg.rpm == 1250.0
    assert cfg.omega * 1.143 / 340.8 == pytest.approx(0.439, abs=1e-4)
    assert np.degrees(cfg.pitch.mean) == pytest.approx(8.0)
    assert cfg.flight.tip_mach == 0.439
    assert cfg.flight.advance_ratio == 0.0
    assert cfg.pitch.sine_coeffs == cfg.pitch.cosine_coeffs == ()


def test_unknown_fixture_is_a_key_error():
    with pytest.raises(KeyError, match="unknown fixture 'nope'"):
        load_fixture("nope")


@pytest.mark.parametrize("text", [
    "radius_m = 1.0\n",                   # no section header
    "[rotor]\nradius_m = 1.0\n[rotor]\n",  # a section twice
    "[rotor]\nrpm\n",                     # a key with no value
])
def test_text_configparser_cannot_read_is_config_error(text):
    with pytest.raises(ConfigError, match="^cannot parse config: "):
        parse_motion_config(text)


def test_all_fixtures_parse():
    for name in FIXTURE_NAMES:
        cfg = load_fixture(name)
        assert cfg.omega > 0.0


def test_blade_motion_offsets():
    """Two blades: blade 1 at t is where blade 0 is half a turn later."""
    cfg = load_fixture("ah1g_low_speed")
    assert cfg.n_blades == 2
    x = np.array([[1.0, 0.05, 0.02], [6.5, -0.3, 0.1]])
    half = cfg.revolution_period / 2.0
    for t in (0.0, 0.013, 0.4):
        np.testing.assert_allclose(blade_point(x, cfg, t, blade=1),
                                   blade_point(x, cfg, t + half),
                                   rtol=0.0, atol=1e-12)


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match=re.escape("[rotor] rpm (missing)")):
        parse_motion_config("[rotor]\nn_blades = 2\n")
    # [rotor] is required even when the text has no such section
    with pytest.raises(ConfigError, match=re.escape("[rotor] rpm (missing)")):
        parse_motion_config("[flight]\ntip_mach = 0.6\n")


def test_unknown_keys_listed():
    text = MINIMAL + "typo_key = 3\n"
    with pytest.raises(ConfigError, match="typo_key"):
        parse_motion_config(text)


def test_bad_series_key():
    text = MINIMAL + "[pitch]\nmean_degrees = 8.0\n"
    with pytest.raises(ConfigError, match="mean_degrees"):
        parse_motion_config(text)


def test_rbf_section_parsing():
    text = MINIMAL + """chord_m = 1.0
[rbf]
kernel = gaussian
support_radius_chords = 0.4
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
     "bad config keys: [rbf] support_radius_m (unknown)"),
    ("kernel = thin_plate_spline\nsupport_radius_chords = 2.5\n",
     "bad config keys: [rbf] support_radius_chords (unused by "
     "thin_plate_spline)"),
])
def test_support_keys_that_would_be_ignored_are_rejected(rbf, message):
    """A support key the kernel would not use is an error, not a value read,
    checked and dropped; the support radius has one key, so an absolute
    support_radius_m is unknown."""
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        parse_motion_config(MINIMAL + "chord_m = 0.3\n[rbf]\n" + rbf)


def test_interface_section_is_unknown():
    """rotormesh interface takes its markers as arguments, so a config
    section naming them would be read and then ignored."""
    text = MINIMAL + '[interface]\npair = ["rotor_outer", "stator_inner"]\n'
    with pytest.raises(ConfigError, match=re.escape(
            "bad config keys: [interface] (unknown section)")):
        parse_motion_config(text)


def test_flight_requires_tip_mach():
    text = MINIMAL + "[flight]\nadvance_ratio = 0.1\n"
    with pytest.raises(ConfigError, match="tip_mach"):
        parse_motion_config(text)


WITH_RBF = MINIMAL + "chord_m = 0.3\n[rbf]\n"


@pytest.mark.parametrize("text,key", [
    (WITH_RBF + "kernel = foo\n", r"\[rbf\] kernel"),
    (WITH_RBF + "support_radius_chords = -1\n",
     r"\[rbf\] support_radius_chords"),
    (WITH_RBF + "kernel = gaussian\nsupport_radius_chords = 0\n",
     r"\[rbf\] support_radius_chords"),
    (WITH_RBF + "greedy_tol_m = 0\n", r"\[rbf\] greedy_tol_m"),
    (WITH_RBF + "level_caps = []\n", r"\[rbf\] level_caps"),
    (WITH_RBF + "level_caps = [8, 0]\n", r"\[rbf\] level_caps"),
    (WITH_RBF + "level_caps = 8\n", r"\[rbf\] level_caps"),
    (MINIMAL + "n_blades = 0\n", r"\[rotor\] n_blades"),
    (MINIMAL.replace("60.0", "0"), r"\[rotor\] rpm"),
    (MINIMAL.replace("60.0", "-300"), r"\[rotor\] rpm"),
    (MINIMAL + "[flight]\ntip_mach = 0\n", r"\[flight\] tip_mach"),
])
def test_bad_values_name_their_key(text, key):
    with pytest.raises(ConfigError, match=key):
        parse_motion_config(text)


# ---------------------------------------------------------------------------
# The key table: every section and key, its converter and its errors
# ---------------------------------------------------------------------------

# every section and key of the format with a valid raw value
FULL = {
    "rotor": {"rpm": "60.0", "chord_m": "0.3",
              "n_blades": "2", "hinge": "[0.0, 0.1, 0.0]"},
    **{name: {"mean_deg": "8", "sin_deg": "[1.5, 0.5]", "cos_deg": "-2"}
       for name in ("pitch", "flap", "leadlag")},
    "flight": {"tip_mach": "0.6", "advance_ratio": "0.2"},
    "rbf": {"kernel": "wendland_c2", "support_radius_chords": "2.5",
            "affine": "false",
            "greedy_tol_m": "1e-6", "level_caps": "[8, 32]",
            "fixed_markers": '["farfield"]'},
}

_POSITIVE = ["abc", "0", "-1", "nan", "1e999", "-1e999", "true", "[1.0]",
             '"1.0"', ""]
_NUMBER = ["abc", "nan", "1e999", "true", "[1.0]", '"1.0"', ""]
_NON_NEGATIVE = _NUMBER + ["-0.2", "-1e-300", "-1e999"]
# per key: raw values its converter must reject
BAD_VALUES = {
    **dict.fromkeys(("rpm", "chord_m", "support_radius_chords",
                     "greedy_tol_m", "tip_mach"), _POSITIVE),
    "mean_deg": _NUMBER,
    "advance_ratio": _NON_NEGATIVE,
    **dict.fromkeys(("sin_deg", "cos_deg"),
                    ["abc", "nan", "1e999", "true", '"1.0"', "",
                     '[1.0, "x"]', "[1e999]", "[true]"]),
    "n_blades": ["abc", "0", "-1", "2.0", "true", "[2]"],
    "hinge": ['[0, "x", 0]', "[0, 0]", "[0, 0, 0, 0]", "0", "abc",
              "[0, 0, 1e999]", "[0, 0, true]"],
    # text too: a %, a literal Python cannot build, one too deep to parse
    "kernel": ["foo", "5", "[1]", "50%", "{[1]: 2}", "-" * 100_000 + "1"],
    "affine": ['"yes"', "1", "abc", "[true]"],
    "level_caps": ["[]", "()", "[8, 0]", "8", "[8, 2.5]", "[8, true]", "abc",
                   "[32, 8]", "[8, 8]"],
    "fixed_markers": ["5", "[1, 2]", '["a", 3]', "true"],
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
    cfg = parse_motion_config(_config(FULL))
    assert cfg.hinge == (0.0, 0.1, 0.0)
    assert cfg.leadlag == MotionSeries(np.radians(8.0), tuple(
        np.radians([1.5, 0.5])), (np.radians(-2.0),))
    assert cfg.flight == FlightCondition(0.6, 0.2)
    assert cfg.rbf == RbfConfig(RbfKernel("wendland_c2", 2.5 * 0.3), False,
                                1e-6, (8, 32))


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
        "(unknown); [rotor] rpm (missing); [pitch] mean_degrees "
        "(unknown); [flight] tip_mach (missing); [rbf] fixed_marker "
        "(unknown); [rbf] greedy_tol (unknown)")


@pytest.mark.parametrize("section,key,raw,message", [
    ("rotor", "hinge", '[0, "x", 0]',
     "[rotor] hinge must be a list of 3 numbers, got [0, 'x', 0]"),
    ("rotor", "rpm", "-1", "[rotor] rpm must be a positive number, got -1"),
    ("rotor", "rpm", "abc",
     "[rotor] rpm must be a positive number, got 'abc'"),
    ("rotor", "chord_m", "-1",
     "[rotor] chord_m must be a positive number, got -1"),
    ("rbf", "affine", '"yes"', "[rbf] affine must be true or false, got 'yes'"),
])
def test_bad_value_message(section, key, raw, message):
    with pytest.raises(ConfigError, match=re.escape(
            f"bad config value: {message}")):
        parse_motion_config(_with(section, key, raw))


# ---------------------------------------------------------------------------
# Grammar: any mix of known and unknown sections, keys and values
# ---------------------------------------------------------------------------

# keys the format does not have: typos, and keys it no longer reads
UNKNOWN_KEYS = ("typo_key", "radius_m", "freestream_mach",
                "thrust_coefficient", "support_radius_m")
KEYS = sorted({key for _, key in TABLE} | set(UNKNOWN_KEYS))
# per key: more raw values its converter takes than FULL's
MORE_VALID = {
    "rpm": ["1250", "1e-3"], "chord_m": ["1", "1e308"],
    "n_blades": ["1", "3"], "hinge": ["(0, 0, 0)"], "mean_deg": ["-2.5"],
    "sin_deg": ["3", "[]"], "cos_deg": ["[0.5]"], "advance_ratio": ["0"],
    "kernel": list(KERNEL_KINDS), "support_radius_chords": ["0.4", "1e308"],
    "affine": ["true"], "level_caps": ["[4]", "(1, 2, 3)"],
    "fixed_markers": ['"farfield"', "[]"]}
VALID = {key: [raw, *MORE_VALID.get(key, ())]
         for keys in FULL.values() for key, raw in keys.items()}
RAW = st.one_of(
    st.sampled_from(sorted({raw for raws in VALID.values() for raw in raws})),
    st.sampled_from(sorted({raw for raws in BAD_VALUES.values()
                            for raw in raws})),
    st.sampled_from(["%(rpm)s", "[[8]]", "1+2j"]),
    # any one line: no control, line or paragraph separator characters
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
            max_size=12))
OFTEN = st.integers(0, 3).map(bool)  # true three times in four


@st.composite
def config_texts(draw):
    """[rotor] and most other sections of the format, each with its
    required keys and most others at valid values, then up to two faults:
    a key of the section, of any section or an unknown one, in any section
    or an unknown one, set to any value or removed. Returns the text and
    its section names."""
    sections = {name: {key: draw(st.sampled_from(VALID[key]))
                       for key in keys
                       if key in config._REQUIRED.get(name, ())
                       or draw(OFTEN)}
                for name, keys in config._KEYS.items()
                if name == "rotor" or draw(OFTEN)}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from([*config._KEYS, "flapp"]))
        own = st.sampled_from(list(config._KEYS.get(name, KEYS)))
        key, raw = draw(own | st.sampled_from(KEYS)), draw(st.none() | RAW)
        values = sections.setdefault(name, {})
        if raw is None:
            values.pop(key, None)
        else:
            values[key] = raw
    return _config(sections), set(sections)


@given(config_texts())
def test_any_config_parses_or_is_one_config_error(case):
    """parse_motion_config returns a MotionConfig or raises one ConfigError
    whose first bracketed name is a section of the text; any other
    exception fails."""
    text, sections = case
    try:
        cfg = parse_motion_config(text)
    except ConfigError as exc:
        named = re.search(r"\[(\w+)\]", str(exc))
        assert named and named.group(1) in sections, str(exc)
    else:
        assert isinstance(cfg, MotionConfig)


# ---------------------------------------------------------------------------
# Parity: the shipped fixtures and the README example keep their values
# ---------------------------------------------------------------------------

def _series(mean, sine=(), cosine=()):
    return MotionSeries(float(np.radians(mean)),
                        tuple(float(np.radians(v)) for v in sine),
                        tuple(float(np.radians(v)) for v in cosine))


def _ah1g(rpm, pitch, flap, tip_mach, mu):
    return MotionConfig(
        rpm=rpm, n_blades=2, hinge=(0.0, 0.0, 0.0), pitch=_series(*pitch),
        flap=_series(*flap), leadlag=_series(0.0),
        flight=FlightCondition(tip_mach, mu),
        rbf=RbfConfig(RbfKernel("wendland_c2", 2.5 * 0.686), False, 1e-4,
                      (8, 32, 128, 512)),
        fixed_markers=("farfield",))


PARITY = {
    "caradonna_tung_hover": MotionConfig(
        rpm=1250.0, n_blades=2, hinge=(0.0, 0.0, 0.0), pitch=_series(8.0),
        flap=_series(0.0), leadlag=_series(0.0),
        flight=FlightCondition(0.439, 0.0),
        rbf=RbfConfig(RbfKernel("wendland_c2", 2.5 * 0.191), False, 1e-5,
                      (8, 32, 64, 256)),
        fixed_markers=("farfield",)),
    "ah1g_low_speed": _ah1g(315.2548702865871, (11.7, [1.7], [-5.5]),
                            (2.75, [-0.15], [2.13]), 0.65, 0.19),
    "ah1g_high_speed": _ah1g(310.40479535910123, (18.0, [3.6], [-11.8]),
                             (2.75, [1.11], [2.13]), 0.64, 0.38),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_parity(name):
    assert load_fixture(name) == PARITY[name]


def test_readme_example_parity():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    expected = _ah1g(315.25, (11.7, [1.7], [-5.5]), (0.0,), 0.65, 0.19)
    assert parse_motion_config(example) == expected
