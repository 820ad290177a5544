"""Motion / deformation configuration files.

Plain INI-style sections with literal values (numbers, booleans, quoted
strings, bracketed lists). Angles are degrees in the file and radians in
memory. Shipped fixtures cover a model-rotor hover case and the two-bladed
helicopter low/high speed forward-flight operating points.
"""

from __future__ import annotations

import ast
import configparser
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .kinematics import BladeMotion, FlightCondition, MotionSeries, rpm_to_rad_s
from .rbf import KERNEL_KINDS, RbfConfig, RbfKernel

FIXTURE_NAMES = ("caradonna_tung_hover", "ah1g_low_speed", "ah1g_high_speed")


class ConfigError(ValueError):
    """Unknown or missing keys, all listed, or the first bad value."""


def _coerce(raw: str):
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        raw = raw.strip()
        return {"true": True, "false": False}.get(raw.lower(), raw)


def _rule(what: str, ok, convert=float):
    """Converter: convert(value) if ok(value), else a ValueError."""
    def run(value):
        if not ok(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return convert(value)
    return run


def _real(value) -> bool:
    """A finite int or float literal (a bool or a string is not one)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _count(value) -> bool:
    return type(value) is int and value > 0


def _list(value, ok) -> bool:
    return type(value) in (list, tuple) and all(map(ok, value))


def _name(value) -> bool:
    return type(value) is str


_NUMBER = _rule("a finite number", _real)
_POSITIVE = _rule("a positive number", lambda v: _real(v) and v > 0)
_NON_NEGATIVE = _rule("a non-negative number", lambda v: _real(v) and v >= 0)
_SERIES = {  # degrees in the file, radians in memory
    "mean_deg": _rule("a finite number", _real,
                      lambda v: float(np.radians(v))),
    **dict.fromkeys(("sin_deg", "cos_deg"), _rule(
        "a number or a list of numbers", lambda v: _real(v) or _list(v, _real),
        lambda v: tuple(np.radians(np.atleast_1d(v)).tolist()))),
}

# section -> key -> converter; each converter raises ValueError on a bad value
_KEYS = {
    "rotor": {
        "radius_m": _POSITIVE, "rpm": _POSITIVE, "chord_m": _POSITIVE,
        "n_blades": _rule("a positive integer", _count, int),
        "hinge": _rule("a list of 3 numbers",
                       lambda v: _list(v, _real) and len(v) == 3,
                       lambda v: tuple(map(float, v))),
    },
    "pitch": _SERIES, "flap": _SERIES, "leadlag": _SERIES,
    "flight": {"tip_mach": _POSITIVE, "advance_ratio": _NON_NEGATIVE,
               "freestream_mach": _NON_NEGATIVE,
               "thrust_coefficient": _NUMBER},
    "rbf": {
        "kernel": _rule("one of " + ", ".join(KERNEL_KINDS),
                        lambda v: v in KERNEL_KINDS, str),
        "support_radius_m": _POSITIVE, "support_radius_chords": _POSITIVE,
        "affine": _rule("true or false", lambda v: type(v) is bool, bool),
        "greedy_tol_m": _POSITIVE,
        "level_caps": _rule(
            "a non-empty list of positive integers",
            lambda v: _list(v, _count) and len(v) > 0, tuple),
        "fixed_markers": _rule(
            "a marker name or a list of them",
            lambda v: _name(v) or _list(v, _name),
            lambda v: (v,) if _name(v) else tuple(v)),
    },
    "interface": {"pair": _rule("a list of 2 marker names",
                                lambda v: _list(v, _name) and len(v) == 2,
                                tuple)},
}
_REQUIRED = {"rotor": ("radius_m", "rpm"), "flight": ("tip_mach",)}
# the dataclass field of each key not named like it
_FIELDS = {"mean_deg": "mean", "sin_deg": "sine_coeffs",
           "cos_deg": "cosine_coeffs", "affine": "with_affine",
           "greedy_tol_m": "greedy_tol", "pair": "interface_pair"}


def _read_config(text: str) -> dict[str, dict[str, object]]:
    """Each section ([rotor] even if absent) with its values converted by
    _KEYS and keyed by field. One ConfigError lists every unknown section,
    unknown key and missing required key, else names the first bad value."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    sections = {"rotor": {}, **{name: dict(parser.items(name))
                                for name in parser.sections()}}
    problems = [f"[{name}] (unknown section)"
                for name in sections if name not in _KEYS]
    for name, values in sections.items():
        problems += [f"[{name}] {key} (unknown)" for key in values
                     if name in _KEYS and key not in _KEYS[name]]
        problems += [f"[{name}] {key} (missing)"
                     for key in _REQUIRED.get(name, ()) if key not in values]
    if problems:
        raise ConfigError("bad config keys: " + "; ".join(problems))
    converted = {name: {} for name in sections}
    for name, values in sections.items():
        for key, raw in values.items():
            try:
                value = _KEYS[name][key](_coerce(raw))
            except ValueError as exc:
                raise ConfigError(
                    f"bad config value: [{name}] {key} {exc}") from exc
            converted[name][_FIELDS.get(key, key)] = value
    return converted


@dataclass(frozen=True)
class MotionConfig:
    """Parsed configuration: rotor geometry, motion laws, flight condition,
    and RBF deformation settings."""

    radius_m: float
    rpm: float
    n_blades: int = 1
    hinge: tuple[float, float, float] = (0.0, 0.0, 0.0)
    chord_m: float | None = None
    pitch: MotionSeries = MotionSeries()
    flap: MotionSeries = MotionSeries()
    leadlag: MotionSeries = MotionSeries()
    flight: FlightCondition | None = None
    rbf: RbfConfig | None = None
    fixed_markers: tuple[str, ...] = ()
    interface_pair: tuple[str, str] | None = None

    @property
    def omega(self) -> float:
        return rpm_to_rad_s(self.rpm)

    @property
    def revolution_period(self) -> float:
        return 2.0 * np.pi / self.omega

    def blade_motion(self, blade_index: int = 0) -> BladeMotion:
        offset = 2.0 * np.pi * blade_index / self.n_blades
        return BladeMotion(flap=self.flap, leadlag=self.leadlag,
                           pitch=self.pitch, hinge=self.hinge,
                           rotation_rate=self.omega, azimuth_offset=offset)


def parse_motion_config(text: str) -> MotionConfig:
    sections = _read_config(text)
    rotor = sections["rotor"]
    flight = None
    if "flight" in sections:
        try:
            flight = FlightCondition(rotor_radius=rotor["radius_m"],
                                     **sections["flight"])
        except ValueError as exc:
            raise ConfigError(f"bad config value: [flight] {exc}") from exc

    # RBF settings are optional for motion-only configs (sweeps); a missing
    # support radius is an error only once a kernel actually needs one.
    rbf = sections.get("rbf", {})
    fixed = rbf.pop("fixed_markers", ())
    rbf_cfg = None
    if "rbf" in sections or "chord_m" in rotor:
        kind = rbf.pop("kernel", "wendland_c2")
        support = rbf.pop("support_radius_m", None)
        chords = rbf.pop("support_radius_chords", None)
        if kind == "thin_plate_spline":
            unused = [f"[rbf] {key} (unused by thin_plate_spline)"
                      for key, value in (("support_radius_m", support),
                                         ("support_radius_chords", chords))
                      if value is not None]
            if unused:
                raise ConfigError("bad config keys: " + "; ".join(unused))
        elif support is None:
            if "chord_m" not in rotor:
                raise ConfigError(
                    "[rbf] support radius in chords requires [rotor] chord_m")
            support = (2.5 if chords is None else chords) * rotor["chord_m"]
        elif chords is not None:
            raise ConfigError("bad config keys: [rbf] support_radius_chords "
                              "(conflicts with support_radius_m)")
        rbf_cfg = RbfConfig(RbfKernel(kind, support), **rbf)

    return MotionConfig(
        **rotor,
        **{name: MotionSeries(**sections.get(name, {}))
           for name in ("pitch", "flap", "leadlag")},
        flight=flight, rbf=rbf_cfg, fixed_markers=fixed,
        **sections.get("interface", {}))


def load_motion_config(path: str | Path) -> MotionConfig:
    return parse_motion_config(Path(path).read_text())


def load_fixture(name: str) -> MotionConfig:
    """One of the shipped configuration fixtures, FIXTURE_NAMES."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r} (have {FIXTURE_NAMES})")
    return parse_motion_config(resources.files("rotormesh").joinpath(
        f"fixtures/{name}.cfg").read_text())
