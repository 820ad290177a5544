"""Motion / deformation configuration files.

Plain INI-style sections with literal values (numbers, quoted strings,
bracketed lists). Angles are degrees in the file and radians in
memory. [rbf] picks one of the strictly positive definite kernels of
rbf.KERNEL_KINDS, whose support radius is given in chords. The parser
converts each value, and the settings type that holds it checks it.
Shipped fixtures cover a model-rotor hover case and the two-bladed
helicopter low/high speed forward-flight operating points.
"""

from __future__ import annotations

import ast
import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .kinematics import (FlightCondition, MotionSeries, _check, _count,
                         _positive, _real, rpm_to_rad_s)
from .rbf import RbfConfig, RbfKernel

FIXTURE_NAMES = ("caradonna_tung_hover", "ah1g_low_speed", "ah1g_high_speed")


class ConfigError(ValueError):
    """Unknown or missing keys, all listed, or the first bad value."""


def _coerce(raw: str, convert=None):
    """The Python literal raw spells, else raw as text (also a literal
    Python cannot build, {[1]: 2}, or one too deep for its parser), then
    converted by convert if given."""
    try:
        value = ast.literal_eval(raw)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        value = raw.strip()
    return convert(value) if convert else value


def _tuple(value):
    """A list as a tuple; any other value as it is."""
    return tuple(value) if type(value) is list else value


def _radians(value):
    """Degrees in radians: a real number, or each entry of a list or tuple
    as a tuple; any other value as it is."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_radians, value))
    return float(np.radians(float(value))) if _real(value) else value


_SERIES = {"mean_deg": _radians, **dict.fromkeys(  # a number is one harmonic
    ("sin_deg", "cos_deg"), lambda v: _radians([v] if _real(v) else v))}

# section -> key -> conversion of its value (None: none); the settings
# types check the values, parse_motion_config the two keys none holds
_KEYS = {
    "rotor": {"rpm": None, "chord_m": None, "n_blades": None,
              "hinge": _tuple},
    "pitch": _SERIES, "flap": _SERIES, "leadlag": _SERIES,
    "flight": {"tip_mach": None, "advance_ratio": None},
    "rbf": {"kernel": None, "support_radius_chords": None,
            "greedy_tol_m": None, "level_caps": _tuple,
            "fixed_markers": lambda v: (v,) if type(v) is str else _tuple(v)},
}
_REQUIRED = {"rotor": ("rpm",), "flight": ("tip_mach",)}
# the settings field of each key not named like it
_FIELDS = {"mean_deg": "mean", "sin_deg": "sine_coeffs",
           "cos_deg": "cosine_coeffs", "greedy_tol_m": "greedy_tol",
           "kernel": "kind"}


def _read_config(text: str) -> dict[str, dict[str, object]]:
    """Each section ([rotor] even if absent) with its values converted by
    _KEYS and keyed by field. One ConfigError lists every unknown section,
    unknown key and missing required key."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
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
    return {name: {_FIELDS.get(key, key): _coerce(raw, _KEYS[name][key])
                   for key, raw in values.items()}
            for name, values in sections.items()}


def _build(settings, *sections: str, **fields):
    """settings(**fields), a settings type whose ValueError "<field> must
    be ..." becomes a ConfigError naming the key of that field in the
    first of sections that has one."""
    try:
        return settings(**fields)
    except ValueError as exc:
        field, rule = str(exc).split(" ", 1)
        section, key = next((name, key) for name in sections
                            for key in _KEYS[name]
                            if _FIELDS.get(key, key) == field)
        raise ConfigError(
            f"bad config value: [{section}] {key} {rule}") from exc


@dataclass(frozen=True)
class MotionConfig:
    """Parsed configuration: rotor speed and blades, motion laws, flight
    condition and RBF deformation settings, checked on construction."""

    rpm: float
    n_blades: int = 1
    hinge: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pitch: MotionSeries = MotionSeries()
    flap: MotionSeries = MotionSeries()
    leadlag: MotionSeries = MotionSeries()
    flight: FlightCondition | None = None
    rbf: RbfConfig | None = None
    fixed_markers: tuple[str, ...] = ()

    def __post_init__(self):
        _check(self, rpm=(_positive, "a finite positive number"),
               n_blades=(_count, "an integer of at least 1"),
               hinge=(lambda v: isinstance(v, (list, tuple)) and len(v) == 3
                      and all(map(_real, v)), "3 finite numbers"),
               fixed_markers=(lambda v: isinstance(v, (list, tuple))
                              and all(isinstance(m, str) for m in v),
                              "a list or tuple of marker names"),
               **dict.fromkeys(("pitch", "flap", "leadlag"), (
                   lambda v: isinstance(v, MotionSeries), "a MotionSeries")))
        # omega, its period and each blade's azimuth are finite floats too
        _check(self, rpm=(lambda _: _positive(self.omega)
                          and _positive(self.revolution_period),
                          "a speed of finite positive omega and period"),
               n_blades=(lambda v: _real(v) and _real(2.0 * np.pi * v),
                         "small enough for a finite azimuth 2 pi n_blades"))

    @property
    def omega(self) -> float:
        return rpm_to_rad_s(self.rpm)

    @property
    def revolution_period(self) -> float:
        return 2.0 * np.pi / self.omega


def parse_motion_config(text: str) -> MotionConfig:
    sections = _read_config(text)
    rotor = sections["rotor"]
    chord = rotor.pop("chord_m", None)

    # RBF settings are optional for motion-only configs (sweeps); the support
    # radius is support_radius_chords (default 2.5) x [rotor] chord_m
    rbf = sections.get("rbf", {})
    fixed = rbf.pop("fixed_markers", ())
    rbf_cfg = None
    if "rbf" in sections or chord is not None:
        if chord is None:
            raise ConfigError(
                "[rbf] support radius in chords requires [rotor] chord_m")
        chords = rbf.pop("support_radius_chords", 2.5)
        for key, value in (("[rotor] chord_m", chord),
                           ("[rbf] support_radius_chords", chords)):
            if not _positive(value):
                raise ConfigError(f"bad config value: {key} must be a "
                                  f"finite positive number, got {value!r}")
        support = float(chords) * float(chord)
        if not 0.0 < support < np.inf:  # the product over- or underflows
            raise ConfigError("bad config value: [rotor] chord_m x [rbf] "
                              "support_radius_chords must be a positive "
                              f"finite number, got {support!r}")
        rbf_cfg = _build(RbfConfig, "rbf", kernel=_build(
            RbfKernel, "rbf", kind=rbf.pop("kind", "wendland_c2"),
            support_radius=support), **rbf)

    return _build(
        MotionConfig, "rotor", "rbf", **rotor,
        **{name: _build(MotionSeries, name, **sections.get(name, {}))
           for name in ("pitch", "flap", "leadlag")},
        flight=(_build(FlightCondition, "flight", **sections["flight"])
                if "flight" in sections else None),
        rbf=rbf_cfg, fixed_markers=fixed)


def load_motion_config(path: str | Path) -> MotionConfig:
    return parse_motion_config(Path(path).read_text())


def load_fixture(name: str) -> MotionConfig:
    """One of the shipped configuration fixtures, FIXTURE_NAMES."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r} (have {FIXTURE_NAMES})")
    return parse_motion_config(resources.files("rotormesh").joinpath(
        f"fixtures/{name}.cfg").read_text())
