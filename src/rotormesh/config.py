"""Motion / deformation configuration files.

Plain INI-style sections with literal values (numbers, booleans, quoted
strings, bracketed lists). Angles are degrees in the file and radians in
memory. Shipped fixtures cover a model-rotor hover case and the two-bladed
helicopter low/high speed forward-flight operating points.
"""

from __future__ import annotations

import ast
import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .kinematics import BladeMotion, FlightCondition, MotionSeries, rpm_to_rad_s
from .rbf import KERNEL_KINDS, RbfConfig, RbfKernel

FIXTURE_NAMES = ("caradonna_tung_hover", "ah1g_low_speed", "ah1g_high_speed")


class ConfigError(ValueError):
    """Bad or missing configuration keys; lists every offending key."""


def _coerce(raw: str):
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        lowered = raw.strip().lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        return raw.strip()


def _read_sections(text: str) -> dict[str, dict[str, object]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return {section: {key: _coerce(value)
                      for key, value in parser.items(section)}
            for section in parser.sections()}


def _positive(value, section: str, key: str, kind=float):
    """value as a positive kind (float or int), else a ConfigError naming
    the key."""
    try:
        if kind(value) > 0:
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"bad config value: [{section}] {key} must be a "
                      f"positive {kind.__name__}, got {value!r}")


def _series_from_section(data: dict[str, object], name: str) -> MotionSeries:
    bad = [k for k in data if k not in ("mean_deg", "sin_deg", "cos_deg")]
    if bad:
        raise ConfigError(f"unknown keys in [{name}]: {', '.join(sorted(bad))}")

    def _to_radians(value):
        if isinstance(value, (list, tuple)):
            return tuple(np.radians(float(v)) for v in value)
        return (np.radians(float(value)),)

    mean = np.radians(float(data.get("mean_deg", 0.0)))
    sine = _to_radians(data.get("sin_deg", ()))
    cosine = _to_radians(data.get("cos_deg", ()))
    return MotionSeries(mean=float(mean), sine_coeffs=sine,
                        cosine_coeffs=cosine)


@dataclass(frozen=True)
class MotionConfig:
    """Parsed configuration: rotor geometry, motion laws, flight condition,
    and RBF deformation settings."""

    radius_m: float
    rpm: float
    n_blades: int
    hinge: tuple[float, float, float]
    chord_m: float | None
    pitch: MotionSeries
    flap: MotionSeries
    leadlag: MotionSeries
    flight: FlightCondition | None
    rbf: RbfConfig | None
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
    sections = _read_sections(text)
    rotor = sections.get("rotor", {})
    problems = [f"[rotor] {k}" for k in ("radius_m", "rpm") if k not in rotor]
    known_rotor = {"radius_m", "rpm", "n_blades", "hinge", "chord_m"}
    problems.extend(f"[rotor] {k} (unknown)" for k in rotor
                    if k not in known_rotor)

    optional = ("freestream_mach", "advance_ratio", "thrust_coefficient")
    fdata = sections.get("flight")
    if fdata is not None:
        problems.extend(f"[flight] {k} (unknown)" for k in fdata
                        if k not in ("tip_mach", *optional))
        if "tip_mach" not in fdata:
            problems.append("[flight] tip_mach")

    if problems:
        raise ConfigError("bad config keys: " + "; ".join(problems))

    radius = float(rotor["radius_m"])
    chord = float(rotor["chord_m"]) if "chord_m" in rotor else None
    hinge_raw = rotor.get("hinge", [0.0, 0.0, 0.0])
    if not isinstance(hinge_raw, (list, tuple)) or len(hinge_raw) != 3:
        raise ConfigError("[rotor] hinge must be a 3-element list")
    hinge = tuple(float(c) for c in hinge_raw)

    flight = None
    if fdata is not None:
        try:
            flight = FlightCondition(
                tip_mach=float(fdata["tip_mach"]), rotor_radius=radius,
                **{k: float(fdata[k]) for k in optional if k in fdata})
        except ValueError as exc:
            raise ConfigError(f"bad config value: [flight] {exc}") from exc

    # RBF settings are optional for motion-only configs (sweeps); a missing
    # support radius is an error only once a kernel actually needs one.
    rbf_cfg = None
    fixed: list[str] = []
    if "rbf" in sections or chord is not None:
        rbf_data = sections.get("rbf", {})
        kind = str(rbf_data.get("kernel", "wendland_c2"))
        if "support_radius_m" in rbf_data:
            support = float(rbf_data["support_radius_m"])
        elif kind == "thin_plate_spline":
            support = None
        else:
            chords = float(rbf_data.get("support_radius_chords", 2.5))
            if chord is None:
                raise ConfigError(
                    "[rbf] support radius in chords requires [rotor] chord_m")
            support = chords * chord
        try:
            kernel = RbfKernel(kind, support)
        except ValueError as exc:
            key = "kernel" if kind not in KERNEL_KINDS else (
                "support_radius_m" if "support_radius_m" in rbf_data
                else "support_radius_chords")
            raise ConfigError(f"bad config value: [rbf] {key}: {exc}") from exc
        caps = rbf_data.get("level_caps", [8, 32, 64, 256])
        if not isinstance(caps, (list, tuple)) or not caps:
            raise ConfigError("bad config value: [rbf] level_caps must be a "
                              f"non-empty list, got {caps!r}")
        fixed_raw = rbf_data.get("fixed_markers", [])
        fixed = [fixed_raw] if isinstance(fixed_raw, str) else list(fixed_raw)
        rbf_cfg = RbfConfig(
            kernel=kernel,
            with_affine=bool(rbf_data.get("affine", False)),
            greedy_tol=_positive(rbf_data.get("greedy_tol_m", 1e-6), "rbf",
                                 "greedy_tol_m"),
            level_caps=tuple(_positive(c, "rbf", "level_caps", int)
                             for c in caps),
        )

    pair = None
    if "interface" in sections:
        pdata = sections["interface"].get("pair")
        if pdata is not None:
            if not isinstance(pdata, (list, tuple)) or len(pdata) != 2:
                raise ConfigError("[interface] pair must list two markers")
            pair = (str(pdata[0]), str(pdata[1]))

    return MotionConfig(
        radius_m=radius,
        rpm=_positive(rotor["rpm"], "rotor", "rpm"),
        n_blades=_positive(rotor.get("n_blades", 1), "rotor", "n_blades", int),
        hinge=hinge,  # type: ignore[arg-type]
        chord_m=chord,
        pitch=_series_from_section(sections.get("pitch", {}), "pitch"),
        flap=_series_from_section(sections.get("flap", {}), "flap"),
        leadlag=_series_from_section(sections.get("leadlag", {}), "leadlag"),
        flight=flight,
        rbf=rbf_cfg,
        fixed_markers=tuple(str(m) for m in fixed),
        interface_pair=pair,
    )


def load_motion_config(path: str | Path) -> MotionConfig:
    return parse_motion_config(Path(path).read_text())


def fixture_text(name: str) -> str:
    """Raw text of a shipped configuration fixture."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r} (have {FIXTURE_NAMES})")
    return resources.files("rotormesh").joinpath(
        f"fixtures/{name}.cfg").read_text()


def load_fixture(name: str) -> MotionConfig:
    return parse_motion_config(fixture_text(name))
