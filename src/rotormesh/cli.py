"""Command-line front end: mesh inspection, motion sweeps, deformation runs,
interface weights, and the spectral-operator demo.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 deformation
failure (inverted cells), 4 interface failure (no overlap).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import hb
from .config import ConfigError, load_fixture, load_motion_config, FIXTURE_NAMES
from .driver import DeformationFailure, run_deformation
from .geometry import cell_geometry, orthogonality_metrics
from .kinematics import blade_normal_mach, eval_series
from .mesh import Mesh, MeshFormatError, parse_mesh, write_vtk
from .supermesh import build_supermesh, interface_from_markers

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DEFORM = 3
EXIT_INTERFACE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_mesh(path: str) -> Mesh:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc
    return parse_mesh(text)


def _load_config(path: str):
    if path in FIXTURE_NAMES:
        return load_fixture(path)
    try:
        return load_motion_config(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    mesh = _load_mesh(args.mesh)
    geo = cell_geometry(mesh)
    report = orthogonality_metrics(mesh, geo)
    print(f"{mesh.n_elements} elements, {mesh.n_points} points, "
          f"min orthogonality {report.min_orthogonality_deg:.1f}\N{DEGREE SIGN}")
    print(f"dimension: {mesh.dim}")
    for kind, (_, rows) in sorted(mesh.cells.items()):
        print(f"  {kind}: {len(rows)}")
    print("markers:")
    for name, faces in mesh.markers.items():
        print(f"  {name}: {len(faces)} faces")
    print(f"min orthogonality [deg]: {_fmt(report.min_orthogonality_deg)}")
    print(f"negative_volume_count: {report.negative_volume_count}")
    print(f"min volume: {_fmt(report.min_volume)}")
    print(f"total volume: {_fmt(float(geo.volumes.sum()))}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    stations = [float(s) for s in args.stations.split(",") if s.strip()]
    if not stations:
        raise UsageError("at least one radial station required")
    if any(s < 0.0 or s > 1.0 for s in stations):
        raise UsageError("stations must lie in [0, 1]")
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if cfg.flight is None:
        raise ConfigError("bad config keys: [flight] section required "
                          "for sweeps")

    lines = ["psi_deg,r_over_R,beta_deg,delta_deg,theta_deg,mach_normal"]
    for k in range(args.steps):
        psi = 2.0 * np.pi * k / args.steps
        beta = np.degrees(eval_series(cfg.flap, psi))
        delta = np.degrees(eval_series(cfg.leadlag, psi))
        theta = np.degrees(eval_series(cfg.pitch, psi))
        for r in stations:
            mn = blade_normal_mach(r, cfg.flight, psi)
            lines.append(",".join(_fmt(v) for v in
                                  (np.degrees(psi), r, beta, delta, theta, mn)))
    csv = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_deform(args) -> int:
    mesh = _load_mesh(args.mesh)
    cfg = _load_config(args.config)
    markers = args.markers.split(",")
    if args.steps_per_rev < 1:
        raise UsageError("--steps-per-rev must be >= 1")
    if args.revolutions < 0:
        raise UsageError("--revolutions must be >= 0")
    if args.stride < 1:
        raise UsageError("--stride must be >= 1")
    for m in markers + list(cfg.fixed_markers):
        if m not in mesh.markers:
            raise MeshFormatError(f"marker {m!r} not present in mesh")

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    quality_rows = ["step,psi_deg,min_orthogonality_deg,negative_volume_count,"
                    "min_volume,surface_max_err"]
    greedy_rows = ["step,level,points,max_err,mean_err,seconds"]

    exit_code = EXIT_OK
    last_good = -1
    try:
        for res in run_deformation(mesh, cfg, markers,
                                   steps_per_rev=args.steps_per_rev,
                                   revolutions=args.revolutions):
            quality_rows.append(",".join([
                str(res.step), _fmt(np.degrees(res.psi)),
                _fmt(res.quality.min_orthogonality_deg),
                str(res.quality.negative_volume_count),
                _fmt(res.quality.min_volume), _fmt(res.surface_max_err)]))
            for lv in res.history.levels:
                greedy_rows.append(
                    f"{res.step},{lv.level},{lv.points},{_fmt(lv.max_err)},"
                    f"{_fmt(lv.mean_err)},{_fmt(lv.seconds)}")
            if res.step % args.stride == 0:
                frame = mesh.with_points(res.points)
                path = outdir / f"step_{res.step:04d}.vtk"
                path.write_text(write_vtk(
                    frame, {"grid_velocity": res.grid_velocity},
                    title=f"step {res.step} psi "
                          f"{np.degrees(res.psi):.3f} deg"))
            last_good = res.step
    except DeformationFailure as exc:
        print(f"deformation failed: {exc}", file=sys.stderr)
        print(f"last good step: {exc.last_good}", file=sys.stderr)
        exit_code = EXIT_DEFORM

    (outdir / "quality.csv").write_text("\n".join(quality_rows) + "\n")
    (outdir / "greedy.csv").write_text("\n".join(greedy_rows) + "\n")
    meta = {
        "mesh": args.mesh,
        "config": args.config,
        "blade_markers": markers,
        "steps_per_rev": args.steps_per_rev,
        "revolutions": args.revolutions,
        "grid_velocity_schemes": {
            "step 0": "zero (no history)",
            "step 1": "first-order backward difference",
            "step >= 2": "second-order backward difference",
        },
        "last_completed_step": last_good,
    }
    (outdir / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n")
    return exit_code


def cmd_interface(args) -> int:
    mesh = _load_mesh(args.mesh)
    try:
        side_a, side_b, _ = interface_from_markers(
            mesh, args.marker_a, args.marker_b, projection=args.projection)
    except KeyError as exc:
        raise MeshFormatError(str(exc)) from exc
    sm = build_supermesh(side_a, side_b)
    if len(sm.area) == 0:
        print("interface markers do not overlap", file=sys.stderr)
        return EXIT_INTERFACE

    Path(args.output).write_text(sm.to_csv())
    sums = sm.weight_sums()
    donors = np.diff(sm.weights.indptr)
    partial = int(np.count_nonzero(sums < 1.0 - 1e-9))
    print(f"supermesh faces: {len(sm.area)}")
    print(f"total intersection area: {_fmt(sm.total_area)}")
    print(f"A faces: {sm.n_a}, B faces: {sm.n_b}")
    print(f"weight sums: min {_fmt(float(sums.min()))}, "
          f"max {_fmt(float(sums.max()))}")
    print(f"donors per A face: min {donors.min()}, max {donors.max()}")
    print(f"partially covered A faces: {partial}")
    if args.viz:
        Path(args.viz).write_text(_supermesh_vtk(sm))
    return EXIT_OK


def _supermesh_vtk(sm) -> str:
    """Legacy VTK polygon soup of the clipped intersection pieces."""
    sizes = [len(p) for p in sm.polygons]
    points = np.vstack(sm.polygons).tolist() if sizes else []
    out = ["# vtk DataFile Version 3.0", "supermesh intersection polygons",
           "ASCII", "DATASET UNSTRUCTURED_GRID",
           f"POINTS {len(points)} double"]
    out.extend(f"{x:.17g} {y:.17g} 0" for x, y in points)
    starts = np.cumsum([0] + sizes)
    out.append(f"CELLS {len(sizes)} {len(sizes) + len(points)}")
    out.extend(f"{n} " + " ".join(map(str, range(s, s + n)))
               for n, s in zip(sizes, starts.tolist()))
    out.append(f"CELL_TYPES {len(sizes)}")
    out.extend("7" for _ in sizes)  # VTK_POLYGON
    return "\n".join(out) + "\n"


def cmd_hb(args) -> int:
    values = [float(v) for v in args.omega.replace(",", " ").split()]
    if not values:
        raise UsageError("--omega requires at least one frequency")
    try:
        if all(v > 0.0 for v in values):
            fs = hb.FrequencySet.from_values(
                [0.0] + [s * v for v in values for s in (1.0, -1.0)])
        else:
            fs = hb.FrequencySet.from_values(values)
        if args.instances != fs.count:
            raise UsageError(
                f"--instances must equal the frequency count {fs.count}")
        if args.instances % 2 == 0:
            raise UsageError("--instances must be odd")
        instances = hb.choose_instances(fs, args.instances)
        op = hb.build_operator(fs, instances)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    w1 = float(fs.positive[0])
    w_test = args.tone_multiple * w1
    t = op.instances
    signal = np.sin(w_test * t)
    exact = w_test * np.cos(w_test * t)
    approx = hb.apply(op, signal)
    err = approx - exact

    lines = ["t,input,exact_derivative,hb_derivative,error"]
    for row in zip(t, signal, exact, approx, err):
        lines.append(",".join(_fmt(v) for v in row))
    csv = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(csv)
    else:
        sys.stdout.write(csv)
    resolved = args.tone_multiple <= len(fs.positive)
    print(f"instances: {args.instances}, basis condition {op.condition:.3e}",
          file=sys.stderr)
    print(f"test tone {args.tone_multiple}x fundamental "
          f"({'resolved' if resolved else 'unresolved'}): "
          f"max derivative error {np.abs(err).max():.6e}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rotormesh",
                     description="Rotor mesh motion preprocessing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="mesh statistics and quality report")
    p.add_argument("mesh")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sweep", help="azimuth sweep of motion laws")
    p.add_argument("config", help="motion config path or fixture name")
    p.add_argument("--stations", default="0.75,1.0",
                   help="comma-separated r/R list")
    p.add_argument("--steps", type=int, default=360)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("deform", help="deformation sweep over revolutions")
    p.add_argument("mesh")
    p.add_argument("config", help="motion config path or fixture name")
    p.add_argument("--markers", required=True,
                   help="comma-separated blade marker names")
    p.add_argument("--steps-per-rev", type=int, default=360)
    p.add_argument("--revolutions", type=float, default=5.0)
    p.add_argument("--stride", type=int, default=1,
                   help="write a VTK frame every N steps")
    p.add_argument("--output-dir", default="deform_out")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("interface", help="supermesh weights for a marker pair")
    p.add_argument("mesh")
    p.add_argument("marker_a")
    p.add_argument("marker_b")
    p.add_argument("--projection", default="auto",
                   choices=("auto", "plane", "cylinder-z"))
    p.add_argument("--output", default="supermesh.csv")
    p.add_argument("--viz", default=None,
                   help="write intersection polygons as VTK")
    p.set_defaults(func=cmd_interface)

    p = sub.add_parser("hb", help="spectral derivative operator demo")
    p.add_argument("--omega", required=True,
                   help="frequency list (rad/s); positive tones or the full "
                        "symmetric set")
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--tone-multiple", type=int, default=1,
                   help="test signal frequency as a multiple of the "
                        "fundamental")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_hb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"rotormesh: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MeshFormatError, ConfigError) as exc:
        print(f"rotormesh: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DeformationFailure as exc:
        print(f"rotormesh: {exc}", file=sys.stderr)
        return EXIT_DEFORM


if __name__ == "__main__":
    sys.exit(main())
