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
from .geometry import cell_geometry, orthogonality_metrics, topology
from .kinematics import blade_normal_mach, eval_series
from .mesh import (Mesh, MeshFormatError, _n_rows, _rows, _vtk_grid,
                   parse_mesh, write_vtk)
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
    for name, groups in mesh.markers.items():
        print(f"  {name}: {_n_rows(groups)} faces")
    print(f"min orthogonality [deg]: {report.min_orthogonality_deg:.12g}")
    print(f"negative_volume_count: {report.negative_volume_count}")
    print(f"min volume: {report.min_volume:.12g}")
    print(f"total volume: {geo.volumes.sum():.12g}")
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

    rows = []
    for k in range(args.steps):
        psi = 2.0 * np.pi * k / args.steps
        beta = np.degrees(eval_series(cfg.flap, psi))
        delta = np.degrees(eval_series(cfg.leadlag, psi))
        theta = np.degrees(eval_series(cfg.pitch, psi))
        rows.extend((np.degrees(psi), r, beta, delta, theta,
                     blade_normal_mach(r, cfg.flight, psi)) for r in stations)
    csv = ("psi_deg,r_over_R,beta_deg,delta_deg,theta_deg,mach_normal\n"
           + _rows("%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n", rows))
    if args.output:
        Path(args.output).write_text(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_deform(args) -> int:
    mesh = _load_mesh(args.mesh)
    topology(mesh)  # built and cached now, so a bad face fails before output
    cfg = _load_config(args.config)
    markers = args.markers.split(",")
    if args.stride < 1:
        raise UsageError("--stride must be >= 1")
    if cfg.rbf is None:
        raise ConfigError("bad config keys: [rbf] section or [rotor] chord_m "
                          "required for deformation")
    try:  # checks the markers and step counts before any step runs
        steps = run_deformation(mesh, cfg, markers,
                                steps_per_rev=args.steps_per_rev,
                                revolutions=args.revolutions)
    except KeyError as exc:
        raise MeshFormatError(exc.args[0]) from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    quality_rows, greedy_rows = [], []

    exit_code = EXIT_OK
    unconverged = []
    try:
        for res in steps:
            if not res.history.converged:
                unconverged.append(res.step)
                print(f"warning: step {res.step}: greedy selection did not "
                      f"converge with {res.history.selected_points} points; "
                      f"surface error {res.surface_max_err:.3e} m, tol "
                      f"{cfg.rbf.greedy_tol:.3e} m", file=sys.stderr)
            quality_rows.append((
                res.step, np.degrees(res.psi),
                res.quality.min_orthogonality_deg,
                res.quality.negative_volume_count, res.quality.min_volume,
                res.surface_max_err))
            greedy_rows.extend((res.step, lv.level, lv.points, lv.max_err,
                                lv.mean_err, lv.seconds)
                               for lv in res.history.levels)
            if res.step % args.stride == 0:
                frame = mesh.with_points(res.points)
                path = outdir / f"step_{res.step:04d}.vtk"
                path.write_text(write_vtk(
                    frame, {"grid_velocity": res.grid_velocity},
                    title=f"step {res.step} psi "
                          f"{np.degrees(res.psi):.3f} deg"))
    except DeformationFailure as exc:
        print(f"deformation failed: {exc}", file=sys.stderr)
        print(f"last good step: {exc.last_good}", file=sys.stderr)
        exit_code = EXIT_DEFORM

    (outdir / "quality.csv").write_text(
        "step,psi_deg,min_orthogonality_deg,negative_volume_count,min_volume,"
        "surface_max_err\n"
        + _rows("%d,%.12g,%.12g,%d,%.12g,%.12g\n", quality_rows))
    (outdir / "greedy.csv").write_text(
        "step,level,points,max_err,mean_err,seconds\n"
        + _rows("%d,%d,%d,%.12g,%.12g,%.12g\n", greedy_rows))
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
        "last_completed_step": quality_rows[-1][0] if quality_rows else -1,
        "greedy_unconverged_steps": unconverged,
    }
    (outdir / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n")
    return exit_code


def cmd_interface(args) -> int:
    mesh = _load_mesh(args.mesh)
    try:
        side_a, side_b, _ = interface_from_markers(
            mesh, args.marker_a, args.marker_b, projection=args.projection)
    except KeyError as exc:
        raise MeshFormatError(exc.args[0]) from exc
    sm = build_supermesh(side_a, side_b)
    if len(sm.area) == 0:
        print("interface markers do not overlap", file=sys.stderr)
        return EXIT_INTERFACE

    Path(args.output).write_text(sm.to_csv())
    sums = sm.weight_sums()
    donors = np.diff(sm.weights.indptr)
    partial = int(np.count_nonzero(sums < 1.0 - 1e-9))
    print(f"supermesh faces: {len(sm.area)}")
    print(f"total intersection area: {sm.total_area:.12g}")
    print(f"A faces: {sm.n_a}, B faces: {sm.n_b}")
    print(f"weight sums: min {sums.min():.12g}, max {sums.max():.12g}")
    print(f"donors per A face: min {donors.min()}, max {donors.max()}")
    print(f"partially covered A faces: {partial}")
    if args.viz:
        Path(args.viz).write_text(_supermesh_vtk(sm))
    return EXIT_OK


def _supermesh_vtk(sm) -> str:
    """Legacy VTK polygon soup of the clipped intersection pieces."""
    sizes = np.array([len(p) for p in sm.polygons], dtype=np.intp)
    first = np.cumsum(sizes) - sizes
    cells = {}  # polygons grouped by vertex count, as Mesh.cells by kind
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        cells[k] = (first[rows, None] + np.arange(k), rows)
    points = np.concatenate([np.empty((0, 2)), *sm.polygons])
    return _vtk_grid("supermesh intersection polygons",
                     np.column_stack([points, np.zeros(len(points))]),
                     cells, dict.fromkeys(cells, 7))  # VTK_POLYGON


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
        op = hb.build_operator(fs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    w1 = float(fs.positive[0])
    w_test = args.tone_multiple * w1
    t = op.instances
    signal = np.sin(w_test * t)
    exact = w_test * np.cos(w_test * t)
    approx = hb.apply(op, signal)
    err = approx - exact

    csv = ("t,input,exact_derivative,hb_derivative,error\n"
           + _rows("%.12g,%.12g,%.12g,%.12g,%.12g\n",
                   np.column_stack([t, signal, exact, approx, err])))
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
