"""Command-line front end: mesh inspection, motion sweeps, deformation runs,
interface weights, and the spectral-operator demo.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 deformation
failure (inverted cells, or an interpolation system that cannot be
solved), 4 interface failure (markers that do not overlap or cannot be
projected together).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import hb
from .config import (ConfigError, FIXTURE_NAMES, load_fixture,
                     load_motion_config)
from .driver import DeformationFailure, run_deformation
from .geometry import cell_geometry, orthogonality_metrics, topology
from .kinematics import _real, blade_normal_mach, eval_series
from .mesh import (Mesh, MeshFormatError, _float_rows, _n_rows, _vtk_cells,
                   _vtk_points, parse_mesh, write_vtk)
from .rbf import RbfSystemError
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
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc
    return parse_mesh(text)


def _numbers(text: str) -> list[float]:
    """Finite numbers separated by commas or spaces (an argparse type)."""
    entries = text.replace(",", " ").split() or [text]  # none: report text
    try:
        numbers = [float(entry) for entry in entries]
        for number in numbers:
            if not _real(number):
                raise ValueError(f"must be a finite number, got {number!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return numbers


def _check_outputs(args) -> None:
    """Usage error for an output file that cannot be written or an
    --output-dir that cannot be made, raised before any input is read."""
    for option in ("output", "viz", "output_dir"):
        path = getattr(args, option, None)
        if path is None:
            continue
        target, directory = Path(path), option == "output_dir"
        existing = next(p for p in (target, *target.parents) if p.exists())
        if existing == target and existing.is_dir() != directory:
            reason = f"it is {'not ' * directory}a directory"
        elif existing != target and not existing.is_dir():
            reason = f"{existing} is not a directory"
        elif existing not in (target, target.parent) and not directory:
            reason = f"{target.parent} does not exist"
        elif not os.access(existing, os.W_OK):
            reason = f"{existing} is not writable"
        else:
            continue
        raise UsageError(f"cannot write output {path}: {reason}")


def _load_config(path: str):
    if path in FIXTURE_NAMES:
        return load_fixture(path)
    try:
        return load_motion_config(path)
    except (OSError, UnicodeDecodeError) as exc:
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
    if any(s < 0.0 or s > 1.0 for s in args.stations):
        raise UsageError("stations must lie in [0, 1]")
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    if cfg.flight is None:
        raise ConfigError("bad config keys: [flight] section required "
                          "for sweeps")

    try:  # a table numpy cannot size or the memory cannot hold
        psi = np.repeat(2.0 * np.pi * np.arange(args.steps) / args.steps,
                        len(args.stations))
        r = np.tile(args.stations, args.steps)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise UsageError(f"--steps {args.steps} is too many: {exc}") from None
    motion = [eval_series(s, psi) for s in (cfg.flap, cfg.leadlag, cfg.pitch)]
    rows = np.column_stack([np.degrees(psi), r, *np.degrees(motion),
                            blade_normal_mach(r, cfg.flight, psi)])
    csv = ("psi_deg,r_over_R,beta_deg,delta_deg,theta_deg,mach_normal\n"
           + _float_rows(rows, 12, ","))
    (Path(args.output).write_text if args.output else sys.stdout.write)(csv)
    return EXIT_OK


def cmd_deform(args) -> int:
    markers = [name.strip() for name in args.markers.split(",")]
    if "" in markers:
        raise UsageError(f"--markers {args.markers!r} has an empty name")
    mesh = _load_mesh(args.mesh)
    topology(mesh)  # built and cached now, so a bad face fails before output
    cfg = _load_config(args.config)
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
    written = {}  # (phase, velocity scheme) -> the first frame written

    exit_code = EXIT_OK
    unconverged = []
    try:
        for res in steps:
            if not res.history.converged:
                unconverged.append(res.step)
            quality_rows.append((
                res.step, np.degrees(res.psi),
                res.quality.min_orthogonality_deg,
                res.quality.negative_volume_count, res.quality.min_volume,
                res.surface_max_err))
            greedy_rows.extend((res.step, lv.level, lv.points, lv.max_err,
                                lv.mean_err, lv.seconds)
                               for lv in res.history.levels)
            if res.step % args.stride == 0:
                path = outdir / f"step_{res.step:04d}.vtk"
                title = f"step {res.step} psi {np.degrees(res.psi):.3f} deg"
                # the grid is periodic: a step's points, and its velocity
                # given the scheme, are those of the first step at its phase
                key = (res.step % args.steps_per_rev, res.velocity_scheme)
                if key in written:  # that frame's bytes, with its own title
                    with written[key].open("rb") as src, \
                            path.open("wb") as dst:
                        dst.write(src.readline())
                        dst.write(f"{title}\n".encode())
                        src.readline()
                        shutil.copyfileobj(src, dst)
                else:
                    written[key] = path
                    path.write_bytes(write_vtk(
                        mesh.with_points(res.points),
                        {"grid_velocity": res.grid_velocity},
                        title=title).encode())
    except DeformationFailure as exc:
        print(f"deformation failed: {exc}", file=sys.stderr)
        print(f"last good step: {exc.last_good}", file=sys.stderr)
        exit_code = EXIT_DEFORM
    except RbfSystemError as exc:  # solving the basis, before step 0
        print(f"deformation failed: {exc}", file=sys.stderr)
        exit_code = EXIT_DEFORM
    if unconverged:  # one selection serves every step of the run
        print(f"warning: greedy selection did not converge with "
              f"{res.history.selected_points} points; largest step surface "
              f"error {max(row[-1] for row in quality_rows):.3e} m, "
              f"tol {cfg.rbf.greedy_tol:.3e} m", file=sys.stderr)

    (outdir / "quality.csv").write_text(
        "step,psi_deg,min_orthogonality_deg,negative_volume_count,min_volume,"
        "surface_max_err\n"
        + _float_rows(quality_rows, 12, ","))
    (outdir / "greedy.csv").write_text(
        "step,level,points,max_err,mean_err,seconds\n"
        + _float_rows(greedy_rows, 12, ","))
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
            mesh, args.marker_a, args.marker_b)
    except KeyError as exc:
        raise MeshFormatError(exc.args[0]) from exc
    except ValueError as exc:  # markers that cannot be projected together
        print(f"rotormesh: interface error: {exc}", file=sys.stderr)
        return EXIT_INTERFACE
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
    sizes = sm.polygon_counts
    first = np.cumsum(sizes) - sizes
    cells = {}  # polygons grouped by vertex count, as Mesh.cells by kind
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        cells[k] = (first[rows, None] + np.arange(k), rows)
    points = np.pad(sm.polygon_vertices, [(0, 0), (0, 1)])  # z = 0
    return (_vtk_points("supermesh intersection polygons", points)
            + _vtk_cells(cells, dict.fromkeys(cells, 7)))  # VTK_POLYGON


def cmd_hb(args) -> int:
    try:
        fs = hb.FrequencySet(args.omega)
        op = hb.build_operator(fs)
    except ValueError as exc:
        raise UsageError(f"--omega: {exc}") from exc

    w1, k = fs.positive[0], args.tone_multiple
    w_test = k * w1 if abs(k) <= sys.float_info.max else np.inf
    if abs(w_test) == np.inf:
        raise UsageError(f"--tone-multiple {k} times the fundamental "
                         f"{w1!r} rad/s is not finite")
    t = op.instances
    signal = np.sin(w_test * t)
    exact = w_test * np.cos(w_test * t)
    approx = hb.apply(op, signal)
    err = approx - exact

    csv = ("t,input,exact_derivative,hb_derivative,error\n"
           + _float_rows(np.column_stack([t, signal, exact, approx, err]),
                         12, ","))
    (Path(args.output).write_text if args.output else sys.stdout.write)(csv)
    # resolved: |k| w1 is 0 or one of the tones
    resolved = w_test == 0.0 or bool(np.isclose(
        fs.positive, abs(w_test), rtol=1e-12, atol=0.0).any())
    print(f"instances: {fs.count}, basis condition {op.condition:.3e}",
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
    p.add_argument("--stations", default="0.75,1.0", type=_numbers,
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
    p.add_argument("--output", default="supermesh.csv")
    p.add_argument("--viz", default=None,
                   help="write intersection polygons as VTK")
    p.set_defaults(func=cmd_interface)

    p = sub.add_parser("hb", help="spectral derivative operator demo")
    p.add_argument("--omega", required=True, type=_numbers,
                   help="positive tones only (rad/s), e.g. 6.283 or 1,2.5; "
                        "0, the negative tones and the 2K + 1 time "
                        "instances follow from them")
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
        _check_outputs(args)
        return args.func(args)
    except UsageError as exc:
        print(f"rotormesh: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MeshFormatError, ConfigError) as exc:
        print(f"rotormesh: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
