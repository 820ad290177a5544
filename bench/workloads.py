"""Workload bodies. `run.py` starts this file as a fresh child process with
the BLAS/OpenMP thread pools pinned, so memory and caches stay per run.

    python3 bench/workloads.py --workload rev52k --seed 1 --seconds 30 \
        --trace 0 --work bench/_work/rev52k-1

The child reads the inputs `run.py` generated into --work, sets up, runs
as many whole units of work as --seconds holds at their nominal length (at
least one), checks every output, and prints one JSON line with its
measurements.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rotormesh.cli  # noqa: E402
import rotormesh.config  # noqa: E402
import rotormesh.driver  # noqa: E402
import rotormesh.mesh  # noqa: E402
import rotormesh.supermesh  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_WINDOW_S = 1.0  # set-ups repeat this long before each unit and at the end
EXCHANGES = 100     # weighted_exchange calls per sliding_iface unit

REV52K = {"fixture": "ah1g_low_speed", "steps_per_rev": 36,
          "revolutions": 1}
CLI_DEFORM = {"fixture": "ah1g_high_speed", "steps_per_rev": 8,
              "revolutions": 3}


class Record:
    """What one run measured: operation times, unit times, failures."""

    def __init__(self):
        self.setup: list[float] = []
        self.units: list[float] = []
        self.program_s = 0.0  # timed program work: set-ups, units, ops
        self.ops: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.drift: list[float] = []
        self.min_orth: list[float] = []

    def fail(self, reasons) -> None:
        self.failed += 1
        for r in reasons:
            self.reasons[r] = self.reasons.get(r, 0) + 1


def _setup(mesh_path: Path, fixture: str | None, rec: Record):
    t0 = time.perf_counter()
    mesh = rotormesh.mesh.parse_mesh(mesh_path.read_text())
    cfg = rotormesh.config.load_fixture(fixture) if fixture else None
    rec.setup.append(time.perf_counter() - t0)
    rec.program_s += rec.setup[-1]
    return mesh, cfg


def _setups(state, fixture: str | None, rec: Record) -> None:
    """Repeat the set-up for SETUP_WINDOW_S, at least twice."""
    start = time.perf_counter()
    for i in itertools.count():
        if i >= 2 and time.perf_counter() - start >= SETUP_WINDOW_S:
            return
        state["mesh"], state["cfg"] = _setup(state["mesh_path"], fixture,
                                             rec)


# ---------------------------------------------------------------------------
# Units of work. Each returns its wall time and appends to the record.
# ---------------------------------------------------------------------------

def rev52k_unit(state, rec: Record, unit: int) -> float:
    mesh, cfg, hexes = state["mesh"], state["cfg"], state["hexes"]
    n_steps = REV52K["steps_per_rev"] * REV52K["revolutions"] + 1
    steps = rotormesh.driver.run_deformation(
        mesh, cfg, ["blade"], steps_per_rev=REV52K["steps_per_rev"],
        revolutions=float(REV52K["revolutions"]))
    rec.attempted += n_steps
    elapsed = 0.0
    seen = 0
    stopped = "missing steps"
    first = last = None
    worst = np.inf
    while True:
        t0 = time.perf_counter()
        try:
            res = next(steps)
        except StopIteration:
            elapsed += time.perf_counter() - t0
            break
        except rotormesh.driver.DeformationFailure as exc:
            elapsed += time.perf_counter() - t0
            stopped = f"sweep stopped: {exc}"
            break
        dt = time.perf_counter() - t0
        elapsed += dt
        rec.ops.append(dt)
        seen += 1
        reasons = checks.step_failures(res.history.converged, res.points,
                                       hexes, res.grid_velocity)
        if reasons:
            rec.fail(reasons)
        worst = min(worst, res.quality.min_orthogonality_deg)
        if res.step == 0:
            first = res.points
        if res.step == n_steps - 1:
            last = res.points
    for _ in range(n_steps - seen):
        rec.fail([stopped])
    if first is not None and last is not None:
        rec.drift.append(checks.drift(first, last))
    rec.min_orth.append(worst)
    rec.program_s += elapsed
    return elapsed


def cli_deform_unit(state, rec: Record, unit: int) -> float:
    outdir = state["work"] / f"deform_{unit}"
    n_steps = CLI_DEFORM["steps_per_rev"] * CLI_DEFORM["revolutions"] + 1
    argv = ["deform", str(state["mesh_path"]), CLI_DEFORM["fixture"],
            "--markers", "blade",
            "--steps-per-rev", str(CLI_DEFORM["steps_per_rev"]),
            "--revolutions", str(CLI_DEFORM["revolutions"]),
            "--output-dir", str(outdir)]
    stamps: list[float] = []
    original = rotormesh.cli.run_deformation
    if not state["traced"]:
        # Time each step as the interval between run_deformation's yields to
        # the CLI, so a step includes the CLI's frame write for the step
        # before.
        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            for item in original(*args, **kwargs):
                stamps.append(time.perf_counter())
                yield item
        rotormesh.cli.run_deformation = stamped
    try:
        t0 = time.perf_counter()
        code = rotormesh.cli.main(argv)
        elapsed = time.perf_counter() - t0
    finally:
        rotormesh.cli.run_deformation = original
    rec.ops.extend(np.diff(stamps).tolist())

    tol = state["cfg"].rbf.greedy_tol
    failed, frames = checks.cli_failures(code, outdir, n_steps, tol,
                                         state["hexes"])
    rec.attempted += n_steps
    for reasons in failed.values():
        rec.fail(reasons)
    if 0 in frames and n_steps - 1 in frames:
        rec.drift.append(checks.drift(frames[0], frames[n_steps - 1]))
    if code == 0:
        rec.min_orth.append(min(checks.quality_min_orth(
            (outdir / "quality.csv").read_text()).values()))
    rec.program_s += elapsed
    return elapsed


def sliding_iface_unit(state, rec: Record, unit: int) -> float:
    mesh = state["mesh"]
    csv_path = state["work"] / f"supermesh_{unit}.csv"
    t0 = time.perf_counter()
    side_a, side_b, _ = rotormesh.supermesh.interface_from_markers(
        mesh, "iface_a", "iface_b")
    sm = rotormesh.supermesh.build_supermesh(side_a, side_b)
    csv_path.write_text(sm.to_csv())
    elapsed = time.perf_counter() - t0

    rec.attempted += 1
    weights = checks.read_weights(csv_path.read_text())
    reasons = checks.supermesh_failures(weights, state["faces_a"],
                                        state["outline_a"],
                                        state["outline_b"])
    if reasons:
        rec.fail(reasons)

    area_a = np.array([abs(checks.shoelace(f)) for f in state["faces_a"]])
    fields = state["fields"]
    for i in range(EXCHANGES):
        values = fields[i % len(fields)]
        t0 = time.perf_counter()
        out = rotormesh.supermesh.weighted_exchange(sm, values)
        rec.ops.append(time.perf_counter() - t0)
        rec.program_s += rec.ops[-1]
        rec.attempted += 1
        if not checks.exchange_conserved(weights, area_a, values, out):
            rec.fail(["exchange does not conserve area-weighted sums"])
    rec.program_s += elapsed
    return elapsed


UNITS = {"rev52k": rev52k_unit, "cli_deform": cli_deform_unit,
         "sliding_iface": sliding_iface_unit}
# The seconds of --seconds one unit accounts for. A run measures as many
# whole units as --seconds holds, at least one, so the number of samples
# does not depend on how fast the machine is today. A sliding_iface unit
# takes about 10 s but counts as 6: its build is the noisiest timing here
# (bench/NOTES.md), so a run samples it more often.
NOMINAL_UNIT_S = {"rev52k": 55.0, "cli_deform": 15.0, "sliding_iface": 6.0}
FIXTURES = {"rev52k": REV52K["fixture"], "cli_deform": CLI_DEFORM["fixture"],
            "sliding_iface": None}


# ---------------------------------------------------------------------------

def units_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_UNIT_S[workload]))


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it, and
    its percentile."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"{len(ordered)} samples; a tail needs 11")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(tr: Tracer, rec: Record,
                  untraced: Record) -> dict[str, float]:
    """Per-layer figures of the traced pass. Seconds are totals over its
    one set-up and one unit."""
    total, own, calls = tr.total, tr.self_time, tr.calls
    counters = tr.counters
    greedy_calls = calls("rbf.greedy")
    clip_calls = calls("supermesh.clip")
    return {
        "mesh.parse_s": total("mesh.parse"),
        "mesh.with_points_s": total("mesh.with_points"),
        "mesh.with_points_calls": calls("mesh.with_points"),
        "mesh.write_vtk_s": total("mesh.write_vtk"),
        "mesh.vtk_bytes": counters["mesh.vtk_bytes"],
        "geometry.cell_geometry_s": total("geometry.cell_geometry"),
        "geometry.cell_geometry_calls": calls("geometry.cell_geometry"),
        "geometry.quality_self_s": own("geometry.quality"),
        "rbf.greedy_self_s": own("rbf.greedy"),
        "rbf.solve_s": total("rbf.solve"),
        "rbf.solve_calls": calls("rbf.solve"),
        "rbf.selected_points": counters["rbf.selected_points"],
        "rbf.evaluate_volume_s": total("rbf.evaluate_volume"),
        "rbf.evaluate_check_s": total("rbf.evaluate_check"),
        "rbf.deform_self_s": own("rbf.deform"),
        "rbf.converged_ratio": (counters["rbf.converged"] / greedy_calls
                                if greedy_calls else 0.0),
        "kinematics.s": total("kinematics"),
        "driver.self_s": own("driver"),
        "cli.self_s": own("cli"),
        "supermesh.project_s": total("supermesh.project"),
        "supermesh.build_self_s": own("supermesh.build"),
        "supermesh.clip_s": total("supermesh.clip"),
        "supermesh.clip_calls": clip_calls,
        "supermesh.clip_hit_ratio": (counters["supermesh.clip_hits"] /
                                     clip_calls if clip_calls else 0.0),
        "supermesh.csv_s": total("supermesh.csv"),
        "supermesh.exchange_s": total("supermesh.exchange"),
        "trace.unattributed_s": rec.program_s - sum(
            tr.self_times().values()),
        "trace.overhead_s": rec.program_s - untraced.program_s,
        "fail_ratio": rec.failed / rec.attempted,
        "drift_m": max(rec.drift, default=0.0),
        "min_orth_deg": min(rec.min_orth, default=0.0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)

    work = args.work
    data = np.load(work / "checkdata.npz")
    state = {key: data[key] for key in data.files}
    state.update(work=work, mesh_path=work / "input.su2", traced=False)
    unit_fn = UNITS[args.workload]
    fixture = FIXTURES[args.workload]
    rec = Record()
    out: dict = {"workload": args.workload, "seed": args.seed}

    if args.trace:
        # One untraced set-up and unit, then the same traced: the per-layer
        # numbers come from the traced pass, the overhead from the pair.
        untraced = Record()
        state["mesh"], state["cfg"] = _setup(state["mesh_path"], fixture,
                                             untraced)
        unit_fn(state, untraced, 0)
        tracer = Tracer()
        tracer.install()
        state["traced"] = True
        try:
            state["mesh"], state["cfg"] = _setup(state["mesh_path"], fixture,
                                                 rec)
            unit_fn(state, rec, 1)
        finally:
            tracer.remove()
        tracer.check_expected(args.workload)
        out["metrics"] = layer_metrics(tracer, rec, untraced)
        out["self_times"] = tracer.self_times()
        out["edges"] = tracer.edges()
    else:
        # Set-ups run before every unit and after the last, so their median
        # spans the run rather than its first second.
        for unit in range(units_for(args.workload, args.seconds)):
            _setups(state, fixture, rec)
            rec.units.append(unit_fn(state, rec, unit))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _setups(state, fixture, rec)
        op_tail, pct = tail(rec.ops)
        out["metrics"] = {
            "setup_s": statistics.median(rec.setup),
            "job_s": statistics.median(rec.units),
            "op_tail_s": op_tail,
            "peak_rss_mb": peak_rss_mb,
        }
        out["samples"] = {"setup_s": len(rec.setup), "job_s": len(rec.units),
                          "op_tail_s": len(rec.ops), "peak_rss_mb": 1}
        out["op_p50_s"] = statistics.median(rec.ops)
        out["tail_percentile"] = pct
        out["quality"] = {"drift_m": max(rec.drift, default=None),
                          "min_orth_deg": min(rec.min_orth, default=None)}
    out.update(attempted=rec.attempted, failed=rec.failed,
               reasons=rec.reasons,
               versions={"python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
