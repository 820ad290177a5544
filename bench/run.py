"""The rotormesh benchmark: one run of one workload.

    python3 bench/run.py --workload rev52k --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed as mesh files under
bench/_work/, then measures in a fresh child process (bench/workloads.py)
whose BLAS/OpenMP pools are pinned to one thread. The load is a closed
loop: one caller in one process, each call waiting for the one before.
Prints every metric by name with its unit, direction and sample count, and
ends with one JSON line:

    {"correct": true, "attempted": 37, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from spans recorded
around calls into the package. A run that cannot complete (no package
source, a stale wrap table, a layer that recorded no calls, a child that
overran) exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from inputs import box_with_plate, stacked_interface

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 175

# Thread pools pinned in the child's environment. Two OpenBLAS threads on a
# two-core machine made cli_deform slower and far noisier than one.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "ROTORMESH_THREADS": "1"}

SLIDING_ANGLE_DEG = (6.0, 8.0)  # seeded in-plane rotation of side B
EXCHANGE_FIELDS = 4

# The end-to-end metric names are shared by all workloads; these are what
# each one means per workload.
MEANING = {
    "rev52k": {"job_s": "sweep_s", "op_p50_s": "step_p50_s",
               "op_tail_s": "step_tail_s"},
    "cli_deform": {"job_s": "sweep_s", "op_p50_s": "step_p50_s",
                   "op_tail_s": "step_tail_s"},
    "sliding_iface": {"job_s": "supermesh_s", "op_p50_s": "exchange_p50_s",
                      "op_tail_s": "exchange_tail_s"},
}


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's mesh file and the arrays its checks need."""
    rng = np.random.default_rng(seed % 2**63)
    if workload == "sliding_iface":
        angle = float(rng.uniform(*SLIDING_ANGLE_DEG))
        text, data = stacked_interface(50, 65, np.radians(angle))
        data["fields"] = rng.normal(size=(EXCHANGE_FIELDS, 65 * 65, 5))
        summary = {"angle_deg": angle, "faces_a": 50 * 50,
                   "faces_b": 65 * 65}
    else:
        n = 36 if workload == "rev52k" else 20
        text, data = box_with_plate(n, int(rng.integers(2**32)))
        summary = {"n": n, "cells": len(data["hexes"]),
                   "points": data["points"]}
    (work / "input.su2").write_text(text)
    np.savez(work / "checkdata.npz", **data)
    return summary


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    return info


def _row(name: str, value: float, unit: str, better: str, note: str = ""):
    print(f"  {name:<30} {value:>14.6g} {unit:<6} {better + ' is better':<17}"
          f"{note}")


def report(args, spec: dict, child: dict, summary: dict) -> dict:
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"rotormesh benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, inputs {json.dumps(summary)}")
    m = {**machine(), **child["versions"]}
    print("machine: " + ", ".join(f"{k} {v}" for k, v in m.items()))
    print("pinned: " + " ".join(f"{k}={v}" for k, v in PINNED.items()))
    print("load: closed loop, one caller in one process")
    metrics = {}
    for entry in metrics_spec:
        name, unit = entry["name"], entry["unit"]
        value = child["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if not args.trace:
            alias = MEANING[args.workload].get(name)
            n = child["samples"].get(name)
            note = f"n={n}" + (f"  ({alias})" if alias else "")
            if name == "op_tail_s":
                note += f", p{child['tail_percentile']:.0f}"
        _row(name, value, unit, entry["better"], note)
    if not args.trace:
        print("not bounded:")
        alias = MEANING[args.workload]["op_p50_s"]
        _row("op_p50_s", child["op_p50_s"], "s", "lower",
             f"n={child['samples']['op_tail_s']}  ({alias})")
        ratio = child["failed"] / child["attempted"]
        _row("fail_ratio", ratio, "1", "lower",
             f"{child['failed']} of {child['attempted']} operations")
        if args.workload != "sliding_iface":
            _row("drift_m", child["quality"]["drift_m"], "m", "lower")
            _row("min_orth_deg", child["quality"]["min_orth_deg"], "deg",
                 "higher")
    else:
        print("self time by span:")
        for name, s in sorted(child["self_times"].items(),
                              key=lambda kv: -kv[1]):
            print(f"  {name:<30} {s:>14.6g} s")
        print("spans by parent link (parent > span: calls, seconds):")
        for parent, name, calls, s in child["edges"]:
            print(f"  {parent + ' > ' + name:<44} {calls:>6} {s:>12.6g} s")
    for reason, count in child["reasons"].items():
        print(f"FAILED {count}x: {reason}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(MEANING))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rotormesh" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        summary = make_inputs(args.workload, args.seed, work)
        env = {**os.environ, **PINNED}
        cmd = [sys.executable, str(BENCH / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work)]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            print(f"bench: child overran {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"bench: child exited {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    metrics = report(args, spec, child, summary)
    print(json.dumps({"correct": child["failed"] == 0,
                      "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
