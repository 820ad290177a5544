"""Keep the benchmark's wrap table in step with the package.

bench/spans.py patches the package functions it times by name; a refactor
that renames or drops one would otherwise only show in a traced benchmark
run. Installing and removing the tracer here fails on any stale name, and a
traced `rotormesh deform` run fails on any layer of the `cli_deform`
workload that records no call.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from meshgen import box_with_plate_mesh

import rotormesh.cli
from rotormesh.mesh import write_mesh

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

CYCLIC = """
[rotor]
chord_m = 0.3
rpm = 60.0
n_blades = 1

[pitch]
mean_deg = 4.0
sin_deg = 3.0

[rbf]
support_radius_chords = 2.5
greedy_tol_m = 1e-6
fixed_markers = ["farfield"]
"""


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name)
    return owner


def test_wrap_table_installs_and_removes(spans):
    originals = {w.target: _resolve(w.target) for w in spans.WRAP_TABLE}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert _resolve(target) is not original, target
    finally:
        tracer.remove()
    for target, original in originals.items():
        assert _resolve(target) is original, target


def test_traced_deform_records_every_expected_layer(spans, tmp_path):
    """Every layer the benchmark expects of `rotormesh deform` is called;
    the RBF deformation runs once per blade marker, not once per step, and
    the cell geometry once per first-revolution step plus once for it."""
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(
        n=6, plate_x=(0.1, 0.7), plate_y=(-0.3, 0.3), plate_z=(-0.15, 0.15))))
    cfg = tmp_path / "cyclic.cfg"
    cfg.write_text(CYCLIC)
    steps_per_rev = 4
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = rotormesh.cli.main([
            "deform", str(mesh_file), str(cfg), "--markers", "blade",
            "--steps-per-rev", str(steps_per_rev), "--revolutions", "2",
            "--output-dir", str(tmp_path / "out")])
    finally:
        tracer.remove()
    assert code == 0
    tracer.check_expected("cli_deform")
    assert tracer.calls("rbf.deform") == 1
    assert tracer.calls("geometry.cell_geometry") <= steps_per_rev + 1
