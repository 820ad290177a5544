"""The benchmark's own tests: each output check must count a corrupted
output as a failure, and the tracer must fail loudly when the wrap table
or the prediction table no longer matches the package.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from inputs import box_with_plate, stacked_interface  # noqa: E402

from rotormesh.cli import main as cli_main  # noqa: E402
from rotormesh.mesh import parse_mesh  # noqa: E402
from rotormesh.supermesh import (build_supermesh,  # noqa: E402
                                 interface_from_markers, weighted_exchange)


# ---------------------------------------------------------------------------
# Independent geometry
# ---------------------------------------------------------------------------

def test_hex_volumes_sum_to_the_box():
    text, data = box_with_plate(6, seed=3)
    mesh = parse_mesh(text)
    vol = checks.hex_volumes(mesh.points, data["hexes"])
    cavity = 0.6 * 0.7 * 0.1
    assert np.all(vol > 0.0)
    # jittered faces are not planar, and the two cells sharing a face may
    # split it along different diagonals, so the sum is close, not exact
    assert vol.sum() == pytest.approx(3.6 ** 3 - cavity, rel=1e-3)


def test_overlap_area_of_shifted_and_rotated_squares():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert checks.convex_overlap_area(square, square) == pytest.approx(1.0)
    shifted = square + [0.25, 0.5]
    assert checks.convex_overlap_area(square, shifted) == \
        pytest.approx(0.75 * 0.5)
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    diamond = (square - 0.5) @ np.array([[c, -s], [s, c]]).T + 0.5
    # the unit square minus four corner triangles of legs 1 - 1/sqrt(2)
    leg = 1.0 - 1.0 / np.sqrt(2.0)
    assert checks.convex_overlap_area(square, diamond) == \
        pytest.approx(1.0 - 2.0 * leg * leg)


def test_tail_leaves_ten_samples_above():
    value, pct = workloads.tail([float(i) for i in range(37)])
    assert value == 26.0 and pct == pytest.approx(100 * 27 / 37)
    with pytest.raises(ValueError):
        workloads.tail([1.0] * 10)


# ---------------------------------------------------------------------------
# Deformation steps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_box():
    text, data = box_with_plate(6, seed=1)
    return parse_mesh(text).points, data["hexes"]


def test_good_step_passes(small_box):
    points, hexes = small_box
    assert checks.step_failures(True, points, hexes,
                                np.zeros_like(points)) == []


def test_unconverged_step_fails(small_box):
    points, hexes = small_box
    assert checks.step_failures(False, points, hexes,
                                np.zeros_like(points)) == \
        ["greedy did not converge"]


def test_inverted_cell_fails(small_box):
    points, hexes = small_box
    flipped = hexes.copy()
    flipped[7] = flipped[7][[4, 5, 6, 7, 0, 1, 2, 3]]
    assert checks.step_failures(True, points, flipped,
                                np.zeros_like(points)) == ["1 inverted cells"]


def test_non_finite_velocity_fails(small_box):
    points, hexes = small_box
    velocity = np.zeros_like(points)
    velocity[3, 1] = np.nan
    assert checks.step_failures(True, points, hexes, velocity) == \
        ["non-finite grid velocity"]


@pytest.fixture(scope="module")
def deform_run(tmp_path_factory):
    """One small `rotormesh deform` run: 2 steps per revolution, 1 rev."""
    tmp = tmp_path_factory.mktemp("deform")
    text, data = box_with_plate(8, seed=2)
    mesh_path = tmp / "box.su2"
    mesh_path.write_text(text)
    outdir = tmp / "out"
    code = cli_main(["deform", str(mesh_path), "ah1g_high_speed",
                     "--markers", "blade", "--steps-per-rev", "2",
                     "--revolutions", "1", "--output-dir", str(outdir)])
    return code, outdir, data["hexes"]


TOL = 1e-4
N_STEPS = 3


def _copy(outdir: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "out"
    shutil.copytree(outdir, dst)
    return dst


def test_clean_cli_run_passes(deform_run):
    code, outdir, hexes = deform_run
    assert code == 0
    failed, frames = checks.cli_failures(code, outdir, N_STEPS, TOL, hexes)
    assert failed == {} and sorted(frames) == [0, 1, 2]


def test_nonzero_exit_fails_every_step(deform_run):
    _, outdir, hexes = deform_run
    failed, _ = checks.cli_failures(3, outdir, N_STEPS, TOL, hexes)
    assert sorted(failed) == [0, 1, 2]


def test_missing_frame_fails(deform_run, tmp_path):
    _, outdir, hexes = deform_run
    out = _copy(outdir, tmp_path)
    (out / "step_0001.vtk").unlink()
    failed, _ = checks.cli_failures(0, out, N_STEPS, TOL, hexes)
    assert failed == {1: ["missing frame"]}


def test_unconverged_greedy_csv_fails(deform_run, tmp_path):
    _, outdir, hexes = deform_run
    out = _copy(outdir, tmp_path)
    lines = (out / "greedy.csv").read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("2,"))
    fields = lines[last].split(",")
    fields[3] = repr(TOL)  # max_err equal to the tolerance is a failure
    lines[last] = ",".join(fields)
    (out / "greedy.csv").write_text("\n".join(lines) + "\n")
    failed, _ = checks.cli_failures(0, out, N_STEPS, TOL, hexes)
    assert failed == {2: ["greedy did not converge"]}


def test_non_finite_velocity_in_frame_fails(deform_run, tmp_path):
    _, outdir, hexes = deform_run
    out = _copy(outdir, tmp_path)
    path = out / "step_0002.vtk"
    lines = path.read_text().splitlines()
    row = lines.index("VECTORS grid_velocity double") + 5
    lines[row] = "nan 0 0"
    path.write_text("\n".join(lines) + "\n")
    failed, _ = checks.cli_failures(0, out, N_STEPS, TOL, hexes)
    assert failed == {2: ["non-finite grid velocity"]}


def test_inverted_cell_in_frame_fails(deform_run, tmp_path):
    _, outdir, hexes = deform_run
    out = _copy(outdir, tmp_path)
    path = out / "step_0001.vtk"
    text = path.read_text()
    points, _ = checks.read_vtk_frame(text)
    # push one corner of cell 0 through the opposite face
    corner = hexes[0][0]
    lines = text.splitlines()
    head = next(i for i, s in enumerate(lines) if s.startswith("POINTS "))
    moved = points[hexes[0][6]] + (points[hexes[0][6]] - points[corner])
    lines[head + 1 + corner] = " ".join(repr(float(c)) for c in moved)
    path.write_text("\n".join(lines) + "\n")
    failed, _ = checks.cli_failures(0, out, N_STEPS, TOL, hexes)
    assert 1 in failed and any("inverted" in r for r in failed[1])


# ---------------------------------------------------------------------------
# Sliding interface
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def interface():
    text, data = stacked_interface(8, 11, np.radians(7.0))
    mesh = parse_mesh(text)
    side_a, side_b, _ = interface_from_markers(mesh, "iface_a", "iface_b")
    sm = build_supermesh(side_a, side_b)
    return sm, checks.read_weights(sm.to_csv()), data


def test_clean_supermesh_passes(interface):
    _, weights, data = interface
    assert checks.supermesh_failures(weights, data["faces_a"],
                                     data["outline_a"],
                                     data["outline_b"]) == []


def test_weight_sum_off_fails(interface):
    _, weights, data = interface
    covered = checks.inside_convex(
        data["outline_b"], data["faces_a"].reshape(-1, 2), -1e-9)
    inner = int(np.flatnonzero(covered.reshape(-1, 4).all(axis=1))[0])
    bad = {k: v.copy() for k, v in weights.items()}
    row = int(np.flatnonzero(bad["a_face"] == inner)[0])
    bad["weight"][row] += 1e-6
    assert checks.supermesh_failures(bad, data["faces_a"], data["outline_a"],
                                     data["outline_b"]) == \
        ["1 covered A faces have weight sums off 1"]


def test_total_area_off_fails(interface):
    _, weights, data = interface
    bad = {k: v.copy() for k, v in weights.items()}
    bad["area"][0] *= 1.0 + 1e-6
    reasons = checks.supermesh_failures(bad, data["faces_a"],
                                        data["outline_a"], data["outline_b"])
    assert len(reasons) == 1 and reasons[0].startswith("total area")


def test_exchange_conservation(interface):
    sm, weights, data = interface
    area_a = np.array([abs(checks.shoelace(f)) for f in data["faces_a"]])
    values = np.random.default_rng(0).normal(size=(sm.n_b, 5))
    out = weighted_exchange(sm, values)
    assert checks.exchange_conserved(weights, area_a, values, out)
    out[3, 2] += 1e-3
    assert not checks.exchange_conserved(weights, area_a, values, out)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_stale_wrap_table_fails_loudly():
    table = spans.WRAP_TABLE + (spans.Wrap("rotormesh.rbf:no_such_fn", "x"),)
    tracer = spans.Tracer(table)
    import rotormesh.rbf
    original = rotormesh.rbf.greedy_select
    with pytest.raises(spans.TraceError, match="no_such_fn"):
        tracer.install()
    assert rotormesh.rbf.greedy_select is original  # patches rolled back


def test_silent_layer_fails_loudly():
    tracer = spans.Tracer()
    with pytest.raises(spans.TraceError, match="supermesh.clip"):
        tracer.check_expected("sliding_iface")


def test_self_time_and_parents():
    tracer = spans.Tracer(())
    outer = spans.Wrap("m:outer", "outer")
    inner = spans.Wrap("m:inner", "inner")
    leaf = spans.Wrap("m:leaf", "leaf", kind="leaf")
    work = {"n": 0}

    def spin(seconds):
        import time
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            work["n"] += 1

    f_leaf = tracer._wrapper(leaf, lambda: spin(0.01))
    f_inner = tracer._wrapper(inner, lambda: (spin(0.01), f_leaf()))
    f_outer = tracer._wrapper(outer, lambda: (spin(0.01), f_inner()))
    f_outer()
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    assert tracer.calls("leaf") == 1
    (span_inner,) = [s for s in tracer.spans if s.name == "inner"]
    assert span_inner.parent.name == "outer"
    assert [edge[:3] for edge in tracer.edges()] == [("-", "outer", 1),
                                                      ("outer", "inner", 1)]
    own = tracer.self_times()
    assert sum(own.values()) == pytest.approx(tracer.total("outer"))
    for name in ("outer", "inner", "leaf"):
        assert 0.009 < own[name] < 0.05
