import argparse
import contextlib
import io
import json
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshgen import (SQUARE_2TRI, box_hex_mesh, box_with_plate_mesh,
                     box_with_plates_mesh, sector_interface_mesh,
                     stacked_interface_mesh)

from rotormesh import cli, geometry
from rotormesh.cli import _supermesh_vtk, build_parser, main
from rotormesh.config import load_fixture, parse_motion_config
from rotormesh.driver import run_deformation
from rotormesh.kinematics import blade_normal_mach, eval_series
from rotormesh.mesh import Mesh, parse_mesh, write_mesh, write_vtk
from rotormesh.supermesh import (InterfaceFaceSet, build_supermesh,
                                 polygon_area)

ZERO_MOTION = """
[rotor]
chord_m = 0.3
rpm = 60.0
n_blades = 1

[rbf]
support_radius_chords = 2.5
greedy_tol_m = 1e-6
fixed_markers = ["farfield"]
"""

INVERTED_TET = """
NDIME= 3
NELEM= 1
10 0 2 1 3
NPOIN= 4
0 0 0
1 0 0
0 1 0
0 0 1
NMARK= 0
"""


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.mesh"
    path.write_text(SQUARE_2TRI)
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def test_info_square(square_file, capsys):
    assert main(["info", square_file]) == 0
    out = capsys.readouterr().out
    # the defined metric penalizes right-triangle boundary faces: the
    # square's min orthogonality is 90 - atan2(1/3, 1/6 units) = 63.4 deg
    assert "2 elements, 4 points, min orthogonality 63.4" in out
    assert "lower: 1 faces" in out


def test_info_missing_file(capsys):
    assert main(["info", "/nonexistent/mesh.su2x"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_info_reports_negative_volume(tmp_path, capsys):
    path = tmp_path / "tet.mesh"
    path.write_text(INVERTED_TET)
    assert main(["info", str(path)]) == 0
    assert "negative_volume_count: 1" in capsys.readouterr().out


def test_info_bad_connectivity_exit_code(tmp_path, capsys):
    path = tmp_path / "tri3d.mesh"
    path.write_text(INVERTED_TET.replace("10 0 2 1 3", "5 0 1 2"))
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 4: triangle elements are not allowed as 3D cells" in err


def test_info_vertex_index_beyond_int64_is_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.mesh"
    path.write_text(INVERTED_TET.replace("10 0 2 1 3",
                                         "10 0 1 2 99999999999999999999 0"))
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err == (
        "rotormesh: parse error: line 4: vertex index 99999999999999999999 "
        "out of range\n")


@pytest.mark.parametrize("line,message", [
    ("1" + "0" * 4999 + " 0 2 1 3",
     "unknown element type code of 5000 digits"),
    ("10 0 2 1 " + "3" * 5000, "vertex index of 5000 digits out of range"),
], ids=["type-code", "vertex-index"])
def test_info_integer_of_thousands_of_digits_is_parse_error(
        tmp_path, capsys, line, message):
    """More digits than int() converts: one short line, no traceback."""
    path = tmp_path / "long.mesh"
    path.write_text(INVERTED_TET.replace("10 0 2 1 3", line))
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"rotormesh: parse error: line 4: {message}\n"


NO_CELLS = "NDIME= 2\nNELEM= 0\nNPOIN= 1\n0.0 0.0 0\nNMARK= 0\n"


def test_info_mesh_without_cells_is_parse_error(tmp_path, capsys):
    path = tmp_path / "empty.mesh"
    path.write_text(NO_CELLS)
    assert main(["info", str(path)]) == 2
    assert "parse error: mesh has no cells" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    # argparse errors go through the overridden .error -> process exit 1
    for argv in (["info"], ["not-a-command"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_low_speed_fixture(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "ah1g_low_speed", "--stations", "1.0",
                 "--steps", "4", "--output", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["psi_deg", "r_over_R", "beta_deg", "delta_deg",
                      "theta_deg", "mach_normal"]
    assert len(rows) == 4
    by_psi = {float(r["psi_deg"]): r for r in rows}
    assert float(by_psi[0.0]["theta_deg"]) == pytest.approx(17.2, abs=1e-9)
    assert float(by_psi[90.0]["theta_deg"]) == pytest.approx(10.0, abs=1e-9)
    assert float(by_psi[180.0]["theta_deg"]) == pytest.approx(6.2, abs=1e-9)
    assert float(by_psi[90.0]["mach_normal"]) == pytest.approx(0.7735,
                                                               abs=1e-9)


def test_sweep_zero_coefficients(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION + "\n[flight]\ntip_mach = 0.5\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--stations", "0.5,1.0", "--steps", "8",
                 "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 16
    for r in rows:
        assert float(r["beta_deg"]) == 0.0
        assert float(r["delta_deg"]) == 0.0
        assert float(r["theta_deg"]) == 0.0
    # hover: normal Mach is just tip_mach * r/R at every azimuth
    assert all(float(r["mach_normal"]) ==
               pytest.approx(0.5 * float(r["r_over_R"])) for r in rows)


def test_sweep_rows_match_per_azimuth_scalar_evaluation(tmp_path):
    """The sweep evaluates every azimuth and station at once; each row
    equals the scalar evaluation at its own azimuth and station."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "ah1g_high_speed", "--stations", "0.25,0.75,1.0",
                 "--steps", "36", "--output", str(out)]) == 0
    cfg = load_fixture("ah1g_high_speed")
    expect = ["psi_deg,r_over_R,beta_deg,delta_deg,theta_deg,mach_normal"]
    for k in range(36):
        psi = 2.0 * np.pi * k / 36
        for r in (0.25, 0.75, 1.0):
            row = (np.degrees(psi), r,
                   *(np.degrees(eval_series(s, psi))
                     for s in (cfg.flap, cfg.leadlag, cfg.pitch)),
                   blade_normal_mach(r, cfg.flight, psi))
            expect.append(",".join("%.12g" % v for v in row))
    assert out.read_text().splitlines() == expect


@pytest.mark.parametrize("argv,message", [
    (["sweep", "ah1g_low_speed", "--stations", "0.5,abc"],
     "--stations: could not convert string to float: 'abc'"),
    (["sweep", "ah1g_low_speed", "--stations", "nan"],
     "--stations: must be a finite number, got nan"),
    (["sweep", "ah1g_low_speed", "--stations", " , "],
     "--stations: could not convert string to float: ' , '"),
    (["hb", "--omega", "1,x"],
     "--omega: could not convert string to float: 'x'"),
    (["hb", "--omega", "inf"],
     "--omega: must be a finite number, got inf"),
    (["hb", "--omega", "nan"],
     "--omega: must be a finite number, got nan"),
])
def test_number_list_option_is_checked(argv, message, tmp_path, capsys):
    """A non-number or non-finite entry of --stations or --omega is a usage
    error that names the option and the entry, and nothing is written."""
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(out)])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f": error: argument {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("steps", ["100000000000000000000", "1" + "0" * 400])
def test_sweep_too_many_steps_is_usage_error(tmp_path, capsys, steps):
    """A --steps whose table numpy cannot size (np.arange raises "Maximum
    allowed size exceeded") exits 1 with one error line naming --steps,
    and nothing is written."""
    out = tmp_path / "out.csv"
    assert main(["sweep", "ah1g_high_speed", "--steps", steps,
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rotormesh: error: --steps {steps} is too many: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_sweep_zero_steps_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["sweep", "ah1g_high_speed", "--steps", "0",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == \
        "rotormesh: error: --steps must be >= 1\n"
    assert not out.exists()


def test_sweep_bad_config_lists_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[rotor]\nn_blades = 2\n")
    assert main(["sweep", str(cfg)]) == 2
    assert "rpm" in capsys.readouterr().err


def test_sweep_rejects_negative_advance_ratio(tmp_path, capsys):
    cfg = tmp_path / "reverse.cfg"
    cfg.write_text(ZERO_MOTION + "[flight]\ntip_mach = 0.6\n"
                                 "advance_ratio = -0.2\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--output", str(out)]) == 2
    assert "bad config value: [flight] advance_ratio must be a finite " \
        "non-negative number, got -0.2" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_flight_section(tmp_path, capsys):
    cfg = tmp_path / "noflight.cfg"
    cfg.write_text(ZERO_MOTION)
    assert main(["sweep", str(cfg)]) == 2
    assert "flight" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------

def test_deform_zero_motion(tmp_path):
    mesh = box_with_plate_mesh(n=6, plate_x=(0.1, 0.7), plate_y=(-0.3, 0.3),
                               plate_z=(-0.15, 0.15))
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(mesh))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    outdir = tmp_path / "out"
    code = main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "10", "--revolutions", "1.0",
                 "--stride", "5", "--output-dir", str(outdir)])
    assert code == 0
    _, qrows = _read_csv(outdir / "quality.csv")
    assert len(qrows) == 11
    vals = {float(r["min_orthogonality_deg"]) for r in qrows}
    assert max(vals) - min(vals) < 1e-9
    assert all(r["negative_volume_count"] == "0" for r in qrows)
    # zero hinge motion: frames are rigid rotations of the input geometry
    from rotormesh.kinematics import azimuth_matrix
    text = (outdir / "step_0010.vtk").read_text()
    pts = []
    lines = text.splitlines()
    n = int(lines[4].split()[1])
    for ln in lines[5:5 + n]:
        pts.append([float(v) for v in ln.split()])
    rotated = mesh.points @ azimuth_matrix(2 * np.pi).T
    assert np.allclose(np.asarray(pts), rotated, atol=1e-12)
    meta = json.loads((outdir / "metadata.json").read_text())
    assert meta["greedy_unconverged_steps"] == []
    # nothing moves, so no center is selected
    _, grows = _read_csv(outdir / "greedy.csv")
    assert len(grows) == 11
    assert {r["points"] for r in grows} == {"0"}


def test_deform_reports_unconverged_greedy(tmp_path, capsys):
    mesh = box_with_plate_mesh(n=6, plate_x=(0.1, 0.7), plate_y=(-0.3, 0.3),
                               plate_z=(-0.15, 0.15))
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(mesh))
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(ZERO_MOTION.replace("greedy_tol_m = 1e-6",
                                       "greedy_tol_m = 1e-12\n"
                                       "level_caps = [2]")
                   + "[pitch]\nmean_deg = 5.0\n")
    outdir = tmp_path / "out"
    code = main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "2", "--revolutions", "1.0",
                 "--output-dir", str(outdir)])
    assert code == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    meta = json.loads((outdir / "metadata.json").read_text())
    _, qrows = _read_csv(outdir / "quality.csv")
    worst = max(float(r["surface_max_err"]) for r in qrows)
    # the selection is made once per run, so it is reported once
    assert warnings == ["warning: greedy selection did not converge with 2 "
                        f"points; largest step surface error {worst:.3e} m, "
                        "tol 1.000e-12 m"]
    assert meta["greedy_unconverged_steps"] == [0, 1, 2]
    assert meta["last_completed_step"] == 2
    _, grows = _read_csv(outdir / "greedy.csv")
    assert [(r["step"], r["points"]) for r in grows] == \
        [("0", "2"), ("1", "2"), ("2", "2")]


def test_deform_writes_rows_for_replayed_steps(tmp_path):
    """Steps from --steps-per-rev on replay revolution 1: each gets its
    quality.csv and greedy.csv rows, equal to those of the step one
    revolution earlier but for the step number and azimuth."""
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(
        n=6, plate_x=(0.1, 0.7), plate_y=(-0.3, 0.3), plate_z=(-0.15, 0.15))))
    cfg = tmp_path / "cyclic.cfg"
    cfg.write_text(ZERO_MOTION + "[pitch]\nmean_deg = 4.0\nsin_deg = 3.0\n")
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "3", "--revolutions", "2",
                 "--output-dir", str(outdir)]) == 0
    _, qrows = _read_csv(outdir / "quality.csv")
    _, grows = _read_csv(outdir / "greedy.csv")
    assert [r["step"] for r in qrows] == [str(k) for k in range(7)]
    assert {r["step"] for r in grows} == {str(k) for k in range(7)}

    def without(row, *keys):
        return {k: v for k, v in row.items() if k not in keys}

    for k in range(3, 7):
        assert without(qrows[k], "step", "psi_deg") == \
            without(qrows[k - 3], "step", "psi_deg")
        assert [without(r, "step") for r in grows if r["step"] == str(k)] == \
            [without(r, "step") for r in grows if r["step"] == str(k - 3)]
    assert len({r["min_orthogonality_deg"] for r in qrows[:3]}) == 3


@pytest.mark.parametrize("stride", [1, 4])
def test_deform_frames_match_a_fresh_write(tmp_path, monkeypatch, stride):
    """The grid is periodic, so a frame whose phase and velocity scheme an
    earlier frame had is written from that frame's text, with its own
    title. Every frame is still byte for byte write_vtk of its step, also
    at a stride of 4, which does not divide 6 and so skips some phases."""
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(
        n=6, plate_x=(0.1, 0.7), plate_y=(-0.3, 0.3), plate_z=(-0.15, 0.15))))
    text = ZERO_MOTION + "[pitch]\nmean_deg = 4.0\nsin_deg = 3.0\n"
    cfg = tmp_path / "cyclic.cfg"
    cfg.write_text(text)
    formatted = []
    monkeypatch.setattr(cli, "write_vtk",
                        lambda *a, **k: formatted.append(a) or write_vtk(
                            *a, **k))
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "6", "--revolutions", "3",
                 "--stride", str(stride), "--output-dir", str(outdir)]) == 0

    mesh = parse_mesh(mesh_file.read_text())
    results = list(run_deformation(mesh, parse_motion_config(text),
                                   ["blade"], steps_per_rev=6,
                                   revolutions=3.0))[::stride]
    assert sorted(p.name for p in outdir.glob("step_*.vtk")) == \
        [f"step_{r.step:04d}.vtk" for r in results]
    for r in results:
        expected = write_vtk(mesh.with_points(r.points),
                             {"grid_velocity": r.grid_velocity},
                             title=f"step {r.step} psi "
                                   f"{np.degrees(r.psi):.3f} deg")
        assert (outdir / f"step_{r.step:04d}.vtk").read_bytes() == \
            expected.encode()
    # the title keeps the azimuth of its own revolution
    assert expected.splitlines()[1] == \
        f"step {r.step} psi {60.0 * r.step:.3f} deg"
    # one write per phase and scheme: 0 zero, 1 backward1, then BDF2
    assert len(formatted) == {1: 8, 4: 4}[stride]


def test_deform_negative_volume_exit_code(tmp_path, capsys):
    mesh = box_with_plate_mesh(n=6, half=0.6, plate_x=(-0.4, 0.4),
                               plate_y=(-0.4, 0.4), plate_z=(-0.1, 0.1))
    mesh_file = tmp_path / "tight.mesh"
    mesh_file.write_text(write_mesh(mesh))
    cfg = tmp_path / "violent.cfg"
    cfg.write_text(ZERO_MOTION + "[pitch]\nmean_deg = 80.0\n")
    outdir = tmp_path / "out"
    code = main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "4", "--revolutions", "1.0",
                 "--output-dir", str(outdir)])
    assert code == 3
    err = capsys.readouterr().err
    assert "last good step" in err


def test_deform_2d_mesh_is_usage_error(square_file, tmp_path, capsys):
    """Flap and pitch would move a blade marker of a 2D mesh out of its
    plane (z = -0.05 at step 1 here), so deform refuses the mesh: exit 1,
    one line, no output directory."""
    text = resources.files("rotormesh").joinpath(
        "fixtures/ah1g_low_speed.cfg").read_text()
    cfg = tmp_path / "square.cfg"
    cfg.write_text(text.replace('fixed_markers = ["farfield"]',
                                'fixed_markers = ["upper"]'))
    outdir = tmp_path / "out"
    assert main(["deform", square_file, str(cfg), "--markers", "lower",
                 "--steps-per-rev", "4", "--revolutions", "1",
                 "--output-dir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err == ("rotormesh: error: deformation needs a 3D mesh, "
                   "got a 2D one\n")
    assert not outdir.exists()


def test_deform_unknown_marker(square_file, tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    assert main(["deform", square_file, str(cfg), "--markers", "wing",
                 "--output-dir", str(tmp_path / "o")]) == 2


def test_deform_without_rbf_settings_is_config_error(tmp_path, capsys):
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    cfg = tmp_path / "motion.cfg"
    cfg.write_text("[rotor]\nrpm = 60.0\n")
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--output-dir", str(outdir)]) == 2
    assert "[rbf]" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("old,new", [
    ("rpm = 60.0", "rpm = 0"),
    ("rpm = 60.0", "rpm = -300"),
    ("n_blades = 1", "n_blades = 0"),
    ("support_radius_chords = 2.5", "support_radius_chords = -1"),
    ("greedy_tol_m = 1e-6", "greedy_tol_m = 0"),
    ("", "kernel = foo"),
    ("", "level_caps = []"),
    ("", "[flight]\ntip_mach = 0"),
    # 2.5 chords of 1e308 m overflow to an infinite support radius
    ("chord_m = 0.3", "chord_m = 1e308"),
    # omega underflows to 0, or overflows to an infinite speed of period 0
    ("rpm = 60.0", "rpm = 5e-324"),
    ("rpm = 60.0", "rpm = 1e308"),
])
def test_deform_bad_config_value_is_parse_error(tmp_path, capsys, old, new):
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    cfg = tmp_path / "bad.cfg"
    # an empty old line appends the new one to the last section, [rbf]
    cfg.write_text(ZERO_MOTION.replace(old, new) if old
                   else ZERO_MOTION + new + "\n")
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--output-dir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "parse error: bad config value" in err
    assert new.split("=")[0].split()[-1] in err
    assert not outdir.exists()


@pytest.mark.parametrize("old,new,message", [
    ("rpm = 60.0", "rpm = abc",
     "bad config value: [rotor] rpm must be a finite positive number, got "
     "'abc'"),
    ("fixed_markers", "fixed_marker",
     "bad config keys: [rbf] fixed_marker (unknown)"),
    ("support_radius_chords = 2.5",
     "support_radius_chords = 9\nsupport_radius_m = 0.4",
     "bad config keys: [rbf] support_radius_m (unknown)"),
    # only strictly positive definite kernels
    ("support_radius_chords = 2.5", "kernel = thin_plate_spline",
     "bad config value: [rbf] kernel must be one of wendland_c2, gaussian, "
     "inverse_multiquadric, got 'thin_plate_spline'"),
    ("support_radius_chords = 2.5",
     "kernel = multiquadric\nsupport_radius_chords = 2.5",
     "bad config value: [rbf] kernel must be one of wendland_c2, gaussian, "
     "inverse_multiquadric, got 'multiquadric'"),
    ("chord_m = 0.3", "chord_m = 1e308",
     "bad config value: [rotor] chord_m x [rbf] support_radius_chords must "
     "be a positive finite number, got inf"),
])
def test_deform_config_typo_is_parse_error(tmp_path, capsys, old, new,
                                           message):
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(ZERO_MOTION.replace(old, new))
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--output-dir", str(outdir)]) == 2
    assert f"parse error: {message}" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["sweep", "deform"])
@pytest.mark.parametrize("section,key,raw", [
    ("rotor", "radius_m", "1.0"),
    ("flight", "freestream_mach", "0.12"),
    ("flight", "thrust_coefficient", "0.005"),
    ("rbf", "support_radius_m", "0.4"),
    ("rbf", "affine", "false"),
])
def test_removed_config_key_is_parse_error(tmp_path, capsys, command,
                                           section, key, raw):
    """Keys the program never read (radius_m, thrust_coefficient), read a
    second way (freestream_mach, support_radius_m) or no longer takes
    (affine: the greedy selection adds no affine polynomial) are unknown:
    exit 2, one line, nothing written."""
    cfg = tmp_path / "old.cfg"
    cfg.write_text((ZERO_MOTION + "[flight]\ntip_mach = 0.6\n").replace(
        f"[{section}]\n", f"[{section}]\n{key} = {raw}\n"))
    out = tmp_path / "out"
    if command == "sweep":
        argv = ["sweep", str(cfg), "--output", str(out)]
    else:
        mesh_file = tmp_path / "box.mesh"
        mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
        argv = ["deform", str(mesh_file), str(cfg), "--markers", "blade",
                "--output-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("rotormesh: parse error: bad config "
                                       f"keys: [{section}] {key} (unknown)\n")
    assert not out.exists()


def test_deform_more_blade_markers_than_blades_is_usage_error(tmp_path,
                                                              capsys):
    """Blade marker i sits at azimuth 2 pi i / n_blades, so on a one-bladed
    rotor a second marker would move at the first one's azimuth: exit 1,
    one line, no output directory."""
    mesh_file = tmp_path / "plates.mesh"
    mesh_file.write_text(write_mesh(box_with_plates_mesh(4, 1.8, {
        "b0": ((0.4, 1.4), (-0.15, 0.15), (-0.05, 0.05)),
        "b1": ((-1.4, -0.4), (-0.15, 0.15), (-0.05, 0.05))})))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "b0,b1",
                 "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err == ("rotormesh: error: 2 blade markers "
                                       "for a rotor of n_blades = 1\n")
    assert not outdir.exists()


@pytest.mark.parametrize("markers,message", [
    ("blade,blade", "'blade' is listed twice"),
    ("blade,farfield", "'farfield' is also a fixed marker"),
    (" blade , blade", "'blade' is listed twice"),
    ("blade, farfield", "'farfield' is also a fixed marker"),
])
def test_deform_bad_marker_list_is_usage_error(tmp_path, capsys, markers,
                                               message):
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", markers,
                 "--output-dir", str(outdir)]) == 1
    assert message in capsys.readouterr().err
    assert not outdir.exists()



@pytest.mark.parametrize("revolutions", ["nan", "inf", "-1"])
def test_deform_bad_revolutions_is_usage_error(tmp_path, capsys,
                                               revolutions):
    """Exits 1 before any greedy work, not with a traceback once the basis
    is built."""
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--revolutions", revolutions,
                 "--output-dir", str(outdir)]) == 1
    assert "revolutions must be finite and >= 0" in capsys.readouterr().err
    assert not outdir.exists()


def test_deform_infinite_step_count_is_usage_error(tmp_path, capsys):
    """8 steps per revolution over 1e308 revolutions overflow to an
    infinite step count: exit 1 before the output directory is made."""
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), "ah1g_high_speed", "--markers",
                 "blade", "--steps-per-rev", "8", "--revolutions", "1e308",
                 "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err == (
        "rotormesh: error: steps_per_rev x revolutions = 8 x 1e+308 is not a "
        "finite step count\n")
    assert not outdir.exists()


def test_deform_steps_per_rev_beyond_float_range_is_usage_error(tmp_path,
                                                                capsys):
    """A --steps-per-rev no float holds exits 1 with one error line, not an
    OverflowError traceback, before the output directory is made."""
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), "ah1g_high_speed", "--markers",
                 "blade", "--steps-per-rev", HUGE_INT, "--revolutions", "1",
                 "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err == (
        f"rotormesh: error: steps_per_rev x revolutions = {HUGE_INT} x 1 "
        "is not a finite step count\n")
    assert not outdir.exists()


@pytest.mark.parametrize("steps", ["100000000000000000000",
                                   "1000000000000000000"])
def test_deform_steps_per_rev_numpy_cannot_size_is_usage_error(
        tmp_path, capsys, steps):
    """A --steps-per-rev whose phase table numpy cannot size (10**20) or
    allocate (10**18; both refused without allocating) exits 1 with one
    error line, before the output directory is made."""
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), "ah1g_high_speed", "--markers",
                 "blade", "--steps-per-rev", steps, "--revolutions", "0",
                 "--output-dir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rotormesh: error: steps_per_rev {steps} is too "
                          "many: ")
    assert err.count("\n") == 1
    assert not outdir.exists()


def test_deform_zero_stride_is_usage_error(tmp_path, capsys):
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), "ah1g_high_speed", "--markers",
                 "blade", "--stride", "0", "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err == \
        "rotormesh: error: --stride must be >= 1\n"
    assert not outdir.exists()


# a gaussian far wider than the box, to a tolerance of 1e-12: the first
# interpolation system is too ill-conditioned to solve
ILL_CONDITIONED = """
[rotor]
chord_m = 1.0
rpm = 60.0
n_blades = 1

[pitch]
mean_deg = 4.0
sin_deg = 3.0

[rbf]
kernel = gaussian
support_radius_chords = 50.0
greedy_tol_m = 1e-12
fixed_markers = ["farfield"]
"""


def test_deform_unsolvable_system_exit_code(tmp_path, capsys):
    """An interpolation system the basis cannot be solved on exits 3 with
    one line, and writes the CSVs and metadata.json as a failure at step
    0 does: headers only, last completed step -1."""
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(
        n=6, plate_x=(0.1, 0.7), plate_y=(-0.3, 0.3), plate_z=(-0.15, 0.15))))
    cfg = tmp_path / "gaussian.cfg"
    cfg.write_text(ILL_CONDITIONED)
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "4", "--revolutions", "1",
                 "--output-dir", str(outdir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("deformation failed: interpolation residual ")
    assert "ill-conditioned" in err and err.count("\n") == 1
    assert (outdir / "quality.csv").read_text().count("\n") == 1
    assert (outdir / "greedy.csv").read_text().count("\n") == 1
    meta = json.loads((outdir / "metadata.json").read_text())
    assert meta["last_completed_step"] == -1
    assert not list(outdir.glob("*.vtk"))


@pytest.mark.parametrize("argv,kind", [
    (["info", "{bad}"], "mesh"),
    (["sweep", "{bad}", "--output", "{tmp}/sweep.csv"], "config"),
    (["deform", "{bad}", "ah1g_high_speed", "--markers", "blade",
      "--output-dir", "{tmp}/out"], "mesh"),
    (["deform", "{tmp}/box.mesh", "{bad}", "--markers", "blade",
      "--output-dir", "{tmp}/out"], "config"),
    (["interface", "{bad}", "iface_a", "iface_b", "--output",
      "{tmp}/x.csv"], "mesh"),
], ids=["info", "sweep", "deform-mesh", "deform-config", "interface"])
def test_non_utf8_input_is_parse_error(tmp_path, capsys, argv, kind):
    """A mesh or config file that is not UTF-8 text is one parse error
    line naming the file, exit 2, and nothing is written."""
    bad = tmp_path / "bad.su2"
    bad.write_bytes(b"NDIME= 2\n\xff\xfe\n")
    (tmp_path / "box.mesh").write_text(write_mesh(box_with_plate_mesh(n=4)))
    before = sorted(tmp_path.iterdir())
    assert main([arg.format(bad=bad, tmp=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"rotormesh: parse error: cannot read {kind} file {bad}: "
                   "'utf-8' codec can't decode byte 0xff in position 9: "
                   "invalid start byte\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["info", "deform"])
def test_face_of_three_cells_is_parse_error(tmp_path, capsys, command):
    """A hex listed three times makes each of its faces bound three cells:
    both commands refuse the mesh before they write anything."""
    cube = box_hex_mesh(1, 1, 1)
    mesh = Mesh(3, cube.points,
                {"hexahedron": (np.repeat(cube.cells["hexahedron"][0], 3, 0),
                                [0, 1, 2])},
                {"blade": cube.markers["xmin"],
                 "farfield": cube.markers["xmax"]})
    mesh_file = tmp_path / "triple.mesh"
    mesh_file.write_text(write_mesh(mesh))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    outdir = tmp_path / "out"
    argv = {"info": ["info", str(mesh_file)],
            "deform": ["deform", str(mesh_file), str(cfg), "--markers",
                       "blade", "--output-dir", str(outdir)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "parse error: face (0, 1, 2, 3) is shared by cells [0, 1, 2]" in err
    assert not outdir.exists()


def test_deform_mesh_without_cells_is_parse_error(tmp_path, capsys):
    path = tmp_path / "empty.mesh"
    path.write_text(NO_CELLS)
    outdir = tmp_path / "out"
    assert main(["deform", str(path), "ah1g_high_speed", "--markers",
                 "blade", "--output-dir", str(outdir)]) == 2
    assert "parse error: mesh has no cells" in capsys.readouterr().err
    assert not outdir.exists()


def test_deform_builds_face_table_once(tmp_path, monkeypatch):
    built = []
    build = geometry.build_topology
    monkeypatch.setattr(geometry, "build_topology",
                        lambda mesh: built.append(mesh) or build(mesh))
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "2", "--revolutions", "1.0",
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert len(built) == 1


# ---------------------------------------------------------------------------
# interface
# ---------------------------------------------------------------------------

def test_interface_conformal(tmp_path, capsys):
    mesh = stacked_interface_mesh(4, 4)
    mesh_file = tmp_path / "pair.mesh"
    mesh_file.write_text(write_mesh(mesh))
    out = tmp_path / "weights.csv"
    code = main(["interface", str(mesh_file), "iface_a", "iface_b",
                 "--output", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["a_face", "b_face", "area", "weight"]
    assert len(rows) == 16
    assert all(float(r["weight"]) == pytest.approx(1.0, abs=1e-9)
               for r in rows)
    assert "partially covered A faces: 0" in capsys.readouterr().out


def test_interface_4x4_vs_5x5(tmp_path, capsys):
    mesh = stacked_interface_mesh(4, 5)
    mesh_file = tmp_path / "pair.mesh"
    mesh_file.write_text(write_mesh(mesh))
    out = tmp_path / "weights.csv"
    viz = tmp_path / "inter.vtk"
    code = main(["interface", str(mesh_file), "iface_a", "iface_b",
                 "--output", str(out), "--viz", str(viz)])
    assert code == 0
    _, rows = _read_csv(out)
    sums = {}
    donors = {}
    for r in rows:
        a = int(r["a_face"])
        sums[a] = sums.get(a, 0.0) + float(r["weight"])
        donors[a] = donors.get(a, 0) + 1
    assert all(abs(s - 1.0) < 1e-9 for s in sums.values())
    assert all(1 <= d <= 4 for d in donors.values())
    assert viz.read_text().startswith("# vtk DataFile")


def test_interface_vtk_keeps_split_faces():
    """A non-convex A face is clipped as two convex pieces; the VTK polygon
    soup holds both, so its polygon areas add up to the total area."""
    dart = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    sm = build_supermesh(InterfaceFaceSet("A", (dart,)),
                         InterfaceFaceSet("B", (square,)))
    lines = _supermesh_vtk(sm).splitlines()
    n_points = int(lines[4].split()[1])
    points = np.array([[float(x) for x in line.split()[:2]]
                       for line in lines[5:5 + n_points]])
    n_cells = int(lines[5 + n_points].split()[1])
    cells = [[int(v) for v in line.split()[1:]]
             for line in lines[6 + n_points:6 + n_points + n_cells]]
    assert n_cells == 2
    area = sum(polygon_area(points[c]) for c in cells)
    assert area == pytest.approx(sm.total_area, rel=1e-12)


def test_interface_disjoint_exit_4(tmp_path, capsys):
    mesh = stacked_interface_mesh(2, 2)
    # B faces shifted far away: reuse marker A against a translated copy
    pts = np.array(mesh.points)
    b_idx = np.unique(np.concatenate(
        [conn.ravel() for conn, _ in mesh.markers["iface_b"].values()]))
    pts[b_idx, 0] += 100.0
    mesh_file = tmp_path / "gap.mesh"
    mesh_file.write_text(write_mesh(mesh.with_points(pts)))
    code = main(["interface", str(mesh_file), "iface_a", "iface_b",
                 "--output", str(tmp_path / "w.csv")])
    assert code == 4
    assert "overlap" in capsys.readouterr().err


def test_interface_full_cylinder_exit_4(tmp_path, capsys):
    mesh = sector_interface_mesh(12, 15, 2.0, span=(0.0, 2.0 * np.pi), nz=2)
    mesh_file = tmp_path / "annulus.mesh"
    mesh_file.write_text(write_mesh(mesh))
    out = tmp_path / "w.csv"
    assert main(["interface", str(mesh_file), "iface_a", "iface_b",
                 "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith(
        "rotormesh: interface error: interface side A (marker 'iface_a') "
        "face 11 unrolls")
    assert not out.exists()


def test_interface_markers_off_one_line_exit_4(square_file, tmp_path,
                                              capsys):
    """The parallel sides of the square have no common line: exit 4 with
    one line that names both markers and the line fit, not the face of
    length 1 that the fit collapsed, and no output."""
    out = tmp_path / "w.csv"
    assert main(["interface", square_file, "lower", "upper",
                 "--output", str(out)]) == 4
    assert capsys.readouterr().err == (
        "rotormesh: interface error: interface markers 'lower' and 'upper' "
        "do not lie on one common line: the fit collapses faces of marker "
        "'lower'\n")
    assert not out.exists()


def test_interface_face_area_overflow_exit_4(tmp_path, capsys):
    """In-plane coordinates of about 1e150 by 1e200 project without an
    overflow, but every face's shoelace terms overflow: the first face is
    rejected by name, exit 4, before the build could fail on it."""
    x, y, z = stacked_interface_mesh(2, 2).points.T  # z = 0 becomes y = 0
    mesh = stacked_interface_mesh(2, 2).with_points(
        np.column_stack([x * 1e150, z, y * 1e200]))
    mesh_file = tmp_path / "huge.mesh"
    mesh_file.write_text(write_mesh(mesh))
    out = tmp_path / "w.csv"
    assert main(["interface", str(mesh_file), "iface_a", "iface_b",
                 "--output", str(out)]) == 4
    assert capsys.readouterr().err == \
        "rotormesh: interface error: face 0: area is not finite\n"
    assert not out.exists()


def test_interface_subnormal_face_area_exit_4(tmp_path, capsys):
    """Scaled by 2**-520, every face's area is a subnormal float, whose
    lost digits would skew the weights unnoticed: the first face is
    rejected by name, exit 4, before any output exists."""
    mesh = stacked_interface_mesh(2, 2)
    mesh_file = tmp_path / "tiny.mesh"
    mesh_file.write_text(write_mesh(mesh.with_points(mesh.points
                                                     * 2.0**-520)))
    out = tmp_path / "w.csv"
    assert main(["interface", str(mesh_file), "iface_a", "iface_b",
                 "--output", str(out)]) == 4
    assert capsys.readouterr().err == \
        "rotormesh: interface error: face 0: area is subnormal\n"
    assert not out.exists()


def test_interface_unknown_marker(tmp_path, capsys):
    mesh = stacked_interface_mesh(2, 2)
    mesh_file = tmp_path / "pair.mesh"
    mesh_file.write_text(write_mesh(mesh))
    assert main(["interface", str(mesh_file), "iface_a", "nope",
                 "--output", str(tmp_path / "w.csv")]) == 2
    assert capsys.readouterr().err == \
        "rotormesh: parse error: unknown marker 'nope'\n"


# ---------------------------------------------------------------------------
def test_deform_blade_sharing_points_is_usage_error(tmp_path, capsys):
    """A blade marker that shares points with a fixed marker ends the run
    with exit 1 and a message naming both, before any output exists."""
    mesh = box_with_plate_mesh(n=6)
    kind, (conn, _) = next(iter(mesh.markers["blade"].items()))
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(Mesh(
        3, mesh.points, mesh.cells,
        {**mesh.markers, "hub": {kind: (conn[:1], [0])}})))
    cfg = tmp_path / "hub.cfg"
    cfg.write_text(ZERO_MOTION.replace('["farfield"]', '["farfield", "hub"]')
                   + "\n[pitch]\nmean_deg = 5.0\n")
    outdir = tmp_path / "out"
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "4", "--revolutions", "0",
                 "--output-dir", str(outdir)]) == 1
    assert ("error: blade marker 'blade' shares 4 points with fixed marker "
            "'hub'") in capsys.readouterr().err
    assert not outdir.exists()


# hb
# ---------------------------------------------------------------------------

def test_hb_single_tone(tmp_path, capsys):
    out = tmp_path / "hb.csv"
    code = main(["hb", "--omega", "6.283185307179586", "--output", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "max derivative error" in err
    value = float(err.rsplit("max derivative error", 1)[1].strip())
    assert value < 1e-12
    header, rows = _read_csv(out)
    assert header == ["t", "input", "exact_derivative", "hb_derivative",
                      "error"]
    assert len(rows) == 3
    assert err.startswith("instances: 3, ")


@pytest.mark.parametrize("omega", ["1,1", "2.5,1,2.5"])
def test_hb_repeated_tone_usage_error(omega, tmp_path, capsys):
    """A tone listed twice would make the basis matrix singular; it is a
    usage error that names the tone, and nothing is written."""
    out = tmp_path / "hb.csv"
    assert main(["hb", "--omega", omega, "--output", str(out)]) == 1
    tone = float(omega.split(",")[0])
    assert f"tone {tone!r} is repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("omega", ["1,-1", "0,1", "-1,2"])
def test_hb_zero_or_negative_tone_usage_error(omega, tmp_path, capsys):
    """--omega lists the positive tones only: 0 and the negative half are
    built from them, so a zero or negative entry is a usage error naming
    --omega (a leading negative one is taken for an option by argparse),
    and nothing is written."""
    out = tmp_path / "hb.csv"
    try:
        code = main(["hb", "--omega", omega, "--output", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert "--omega" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--omega", "1e-310"], "--omega: tones [1e-310] have time instances "
                            "or phases over their window that overflow"),
    (["--omega=1e-300,1e300"], "--omega: tones [1e-300, 1e+300] have"),
    (["--omega", "1e308", "--tone-multiple", "3"],
     "--tone-multiple 3 times the fundamental 1e+308 rad/s is not finite"),
    (["--omega", "1", "--tone-multiple", "1" + "0" * 400],
     "--tone-multiple 1000"),
], ids=["subnormal", "ratio-1e600", "test-tone-inf", "multiple-beyond-float"])
def test_hb_overflow_is_usage_error(argv, message, tmp_path, capsys):
    """Tones whose instances or phases overflow, and a test tone that does,
    are one usage error line, with no RuntimeWarning and nothing written."""
    out = tmp_path / "hb.csv"
    assert main(["hb", *argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rotormesh: error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("multiple", [3, -3])
def test_hb_unresolved_tone_reported_not_failed(multiple, capsys):
    code = main(["hb", "--omega", "6.2832", "--tone-multiple", str(multiple)])
    assert code == 0
    err = capsys.readouterr().err
    assert "unresolved" in err


def test_hb_negative_resolved_tone(capsys):
    """Tone k w1 is resolved when |k| w1 is a tone, whatever the sign of k."""
    assert main(["hb", "--omega", "6.2832", "--tone-multiple", "-1"]) == 0
    line = capsys.readouterr().err.splitlines()[-1]
    assert line.startswith("test tone -1x fundamental (resolved): ")
    assert float(line.rsplit(" ", 1)[1]) < 1e-10


@pytest.mark.parametrize("omega,multiple,resolved", [
    ("1,2.5", 2, False), ("1,2.5", 3, False), ("1,2.5", -1, True),
    ("1,2.5", 0, True),
    *(("1,2,3", k, True) for k in range(-3, 4)), ("1,2,3", 4, False),
    ("1,2,3", -4, False),
])
def test_hb_resolved_means_a_tone_of_the_set(omega, multiple, resolved,
                                             capsys):
    """Tone k w1 is resolved iff |k| w1 is 0 or one of the tones: 2 rad/s
    is no tone of {1, 2.5}, although k = 2 <= K; for harmonics w1, 2 w1, 3 w1
    the rule is |k| <= 3. A resolved tone's derivative is exact."""
    assert main(["hb", "--omega", omega, "--tone-multiple",
                 str(multiple)]) == 0
    line = capsys.readouterr().err.splitlines()[-1]
    label = "resolved" if resolved else "unresolved"
    assert line.startswith(f"test tone {multiple}x fundamental ({label}): ")
    error = float(line.rsplit(" ", 1)[1])
    assert (error < 1e-10) if resolved else (error > 1e-3)


def test_hb_positive_shorthand(capsys):
    assert main(["hb", "--omega", "2.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t,input")


# ---------------------------------------------------------------------------
# output paths and marker lists, checked before any input is read
# ---------------------------------------------------------------------------

@pytest.fixture
def inputs_unread(tmp_path, monkeypatch):
    """A deformable box and an interface pair on disk, and the list of the
    meshes and configs the command reads."""
    (tmp_path / "box.mesh").write_text(write_mesh(box_with_plate_mesh(n=4)))
    (tmp_path / "pair.mesh").write_text(write_mesh(
        stacked_interface_mesh(2, 2)))
    (tmp_path / "taken").write_text("")
    read = []
    for name in ("_load_mesh", "_load_config"):
        load = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda path, load=load: read.append(path)
                            or load(path))
    return read


@pytest.mark.parametrize("argv,bad", [
    (["sweep", "ah1g_high_speed", "--output", "{missing}/x.csv"],
     "{missing}/x.csv"),
    (["hb", "--omega", "1", "--output", "{missing}/h.csv"], "{missing}/h.csv"),
    (["interface", "{tmp}/pair.mesh", "iface_a", "iface_b",
      "--output", "{missing}/x.csv"], "{missing}/x.csv"),
    (["interface", "{tmp}/pair.mesh", "iface_a", "iface_b",
      "--output", "{tmp}/ok.csv", "--viz", "{missing}/v.vtk"],
     "{missing}/v.vtk"),
    (["interface", "{tmp}/pair.mesh", "iface_a", "iface_b",
      "--output", "{tmp}"], "{tmp}"),
    (["deform", "{tmp}/box.mesh", "ah1g_high_speed", "--markers", "blade",
      "--output-dir", "{tmp}/taken"], "{tmp}/taken"),
    (["deform", "{tmp}/box.mesh", "ah1g_high_speed", "--markers", "blade",
      "--output-dir", "{tmp}/taken/out"], "{tmp}/taken/out"),
], ids=["sweep", "hb", "interface", "interface-viz", "interface-dir",
        "deform-file", "deform-under-file"])
def test_unusable_output_path_is_usage_error(tmp_path, inputs_unread, capsys,
                                             argv, bad):
    """A missing directory, a directory where a file goes or a file where a
    directory goes: exit 1 with one line naming the path, before the mesh
    or config is read, and nothing written."""
    names = {"tmp": tmp_path, "missing": tmp_path / "missing"}
    before = sorted(tmp_path.iterdir())
    assert main([arg.format(**names) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rotormesh: error: cannot write output "
                          f"{bad.format(**names)}: ")
    assert err.count("\n") == 1
    assert inputs_unread == []
    assert sorted(tmp_path.iterdir()) == before


def test_output_dir_parents_are_made(tmp_path):
    outdir = tmp_path / "a" / "b"
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    assert main(["deform", str(mesh_file), str(cfg), "--markers", "blade",
                 "--steps-per-rev", "2", "--revolutions", "0",
                 "--output-dir", str(outdir)]) == 0
    assert (outdir / "quality.csv").exists()


@pytest.mark.parametrize("markers", ["blade,", ",blade", "blade,,hub", " "])
def test_deform_empty_marker_name_is_usage_error(tmp_path, inputs_unread,
                                                 capsys, markers):
    outdir = tmp_path / "out"
    assert main(["deform", str(tmp_path / "box.mesh"), "ah1g_high_speed",
                 "--markers", markers, "--output-dir", str(outdir)]) == 1
    assert capsys.readouterr().err == (
        f"rotormesh: error: --markers {markers!r} has an empty name\n")
    assert inputs_unread == []
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# any argv: a documented exit code, never a traceback
# ---------------------------------------------------------------------------

GRAMMAR_FILES = {
    "box.mesh": write_mesh(box_with_plate_mesh(n=3)).encode(),
    "pair.mesh": write_mesh(stacked_interface_mesh(2, 2)).encode(),
    "zero.cfg": ZERO_MOTION.encode(),
    "bad.bin": b"NDIME= 2\n\xff\xfe\n[rotor]\n",
}
# each "{tmp}/..." path is a file of GRAMMAR_FILES, a directory, or missing
INPUTS = ["{tmp}/box.mesh", "{tmp}/pair.mesh", "{tmp}/zero.cfg", "{tmp}/dir",
          "{tmp}/none.su2", "{tmp}/none/x.su2", "{tmp}/bad.bin"]
OUTPUTS = ["{tmp}/zero.cfg", "{tmp}/dir", "{tmp}/none/out",
           "{tmp}/box.mesh/out"]
NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-310"]
HUGE_INT = "1" + "0" * 400  # no float holds it
# step counts numpy refuses to size at once: nothing allocated, no 10**10
HUGE_STEPS = ["100000000000000000000", HUGE_INT]


def _either(valid, bad):
    """A valid value three times in four, else a bad one."""
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(valid if i < 3 else bad))


def _listed(valid, bad):
    """A comma-separated list of one to three values."""
    return st.lists(_either(valid, bad), min_size=1, max_size=3).map(
        ",".join)


@st.composite
def command_lines(draw):
    """argv of every subcommand from a small grammar: input paths that are
    files, directories, missing or non-UTF-8; numbers that are NaN, inf,
    negative, zero, 1e308 or 1e-310; step counts numpy cannot size or no
    float holds; marker lists with empty, spaced and repeated names; output
    paths that exist, are directories or lie under a missing directory or
    a file. Tiny meshes, at most 4 steps per revolution that run and 2
    revolutions bound the work; no output goes to the working directory."""
    command = draw(st.sampled_from(["info", "sweep", "deform", "interface",
                                    "hb"]))
    configs = ["ah1g_high_speed", "caradonna_tung_hover", "{tmp}/zero.cfg"]
    options = {}
    if command == "info":
        argv = [draw(_either(INPUTS[:2], INPUTS[2:]))]
    elif command == "sweep":
        argv = [draw(_either(configs[:2], INPUTS))]
        options = {"--stations": _listed(["0.5", "1"], NUMBERS),
                   "--steps": _either(["1", "4"], NUMBERS + HUGE_STEPS),
                   "--output": _either(["{tmp}/out.csv"], OUTPUTS)}
    elif command == "deform":
        steps = draw(_either(["1", "2", "4"], NUMBERS[:5] + HUGE_STEPS))
        # 1e308 revolutions over 2 steps or more are an infinite count
        revolutions = NUMBERS[:4] + ["1e308"] * (steps != "1")
        argv = [draw(_either(INPUTS[:1], INPUTS[1:])),
                draw(_either(configs, INPUTS)),
                "--markers=" + draw(_either(
                    ["blade", " blade "],
                    ["", "blade,", "blade,blade", " blade , blade",
                     "blade,farfield", "nope", "iface_a"])),
                f"--steps-per-rev={steps}",
                "--revolutions=" + draw(_either(["0", "0.5", "2", "1e-310"],
                                                revolutions)),
                "--output-dir=" + draw(_either(["{tmp}/out", "{tmp}/dir",
                                                "{tmp}/none/out"],
                                               OUTPUTS[:1] + OUTPUTS[3:]))]
        options = {"--stride": _either(["1", "2", HUGE_INT], NUMBERS)}
    elif command == "interface":
        markers = ["blade", "farfield", "", " iface_a", "nope"]
        argv = [draw(_either(INPUTS[1:2], INPUTS[:1] + INPUTS[2:])),
                draw(_either(["iface_a"], markers + ["iface_b"])),
                draw(_either(["iface_b"], markers + ["iface_a"])),
                "--output=" + draw(_either(["{tmp}/out.csv"], OUTPUTS))]
        options = {"--viz": _either(["{tmp}/out.vtk"], OUTPUTS)}
    else:
        argv = ["--omega=" + draw(_listed(["1", "2.5", "4"], NUMBERS))]
        options = {"--tone-multiple": _either(["-1", "0", "3"],
                                              NUMBERS + [HUGE_INT]),
                   "--output": _either(["{tmp}/out.csv"], OUTPUTS)}
    for option, values in options.items():
        if draw(st.booleans()):
            argv.append(f"{option}={draw(values)}")
    return [command, *argv]


@pytest.mark.thorough
@settings(deadline=None)
@given(argv=command_lines())
def test_any_argv_returns_a_documented_code(argv):
    """Every draw returns 0-4 (argparse's own usage errors exit 1 through
    SystemExit) and raises nothing; RuntimeWarnings are errors here too. A
    nonzero code says why on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in GRAMMAR_FILES.items():
            (Path(tmp) / name).write_bytes(data)
        (Path(tmp) / "dir").mkdir()
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in range(5)
    assert code == 0 or err.getvalue().strip()


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

def test_readme_synopsis_names_every_option():
    """Each subcommand's --options in README's "Command line" block are
    exactly those of its parser, so a removed flag cannot linger there."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    documented: dict[str, set[str]] = {}
    for line in block.split("```", 1)[0].splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["rotormesh"]:
            command = documented.setdefault(words[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", " ".join(words)))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    parsed = {name: {option for action in sub._actions
                     for option in action.option_strings
                     if option.startswith("--") and option != "--help"}
              for name, sub in subparsers.choices.items()}
    assert documented == parsed
