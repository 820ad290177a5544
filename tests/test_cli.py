import json

import numpy as np
import pytest

from meshgen import (SQUARE_2TRI, box_hex_mesh, box_with_plate_mesh,
                     stacked_interface_mesh)

from rotormesh import geometry
from rotormesh.cli import _supermesh_vtk, main
from rotormesh.mesh import Mesh, write_mesh
from rotormesh.supermesh import (InterfaceFaceSet, build_supermesh,
                                 polygon_area)

ZERO_MOTION = """
[rotor]
radius_m = 1.0
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


def test_sweep_bad_config_lists_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[rotor]\nradius_m = 1.0\n")
    assert main(["sweep", str(cfg)]) == 2
    assert "rpm" in capsys.readouterr().err


def test_sweep_rejects_negative_advance_ratio(tmp_path, capsys):
    cfg = tmp_path / "reverse.cfg"
    cfg.write_text(ZERO_MOTION + "[flight]\ntip_mach = 0.6\n"
                                 "advance_ratio = -0.2\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg), "--output", str(out)]) == 2
    assert "bad config value: [flight] advance_ratio must be a " \
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
    assert (outdir / "greedy.csv").exists()


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
    err = capsys.readouterr().err
    for step in range(3):
        assert f"warning: step {step}: greedy selection did not converge" \
            in err
    meta = json.loads((outdir / "metadata.json").read_text())
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


def test_deform_unknown_marker(square_file, tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_MOTION)
    assert main(["deform", square_file, str(cfg), "--markers", "wing",
                 "--output-dir", str(tmp_path / "o")]) == 2


def test_deform_without_rbf_settings_is_config_error(tmp_path, capsys):
    mesh_file = tmp_path / "box.mesh"
    mesh_file.write_text(write_mesh(box_with_plate_mesh(n=4)))
    cfg = tmp_path / "motion.cfg"
    cfg.write_text("[rotor]\nradius_m = 1.0\nrpm = 60.0\n")
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
    ("radius_m = 1.0", "radius_m = abc",
     "bad config value: [rotor] radius_m must be a positive number, "
     "got 'abc'"),
    ("fixed_markers", "fixed_marker",
     "bad config keys: [rbf] fixed_marker (unknown)"),
    ("support_radius_chords = 2.5",
     "support_radius_chords = 9\nsupport_radius_m = 0.4",
     "bad config keys: [rbf] support_radius_chords (conflicts with "
     "support_radius_m)"),
    ("support_radius_chords = 2.5",
     "kernel = thin_plate_spline\nsupport_radius_chords = 2.5",
     "bad config keys: [rbf] support_radius_chords (unused by "
     "thin_plate_spline)"),
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


@pytest.mark.parametrize("markers,message", [
    ("blade,blade", "'blade' is listed twice"),
    ("blade,farfield", "'farfield' is also a fixed marker"),
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


def test_interface_unknown_marker(tmp_path, capsys):
    mesh = stacked_interface_mesh(2, 2)
    mesh_file = tmp_path / "pair.mesh"
    mesh_file.write_text(write_mesh(mesh))
    assert main(["interface", str(mesh_file), "iface_a", "nope",
                 "--output", str(tmp_path / "w.csv")]) == 2
    assert capsys.readouterr().err == \
        "rotormesh: parse error: unknown marker 'nope'\n"


# ---------------------------------------------------------------------------
# hb
# ---------------------------------------------------------------------------

def test_hb_single_tone(tmp_path, capsys):
    out = tmp_path / "hb.csv"
    code = main(["hb", "--omega", "0,6.283185307179586,-6.283185307179586",
                 "--instances", "3", "--output", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "max derivative error" in err
    value = float(err.rsplit("max derivative error", 1)[1].strip())
    assert value < 1e-12
    header, rows = _read_csv(out)
    assert header == ["t", "input", "exact_derivative", "hb_derivative",
                      "error"]
    assert len(rows) == 3


def test_hb_even_instances_usage_error(capsys):
    assert main(["hb", "--omega", "0,1,-1", "--instances", "4"]) == 1
    assert "error" in capsys.readouterr().err


def test_hb_unresolved_tone_reported_not_failed(capsys):
    code = main(["hb", "--omega", "6.2832", "--instances", "3",
                 "--tone-multiple", "3"])
    assert code == 0
    err = capsys.readouterr().err
    assert "unresolved" in err


def test_hb_positive_shorthand(capsys):
    assert main(["hb", "--omega", "2.0", "--instances", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t,input")
