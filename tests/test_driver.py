import numpy as np
import pytest

from meshgen import box_with_plate_mesh, box_with_plates_mesh

from rotormesh import geometry, hb
from rotormesh.config import parse_motion_config
from rotormesh.driver import DeformationFailure, run_deformation
from rotormesh.kinematics import BladeMotion, azimuth_matrix, blade_point
from rotormesh.mesh import extract_marker_points

STILL_ROTOR = """
[rotor]
radius_m = 1.0
chord_m = 0.3
rpm = 60.0
n_blades = 1
hinge = [0.0, 0.0, 0.0]

[rbf]
support_radius_chords = 2.5
greedy_tol_m = 1e-6
fixed_markers = ["farfield"]
"""

PITCHING = STILL_ROTOR + """
[pitch]
mean_deg = 10.0
"""

# once-per-revolution cyclic pitch and flap
FLAPPING = STILL_ROTOR + """
[pitch]
mean_deg = 6.0
cos_deg = 4.0

[flap]
mean_deg = 2.0
sin_deg = -3.0
"""

TWO_BLADES = """
[rotor]
radius_m = 1.0
chord_m = 0.3
rpm = 60.0
n_blades = 3
hinge = [0.1, 0.0, 0.0]

[pitch]
mean_deg = 6.0
cos_deg = 4.0

[flap]
mean_deg = 2.0
sin_deg = -3.0

[leadlag]
mean_deg = 1.0
cos_deg = [1.5, 0.5]

[rbf]
support_radius_chords = 2.5
greedy_tol_m = 1e-5
fixed_markers = ["farfield"]
"""


@pytest.fixture(scope="module")
def small_mesh():
    return box_with_plate_mesh(n=8, plate_x=(0.3, 0.9),
                               plate_y=(-0.3, 0.3), plate_z=(-0.1, 0.1))


def test_rigid_rotation_only_quality_constant(small_mesh):
    cfg = parse_motion_config(STILL_ROTOR)
    results = list(run_deformation(small_mesh, cfg, ["blade"],
                                   steps_per_rev=8, revolutions=1.0))
    assert len(results) == 9
    q = [r.quality.min_orthogonality_deg for r in results]
    assert np.ptp(q) < 1e-9
    # zero hinge motion: rotor-frame geometry is bitwise untouched, so the
    # lab-frame output is exactly the rigidly rotated input
    for r in results:
        expected = small_mesh.points @ azimuth_matrix(r.psi).T
        assert np.allclose(r.points, expected, atol=1e-12)


def test_velocity_schemes_and_rigid_speed(small_mesh):
    cfg = parse_motion_config(STILL_ROTOR)
    results = list(run_deformation(small_mesh, cfg, ["blade"],
                                   steps_per_rev=72, revolutions=0.1))
    assert results[0].velocity_scheme == "zero"
    assert results[1].velocity_scheme == "backward1"
    assert all(r.velocity_scheme == "bdf2" for r in results[2:])
    omega = np.array([0.0, 0.0, cfg.omega])
    r = results[-1]
    expected = np.cross(omega, r.points)
    scale = np.abs(expected).max()
    assert np.abs(r.grid_velocity - expected).max() < 1e-2 * scale


def test_pitching_deforms_and_recovers(small_mesh):
    cfg = parse_motion_config(PITCHING)
    results = list(run_deformation(small_mesh, cfg, ["blade"],
                                   steps_per_rev=4, revolutions=1.0))
    idx, _ = extract_marker_points(small_mesh, "blade")
    # step 0 applies the 10 degree collective: blade moved off its as-built
    # position, far field pinned
    moved = np.abs(results[0].points[idx] - small_mesh.points[idx]).max()
    assert moved > 0.01
    far_idx, _ = extract_marker_points(small_mesh, "farfield")
    far = results[0].points[far_idx] - small_mesh.points[far_idx]
    assert np.abs(far).max() < 1e-5
    assert all(r.quality.negative_volume_count == 0 for r in results)


def test_unknown_marker_rejected(small_mesh):
    cfg = parse_motion_config(STILL_ROTOR)
    with pytest.raises(KeyError, match="wing"):
        list(run_deformation(small_mesh, cfg, ["wing"], steps_per_rev=4,
                             revolutions=0.0))


def test_missing_rbf_section_rejected(small_mesh):
    cfg = parse_motion_config("[rotor]\nradius_m = 1.0\nrpm = 60.0\n")
    with pytest.raises(ValueError, match="rbf"):
        list(run_deformation(small_mesh, cfg, ["blade"], steps_per_rev=4,
                             revolutions=0.0))


@pytest.mark.parametrize("markers,message", [
    (["blade", "blade"], "'blade' is listed twice"),
    (["blade", "farfield"], "'farfield' is also a fixed marker"),
])
def test_bad_blade_marker_list_rejected_on_call(small_mesh, markers, message):
    """Rejected when called, before a step runs: a repeated marker would
    leave only its last azimuth offset, a fixed one conflicting targets."""
    cfg = parse_motion_config(STILL_ROTOR)
    with pytest.raises(ValueError, match=message):
        run_deformation(small_mesh, cfg, markers, steps_per_rev=4,
                        revolutions=0.0)


def test_negative_volume_aborts():
    # violent pitch of a plate filling most of a tight box inverts cells
    mesh = box_with_plate_mesh(n=6, half=0.6, plate_x=(-0.4, 0.4),
                               plate_y=(-0.4, 0.4), plate_z=(-0.1, 0.1))
    cfg = parse_motion_config(STILL_ROTOR + "[pitch]\nmean_deg = 80.0\n")
    with pytest.raises(DeformationFailure) as err:
        list(run_deformation(mesh, cfg, ["blade"], steps_per_rev=4,
                             revolutions=1.0))
    assert err.value.last_good == err.value.step - 1
    assert err.value.report.negative_volume_count > 0


def test_face_table_built_once_per_sweep(monkeypatch):
    built = []
    build = geometry.build_topology
    monkeypatch.setattr(geometry, "build_topology",
                        lambda mesh: built.append(mesh) or build(mesh))
    mesh = box_with_plate_mesh(n=8, plate_x=(0.3, 0.9),
                               plate_y=(-0.3, 0.3), plate_z=(-0.1, 0.1))
    results = list(run_deformation(mesh, parse_motion_config(PITCHING),
                                   ["blade"], steps_per_rev=2,
                                   revolutions=1.0))
    assert len(results) == 3
    assert len(built) == 1


def test_later_revolutions_replay_the_first(small_mesh):
    """Every step deforms the as-built mesh, so the grid is periodic: each
    rotating-frame state of revolutions 2 and 3 is the one of revolution
    1, and the lab-frame grid returns to its earlier state."""
    cfg = parse_motion_config(FLAPPING)
    n = 6
    results = list(run_deformation(small_mesh, cfg, ["blade"],
                                   steps_per_rev=n, revolutions=3.0))
    assert len(results) == 3 * n + 1
    assert np.abs(results[1].rotor_points - small_mesh.points).max() > 0.01
    size = np.ptp(small_mesh.points, axis=0).max()
    for r in results[n:]:
        first = results[r.step % n]
        assert np.array_equal(r.rotor_points, first.rotor_points)
        assert r.history == first.history
        assert r.quality.min_orthogonality_deg == \
            first.quality.min_orthogonality_deg
        assert r.surface_max_err == first.surface_max_err
        assert np.abs(r.points - first.points).max() <= 1e-10 * size
    assert [r.velocity_scheme for r in results[:3]] == \
        ["zero", "backward1", "bdf2"]
    # a full revolution after step 2 the BDF2 velocity repeats too
    scale = np.abs(results[2].grid_velocity).max()
    assert np.abs(results[n + 2].grid_velocity -
                  results[2].grid_velocity).max() <= 1e-9 * scale


def test_hb_velocity_matches_fine_step_bdf2(small_mesh):
    """Oracle for the periodic grid: the harmonic-balance derivative of the
    positions at the 2K + 1 instances of one revolution matches the BDF2
    grid velocity of fine-step sweeps at the same azimuths. Richardson
    extrapolation of two step sizes cancels BDF2's dt^2 error, so what is
    left is the smaller O(dt^3) term plus the HB truncation."""
    cfg = parse_motion_config(FLAPPING)
    k = 3
    n = 2 * k + 1
    coarse = list(run_deformation(small_mesh, cfg, ["blade"],
                                  steps_per_rev=n, revolutions=1.0))
    positions = np.stack([r.points for r in coarse[:n]])
    op = hb.build_operator(hb.FrequencySet.harmonics(cfg.omega, k))
    assert np.allclose(op.instances, [r.time for r in coarse[:n]],
                       rtol=0.0, atol=1e-12)
    spectral = hb.apply(op, positions)
    scale = np.abs(spectral).max()
    size = np.ptp(small_mesh.points, axis=0).max()

    bdf2 = {}
    for m in (4, 8):
        # the second revolution, whose BDF2 history is past its start-up
        fine = list(run_deformation(small_mesh, cfg, ["blade"],
                                    steps_per_rev=n * m, revolutions=2.0))
        at = [fine[n * m + j * m] for j in range(n)]
        assert all(r.velocity_scheme == "bdf2" for r in at)
        # the same azimuth gives the same grid, whatever the step size
        assert np.abs(np.stack([r.points for r in at]) -
                      positions).max() <= 1e-10 * size
        bdf2[m] = np.stack([r.grid_velocity for r in at])
    err = {m: np.abs(v - spectral).max() / scale for m, v in bdf2.items()}
    assert err[8] < 0.3 * err[4]        # second order: about a quarter
    extrapolated = (4.0 * bdf2[8] - bdf2[4]) / 3.0
    assert np.abs(extrapolated - spectral).max() < 1e-3 * scale


def test_two_blades_follow_their_rigid_hinge_motion():
    """Cyclic flap, lead-lag and pitch on two of three blades, a third of a
    turn apart (the second plate is not the first one turned; its as-built
    shape is its own zero-angle geometry): at every step each blade point is within greedy_tol of
    kinematics.blade_point at its blade's azimuth offset, surface_max_err
    is the error measured on the blades and the far field, and the grid
    is back in its step-0 state after three revolutions."""
    plate = ((0.3, 0.9), (-0.15, 0.15), (-0.05, 0.05))
    mesh = box_with_plates_mesh(8, 1.2, {
        "blade_a": plate,
        "blade_b": ((-0.9, -0.3), (-0.15, 0.15), (-0.05, 0.05))})
    cfg = parse_motion_config(TWO_BLADES)
    n = 5
    results = list(run_deformation(mesh, cfg, ["blade_a", "blade_b"],
                                   steps_per_rev=n, revolutions=3.0))
    assert len(results) == 3 * n + 1
    assert results[0].history.converged
    tol = cfg.rbf.greedy_tol
    blades = []
    for offset, name in ((0.0, "blade_a"), (2 * np.pi / 3, "blade_b")):
        idx, coords = extract_marker_points(mesh, name)
        motion = BladeMotion(cfg.flap, cfg.leadlag, cfg.pitch,
                             hinge=cfg.hinge, rotation_rate=cfg.omega,
                             azimuth_offset=offset)
        blades.append((idx, coords @ azimuth_matrix(offset), motion))
    far, far_coords = extract_marker_points(mesh, "farfield")
    for r in results:
        blade_err = max(np.linalg.norm(
            r.points[idx] - blade_point(reference, motion, r.time)[0],
            axis=1).max() for idx, reference, motion in blades)
        assert blade_err <= tol
        far_err = np.linalg.norm(
            r.points[far] - far_coords @ azimuth_matrix(r.psi).T,
            axis=1).max()
        assert r.surface_max_err == pytest.approx(max(blade_err, far_err),
                                                  rel=0.0, abs=1e-12)
    # both blades moved well beyond the tolerance
    assert all(np.abs(results[1].rotor_points[idx] - mesh.points[idx]).max()
               > 0.01 for idx, _, _ in blades)
    size = np.ptp(mesh.points, axis=0).max()
    assert np.abs(results[-1].points - results[0].points).max() <= \
        1e-10 * size
    assert all(r.quality.negative_volume_count == 0 for r in results)
