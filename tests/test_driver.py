from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshgen import box_with_plate_mesh, box_with_plates_mesh

from rotormesh import driver, geometry, hb
from rotormesh.config import parse_motion_config
from rotormesh.driver import DeformationFailure, run_deformation
from rotormesh.kinematics import (MotionSeries, azimuth_matrix, blade_point,
                                  eval_series, hinge_matrix)
from rotormesh.mesh import Mesh, extract_marker_points

STILL_ROTOR = """
[rotor]
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
    cfg = parse_motion_config("[rotor]\nrpm = 60.0\n")
    with pytest.raises(ValueError, match="rbf"):
        list(run_deformation(small_mesh, cfg, ["blade"], steps_per_rev=4,
                             revolutions=0.0))


@pytest.mark.parametrize("markers,message", [
    (["blade", "blade"], "'blade' is listed twice"),
    (["blade", "farfield"], "'farfield' is also a fixed marker"),
    ([], "at least one blade marker required"),
])
def test_bad_blade_marker_list_rejected_on_call(small_mesh, markers, message):
    """Rejected when called, before a step runs: a repeated marker would
    leave only its last azimuth offset, a fixed one conflicting targets,
    and no marker nothing to move."""
    cfg = parse_motion_config(STILL_ROTOR)
    with pytest.raises(ValueError, match=message):
        run_deformation(small_mesh, cfg, markers, steps_per_rev=4,
                        revolutions=0.0)


@pytest.mark.parametrize("revolutions", [np.nan, np.inf, -1.0])
def test_non_finite_or_negative_revolutions_rejected_on_call(small_mesh,
                                                             revolutions):
    """Rejected when called, before the basis is built: a NaN or infinite
    count has no last step."""
    cfg = parse_motion_config(STILL_ROTOR)
    with pytest.raises(ValueError, match="revolutions must be finite"):
        run_deformation(small_mesh, cfg, ["blade"], steps_per_rev=4,
                        revolutions=revolutions)


@pytest.mark.parametrize("steps_per_rev,revolutions", [
    (8, 1e308), (2, 1e308), (10**6, 1e303),
    pytest.param(10**400, 1.0, id="10**400-1.0"),
    pytest.param(10**400, 0.0, id="10**400-0.0")])
def test_infinite_step_count_rejected_on_call(small_mesh, steps_per_rev,
                                              revolutions):
    """Finite revolutions whose step count overflows to infinity have no
    last step either, nor does a steps_per_rev no float holds, whose
    product with a float raises OverflowError: a ValueError when called,
    before the basis is built."""
    cfg = parse_motion_config(STILL_ROTOR)
    with pytest.raises(ValueError, match="is not a finite step count"):
        run_deformation(small_mesh, cfg, ["blade"],
                        steps_per_rev=steps_per_rev, revolutions=revolutions)


@pytest.mark.parametrize("steps_per_rev,message", [
    (0, "steps_per_rev must be >= 1"),
    (10**20, "steps_per_rev 100000000000000000000 is too many: "),
    (10**18, "steps_per_rev 1000000000000000000 is too many: ")])
def test_step_count_without_a_phase_table_rejected_on_call(
        small_mesh, steps_per_rev, message):
    """No phase at all, or more phases than numpy can size (10**20) or
    allocate (10**18; both refused without allocating): a ValueError when
    called, before the basis is built."""
    cfg = parse_motion_config(STILL_ROTOR)
    with pytest.raises(ValueError, match=f"^{message}"):
        run_deformation(small_mesh, cfg, ["blade"],
                        steps_per_rev=steps_per_rev, revolutions=0.0)


def with_first_face(mesh, name, of):
    """mesh plus a marker name: the first face of its marker of."""
    kind, (conn, _) = next(iter(mesh.markers[of].items()))
    return Mesh(mesh.dim, mesh.points, mesh.cells,
                {**mesh.markers, name: {kind: (conn[:1], [0])}})


@pytest.mark.parametrize("markers,fixed,message", [
    (["blade"], ["farfield", "hub"], "blade marker 'blade' shares 4 points "
                                     "with fixed marker 'hub'"),
    (["blade", "hub"], ["farfield"], "blade marker 'blade' shares 4 points "
                                     "with blade marker 'hub'"),
])
def test_blade_marker_sharing_points_rejected_on_call(small_mesh, markers,
                                                      fixed, message):
    """A blade marker's points move with it alone: one shared with another
    blade or a fixed marker would get two targets, so the call fails
    before any step runs."""
    cfg = replace(parse_motion_config(STILL_ROTOR), n_blades=2,
                  fixed_markers=fixed)
    mesh = with_first_face(small_mesh, "hub", "blade")
    with pytest.raises(ValueError, match=message):
        run_deformation(mesh, cfg, markers, steps_per_rev=4, revolutions=0.0)


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


@pytest.mark.parametrize("text,reports", [(PITCHING, 1), (FLAPPING, 8)],
                         ids=["hover", "cyclic"])
def test_quality_report_once_per_distinct_motion(small_mesh, monkeypatch,
                                                 text, reports):
    """Quality is checked once per distinct rotating-frame motion: a hover
    (collective pitch alone) moves the blade alike at every phase, so one
    report serves the whole run; cyclic pitch and flap need one per phase."""
    calls = []
    metrics = driver.orthogonality_metrics
    monkeypatch.setattr(driver, "orthogonality_metrics",
                        lambda mesh: calls.append(mesh) or metrics(mesh))
    results = list(run_deformation(small_mesh, parse_motion_config(text),
                                   ["blade"], steps_per_rev=8,
                                   revolutions=2.0))
    assert len(results) == 17
    assert len(calls) == reports
    if reports == 1:  # the one report holds for every step's grid
        assert all(np.array_equal(r.rotor_points, results[0].rotor_points)
                   for r in results)


@pytest.mark.parametrize("steps_per_rev,revolutions",
                         [(1, 0.0), (4, 2.5), (7, 1.0)])
def test_kinematics_evaluated_once_per_run(small_mesh, monkeypatch,
                                           steps_per_rev, revolutions):
    """The hinge motion of every phase of revolution 1 is one table, built
    before the basis: one eval_series call per motion law and one
    hinge_matrix call, whatever the number of steps."""
    calls = []
    for name in ("eval_series", "hinge_matrix", "deform_mesh"):
        def logged(*args, name=name, fn=getattr(driver, name), **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(driver, name, logged)
    results = list(run_deformation(small_mesh, parse_motion_config(FLAPPING),
                                   ["blade"], steps_per_rev=steps_per_rev,
                                   revolutions=revolutions))
    assert len(results) == round(steps_per_rev * revolutions) + 1
    assert calls == ["eval_series"] * 3 + ["hinge_matrix", "deform_mesh"]


def test_later_revolutions_replay_the_first(small_mesh):
    """Every step deforms the as-built mesh and turns it by its azimuth
    within revolution 1, so the grid is periodic bit for bit: each
    rotating-frame and lab-frame state of revolutions 2 and 3 is the one of
    revolution 1, and each BDF2 velocity that of the earlier BDF2 steps at
    its phase."""
    cfg = parse_motion_config(FLAPPING)
    n = 6
    results = list(run_deformation(small_mesh, cfg, ["blade"],
                                   steps_per_rev=n, revolutions=3.0))
    assert len(results) == 3 * n + 1
    assert np.abs(results[1].rotor_points - small_mesh.points).max() > 0.01
    for r in results[n:]:
        first = results[r.step % n]
        assert np.array_equal(r.rotor_points, first.rotor_points)
        # revolution 1's quality check leaves its points as writeable
        assert r.rotor_points.flags.writeable and \
            first.rotor_points.flags.writeable
        assert np.array_equal(r.points, first.points)
        assert r.history == first.history
        assert r.quality.min_orthogonality_deg == \
            first.quality.min_orthogonality_deg
        assert r.surface_max_err == first.surface_max_err
        assert r.psi == pytest.approx(2.0 * np.pi * r.step / n)
    assert [r.velocity_scheme for r in results[:3]] == \
        ["zero", "backward1", "bdf2"]
    assert np.abs(results[2].grid_velocity).max() > 0.01
    for r in results[n + 2:]:
        first = results[2 + (r.step - 2) % n]  # the first BDF2 step there
        assert r.velocity_scheme == "bdf2"
        assert np.array_equal(r.grid_velocity, first.grid_velocity)


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
    for b, name in enumerate(("blade_a", "blade_b")):
        idx, coords = extract_marker_points(mesh, name)
        blades.append((b, idx, coords @ azimuth_matrix(2 * np.pi * b / 3)))
    far, far_coords = extract_marker_points(mesh, "farfield")
    for r in results:
        blade_err = max(np.linalg.norm(
            r.points[idx] - blade_point(reference, cfg, r.time, b)[0],
            axis=1).max() for b, idx, reference in blades)
        assert blade_err <= tol
        far_err = np.linalg.norm(
            r.points[far] - far_coords @ azimuth_matrix(r.psi).T,
            axis=1).max()
        assert r.surface_max_err == pytest.approx(max(blade_err, far_err),
                                                  rel=0.0, abs=1e-12)
    # both blades moved well beyond the tolerance
    assert all(np.abs(results[1].rotor_points[idx] - mesh.points[idx]).max()
               > 0.01 for _, idx, _ in blades)
    assert np.array_equal(results[-1].points, results[0].points)
    assert all(r.quality.negative_volume_count == 0 for r in results)


PLATES = {"blade_a": ((0.3, 0.9), (-0.15, 0.15), (-0.05, 0.05)),
          "blade_b": ((-0.9, -0.3), (-0.15, 0.15), (-0.05, 0.05)),
          "blade_c": ((-0.15, 0.15), (0.3, 0.9), (-0.05, 0.05))}
# "corner" is one face of "farfield": fixed markers may share points
PLATES_MESH = with_first_face(box_with_plates_mesh(6, 1.2, PLATES),
                              "corner", "farfield")
PLATES_POINTS = {name: extract_marker_points(PLATES_MESH, name)
                 for name in PLATES}


def test_more_blade_markers_than_blades_rejected_on_call():
    """Marker i sits at azimuth 2 pi i / n_blades, so a second marker on a
    one-bladed rotor would move at the first one's azimuth."""
    cfg = parse_motion_config(STILL_ROTOR)
    with pytest.raises(ValueError,
                       match="2 blade markers for a rotor of n_blades = 1"):
        run_deformation(PLATES_MESH, cfg, ["blade_a", "blade_b"],
                        steps_per_rev=4, revolutions=0.0)

ANGLE = st.floats(-15.0, 15.0).map(np.radians).map(float)
SERIES = st.builds(MotionSeries, ANGLE,
                   st.lists(ANGLE, max_size=2).map(tuple),
                   st.lists(ANGLE, max_size=2).map(tuple))


@st.composite
def rotor_configs(draw):
    """1-3 blades, blade markers on the first 1-3 of them, a hinge offset,
    flap, lead-lag and pitch laws of up to two harmonics, and fixed
    markers that may overlap."""
    n_blades = draw(st.integers(1, 3))
    markers = draw(st.permutations(list(PLATES)))[
        :draw(st.integers(1, n_blades))]
    cfg = replace(parse_motion_config(STILL_ROTOR), n_blades=n_blades,
                  hinge=(draw(st.floats(0.0, 0.25)), 0.0, 0.0),
                  flap=draw(SERIES), leadlag=draw(SERIES),
                  pitch=draw(SERIES), fixed_markers=draw(st.sampled_from(
                      [("farfield",), ("farfield", "corner")])))
    return cfg, markers


# one example is a whole run, so a fifth of the profile's examples
@pytest.mark.thorough
@settings(max_examples=max(10, settings.default.max_examples // 5),
          deadline=None)
@given(case=rotor_configs(), steps_per_rev=st.integers(3, 12))
def test_any_motion_keeps_the_surface_and_the_period(case, steps_per_rev):
    """At every step of two revolutions: the surface error is within
    greedy_tol, every blade point is within greedy_tol of blade_point at
    its blade's azimuth offset, and the state of revolution 2 is that of
    revolution 1 bit for bit, the grid velocity by phase and scheme. A
    motion that inverts cells stops at the first step that does."""
    cfg, markers = case
    n = steps_per_rev
    tol = cfg.rbf.greedy_tol
    results = []
    try:
        for r in run_deformation(PLATES_MESH, cfg, markers,
                                 steps_per_rev=n, revolutions=2.0):
            results.append(r)
    except DeformationFailure as exc:
        # revolution 1 checks each phase once; later ones replay it
        assert exc.step == len(results) < n
        assert exc.last_good == exc.step - 1
        assert exc.report.negative_volume_count > 0
    assert all(r.quality.negative_volume_count == 0 for r in results)
    if results:
        assert results[0].history.converged
    seen = {}
    for r in results:
        assert r.surface_max_err <= tol
        for b, name in enumerate(markers):
            idx, coords = PLATES_POINTS[name]
            offset = 2.0 * np.pi * b / cfg.n_blades
            target = blade_point(coords @ azimuth_matrix(offset), cfg,
                                 r.time, b)[0]
            assert np.linalg.norm(r.points[idx] - target, axis=1).max() \
                <= tol
        first = results[r.step % n]
        assert np.array_equal(r.rotor_points, first.rotor_points)
        assert np.array_equal(r.points, first.points)
        first = seen.setdefault((r.step % n, r.velocity_scheme), r)
        assert np.array_equal(r.grid_velocity, first.grid_velocity)


@pytest.mark.thorough
@settings(max_examples=max(10, settings.default.max_examples // 5),
          deadline=None)
@given(case=rotor_configs(), steps_per_rev=st.integers(3, 12))
def test_any_motion_solves_the_basis_at_its_largest_hinge_motion(
        case, steps_per_rev):
    """Each basis field is solved on its blade's rigid displacement times
    n_blades times the largest ||A_b||_2 = ||C_b - I||_2 over the run's
    phases. That scale never exceeds the bound the config alone gives,
    n_blades min(2, sum of |mean| + |s_k| + |c_k|), and every step's
    surface error stays within greedy_tol."""
    cfg, markers = case
    n = steps_per_rev
    dt = cfg.revolution_period / n
    offsets = 2.0 * np.pi * np.arange(len(markers)) / cfg.n_blades
    largest = max(
        np.linalg.norm(hinge_matrix(*(
            eval_series(s, cfg.omega * (j * dt) + offset)
            for s in (cfg.flap, cfg.leadlag, cfg.pitch))) - np.eye(3), 2)
        for j in range(n) for offset in offsets)
    scale = len(markers) * largest
    bound = sum(abs(s.mean) + sum(map(abs, s.sine_coeffs))
                + sum(map(abs, s.cosine_coeffs))
                for s in (cfg.flap, cfg.leadlag, cfg.pitch))
    assert scale <= len(markers) * min(2.0, bound) * (1.0 + 1e-12)

    surface = np.unique(np.concatenate(
        [extract_marker_points(PLATES_MESH, name)[0]
         for name in (*markers, *cfg.fixed_markers)]))
    results = []
    with mock.patch.object(driver, "deform_mesh",
                           wraps=driver.deform_mesh) as solve:
        try:
            for r in run_deformation(PLATES_MESH, cfg, markers,
                                     steps_per_rev=n, revolutions=1.0):
                results.append(r)
        except DeformationFailure:
            pass
    assert solve.call_count == len(markers)
    for b, (name, call) in enumerate(zip(markers, solve.call_args_list)):
        idx, coords = PLATES_POINTS[name]
        rigid = np.zeros((len(surface), 3))
        rigid[np.searchsorted(surface, idx)] = \
            coords - azimuth_matrix(offsets[b]) @ cfg.hinge
        mesh, where, displacement = call.args
        assert mesh is PLATES_MESH
        assert np.array_equal(where, surface)
        np.testing.assert_allclose(displacement, scale * rigid,
                                   rtol=1e-12, atol=1e-15)
    assert all(r.surface_max_err <= cfg.rbf.greedy_tol for r in results)
