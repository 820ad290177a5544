"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (visible with pytest -s). Criterion 9 builds a ~50k-cell
mesh and runs a full revolution; everything else is fast.
"""

import time
from contextlib import contextmanager

import numpy as np

from meshgen import (SQUARE_2TRI, box_hex_mesh, box_with_plate_mesh,
                     same_markers, stacked_interface_mesh)

from rotormesh.cli import main
from rotormesh.config import load_fixture
from rotormesh.driver import run_deformation
from rotormesh.hb import FrequencySet, apply, build_operator
from rotormesh.kinematics import (flap_matrix, grid_velocity_bdf2,
                                  hinge_matrix, leadlag_matrix, pitch_matrix,
                                  rotating_frame_velocity, rpm_to_rad_s)
from rotormesh.mesh import extract_marker_points, parse_mesh, write_mesh
from rotormesh.rbf import (RbfKernel, evaluate_field, greedy_select,
                           solve_weights)
from rotormesh.supermesh import InterfaceFaceSet, build_supermesh


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description} "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def test_criterion_01_kinematics_sweep(tmp_path):
    with criterion(1, "pitch sweep matches series evaluation", 1.0):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "ah1g_low_speed", "--stations", "1.0",
                     "--steps", "4", "--output", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        theta = {float(r.split(",")[0]): float(r.split(",")[4])
                 for r in rows}
        assert abs(theta[0.0] - 17.2) < 1e-9
        assert abs(theta[90.0] - 10.0) < 1e-9
        assert abs(theta[180.0] - 6.2) < 1e-9


def test_criterion_02_composite_matrix():
    def printed_composite(b, d, t):
        cb, sb = np.cos(b), np.sin(b)
        cd, sd = np.cos(d), np.sin(d)
        ct, st = np.cos(t), np.sin(t)
        return np.array([
            [cb * cd, sb * st - cb * ct * sd, ct * sb + cb * sd * st],
            [sd, cd * ct, -cd * st],
            [-cd * sb, cb * st + ct * sb * sd, cb * ct - sb * sd * st]])

    with criterion(2, "hinge matrix equals factor product and composite",
                   1.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            b, d, t = rng.uniform(-np.pi, np.pi, 3)
            h = hinge_matrix(b, d, t)
            product = flap_matrix(b) @ leadlag_matrix(d) @ pitch_matrix(t)
            assert np.abs(h - product).max() <= 1e-13
            assert np.abs(h - printed_composite(b, d, t)).max() <= 1e-13


def test_criterion_03_tip_speed():
    with criterion(3, "rotating-frame tip speed and tip Mach", 1.0):
        omega = np.array([0.0, 0.0, rpm_to_rad_s(1250.0)])
        u = rotating_frame_velocity(omega, np.array([1.143, 0.0, 0.0]))
        speed = float(np.linalg.norm(u))
        assert abs(speed - 149.62) < 5e-3
        assert abs(speed / 340.8 - 0.439) < 2e-3


def test_criterion_04_rbf_interpolation():
    with criterion(4, "RBF interpolation residual and affine translation",
                   30.0):
        rng = np.random.default_rng(404)
        kernel = RbfKernel("wendland_c2", support_radius=1.0)
        for _ in range(50):
            n = int(rng.integers(10, 201))
            centers = rng.uniform(size=(n, 3))
            disp = 0.1 * rng.normal(size=(n, 3))
            sol = solve_weights(centers, disp, kernel)
            residual = np.abs(evaluate_field(sol, centers) - disp).max()
            assert residual < 1e-9 * (1.0 + np.abs(disp).max())

        centers = rng.uniform(size=(120, 3))
        u = np.array([0.4, -0.3, 0.25])
        sol = solve_weights(centers, np.tile(u, (120, 1)), kernel,
                            with_affine=True)
        targets = rng.uniform(-1.0, 2.0, size=(500, 3))
        assert np.abs(evaluate_field(sol, targets) - u).max() < 1e-9


def test_criterion_05_greedy_reduction():
    with criterion(5, "greedy control-point reduction on sinusoidal field",
                   60.0):
        n = 20
        xs, ys = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(n * n)])
        disp = np.zeros_like(pts)
        disp[:, 2] = 0.01 * np.sin(np.pi * pts[:, 0])
        kernel = RbfKernel("wendland_c2", support_radius=2.0)

        # oracle: the dense all-point interpolation reproduces the data
        dense = solve_weights(pts, disp, kernel)
        assert np.abs(evaluate_field(dense, pts) - disp).max() < 1e-9

        sol, hist = greedy_select(pts, disp, kernel, tol=1e-4)
        assert hist.converged and hist.final_max_err < 1e-4
        assert hist.selected_points < 0.25 * len(pts)
        errs = [lv.max_err for lv in hist.levels]
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_criterion_06_supermesh_conservation():
    with criterion(6, "supermesh conservation on the 4x4/5x5 fixture", 10.0):
        def faces(n):
            xs = np.linspace(0.0, 1.0, n + 1)
            return tuple(
                np.array([[xs[i], xs[j]], [xs[i + 1], xs[j]],
                          [xs[i + 1], xs[j + 1]], [xs[i], xs[j + 1]]])
                for j in range(n) for i in range(n))

        fa, fb = faces(4), faces(5)
        sm = build_supermesh(InterfaceFaceSet("A", fa),
                             InterfaceFaceSet("B", fb))
        assert np.abs(sm.weight_sums() - 1.0).max() < 1e-9
        assert abs(sm.total_area - 1.0) < 1e-9

        # Monte-Carlo oracle over an enclosing box: the area covered by
        # (union A) & (union B) must agree with the supermesh within 3 sigma
        rng = np.random.default_rng(606)
        n_samples = 10 ** 6
        lo, hi = -0.25, 1.25
        samples = rng.uniform(lo, hi, size=(n_samples, 2))

        def covered(face_list):
            hit = np.zeros(n_samples, dtype=bool)
            for f in face_list:
                hit |= ((samples[:, 0] >= f[:, 0].min())
                        & (samples[:, 0] <= f[:, 0].max())
                        & (samples[:, 1] >= f[:, 1].min())
                        & (samples[:, 1] <= f[:, 1].max()))
            return hit

        p = float((covered(fa) & covered(fb)).mean())
        box = (hi - lo) ** 2
        sigma = box * np.sqrt(p * (1 - p) / n_samples)
        assert abs(p * box - sm.total_area) <= 3.0 * sigma


def test_criterion_07_hb_spectral_exactness():
    with criterion(7, "spectral operator exact on resolved tones", 1.0):
        for n_harm in (1, 2):
            w1 = 2.0 * np.pi
            fs = FrequencySet.harmonics(w1, n_harm)
            op = build_operator(fs)
            h = op.matrix
            assert np.abs(h.sum(axis=1)).max() < 1e-12 * np.abs(h).max()
            t = op.instances
            w_max = n_harm * w1
            for w in fs.positive:
                for sig, dsig in ((np.sin(w * t), w * np.cos(w * t)),
                                  (np.cos(w * t), -w * np.sin(w * t))):
                    err = np.abs(apply(op, sig) - dsig).max()
                    assert err < 1e-10 * w_max


def test_criterion_08_grid_velocity_order():
    with criterion(8, "grid velocity second-order convergence", 1.0):
        errors = []
        for dt in (0.1, 0.05, 0.025):
            t = np.arange(2 * dt, 6.0, dt)
            approx = grid_velocity_bdf2(np.sin(t), np.sin(t - dt),
                                        np.sin(t - 2 * dt), dt)
            errors.append(np.abs(approx - np.cos(t)).max())
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

        for coeffs in ((0.7,), (0.3, -1.1), (2.0, 0.5, -0.25)):
            poly = np.polynomial.Polynomial(coeffs)
            dpoly = poly.deriv()
            dt, t = 0.2, 1.4
            approx = grid_velocity_bdf2(
                np.array([poly(t)]), np.array([poly(t - dt)]),
                np.array([poly(t - 2 * dt)]), dt)
            assert abs(approx[0] - dpoly(t)) < 1e-12


def test_criterion_09_end_to_end_deformation():
    with criterion(9, "one-revolution deformation cycle on ~50k cells",
                   600.0):
        mesh = box_with_plate_mesh(n=36, plate_x=(0.4, 1.0),
                                   plate_y=(-0.35, 0.35),
                                   plate_z=(-0.05, 0.05))
        assert 40_000 < mesh.n_elements < 60_000
        cfg = load_fixture("ah1g_low_speed")
        results = list(run_deformation(mesh, cfg, ["blade"],
                                       steps_per_rev=36, revolutions=1.0))
        assert len(results) == 37
        assert all(r.quality.negative_volume_count == 0 for r in results)

        idx, _ = extract_marker_points(mesh, "blade")
        drift = np.abs(results[-1].points[idx] - results[0].points[idx]).max()
        assert drift < 2.0 * cfg.rbf.greedy_tol

        q0 = results[0].quality.min_orthogonality_deg
        worst = min(r.quality.min_orthogonality_deg for r in results)
        assert q0 - worst < 1.0


def test_criterion_10_roundtrip_io():
    with criterion(10, "parse/write/parse round trip on fixture meshes", 5.0):
        fixtures = [
            parse_mesh(SQUARE_2TRI),
            box_hex_mesh(4, 3, 2, hi=(2.0, 1.5, 1.0)),
            box_with_plate_mesh(n=8, plate_x=(0.3, 0.9),
                                plate_y=(-0.3, 0.3), plate_z=(-0.1, 0.1)),
            stacked_interface_mesh(4, 5),
        ]
        for mesh in fixtures:
            again = parse_mesh(write_mesh(mesh))
            assert again.dim == mesh.dim
            assert again.n_points == mesh.n_points
            assert list(again.cells) == list(mesh.cells)
            for kind, (conn, rows) in mesh.cells.items():
                assert np.array_equal(again.cells[kind][0], conn)
                assert np.array_equal(again.cells[kind][1], rows)
            assert same_markers(again, mesh)
            scale = np.abs(mesh.points).max()
            assert np.abs(again.points - mesh.points).max() <= \
                1e-12 * max(scale, 1.0)
