import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from meshgen import shell_mesh

import rotormesh.rbf as rbf
from rotormesh.mesh import extract_marker_points
from rotormesh.rbf import (RbfConfig, RbfKernel, RbfSolution, RbfSystemError,
                           deform_mesh, evaluate_field, greedy_select,
                           kernel_eval, solve_weights)

WENDLAND = RbfKernel("wendland_c2", support_radius=1.0)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_wendland_endpoint_values():
    assert kernel_eval(WENDLAND, 0.0) == 1.0
    assert kernel_eval(WENDLAND, 1.0) == 0.0
    assert kernel_eval(WENDLAND, 2.3) == 0.0


def test_wendland_matches_dense_expression():
    """Evaluating only inside the support gives, bit for bit, the dense
    expression that computes the polynomial everywhere and masks it."""
    rho = 1.7
    k = RbfKernel("wendland_c2", rho)
    d = np.array([0.0, np.nextafter(rho, 0.0), rho, np.nextafter(rho, 4.0),
                  2.5, 1e-9, 0.3, 1.2, 1.69, 40.0])
    d = np.concatenate([d, np.random.default_rng(5).uniform(0.0, 2.5, 996)])

    def dense(d):
        q = np.asarray(d, dtype=float) / rho
        return np.where(q < 1.0, (1.0 - q) ** 4 * (4.0 * q + 1.0), 0.0)

    assert kernel_eval(k, d).tobytes() == dense(d).tobytes()
    assert kernel_eval(k, d.reshape(2, -1)).tobytes() == \
        dense(d.reshape(2, -1)).tobytes()
    for x in d[:10]:
        got = kernel_eval(k, x)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == dense(x).tobytes()


def test_wendland_formula_interior():
    rho = 2.0
    k = RbfKernel("wendland_c2", rho)
    d = 0.6
    q = d / rho
    assert kernel_eval(k, d) == pytest.approx((1 - q) ** 4 * (4 * q + 1))


def test_gaussian_values():
    k = RbfKernel("gaussian", support_radius=0.5)
    assert kernel_eval(k, 0.0) == 1.0
    assert kernel_eval(k, 0.5) == pytest.approx(np.exp(-1.0))


def test_multiquadrics():
    imq = RbfKernel("inverse_multiquadric", support_radius=1.0)
    assert kernel_eval(imq, 1.0) == pytest.approx(1.0 / np.sqrt(2.0))


def test_kernel_requires_radius():
    with pytest.raises(TypeError, match="support_radius"):
        RbfKernel("wendland_c2")
    with pytest.raises(ValueError, match="support_radius"):
        RbfKernel("gaussian", support_radius=-1.0)
    with pytest.raises(ValueError, match="^kind must be one of"):
        RbfKernel("cubic", support_radius=1.0)
    for radius in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match=r"^support_radius must be a "
                           f"finite positive number, got {radius!r}$"):
            RbfKernel("inverse_multiquadric", support_radius=radius)


def test_kernel_negative_distance():
    with pytest.raises(ValueError, match="non-negative"):
        kernel_eval(WENDLAND, -0.5)


# ---------------------------------------------------------------------------
# Dense solve / evaluate
# ---------------------------------------------------------------------------

def test_single_center_unit_weight():
    sol = solve_weights([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], WENDLAND)
    assert np.allclose(sol.weights, [[1.0, 0.0, 0.0]])


def test_two_center_hand_solve():
    d = 0.5
    c = kernel_eval(WENDLAND, d)
    u = np.array([0.2, -0.1, 0.4])
    sol = solve_weights([[0, 0, 0], [d, 0, 0]], [u, u], WENDLAND)
    assert np.allclose(sol.weights, np.vstack([u, u]) / (1.0 + c), atol=1e-12)


def test_zero_displacements_zero_weights():
    pts = np.random.default_rng(1).uniform(size=(10, 3))
    sol = solve_weights(pts, np.zeros((10, 3)), WENDLAND, with_affine=True)
    assert np.allclose(sol.weights, 0.0)
    assert np.allclose(sol.affine, 0.0)


def test_duplicate_centers_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        solve_weights([[0, 0, 0], [0, 0, 0]], np.zeros((2, 3)), WENDLAND)


def test_interpolation_condition():
    rng = np.random.default_rng(42)
    pts = rng.uniform(size=(60, 3))
    disp = 0.1 * rng.normal(size=(60, 3))
    sol = solve_weights(pts, disp, WENDLAND)
    achieved = evaluate_field(sol, pts)
    scale = 1.0 + np.abs(disp).max()
    assert np.abs(achieved - disp).max() < 1e-9 * scale


def test_evaluate_at_center_matches(square_mesh):
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0], [0.3, 0.9, 0.1]])
    disp = np.array([[0.01, 0.0, 0.0], [0.0, 0.02, 0.0], [0.0, 0.0, -0.01]])
    sol = solve_weights(pts, disp, WENDLAND)
    assert np.allclose(evaluate_field(sol, pts), disp, atol=1e-12)


def test_compact_support_zero_far_away():
    sol = solve_weights([[0, 0, 0]], [[1.0, 1.0, 1.0]], WENDLAND)
    far = np.array([[2.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    assert np.all(evaluate_field(sol, far) == 0.0)


def test_affine_reproduces_rigid_translation():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(25, 3))
    u = np.array([0.3, -0.2, 0.15])
    sol = solve_weights(pts, np.tile(u, (25, 1)), WENDLAND, with_affine=True)
    targets = rng.uniform(-2.0, 3.0, size=(40, 3))
    assert np.allclose(evaluate_field(sol, targets), u, atol=1e-9)


def test_linearity_in_data():
    rng = np.random.default_rng(9)
    pts = rng.uniform(size=(30, 3))
    d1 = rng.normal(size=(30, 3))
    d2 = rng.normal(size=(30, 3))
    a, b = 0.7, -1.3
    targets = rng.uniform(size=(20, 3))
    f1 = evaluate_field(solve_weights(pts, d1, WENDLAND), targets)
    f2 = evaluate_field(solve_weights(pts, d2, WENDLAND), targets)
    f12 = evaluate_field(solve_weights(pts, a * d1 + b * d2, WENDLAND),
                         targets)
    ref = np.abs(a * f1 + b * f2).max()
    assert np.abs(f12 - (a * f1 + b * f2)).max() < 1e-10 * max(ref, 1.0)


@pytest.mark.parametrize("kernel", [WENDLAND, RbfKernel("gaussian", 0.4)])
def test_blocked_field_matches_one_dense_product(kernel):
    rng = np.random.default_rng(13)
    pts = rng.uniform(size=(40, 3))
    disp = 0.05 * rng.normal(size=(40, 3))
    sol = solve_weights(pts, disp, kernel)
    # three full EVAL_CHUNK blocks plus a partial one
    targets = rng.uniform(-0.2, 1.2, size=(3 * rbf.EVAL_CHUNK + 345, 3))
    blocked = evaluate_field(sol, targets)
    dense = kernel_eval(kernel, cdist(targets, pts)) @ sol.weights
    assert np.abs(dense).min() > 0.0  # a dropped block would show
    assert np.abs(blocked - dense).max() < 1e-13
    single = np.vstack([evaluate_field(sol, targets[i:i + 1])
                        for i in range(100)])
    assert np.abs(single - dense[:100]).max() < 1e-13


def test_evaluate_field_traced_peak():
    """10,164 targets x 355 centers, a fifth of the pairs inside the
    support: one EVAL_CHUNK block's kernel arrays at a time."""
    rng = np.random.default_rng(21)
    sol = RbfSolution(rng.uniform(size=(355, 3)), rng.normal(size=(355, 3)),
                      RbfKernel("wendland_c2", 0.8))
    targets = rng.uniform(-0.5, 1.5, size=(10164, 3))
    tracemalloc.start()
    try:
        evaluate_field(sol, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7e6


@pytest.mark.parametrize("kernel", [WENDLAND, RbfKernel("gaussian", 0.5)])
def test_kernel_nan_distance_raises(kernel):
    with pytest.raises(ValueError, match="non-negative"):
        kernel_eval(kernel, np.nan)
    with pytest.raises(ValueError, match="non-negative"):
        kernel_eval(kernel, np.array([0.2, np.nan, 0.1]))


def test_kernel_infinite_distance_values():
    inf = np.inf
    assert kernel_eval(WENDLAND, inf) == 0.0
    assert kernel_eval(RbfKernel("gaussian", 0.5), inf) == 0.0
    assert kernel_eval(RbfKernel("inverse_multiquadric", 1.0), inf) == 0.0
    assert np.array_equal(kernel_eval(WENDLAND, np.array([0.0, inf])),
                          [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_field_rejects_non_finite_targets(bad):
    sol = solve_weights([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]],
                        [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]], WENDLAND)
    targets = np.zeros((5, 3))
    targets[3, 1] = bad
    targets[4, 0] = bad
    with pytest.raises(ValueError, match="target 3 is not finite"):
        evaluate_field(sol, targets)


def _solve(centers, disp):
    return solve_weights(centers, disp, WENDLAND)


def _greedy(points, disp):
    return greedy_select(points, disp, WENDLAND, tol=1e-6)


@pytest.mark.parametrize("fit,name", [(_solve, "center"),
                                      (_greedy, "surface point")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_are_named(fit, name, bad):
    """solve_weights and greedy_select name the first non-finite point or
    displacement row by its index."""
    points = np.random.default_rng(3).uniform(size=(9, 3))
    disp = np.full((9, 3), 0.01)
    nan_points, nan_disp = points.copy(), disp.copy()
    nan_points[[5, 7], 2] = bad
    nan_disp[[6, 8], 0] = bad
    with pytest.raises(ValueError, match=f"^{name} 5 is not finite; "
                       f"{name}s must be finite$"):
        fit(nan_points, disp)
    with pytest.raises(ValueError, match="^displacement 6 is not finite; "
                       "displacements must be finite$"):
        fit(points, nan_disp)


@pytest.mark.parametrize("fit,name", [(_solve, "center"),
                                      (_greedy, "surface point")])
def test_malformed_rows_are_rejected(fit, name):
    """Displacements are (n, k) rows, one per point: a 1-D array is a
    ValueError, not one column."""
    points = np.random.default_rng(3).uniform(size=(4, 3))
    with pytest.raises(ValueError, match=r"^displacements must be 2-D rows, "
                       r"got shape \(4,\)$"):
        fit(points, np.full(4, 0.01))
    with pytest.raises(ValueError, match=f"^{name}s must be 2-D rows, got "
                       r"shape \(1, 4, 3\)$"):
        fit(points[None], np.zeros((1, 4, 3)))
    with pytest.raises(ValueError, match=f"^need at least one {name} and one "
                       f"displacement per {name}, got 4 and 3$"):
        fit(points, np.zeros((3, 3)))
    with pytest.raises(ValueError, match=f"^need at least one {name} and one "
                       f"displacement per {name}, got 0 and 0$"):
        fit(np.zeros((0, 3)), np.zeros((0, 3)))


def test_coplanar_affine_goes_to_least_squares_without_a_warning():
    """Eight centers at z = 0 leave the affine block's z column zero: the
    LU factor has an exactly zero pivot, and the least-squares solve
    reproduces the data without a warning."""
    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(size=(8, 2)), np.zeros(8)])
    disp = 0.01 * rng.normal(size=(8, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_weights(pts, disp, WENDLAND, with_affine=True)
        assert np.abs(evaluate_field(sol, pts) - disp).max() < 1e-9


@pytest.mark.parametrize("gap", [1e-13, 1e-9, 1e-6])
def test_near_duplicate_centers_raise(gap):
    rng = np.random.default_rng(0)
    p = rng.uniform(size=(40, 3))
    with pytest.raises(RbfSystemError, match="condition estimate"):
        solve_weights([p[0], p[0] + gap], rng.normal(size=(2, 3)), WENDLAND)
    # opposite displacements on the pair make greedy pick both first
    pts = np.vstack([p, p[0] + gap])
    disp = 0.01 * rng.normal(size=(41, 3))
    disp[0] = [1.0, 0.0, 0.0]
    disp[40] = [-1.0, 0.0, 0.0]
    with pytest.raises(RbfSystemError, match="condition estimate"):
        greedy_select(pts, disp, WENDLAND, tol=1e-9)


# ---------------------------------------------------------------------------
# Greedy selection
# ---------------------------------------------------------------------------

def surface_grid(n=20):
    xs, ys = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n))
    return np.column_stack([xs.ravel(), ys.ravel(), np.zeros(n * n)])


def test_greedy_zero_displacement():
    pts = surface_grid(5)
    sol, hist = greedy_select(pts, np.zeros_like(pts), WENDLAND, tol=1e-6)
    assert hist.levels[0].points == 1
    assert hist.levels[-1].max_err == 0.0
    assert hist.converged


def test_greedy_sinusoidal_reduction():
    pts = surface_grid(20)
    disp = np.zeros_like(pts)
    disp[:, 2] = 0.01 * np.sin(np.pi * pts[:, 0])
    kernel = RbfKernel("wendland_c2", support_radius=2.0)

    # oracle: interpolating at every surface point reproduces the data
    dense = solve_weights(pts, disp, kernel)
    assert np.abs(evaluate_field(dense, pts) - disp).max() < 1e-9

    sol, hist = greedy_select(pts, disp, kernel, tol=1e-4)
    assert hist.converged
    assert hist.levels[-1].max_err < 1e-4
    assert hist.selected_points < 400
    errs = [lv.max_err for lv in hist.levels]
    assert all(errs[i + 1] <= errs[i] + 1e-15 for i in range(len(errs) - 1))


def test_greedy_residual_zero_at_selected():
    pts = surface_grid(12)
    disp = np.zeros_like(pts)
    disp[:, 2] = 0.02 * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    sol, hist = greedy_select(pts, disp, WENDLAND, tol=1e-5)
    centers_err = evaluate_field(sol, sol.centers) - \
        disp[[_index_of(pts, c) for c in sol.centers]]
    assert np.abs(centers_err).max() < 1e-9


def _index_of(pts, target):
    return int(np.argmin(np.linalg.norm(pts - target, axis=1)))


def test_greedy_validation_errors():
    pts = surface_grid(3)
    with pytest.raises(ValueError, match="tol"):
        greedy_select(pts, np.zeros_like(pts), WENDLAND, tol=0.0)
    bad = np.zeros_like(pts)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        greedy_select(pts, bad, WENDLAND, tol=1e-6)
    with pytest.raises(ValueError, match="surface point"):
        greedy_select(np.zeros((0, 3)), np.zeros((0, 3)), WENDLAND, tol=1e-6)
    with pytest.raises(ValueError, match="^level_caps must be a non-empty"):
        greedy_select(pts, np.zeros_like(pts), WENDLAND, tol=1e-6,
                      level_caps=())


CAPS_MESSAGE = (r"^level_caps must be a non-empty, strictly increasing list "
                r"of positive integers, got ")


@pytest.mark.parametrize("caps", [(0,), (-5,), (3, 2), (8, 8), (8, 2.5),
                                  (True,), 8])
def test_greedy_rejects_caps_it_cannot_use(caps):
    """A cap below 1 would still select the first point, and a cap not
    above the one before would record a level that adds nothing; a cap is
    an integer, and a bool is not one, as in the config file; and one cap
    alone is not a list of them."""
    pts = surface_grid(3)
    with pytest.raises(ValueError, match=CAPS_MESSAGE + re.escape(repr(caps))
                       + "$"):
        greedy_select(pts, pts, WENDLAND, tol=1e-6, level_caps=caps)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_greedy_rejects_a_tol_it_cannot_reach(tol):
    """tol = inf would converge at once on one point."""
    pts = surface_grid(3)
    with pytest.raises(ValueError, match="^tol must be a finite positive "
                       f"number, got {tol!r}$"):
        greedy_select(pts, pts, WENDLAND, tol=tol)


@pytest.mark.parametrize("settings,field", [
    ({"greedy_tol": -1.0}, "greedy_tol"),
    ({"greedy_tol": np.inf}, "greedy_tol"),
    ({"level_caps": ()}, "level_caps"),
    ({"level_caps": (3, 2)}, "level_caps"),
    ({"greedy_tol": -1.0, "level_caps": ()}, "greedy_tol"),
])
def test_rbf_config_checks_its_settings(settings, field):
    """RbfConfig checks what greedy_select checks, on construction, and
    names its own field."""
    with pytest.raises(ValueError, match=f"^{field} must be "):
        RbfConfig(WENDLAND, **settings)


def test_greedy_names_coincident_surface_points():
    """Two surface points at one place with different displacements are
    duplicate centers, as solve_weights calls them, named by index."""
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.uniform(size=(40, 3)), np.zeros((1, 3))])
    pts[7] = 0.0
    disp = 0.01 * rng.normal(size=(41, 3))
    disp[7] = [1.0, 0.0, 0.0]
    disp[40] = [-1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="^duplicate centers$"):
        solve_weights(pts, disp, WENDLAND)
    with pytest.raises(RbfSystemError, match=r"^duplicate centers: surface "
                       r"points 7 and 40 coincide$"):
        greedy_select(pts, disp, WENDLAND, tol=1e-9)


def test_greedy_inverse_deformation_roundtrip():
    pts = surface_grid(10)
    disp = np.zeros_like(pts)
    disp[:, 2] = 0.05 * np.sin(np.pi * pts[:, 0])
    tol = 1e-5
    sol_fwd, _ = greedy_select(pts, disp, WENDLAND, tol=tol)
    moved = pts + evaluate_field(sol_fwd, pts)
    sol_back, _ = greedy_select(moved, -disp, WENDLAND, tol=tol)
    back = moved + evaluate_field(sol_back, moved)
    assert np.abs(back - pts).max() < 2.0 * tol


def _reference_greedy(pts, data, kernel, tol, caps):
    """The greedy loop re-solved with solve_weights on every iteration.
    Returns the selected sequence and (points, max_err, mean_err) per
    level."""
    n = len(pts)
    selected = [int(np.argmax(np.linalg.norm(data, axis=1)))]
    residual = data.copy()
    levels = []
    for cap in caps:
        while True:
            sol = solve_weights(pts[selected], residual[selected], kernel)
            err_vec = residual - kernel_eval(
                kernel, cdist(pts, pts[selected])) @ sol.weights
            err = np.linalg.norm(err_vec, axis=1)
            done = err.max() < tol
            if done or len(selected) >= min(cap, n):
                break
            masked = err.copy()
            masked[selected] = -1.0
            if masked.max() <= 0.0:
                break
            selected.append(int(np.argmax(masked)))
        levels.append((len(selected), err.max(), err.mean()))
        residual = err_vec
        if done:
            break
    return selected, levels


def _assert_matches_reference(pts, disp, kernel, tol, caps):
    ref_sel, ref_levels = _reference_greedy(pts, disp, kernel, tol, caps)
    sol, hist = greedy_select(pts, disp, kernel, tol=tol, level_caps=caps)
    assert np.array_equal(sol.centers, pts[ref_sel])
    assert [lv.points for lv in hist.levels] == [c for c, _, _ in ref_levels]
    got = np.array([(lv.max_err, lv.mean_err) for lv in hist.levels])
    want = np.array([(mx, mn) for _, mx, mn in ref_levels])
    # relative, with a floor for residuals already at round-off
    floor = 1e-14 * np.abs(disp).max()
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + floor)


_SPD_RADII = {"wendland_c2": (0.4, 1.5), "gaussian": (0.05, 0.2),
              "inverse_multiquadric": (0.05, 0.3)}


# 40 examples in tier-1; a fifth of a larger profile's (thorough: 1000)
@pytest.mark.thorough
@settings(max_examples=max(40, settings.default.max_examples // 5),
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(_SPD_RADII)),
       n=st.integers(2, 60), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.floats(0.0, 1.0), tol_exp=st.integers(-9, -3),
       caps=st.sampled_from([(8, 32, 64), (1, 5, 20), (3,), (50, 200)]))
def test_incremental_greedy_matches_per_iteration_solves(kind, n, seed,
                                                          shape, tol_exp,
                                                          caps):
    rng = np.random.default_rng(seed)
    lo, hi = _SPD_RADII[kind]
    kernel = RbfKernel(kind, support_radius=lo + shape * (hi - lo))
    pts = rng.uniform(size=(n, 3))
    disp = 0.01 * np.sin(3.0 * pts + rng.uniform(0.0, 6.0, size=3))
    try:
        _reference_greedy(pts, disp, kernel, 10.0 ** tol_exp, caps)
    except RbfSystemError:
        assume(False)  # ill-conditioned draws fail in both
    _assert_matches_reference(pts, disp, kernel, 10.0 ** tol_exp, caps)


def _cholesky_greedy(pts, data, kernel, tol, caps):
    """The greedy loop before the Newton basis: each added point extends a
    lower Cholesky factor by one triangular solve, and the residual comes
    from cho_solve weights times the kernel columns (an n x m x k product).
    Returns the selected sequence, the level point counts, converged, and
    the merged weights."""
    n = len(pts)
    selected = [int(np.argmax(np.linalg.norm(data, axis=1)))]
    residual = data.copy()
    phi = kernel_eval(kernel, cdist(pts, pts))  # column j: kernel at point j
    phi0 = kernel_eval(kernel, 0.0)
    factor = np.zeros((n, n))
    factored = 0
    counts, solutions, converged = [], [], False
    for cap in caps:
        while True:
            m = len(selected)
            at_cap = m >= min(cap, n)
            nxt = None
            for j in range(factored, m):
                row = solve_triangular(factor[:j, :j],
                                       phi[selected[j], selected[:j]],
                                       lower=True)
                d2 = phi0 - float(row @ row)
                if not (np.isfinite(d2) and d2 > np.finfo(float).eps * phi0):
                    raise RbfSystemError("not positive definite")
                factor[j, :j] = row
                factor[j, j] = np.sqrt(d2)
            factored = m
            weights = cho_solve((factor[:m, :m], True), residual[selected])
            err = np.linalg.norm(residual - phi[:, selected] @ weights, axis=1)
            if not (at_cap or err.max() < tol):
                nxt = rbf._next_point(err, selected)
            if nxt is None:
                sol = solve_weights(pts[selected], residual[selected], kernel)
                err_vec = residual - phi[:, selected] @ sol.weights
                err = np.linalg.norm(err_vec, axis=1)
                if err.max() < tol:
                    converged = True
                    break
                nxt = None if at_cap else rbf._next_point(err, selected)
                if nxt is None:
                    break
            selected.append(nxt)
        counts.append(len(selected))
        solutions.append(sol)
        residual = err_vec
        if converged:
            break
    weights = np.zeros((len(selected), data.shape[1]))
    for count, sol in zip(counts, solutions):
        weights[:count] += sol.weights
    return selected, counts, converged, weights


# 60 examples in tier-1; a fifth of a larger profile's (thorough: 1000)
@pytest.mark.thorough
@settings(max_examples=max(60, settings.default.max_examples // 5),
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(_SPD_RADII)),
       n=st.integers(2, 80), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.floats(0.0, 1.0), tol_exp=st.integers(-9, -3),
       caps=st.sampled_from([(8, 32, 64), (1, 5, 20), (3,), (50, 200)]))
def test_newton_greedy_matches_cholesky_greedy(kind, n, seed, shape, tol_exp,
                                               caps):
    rng = np.random.default_rng(seed)
    lo, hi = _SPD_RADII[kind]
    kernel = RbfKernel(kind, support_radius=lo + shape * (hi - lo))
    pts = rng.uniform(size=(n, 3))
    disp = 0.01 * np.sin(3.0 * pts + rng.uniform(0.0, 6.0, size=3))
    tol = 10.0 ** tol_exp
    try:
        selected, counts, converged, weights = _cholesky_greedy(
            pts, disp, kernel, tol, caps)
    except RbfSystemError:
        assume(False)  # ill-conditioned draws fail in both
    sol, hist = greedy_select(pts, disp, kernel, tol=tol, level_caps=caps)
    assert np.array_equal(sol.centers, pts[selected])
    assert [lv.points for lv in hist.levels] == counts
    assert hist.converged == converged
    scale = np.abs(weights).max()
    assert np.abs(sol.weights - weights).max() <= 1e-10 * scale


@settings(deadline=None)
@given(kind=st.sampled_from(rbf.KERNEL_KINDS), radius=st.floats(1e-3, 1e3),
       dim=st.integers(1, 3), data=st.data())
def test_kernel_column_matches_cdist(kind, radius, dim, data):
    """An added center's column in greedy_select is the kernel of cdist's
    distances bit for bit, over coordinates from 1e-3 to 1e3 and beyond."""
    n = data.draw(st.integers(1, 30))
    scale = 10.0 ** data.draw(st.integers(-3, 3))
    coords = st.floats(-1e3, 1e3, allow_nan=False)
    pts = scale * np.array(data.draw(st.lists(
        coords, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    i = data.draw(st.integers(0, n - 1))
    kernel = RbfKernel(kind, support_radius=radius)
    want = kernel_eval(kernel, cdist(pts, pts[[i]]))[:, 0]
    assert rbf._kernel_column(kernel, pts, i).tobytes() == want.tobytes()


def test_newton_greedy_has_no_per_point_solves(monkeypatch):
    """An added point costs a basis column and a rank-1 residual update:
    one solve with the Cholesky factor per level (its data in the Newton
    basis) and one checked solve_weights call, however many points the
    level adds."""
    pts = surface_grid(12)
    disp = np.zeros_like(pts)
    disp[:, 2] = 0.02 * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    triangular = []  # the solves greedy_select makes itself
    original = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: (
        sys._getframe(1).f_code.co_name == "greedy_select"
        and triangular.append(a[0]), original(*a))[1])
    calls = _count_solves(monkeypatch)
    _, hist = greedy_select(pts, disp, WENDLAND, tol=1e-7,
                            level_caps=(8, 32, 64))
    assert hist.selected_points > 4 * len(hist.levels)
    assert len(triangular) == len(calls) == len(hist.levels)
    assert all(np.array_equal(a, np.tril(a)) for a in triangular)


def test_newton_pivot_of_a_near_duplicate_raises():
    rng = np.random.default_rng(0)
    p = rng.uniform(size=(40, 3))
    pts = np.vstack([p, p[0] + 1e-13])
    disp = 0.01 * rng.normal(size=(41, 3))
    disp[0] = [1.0, 0.0, 0.0]
    disp[40] = [-1.0, 0.0, 0.0]
    with pytest.raises(RbfSystemError, match=r"not positive definite at "
                       r"center 2 .*condition estimate") as err:
        greedy_select(pts, disp, WENDLAND, tol=1e-9)
    assert err.value.condition > 1e12


@pytest.mark.thorough
@settings(deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6),
                       st.integers(1, 3)),
       exponent=st.sampled_from([0, 150, 200, 306, -150, -160, -170, -320]),
       data=st.data())
def test_distances_match_cdist(shape, exponent, data):
    """The distance helper gives cdist's distances bit for bit, with no
    warning: far points near 1e200 overflow to inf as in cdist, and
    spacings near 1e-160 or below square to subnormals or to 0."""
    n, m, dim = shape
    coords = st.floats(-10.0, 10.0, allow_nan=False)
    x, y = (10.0 ** exponent * np.array(data.draw(st.lists(
        coords, min_size=k * dim, max_size=k * dim))).reshape(k, dim)
        for k in (n, m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rbf._distances(x, y)
    assert got.tobytes() == cdist(x, y).tobytes()


def test_deform_and_interface_load_no_second_blas(tmp_path):
    """In a fresh interpreter, with no scipy module imported before: a
    deformation through the library and through rotormesh deform loads no
    scipy module at all, and an interface build plus exchange then loads
    scipy.sparse alone, without scipy.linalg or scipy.spatial, so numpy's
    BLAS is the only one the process maps."""
    script = """if True:
        import contextlib
        import io
        import json
        import sys
        import numpy as np
        from meshgen import box_with_plate_mesh
        from rotormesh import (InterfaceFaceSet, build_supermesh,
                               load_fixture, weighted_exchange)
        from rotormesh.cli import main
        from rotormesh.driver import run_deformation
        from rotormesh.mesh import write_mesh

        def loaded():
            return sorted(name for name in sys.modules
                          if name.startswith("scipy."))

        mesh = box_with_plate_mesh(n=8, plate_x=(0.3, 0.9),
                                   plate_y=(-0.3, 0.3), plate_z=(-0.1, 0.1))
        list(run_deformation(mesh, load_fixture("ah1g_low_speed"),
                             ["blade"], steps_per_rev=4, revolutions=0.5))
        mesh_file = sys.argv[1] + "/box.mesh"
        with open(mesh_file, "w") as out:
            out.write(write_mesh(mesh))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["deform", mesh_file, "ah1g_low_speed",
                         "--markers", "blade", "--steps-per-rev", "4",
                         "--revolutions", "0.5",
                         "--output-dir", sys.argv[1] + "/out"])
        deform = loaded()
        quads = [[(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                 for i in range(4) for j in range(4)]
        a, b = (InterfaceFaceSet(name, tuple(np.array(q) * h + 0.01
                                             for q in quads))
                for name, h in (("A", 1 / 4), ("B", 1 / 5)))
        weighted_exchange(build_supermesh(a, b), np.ones(16))
        print(json.dumps([code, deform, loaded()]))
    """
    tests = str(Path(__file__).parent)
    src = str(Path(rbf.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         cwd=tests, capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH":
                                          os.pathsep.join([tests, src])})
    code, deform, interface = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert (tmp_path / "out" / "quality.csv").exists()
    assert deform == []
    assert "scipy.sparse" in interface
    assert not [name for name in interface
                if name.startswith(("scipy.linalg", "scipy.spatial"))]


def _count_solves(monkeypatch):
    calls = []
    original = rbf.solve_weights

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rbf, "solve_weights", counting)
    return calls


def test_spd_greedy_solves_once_per_level(monkeypatch):
    pts = surface_grid(12)
    disp = np.zeros_like(pts)
    disp[:, 2] = 0.02 * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    calls = _count_solves(monkeypatch)
    _, hist = greedy_select(pts, disp, WENDLAND, tol=1e-7,
                            level_caps=(8, 32, 64))
    assert hist.selected_points > len(hist.levels)
    assert len(calls) == len(hist.levels)


# ---------------------------------------------------------------------------
# Mesh deformation
# ---------------------------------------------------------------------------

def _config(**kw):
    defaults = dict(kernel=RbfKernel("wendland_c2", support_radius=1.2),
                    greedy_tol=1e-7, level_caps=(8, 32, 64, 256))
    defaults.update(kw)
    return RbfConfig(**defaults)


def _moving_and_fixed(mesh, disp_of, fixed="outer"):
    """The points of marker "inner", moved by disp_of(coords), then those
    of the fixed marker with zero rows."""
    idx, coords = extract_marker_points(mesh, "inner")
    still = extract_marker_points(mesh, fixed)[0] if fixed else idx[:0]
    return (np.concatenate([idx, still]),
            np.vstack([disp_of(coords), np.zeros((len(still), 3))]))


def _levels(history):
    """The greedy record without its wall times."""
    return [(lv.level, lv.points, lv.max_err, lv.mean_err)
            for lv in history.levels]


def test_deform_zero_displacement_identity():
    mesh = shell_mesh()
    idx, disp = _moving_and_fixed(mesh, np.zeros_like)
    result = deform_mesh(mesh, idx, disp, config=_config())
    assert result.mesh is mesh  # bitwise-identical points
    # no center was selected
    assert _levels(result.history) == [(1, 0, 0.0, 0.0)]
    assert result.history.converged


def test_deform_pitch_keeps_positive_volumes():
    mesh = shell_mesh()
    from rotormesh.kinematics import hinge_matrix
    rot = hinge_matrix(0.0, 0.0, np.radians(10.0))
    idx, disp = _moving_and_fixed(mesh, lambda c: c @ rot.T - c)
    result = deform_mesh(mesh, idx, disp, config=_config(greedy_tol=1e-6))
    assert result.quality_after.negative_volume_count == 0
    assert result.history.levels[-1].max_err < 1e-6


def test_deform_rejects_a_repeated_point():
    """A point listed twice, even with equal rows, is rejected by the
    lowest such index, whatever the listed order."""
    mesh = shell_mesh()
    idx, disp = _moving_and_fixed(mesh, np.zeros_like)
    twice = idx[[5, 2]]
    idx, disp = np.concatenate([idx, twice[::-1]]), np.vstack([disp, disp[:2]])
    with pytest.raises(ValueError) as exc:
        deform_mesh(mesh, idx, disp, config=_config())
    assert str(exc.value) == f"point {twice.min()} is listed twice"


def test_deform_fixed_markers_unmoved():
    mesh = shell_mesh()
    idx, disp = _moving_and_fixed(
        mesh, lambda c: np.tile([0.03, 0.0, 0.0], (len(c), 1)))
    result = deform_mesh(mesh, idx, disp, config=_config(greedy_tol=1e-7))
    inner = extract_marker_points(mesh, "inner")[0]
    out_idx = extract_marker_points(mesh, "outer")[0]
    assert np.abs(result.mesh.points[out_idx]
                  - mesh.points[out_idx]).max() < 1e-7
    moved = result.mesh.points[inner] - mesh.points[inner]
    assert np.abs(moved - disp[:len(inner)]).max() < 1e-6


def test_deform_order_free_and_checked():
    """The listed order of the points does not change the result, bit for
    bit; malformed indices or displacements are rejected by name."""
    mesh = shell_mesh()
    from rotormesh.kinematics import hinge_matrix
    rot = hinge_matrix(np.radians(3.0), 0.0, np.radians(6.0))
    idx, disp = _moving_and_fixed(mesh, lambda c: c @ rot.T - c)
    cfg = _config(greedy_tol=1e-6)
    base = deform_mesh(mesh, idx, disp, config=cfg)
    perm = np.random.default_rng(3).permutation(len(idx))
    shuffled = deform_mesh(mesh, list(idx[perm]), disp[perm], config=cfg)
    assert shuffled.mesh.points.tobytes() == base.mesh.points.tobytes()
    assert _levels(shuffled.history) == _levels(base.history)
    assert shuffled.history.converged == base.history.converged

    n = len(mesh.points)
    nan = disp.copy()
    nan[7, 1] = np.nan
    for args, message in (
            ((idx[:, None], disp), "1-D indices"),
            ((idx, disp[:-1]), r"\(n, 3\) displacements"),
            ((idx, disp[:, :2]), r"\(n, 3\) displacements"),
            ((idx, nan), "must be finite"),
            ((np.where(idx == idx.max(), n, idx), disp), r"\[0, %d\)" % n),
            ((np.where(idx == idx.min(), -1, idx), disp), r"\[0, %d\)" % n)):
        with pytest.raises(ValueError, match=message):
            deform_mesh(mesh, *args, config=cfg)
