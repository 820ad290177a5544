import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from meshgen import shell_mesh

import rotormesh.rbf as rbf
from rotormesh.rbf import (RbfConfig, RbfKernel, RbfSystemError,
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


def test_thin_plate_spline_values():
    k = RbfKernel("thin_plate_spline")
    assert kernel_eval(k, 0.0) == 0.0
    assert kernel_eval(k, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert kernel_eval(k, 2.0) == pytest.approx(4.0 * np.log(2.0))


def test_gaussian_values():
    k = RbfKernel("gaussian", support_radius=0.5)
    assert kernel_eval(k, 0.0) == 1.0
    assert kernel_eval(k, 0.5) == pytest.approx(np.exp(-1.0))


def test_multiquadrics():
    mq = RbfKernel("multiquadric", support_radius=1.0)
    imq = RbfKernel("inverse_multiquadric", support_radius=1.0)
    assert kernel_eval(mq, 1.0) == pytest.approx(np.sqrt(2.0))
    assert kernel_eval(imq, 1.0) == pytest.approx(1.0 / np.sqrt(2.0))


def test_kernel_requires_radius():
    with pytest.raises(ValueError, match="support_radius"):
        RbfKernel("wendland_c2")
    with pytest.raises(ValueError, match="support_radius"):
        RbfKernel("gaussian", support_radius=-1.0)
    with pytest.raises(ValueError, match="unknown kernel"):
        RbfKernel("cubic", support_radius=1.0)


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


def test_truncated_and_dense_paths_agree(monkeypatch):
    rng = np.random.default_rng(13)
    pts = rng.uniform(size=(40, 3))
    disp = 0.05 * rng.normal(size=(40, 3))
    sol = solve_weights(pts, disp, WENDLAND)
    # 7001 targets x 40 centers crosses the 512^2 KD-tree threshold; 7001
    # is three full 2048-target blocks plus a partial one
    targets = rng.uniform(-0.2, 1.2, size=(7001, 3))
    assert len(targets) * len(pts) > 512 * 512
    trees = []

    def counting_tree(data, *args, **kwargs):
        trees.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr(rbf, "cKDTree", counting_tree)
    sparse = evaluate_field(sol, targets)
    assert trees == [40, 2048, 2048, 2048, 857]
    dense = kernel_eval(WENDLAND, cdist(targets, pts)) @ sol.weights
    assert np.abs(dense).min() > 0.0  # a dropped block would show
    assert np.abs(sparse - dense).max() < 1e-13
    # single-target calls stay below the threshold: dense path
    small = np.vstack([evaluate_field(sol, targets[i:i + 1])
                       for i in range(100)])
    assert np.abs(small - dense[:100]).max() < 1e-13


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
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
    assert hist.final_max_err == 0.0
    assert hist.converged


def test_greedy_rigid_translation_with_affine():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(50, 3))
    u = np.array([0.1, 0.05, -0.02])
    sol, hist = greedy_select(pts, np.tile(u, (50, 1)), WENDLAND, tol=1e-9,
                              with_affine=True)
    assert len(hist.levels) == 1
    assert hist.levels[0].max_err < 1e-9
    assert hist.levels[0].points <= 4  # seed only, no greedy additions


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
    assert hist.final_max_err < 1e-4
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


def _reference_greedy(pts, data, kernel, tol, caps, with_affine=False):
    """The greedy loop re-solved with solve_weights on every iteration.
    Returns the selected sequence and (points, max_err, mean_err) per
    level."""
    n = len(pts)
    first = int(np.argmax(np.linalg.norm(data, axis=1)))
    selected = list(dict.fromkeys(
        rbf._affine_seed(pts, first) if with_affine else [first]))
    residual = data.copy()
    poly = np.hstack([np.ones((n, 1)), pts])
    levels = []
    for level, cap in enumerate(caps):
        affine_here = with_affine and level == 0
        while True:
            sol = solve_weights(pts[selected], residual[selected], kernel,
                                with_affine=affine_here)
            field = kernel_eval(kernel, cdist(pts, pts[selected])) \
                @ sol.weights
            if sol.affine is not None:
                field += poly @ sol.affine
            err_vec = residual - field
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


def _assert_matches_reference(pts, disp, kernel, tol, caps,
                              with_affine=False):
    ref_sel, ref_levels = _reference_greedy(pts, disp, kernel, tol, caps,
                                            with_affine)
    sol, hist = greedy_select(pts, disp, kernel, tol=tol, level_caps=caps,
                              with_affine=with_affine)
    assert np.array_equal(sol.centers, pts[ref_sel])
    assert [lv.points for lv in hist.levels] == [c for c, _, _ in ref_levels]
    got = np.array([(lv.max_err, lv.mean_err) for lv in hist.levels])
    want = np.array([(mx, mn) for _, mx, mn in ref_levels])
    # relative, with a floor for residuals already at round-off
    floor = 1e-14 * np.abs(disp).max()
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + floor)


_SPD_RADII = {"wendland_c2": (0.4, 1.5), "gaussian": (0.05, 0.2),
              "inverse_multiquadric": (0.05, 0.3)}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
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


def _cholesky_greedy(pts, data, kernel, tol, caps, with_affine=False):
    """The positive definite greedy loop before the Newton basis: each added
    point extends a lower Cholesky factor by one triangular solve, and the
    residual comes from cho_solve weights times the kernel columns (an
    n x m x k product). Returns the selected sequence, the level point
    counts, converged, and the merged weights and affine part."""
    n = len(pts)
    first = int(np.argmax(np.linalg.norm(data, axis=1)))
    selected = list(dict.fromkeys(
        rbf._affine_seed(pts, first) if with_affine else [first]))
    residual = data.copy()
    phi = kernel_eval(kernel, cdist(pts, pts))  # column j: kernel at point j
    phi0 = kernel_eval(kernel, 0.0)
    factor = np.zeros((n, n))
    factored = 0
    poly = np.hstack([np.ones((n, 1)), pts])
    counts, solutions, converged = [], [], False
    for level, cap in enumerate(caps):
        affine_here = with_affine and level == 0
        while True:
            m = len(selected)
            at_cap = m >= min(cap, n)
            nxt = None
            if not affine_here:
                for j in range(factored, m):
                    row = solve_triangular(factor[:j, :j],
                                           phi[selected[j], selected[:j]],
                                           lower=True)
                    d2 = phi0 - float(row @ row)
                    if not (np.isfinite(d2) and
                            d2 > np.finfo(float).eps * phi0):
                        raise RbfSystemError("not positive definite")
                    factor[j, :j] = row
                    factor[j, j] = np.sqrt(d2)
                factored = m
                weights = cho_solve((factor[:m, :m], True),
                                    residual[selected])
                err = np.linalg.norm(
                    residual - phi[:, selected] @ weights, axis=1)
                if not (at_cap or err.max() < tol):
                    nxt = rbf._next_point(err, selected)
            if nxt is None:
                sol = solve_weights(pts[selected], residual[selected], kernel,
                                    with_affine=affine_here)
                field = phi[:, selected] @ sol.weights
                if sol.affine is not None:
                    field += poly @ sol.affine
                err_vec = residual - field
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
    affine = solutions[0].affine if with_affine else None
    return selected, counts, converged, weights, affine


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(_SPD_RADII)),
       n=st.integers(2, 80), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.floats(0.0, 1.0), tol_exp=st.integers(-9, -3),
       caps=st.sampled_from([(8, 32, 64), (1, 5, 20), (3,), (50, 200)]),
       with_affine=st.booleans())
def test_newton_greedy_matches_cholesky_greedy(kind, n, seed, shape, tol_exp,
                                               caps, with_affine):
    rng = np.random.default_rng(seed)
    lo, hi = _SPD_RADII[kind]
    kernel = RbfKernel(kind, support_radius=lo + shape * (hi - lo))
    pts = rng.uniform(size=(n, 3))
    disp = 0.01 * np.sin(3.0 * pts + rng.uniform(0.0, 6.0, size=3))
    tol = 10.0 ** tol_exp
    try:
        selected, counts, converged, weights, affine = _cholesky_greedy(
            pts, disp, kernel, tol, caps, with_affine)
    except RbfSystemError:
        assume(False)  # ill-conditioned draws fail in both
    sol, hist = greedy_select(pts, disp, kernel, tol=tol, level_caps=caps,
                              with_affine=with_affine)
    assert np.array_equal(sol.centers, pts[selected])
    assert [lv.points for lv in hist.levels] == counts
    assert hist.converged == converged
    scale = np.abs(weights).max()
    assert np.abs(sol.weights - weights).max() <= 1e-10 * scale
    if with_affine:
        assert np.abs(sol.affine - affine).max() <= \
            1e-10 * np.abs(affine).max()


def test_newton_greedy_has_no_per_point_solves(monkeypatch):
    """An added point costs a basis column and a rank-1 residual update:
    one triangular solve per level (its data in the Newton basis) and one
    checked solve_weights call, however many points the level adds."""
    pts = surface_grid(12)
    disp = np.zeros_like(pts)
    disp[:, 2] = 0.02 * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])
    triangular = []
    original = rbf.solve_triangular
    monkeypatch.setattr(rbf, "solve_triangular", lambda *a, **k: (
        triangular.append(1), original(*a, **k))[1])
    calls = _count_solves(monkeypatch)
    _, hist = greedy_select(pts, disp, WENDLAND, tol=1e-7,
                            level_caps=(8, 32, 64))
    assert hist.selected_points > 4 * len(hist.levels)
    assert len(triangular) == len(calls) == len(hist.levels)


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


@pytest.mark.parametrize("kernel,with_affine", [
    (RbfKernel("thin_plate_spline"), True),
    (RbfKernel("multiquadric", support_radius=0.5), False)])
def test_conditionally_positive_kernels_match_reference(kernel, with_affine):
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(80, 3))
    disp = 0.01 * np.sin(3.0 * pts)
    _assert_matches_reference(pts, disp, kernel, 1e-6, (6, 16, 40),
                              with_affine)


def _count_solves(monkeypatch):
    calls = []
    original = rbf.solve_weights

    def counting(*args, **kwargs):
        calls.append(kwargs.get("with_affine", False))
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


def test_dense_greedy_solves_every_iteration(monkeypatch):
    pts = surface_grid(8)
    disp = np.zeros_like(pts)
    disp[:, 2] = 0.01 * np.sin(np.pi * pts[:, 0])
    calls = _count_solves(monkeypatch)
    _, hist = greedy_select(pts, disp,
                            RbfKernel("multiquadric", support_radius=0.5),
                            tol=1e-9, level_caps=(4, 12))
    # one solve per added point plus the last one of each level
    assert len(calls) == hist.selected_points - 1 + len(hist.levels)


def test_affine_level_zero_stays_dense(monkeypatch):
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(60, 3))
    disp = 0.01 * np.sin(3.0 * pts)
    calls = _count_solves(monkeypatch)
    _, hist = greedy_select(pts, disp, WENDLAND, tol=1e-8,
                            level_caps=(10, 30), with_affine=True)
    assert len(hist.levels) == 2
    # four spanning seeds, then one affine solve per iteration on level 1
    assert calls == [True] * (hist.levels[0].points - 4 + 1) + [False]
    monkeypatch.undo()
    _assert_matches_reference(pts, disp, WENDLAND, 1e-8, (10, 30),
                              with_affine=True)


# ---------------------------------------------------------------------------
# Mesh deformation
# ---------------------------------------------------------------------------

def _config(**kw):
    defaults = dict(kernel=RbfKernel("wendland_c2", support_radius=1.2),
                    greedy_tol=1e-7, level_caps=(8, 32, 64, 256))
    defaults.update(kw)
    return RbfConfig(**defaults)


def test_deform_zero_displacement_identity():
    mesh = shell_mesh()
    from rotormesh.mesh import extract_marker_points
    idx, _ = extract_marker_points(mesh, "inner")
    result = deform_mesh(mesh, {"inner": np.zeros((len(idx), 3))},
                         fixed_markers=("outer",), config=_config())
    assert result.mesh is mesh  # bitwise-identical points


def test_deform_translation_with_affine():
    mesh = shell_mesh()
    from rotormesh.mesh import extract_marker_points
    idx, _ = extract_marker_points(mesh, "inner")
    u = np.array([0.02, -0.01, 0.03])
    result = deform_mesh(mesh, {"inner": np.tile(u, (len(idx), 1))},
                         config=_config(with_affine=True, greedy_tol=1e-9))
    assert np.allclose(result.mesh.points, mesh.points + u, atol=1e-8)


def test_deform_pitch_keeps_positive_volumes():
    mesh = shell_mesh()
    from rotormesh.kinematics import hinge_matrix
    from rotormesh.mesh import extract_marker_points
    idx, coords = extract_marker_points(mesh, "inner")
    rot = hinge_matrix(0.0, 0.0, np.radians(10.0))
    disp = coords @ rot.T - coords
    result = deform_mesh(mesh, {"inner": disp}, fixed_markers=("outer",),
                         config=_config(greedy_tol=1e-6))
    assert result.quality_after.negative_volume_count == 0
    assert result.history.final_max_err < 1e-6


def test_deform_conflicting_markers():
    mesh = shell_mesh()
    from rotormesh.mesh import extract_marker_points
    idx, _ = extract_marker_points(mesh, "inner")
    disp = np.tile([0.01, 0.0, 0.0], (len(idx), 1))
    with pytest.raises(ValueError, match="conflicting"):
        deform_mesh(mesh, {"inner": disp}, fixed_markers=("inner",),
                    config=_config())


def test_deform_fixed_markers_unmoved():
    mesh = shell_mesh()
    from rotormesh.mesh import extract_marker_points
    idx, coords = extract_marker_points(mesh, "inner")
    disp = np.tile([0.03, 0.0, 0.0], (len(idx), 1))
    result = deform_mesh(mesh, {"inner": disp}, fixed_markers=("outer",),
                         config=_config(greedy_tol=1e-7))
    out_idx, _ = extract_marker_points(mesh, "outer")
    assert np.abs(result.mesh.points[out_idx]
                  - mesh.points[out_idx]).max() < 1e-7
    moved = result.mesh.points[idx] - mesh.points[idx]
    assert np.abs(moved - disp).max() < 1e-6


def _merge_reference(entries):
    """The per-point loop the array merge replaced."""
    merged = {}
    for indices, disp, label in entries:
        for idx, vec in zip(indices, disp):
            prev = merged.get(int(idx))
            if prev is not None and not np.allclose(prev, vec, atol=1e-12):
                raise ValueError(
                    f"conflicting displacement at point {idx} from {label}")
            merged[int(idx)] = vec
    keys = sorted(merged)
    return np.array(keys, dtype=np.intp), np.array([merged[k] for k in keys])


def test_deform_three_overlapping_markers():
    """xmin and ymin share an edge and agree within the tolerance; zmin
    shares edges with both and conflicts first at point 0."""
    from meshgen import box_hex_mesh
    from rotormesh.mesh import extract_marker_points
    mesh = box_hex_mesh(2, 2, 2)

    def tiled(name, vec):
        return np.tile(vec, (len(extract_marker_points(mesh, name)[0]), 1))

    disp = {"xmin": tiled("xmin", [0.01, 0.0, 0.0]),
            "ymin": tiled("ymin", [0.01 + 1e-13, 0.0, 0.0])}
    result = deform_mesh(mesh, disp, config=_config())
    assert result.history.converged
    disp["zmin"] = tiled("zmin", [0.0, 0.0, 0.01])
    with pytest.raises(ValueError) as exc:
        deform_mesh(mesh, disp, config=_config())
    assert str(exc.value) == \
        "conflicting displacement at point 0 from marker 'zmin'"


# 1 + _EDGE is within np.allclose's tolerance of 1, but not 1 of it
_EDGE = 1e-5 + 5e-11


def _check_merge(entries):
    try:
        expected = _merge_reference(entries)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            rbf._merge_displacements(entries)
        assert str(got.value) == str(exc)
        return
    idx, disp = rbf._merge_displacements(entries)
    assert idx.tolist() == expected[0].tolist()
    assert np.array_equal(disp.reshape(-1, 3), expected[1].reshape(-1, 3))


@pytest.mark.parametrize("first,second", [
    (1.0, 1.0 + _EDGE),   # agrees: the second entry wins
    (1.0 + _EDGE, 1.0),   # conflicts in this argument order
    (0.0, 1e-13),         # agrees within atol: the second entry wins
])
def test_merge_displacements_order_rules(first, second):
    point = np.array([3], dtype=np.intp)
    _check_merge([(point, np.array([[first, 0.0, 0.0]]), "marker 'a'"),
                  (point, np.array([[second, 0.0, 0.0]]), "marker 'b'")])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_merge_displacements_matches_per_point_loop(data):
    """Values one relative tolerance apart agree in one argument order only,
    so the comparison order and the last-wins rule both show."""
    values = st.sampled_from([1.0, 1.0 + 1e-13, 1.0 + _EDGE, 2.0])
    entries = []
    for k in range(data.draw(st.integers(0, 4))):
        idx = np.array(sorted(data.draw(st.sets(st.integers(0, 6),
                                                max_size=5))), dtype=np.intp)
        x = data.draw(st.lists(values, min_size=len(idx), max_size=len(idx)))
        disp = np.zeros((len(idx), 3))
        disp[:, k % 3] = x
        entries.append((idx, disp, f"marker 'm{k}'"))
    _check_merge(entries)
