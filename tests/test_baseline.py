import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assortative_params, run_child
from netreg import (
    NetcohFit,
    ablation_network,
    cv_select_lambda,
    fit_netcoh,
    laplacian,
    netcoh_objective,
    predict_netcoh,
    sample_sbm,
)
from netreg import baseline
from netreg.baseline import DEFAULT_GRID_SIZE, default_lambda_grid
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def connected_instance(seed, n=60):
    rng = np.random.default_rng(seed)
    params = assortative_params(rng, n, 2)
    A = sample_sbm(params, seed=seed + 1)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return A, x, y


def test_laplacian_kills_constants():
    A, _, _ = connected_instance(0)
    L = laplacian(A)
    assert np.allclose(L @ np.ones(60), 0.0, atol=1e-12)
    assert np.allclose(L, L.T)


def test_laplacian_matches_literal_formula():
    rng = np.random.default_rng(17)
    W = rng.random((9, 9)) * (rng.random((9, 9)) < 0.5)
    W = W + W.T  # weighted, with self-loops on the diagonal
    assert np.array_equal(laplacian(W), np.diag(W.sum(axis=1)) - W)


def test_fit_netcoh_matches_literal_system():
    A, x, y = connected_instance(18)
    A[3, 3] = 1.0  # a self-loop, which the Laplacian cancels
    lam = 0.45
    fit = fit_netcoh(A, x, y, lam)
    system = np.block([[np.eye(60) + lam * laplacian(A), x[:, None]], [x[None, :], x @ x]])
    sol = np.linalg.solve(system, np.append(y, x @ y))
    np.testing.assert_allclose(fit.alpha, sol[:60], rtol=1e-10, atol=0)
    np.testing.assert_allclose(fit.beta, sol[60], rtol=1e-10, atol=0)
    assert fit.notes["slope_identified"] is True


def test_solution_satisfies_linear_system():
    A, x, y = connected_instance(1)
    lam = 0.7
    fit = fit_netcoh(A, x, y, lam)
    L = laplacian(A)
    residual = (np.eye(60) + lam * L) @ fit.alpha + fit.beta * x - y
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(y)


def test_large_lambda_approaches_intercept_regression():
    A, x, y = connected_instance(2)
    fit = fit_netcoh(A, x, y, 1e8)
    assert np.ptp(fit.alpha) < 1e-6
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    assert abs(fit.beta - slope) < 1e-6


def test_constant_response_gives_constant_alpha():
    A, x, _ = connected_instance(3)
    x = x - x.mean()
    y = np.full(60, 4.2)
    for lam in (0.01, 1.0, 100.0):
        fit = fit_netcoh(A, x, y, lam)
        assert np.abs(fit.alpha - 4.2).max() < 1e-8
        assert abs(fit.beta) < 1e-8


def test_local_optimality_probe():
    A, x, y = connected_instance(4)
    lam = 0.3
    fit = fit_netcoh(A, x, y, lam)
    base = netcoh_objective(A, x, y, fit.alpha, fit.beta, lam)
    rng = np.random.default_rng(5)
    for _ in range(100):
        signs = rng.choice([-1.0, 1.0], size=61)
        alpha_p = fit.alpha + 1e-3 * signs[:60]
        beta_p = fit.beta + 1e-3 * signs[60]
        assert netcoh_objective(A, x, y, alpha_p, beta_p, lam) >= base - 1e-12


def test_objective_not_worse_than_constant_alpha():
    A, x, y = connected_instance(6)
    lam = 0.5
    fit = fit_netcoh(A, x, y, lam)
    base = netcoh_objective(A, x, y, fit.alpha, fit.beta, lam)
    for c in (-1.0, 0.0, float(y.mean()), 2.0):
        for b in (0.0, 1.0):
            assert base <= netcoh_objective(A, x, y, np.full(60, c), b, lam) + 1e-12


def test_predict_netcoh():
    alpha = np.array([1.0, 2.0, 3.0])
    x = np.array([1.0, 1.0, 1.0])
    assert np.allclose(predict_netcoh(NetcohFit(alpha=alpha, beta=0.0, lam=1.0), x), alpha)
    assert np.allclose(
        predict_netcoh(NetcohFit(alpha=np.zeros(3), beta=2.0, lam=1.0), x), 2.0 * x
    )


def test_objective_round_trip():
    A, x, y = connected_instance(7)
    lam = 0.9
    fit = fit_netcoh(A, x, y, lam)
    pred = predict_netcoh(fit, x)
    L = laplacian(A)
    recomputed = float((y - pred) @ (y - pred) + lam * fit.alpha @ L @ fit.alpha)
    assert abs(recomputed - netcoh_objective(A, x, y, fit.alpha, fit.beta, lam)) < 1e-10


def test_lambda_grid_endpoints():
    grid = default_lambda_grid()
    assert grid.size == DEFAULT_GRID_SIZE
    assert np.isclose(grid[0], 1e-3)
    assert np.isclose(grid[-1], 10.0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, 10 ** (4 / 99))


def test_cv_on_pure_noise():
    A, x, _ = connected_instance(8)
    y = np.random.default_rng(9).standard_normal(60)
    fit = cv_select_lambda(A, x, y, n_folds=4, seed=2)
    assert np.isfinite(fit.lam) and fit.lam > 0
    errs = np.array([e for _, e in fit.cv_curve])
    assert np.all(np.isfinite(errs))
    assert len(fit.cv_curve) == DEFAULT_GRID_SIZE


def test_cv_selects_grid_minimum():
    A, x, _ = connected_instance(10)
    # Smooth intercepts from a low-frequency Laplacian eigenvector.
    L = laplacian(A)
    _, vecs = np.linalg.eigh(L)
    alpha_true = 2.0 * vecs[:, 1]
    rng = np.random.default_rng(11)
    y = alpha_true + 0.8 * x + 0.2 * rng.standard_normal(60)
    fit = cv_select_lambda(A, x, y, n_folds=5, seed=3)
    errs = np.array([e for _, e in fit.cv_curve])
    selected = errs[np.argmin(np.abs(np.array([l for l, _ in fit.cv_curve]) - fit.lam))]
    assert selected <= 1.05 * errs.min()


def test_cv_error_matches_direct_computation():
    # The CV sweep solves the training fit by shifted Lanczos on the training
    # Laplacian and the harmonic extension through the Lanczos products; both
    # must agree with the direct route: fit on the training subgraph, then
    # solve the held-out Laplacian block. Connected instance, so every
    # held-out component is grounded.
    A, x, y = connected_instance(20)
    n, lam = 60, 0.37
    fit = cv_select_lambda(A, x, y, n_folds=3, seed=5, grid=[lam])
    cv_err = fit.cv_curve[0][1]
    assert fit.notes["ungrounded_held_out"] == 0

    L = laplacian(A)
    rng = np.random.default_rng(5)
    folds = np.array_split(rng.permutation(n), 3)
    total = 0.0
    for fold in folds:
        held = np.sort(fold)
        train = np.setdiff1d(np.arange(n), held)
        sub = fit_netcoh(A[np.ix_(train, train)], x[train], y[train], lam)
        alpha_h = np.linalg.solve(
            L[np.ix_(held, held)], A[np.ix_(held, train)] @ sub.alpha
        )
        resid = y[held] - (alpha_h + sub.beta * x[held])
        total += float(resid @ resid)
    assert np.isclose(cv_err, total / n, rtol=1e-8)


def test_cv_deterministic_given_seed():
    A, x, y = connected_instance(12)
    f1 = cv_select_lambda(A, x, y, n_folds=5, seed=7)
    f2 = cv_select_lambda(A, x, y, n_folds=5, seed=7)
    assert f1.lam == f2.lam
    assert f1.cv_curve == f2.cv_curve
    assert np.array_equal(f1.alpha, f2.alpha)


def test_cv_fold_validation():
    A, x, y = connected_instance(13)
    with pytest.raises(ValueError):
        cv_select_lambda(A, x, y, n_folds=1)
    with pytest.raises(ValueError):
        cv_select_lambda(A, x, y, n_folds=61)


def test_cv_handles_isolated_held_out_nodes():
    # Identity network: every held-out node is ungrounded, so the harmonic
    # rule falls back to the training mean and CV still completes.
    n = 20
    A = np.eye(n)
    rng = np.random.default_rng(14)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    fit = cv_select_lambda(A, x, y, n_folds=4, seed=0, grid=[0.1, 1.0])
    assert np.isfinite(fit.lam)
    assert fit.notes["ungrounded_held_out"] == n


_CSGRAPH_CHILD = r"""
import json, sys

import numpy as np

import netreg, netreg.cli

report = {"loaded_by_import": "scipy.sparse.csgraph" in sys.modules}
netreg.cv_select_lambda(np.eye(6), np.arange(6.0), np.ones(6), n_folds=2, grid=[1.0])
report["loaded_by_ungrounded_fold"] = "scipy.sparse.csgraph" in sys.modules
print(json.dumps(report))
"""


def test_csgraph_loads_only_for_an_ungrounded_fold():
    # Importing it cost every process about 1 MB.
    report = run_child(_CSGRAPH_CHILD)
    assert report == {"loaded_by_import": False, "loaded_by_ungrounded_fold": True}


def eigh_cv_reference(A, x, y, n_folds, seed, grid):
    """The CV sweep as an eigendecomposition plus a loop over lambda.

    Returns the CV curve, the lambda it selects and the number of held-out
    nodes (over all folds) in components with no edge into the training set.
    """
    def laplacian_literal(W):
        return np.diag(W.sum(axis=1)) - W

    n = x.size
    lambdas = np.asarray(grid, dtype=np.float64)
    L = laplacian_literal(A)
    folds = np.array_split(np.random.default_rng(seed).permutation(n), n_folds)
    total = np.zeros(lambdas.size)
    ungrounded = 0
    for fold in folds:
        held = np.sort(fold)
        train = np.setdiff1d(np.arange(n), held)
        d, V = np.linalg.eigh(laplacian_literal(A[np.ix_(train, train)]))
        # The Laplacian is PSD: eigenvalues within rounding of zero are zero,
        # as in baseline._shifted_coefficients.
        d[np.abs(d) <= train.size * np.finfo(float).eps * np.abs(d).max()] = 0.0
        xt, yt = x[train], y[train]
        Vx, Vy = V.T @ xt, V.T @ yt
        xTx = float(xt @ xt)
        A_hh = A[np.ix_(held, held)].copy()
        np.fill_diagonal(A_hh, 0.0)
        _, comp = connected_components(csr_matrix(A_hh), directed=False)
        has_boundary = A[np.ix_(held, train)].sum(axis=1) > 0
        grounded = np.zeros(held.size, dtype=bool)
        for c in np.unique(comp):
            if has_boundary[comp == c].any():
                grounded[comp == c] = True
        ungrounded += int((~grounded).sum())
        hg = held[grounded]
        op = np.linalg.solve(L[np.ix_(hg, hg)], A[np.ix_(hg, train)]) if hg.size else None
        for j, lam in enumerate(lambdas):
            shrink = 1.0 / (1.0 + lam * d)
            # x^T (u - s_u) as a sum over eigenvalues, without the cancellation
            # of x^T u - x^T s_u: on sparse weighted graphs the slope's
            # denominator can be a tiny part of x^T x.
            kept = lam * d * shrink
            denom = float((Vx * Vx) @ kept)
            if denom <= 1e-12 * max(xTx, 1.0):
                beta = 0.0
            else:
                beta = float((Vx * Vy) @ kept) / denom
            alpha_t = V @ ((Vy - beta * Vx) * shrink)
            alpha_h = np.full(held.size, alpha_t.mean())
            if op is not None:
                alpha_h[grounded] = op @ alpha_t
            resid = y[held] - (alpha_h + beta * x[held])
            total[j] += float(resid @ resid)
    cv_errors = total / n
    return cv_errors, float(lambdas[np.argmin(cv_errors)]), ungrounded


def islands_instance():
    # Two SBM communities, eight disjoint edges and eight isolated nodes: with
    # two folds some edges and isolated nodes are held out whole.
    A, x, y = connected_instance(30, n=40)
    n = 64
    big = np.zeros((n, n))
    big[:40, :40] = A
    for i in range(40, 56, 2):
        big[i, i + 1] = big[i + 1, i] = 1.0
    big[60, 60] = 1.0  # a self-loop, which the Laplacian cancels
    rng = np.random.default_rng(31)
    return big, rng.standard_normal(n), rng.standard_normal(n)


def oracle_cases():
    A, x, y = connected_instance(21, n=150)
    yield "connected_sbm", A, x, y, 5
    A, x, y = islands_instance()
    yield "islands", A, x, y, 2
    rng = np.random.default_rng(32)
    yield "identity", np.eye(30), rng.standard_normal(30), rng.standard_normal(30), 3
    A, _, y = connected_instance(33)
    yield "constant_x", A, np.full(60, 1.7), y, 4
    A, x, y = connected_instance(34, n=25)
    yield "leave_one_out", A, x, y, 25


@pytest.mark.parametrize("case", list(oracle_cases()), ids=lambda c: c[0])
def test_cv_matches_eigh_reference(case):
    _, A, x, y, n_folds = case
    grid = default_lambda_grid()
    ref_errors, ref_lam, ref_ungrounded = eigh_cv_reference(A, x, y, n_folds, 4, grid)
    fit = cv_select_lambda(A, x, y, n_folds=n_folds, seed=4)
    assert [l for l, _ in fit.cv_curve] == grid.tolist()
    np.testing.assert_allclose([e for _, e in fit.cv_curve], ref_errors, rtol=1e-10, atol=0)
    assert fit.lam == ref_lam
    assert fit.notes["ungrounded_held_out"] == ref_ungrounded


def test_islands_case_has_ungrounded_held_out_nodes():
    # Guards the oracle case above: it must exercise the training-mean rule.
    A, x, y = islands_instance()
    assert 0 < eigh_cv_reference(A, x, y, 2, 4, [1.0])[2] < 24


@pytest.mark.parametrize("A", [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
def test_cv_one_node_training_set(A):
    # n = 2, two folds: each training set is one node, the slope is
    # unidentified (beta = 0) and every held-out prediction is the other y.
    x, y = np.array([1.0, 2.0]), np.array([1.0, 1.5])
    fit = cv_select_lambda(A, x, y, n_folds=2, grid=[0.1, 1.0])
    assert fit.cv_curve == [(0.1, 0.25), (1.0, 0.25)]
    assert fit.lam == 0.1
    assert fit.notes["ungrounded_held_out"] == (2 if A[0, 1] == 0 else 0)


@pytest.mark.parametrize("fitter", ["cv_select_lambda", "fit_netcoh"])
def test_cv_names_failed_lapack_routine(fitter):
    # Negative edge weights make I + lam L (and I + lam L_tt) indefinite,
    # which a negative Lanczos pivot reports instead of returning garbage.
    A = -5.0 * (np.ones((4, 4)) - np.eye(4))
    x, y = np.arange(4.0), np.ones(4)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        if fitter == "fit_netcoh":
            fit_netcoh(A, x, y, 1.0)
        else:
            cv_select_lambda(A, x, y, n_folds=4, grid=[1.0])


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 30),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
    weighted=st.booleans(),
    self_loops=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cv_matches_eigh_reference_on_random_graphs(n, density, weighted, self_loops, seed, data):
    n_folds = data.draw(st.integers(2, n), label="n_folds")
    check_random_graph_cv(n, density, weighted, self_loops, seed, n_folds)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 30),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
    weighted=st.booleans(),
    self_loops=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_fit_netcoh_is_node_permutation_equivariant(n, density, weighted, self_loops, seed, data):
    # Relabelling the nodes by P permutes alpha and keeps beta. Each fit is
    # within its Lanczos stop of the exact solve: s_x within eps |x| and s_y
    # within eps f |y|, where f is the slope's denominator x^T (x - s_x) as a
    # fraction of x^T x, floored. beta divides the y run's error by that
    # fraction, and alpha = s_y - beta s_x carries all three; two fits, twice.
    A, x, y = _random_graph(n, density, weighted, self_loops, seed)
    lam = data.draw(st.sampled_from(default_lambda_grid().tolist()), label="lam")
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    fit = fit_netcoh(A, x, y, lam)
    fit_p = fit_netcoh(A[np.ix_(perm, perm)], x[perm], y[perm], lam)
    assert fit_p.notes == fit.notes
    if not fit.notes["slope_identified"]:
        assert fit_p.beta == fit.beta == 0.0
        np.testing.assert_allclose(fit_p.alpha, fit.alpha[perm], rtol=0, atol=2e-13 * np.linalg.norm(y))
        return
    s_x = np.linalg.solve(np.eye(n) + lam * laplacian(A), x)
    frac = x @ (x - s_x) / (x @ x)
    f = max(frac, baseline._SLOPE_FRACTION_FLOOR)
    eps, x_norm, y_norm = baseline._LANCZOS_RTOL, np.linalg.norm(x), np.linalg.norm(y)
    beta_tol = 2 * eps * ((f / frac) * y_norm / x_norm + abs(fit.beta))
    assert abs(fit_p.beta - fit.beta) <= beta_tol
    alpha_tol = 2 * eps * ((f + f / frac) * y_norm + 2 * abs(fit.beta) * x_norm)
    np.testing.assert_allclose(fit_p.alpha, fit.alpha[perm], rtol=0, atol=alpha_tol)


def test_cv_slope_on_a_null_eigenvalue_at_rounding_size():
    # A draw of the property above. A fold's slope denominator is 3.3e-5 of
    # x^T x, and the training Laplacian's null eigenvalue came out of dstev
    # at rounding size instead of zero: the curve was 3.2e-10 off from
    # lambda = 3.27 on (1.9e-10 off an exact solve in 60-digit arithmetic).
    check_random_graph_cv(4, 0.5, True, True, 57250157, 2)


def _random_graph(n, density, weighted, self_loops, seed):
    """A, x and y of one draw of test_cv_matches_eigh_reference_on_random_graphs."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=0 if self_loops else 1).astype(float)
    if weighted:
        upper *= rng.uniform(0.1, 5.0, size=(n, n))
    A = upper + np.triu(upper, k=1).T
    return A, rng.standard_normal(n), rng.standard_normal(n)


def test_cv_refit_on_a_small_slope_denominator():
    # A draw of the property above. At the chosen lambda = 0.001 the slope's
    # denominator is 6.4e-4 of x^T x and its numerator 1.6e-4 of |x| |y|, so
    # the y run, stopped at 1e-13 of |y|, left fit_netcoh's alpha 1.4e-10 off
    # the CV's refit (whose runs carry the whole grid).
    check_random_graph_cv(27, 0.05, True, False, 20, 3)


def test_fit_netcoh_on_a_small_slope_denominator_matches_50_digits():
    mpmath = pytest.importorskip("mpmath")
    A, x, y = _random_graph(27, 0.05, True, False, 20)
    lam = 1e-3
    fit = fit_netcoh(A, x, y, lam)
    with mpmath.workdps(50):
        M = mpmath.eye(27) + mpmath.mpf(lam) * mpmath.matrix(laplacian(A).tolist())
        X, Y = mpmath.matrix(x.tolist()), mpmath.matrix(y.tolist())
        s_x, s_y = mpmath.lu_solve(M, X), mpmath.lu_solve(M, Y)
        denom = (X.T * (X - s_x))[0]
        beta = (X.T * (Y - s_y))[0] / denom
        alpha = np.array([float(v) for v in s_y - beta * s_x])
        assert float(denom / (X.T * X)[0]) < 1e-3
        beta = float(beta)
    np.testing.assert_allclose(fit.alpha, alpha, rtol=0, atol=2e-13)
    assert abs(fit.beta - beta) <= 2e-13 * abs(beta)


def check_random_graph_cv(n, density, weighted, self_loops, seed, n_folds):
    """cv_select_lambda against eigh_cv_reference on one random graph, and its refit against fit_netcoh."""
    A, x, y = _random_graph(n, density, weighted, self_loops, seed)
    grid = default_lambda_grid()
    ref_errors, ref_lam, ref_ungrounded = eigh_cv_reference(A, x, y, n_folds, seed, grid)
    fit = cv_select_lambda(A, x, y, n_folds=n_folds, seed=seed)
    np.testing.assert_allclose([e for _, e in fit.cv_curve], ref_errors, rtol=1e-10, atol=0)
    assert fit.notes["ungrounded_held_out"] == ref_ungrounded
    lowest, second = np.sort(ref_errors)[:2]
    if second - lowest > 1e-9 * lowest:
        assert fit.lam == ref_lam
    # The refit rides in the CV's first pass; it is fit_netcoh at the chosen lambda.
    ref = fit_netcoh(A, x, y, fit.lam)
    assert fit.notes["slope_identified"] == ref.notes["slope_identified"]
    np.testing.assert_allclose(fit.alpha, ref.alpha, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(fit.beta, ref.beta, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("n, n_folds, passes", [(300, 5, 1), (400, 400, 34)])
def test_cv_reads_a_in_one_lanczos_sweep_per_pass(monkeypatch, n, n_folds, passes):
    # The refit's two whole-graph runs (x and y) ride in the first pass, so a
    # CV starts one _lanczos call per pass and none for the refit: 5 folds at
    # n = 300 make one call, leave-one-out at n = 400 makes 34 (12 folds a pass).
    A, x, y = connected_instance(37, n=n)
    runs = []
    lanczos = baseline._lanczos

    def counted(*args):
        runs.append(args[1].shape[0])
        return lanczos(*args)

    monkeypatch.setattr(baseline, "_lanczos", counted)
    fit = cv_select_lambda(A, x, y, n_folds=n_folds, seed=1)
    per_pass = min(n_folds, max(5, n // 32))
    assert len(runs) == passes
    assert runs[0] == 2 * per_pass + 2
    assert all(r <= 2 * per_pass for r in runs[1:])
    monkeypatch.undo()
    ref = fit_netcoh(A, x, y, fit.lam)
    np.testing.assert_allclose(fit.alpha, ref.alpha, rtol=1e-10, atol=1e-10)
    assert abs(fit.beta - ref.beta) <= 1e-10 * max(abs(ref.beta), 1.0)


def test_lanczos_dsymv_block_matches_dgemm_block(monkeypatch):
    # Two runs alone advance by one dsymv each; carried in a block of four
    # they advance by the block's dgemm. Only rounding differs.
    A, x, y = connected_instance(23, n=300)
    deg = A.sum(axis=1)
    lambdas = default_lambda_grid()[::9]
    products = []

    def recording(name):
        routine = getattr(baseline.blas, name)
        return lambda *args, **kwargs: products.append(name) or routine(*args, **kwargs)

    for name in ("dsymv", "dgemm"):
        monkeypatch.setattr(baseline.blas, name, recording(name))

    def solve(rhs):
        products.clear()
        runs = rhs.shape[0]
        held, no_slope = np.zeros((runs, 0), np.intp), np.arange(runs)
        out = baseline._lanczos(A, rhs, np.ones_like(rhs), np.tile(deg, (runs, 1)), held, lambdas, no_slope)
        return out, set(products)

    (V2, _, a2, b2, norm2, steps2), used2 = solve(np.stack((x, y)))
    (V4, _, a4, b4, norm4, steps4), used4 = solve(np.stack((x, y, x + y, x - y)))
    assert used2 == {"dsymv"} and used4 == {"dgemm"}
    assert np.array_equal(steps2, steps4[:2]) and np.array_equal(norm2, norm4[:2])
    for r in range(2):
        m = steps2[r]
        scale = np.abs(a2[r, :m]).max()
        np.testing.assert_allclose(a2[r, :m], a4[r, :m], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(b2[r, :m], b4[r, :m], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(V2[:m, r], V4[:m, r], rtol=0, atol=1e-12)


def test_cv_leave_one_out_memory():
    # Leave-one-out runs the folds in passes, so the Lanczos bases stay near
    # twice the size of A (1.3 MB at n = 400) instead of growing with n_folds;
    # the first pass's two whole-graph runs for the refit are kept past it.
    A, x, y = connected_instance(35, n=400)
    tracemalloc.start()
    cv_select_lambda(A, x, y, n_folds=400, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8e6


def malformed_inputs():
    A, x, y = connected_instance(36, n=60)
    directed = A.copy()
    directed[0, 1], directed[1, 0] = 1.0, 0.0
    message = r"^adjacency must be symmetric; A\[0, 1\] = 1 but A\[1, 0\] = 0$"
    yield "directed", directed, x, y, message
    y_nan = y.copy()
    y_nan[7] = np.nan
    yield "nan_response", A, x, y_nan, "^response must be finite; node 7 is not$"
    x_inf = x.copy()
    x_inf[3] = np.inf
    yield "inf_covariate", A, x_inf, y, "^covariate must be finite; node 3 is not$"
    A_nan = A.copy()
    A_nan[2, 5] = A_nan[5, 2] = np.nan
    yield "nan_adjacency", A_nan, x, y, "^adjacency must be finite; row 2 is not$"
    yield "short_response", A, x, y[:-1], r"response must have shape \(60,\)"
    yield "oversized_adjacency", np.pad(A, (0, 1)), x, y, "adjacency must be 60 x 60"
    message = r"^adjacency must be 60 x 60, got shape \(60, 59\)$"
    yield "non_square_adjacency", A[:, :-1], x, y, message


_ADJACENCY_CASES = ("directed", "nan_adjacency")


@pytest.mark.parametrize("user", ["laplacian", "netcoh_objective"])
@pytest.mark.parametrize(
    "case", [c for c in malformed_inputs() if c[0] in _ADJACENCY_CASES], ids=lambda c: c[0]
)
def test_laplacian_takes_the_adjacency_contract(case, user):
    # A nan A used to give a nan Laplacian, and a directed one a non-symmetric one.
    _, A, x, y, message = case
    with pytest.raises(ValueError, match=message):
        if user == "laplacian":
            laplacian(A)
        else:
            netcoh_objective(A, x, y, np.zeros(x.size), 0.5, 1.0)


@pytest.mark.parametrize("fitter", ["cv_select_lambda", "fit_netcoh"])
@pytest.mark.parametrize("case", list(malformed_inputs()), ids=lambda c: c[0])
def test_cohesion_fits_reject_malformed_input(case, fitter):
    _, A, x, y, message = case
    with pytest.raises(ValueError, match=message):
        if fitter == "fit_netcoh":
            fit_netcoh(A, x, y, 1.0)
        else:
            cv_select_lambda(A, x, y, n_folds=3)


def numpy_solve_netcoh_reference(A, x, y, lam):
    """The refit as numpy's solve of the bordered (n+1) x (n+1) normal system."""
    n = x.size
    system = np.block([[np.eye(n) + lam * laplacian(A), x[:, None]], [x[None, :], x @ x]])
    sol = np.linalg.solve(system, np.append(y, x @ y))
    return sol[:n], sol[n]


@pytest.mark.parametrize("lam", [0.05, 1.0, 10.0])
def test_fit_netcoh_matches_numpy_solve_reference(lam):
    A, x, y = connected_instance(19, n=400)
    A_before = A.copy()
    fit = fit_netcoh(A, x, y, lam)
    alpha, beta = numpy_solve_netcoh_reference(A, x, y, lam)
    np.testing.assert_allclose(fit.alpha, alpha, rtol=1e-10, atol=0)
    np.testing.assert_allclose(fit.beta, beta, rtol=1e-10, atol=0)
    assert np.array_equal(A, A_before)


def singular_netcoh_cases():
    # x = 1 on the identity network and x = 0 on an SBM make the normal
    # system exactly singular: the slope is unidentified.
    rng = np.random.default_rng(20)
    yield "identity_ones", np.eye(50), np.ones(50), rng.standard_normal(50)
    A, _, y = connected_instance(21, n=80)
    yield "sbm_zeros", A, np.zeros(80), y


@pytest.mark.parametrize("case", list(singular_netcoh_cases()), ids=lambda c: c[0])
def test_fit_netcoh_singular_fallback_is_flagged_zero_slope(case):
    # Any slope solves the normal equations here; the fit takes the CV's
    # beta = 0, so alpha solves (I + lam L) alpha = y, and says so.
    _, A, x, y = case
    lam, n = 0.8, x.size
    A_before = A.copy()
    system = np.block([[np.eye(n) + lam * laplacian(A), x[:, None]], [x[None, :], x @ x]])
    assert np.linalg.matrix_rank(system) == n  # the bordered system is singular
    fit = fit_netcoh(A, x, y, lam)
    assert fit.beta == 0.0
    assert fit.notes["slope_identified"] is False
    residual = (np.eye(n) + lam * laplacian(A)) @ fit.alpha - y
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(y)
    assert np.array_equal(A, A_before)


def fit_netcoh_memory_cases():
    n = 400
    yield "identity_ones", np.eye(n), np.ones(n), np.random.default_rng(22).standard_normal(n)
    yield "connected_sbm", *connected_instance(23, n=n)


@pytest.mark.parametrize("case", list(fit_netcoh_memory_cases()), ids=lambda c: c[0])
def test_fit_netcoh_singular_fallback_holds_one_system(case):
    # The refit allocates no n x n matrix: at n = 400 a quarter of one (320 kB)
    # bounds its peak, while the bordered normal system alone is 1.3 MB.
    _, A, x, y = case
    n = x.size
    tracemalloc.start()
    fit_netcoh(A, x, y, 0.8)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_fit_netcoh_validation():
    A, x, y = connected_instance(15)
    with pytest.raises(ValueError):
        fit_netcoh(A, x, y, 0.0)
    with pytest.raises(ValueError):
        fit_netcoh(A, x[:-1], y, 1.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_fit_netcoh_rejects_a_non_finite_or_negative_lam(lam):
    # nan used to end in "I + lam L is not positive definite at lam = nan",
    # and inf in a RuntimeWarning inside the Lanczos pivots.
    A, x, y = connected_instance(15)
    with pytest.raises(ValueError, match=rf"^lam must be finite and positive, got {lam}$"):
        fit_netcoh(A, x, y, lam)


@pytest.mark.parametrize(
    "grid, message",
    [
        ([0.1, float("nan"), 1.0], r"grid\[1\] = nan$"),
        ([0.1, 1.0, float("inf")], r"grid\[2\] = inf$"),
        ([1.0, -0.5, 0.0], r"grid\[1\] = -0.5$"),
        ([[0.1, 1.0]], r"non-empty 1-d sequence, got shape \(1, 2\)$"),
        ([], r"non-empty 1-d sequence, got shape \(0,\)$"),
    ],
)
def test_cv_rejects_a_bad_grid(grid, message):
    # Each used to fail elsewhere: a LinAlgError at lam = nan, a RuntimeWarning,
    # a TypeError, or numpy's "zero-size array to reduction operation".
    A, x, y = connected_instance(15)
    with pytest.raises(ValueError, match=message):
        cv_select_lambda(A, x, y, n_folds=3, grid=grid)


def test_netcoh_json(tmp_path):
    A, x, y = connected_instance(16)
    fit = cv_select_lambda(A, x, y, n_folds=3, seed=1, grid=[0.5, 1.0])
    path = tmp_path / "netcoh.json"
    fit.save_json(path)
    import json

    data = json.loads(path.read_text())
    assert data["lambda"] == fit.lam
    assert len(data["cv_curve"]) == 2
    assert data["notes"]["held_out_rule"] == "harmonic_extension"


def test_ablation_networks():
    assert np.array_equal(ablation_network("identity", 3), np.eye(3))
    assert np.array_equal(ablation_network("complete", 3), np.ones((3, 3)))
    with pytest.raises(ValueError):
        ablation_network("ring", 3)
    with pytest.raises(ValueError):
        ablation_network("identity", 0)
