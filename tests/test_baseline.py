import tracemalloc

import numpy as np
import pytest

from conftest import assortative_params
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
from netreg.baseline import DEFAULT_GRID_SIZE, default_lambda_grid
from scipy.linalg import lapack
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
    assert np.array_equal(fit.alpha, sol[:60]) and fit.beta == sol[60]


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
    # The CV sweep solves the training fit through a tridiagonal reduction of
    # the training Laplacian and a precomputed harmonic operator; both must
    # agree with the direct route: fit on the training subgraph, then solve
    # the held-out Laplacian block. Connected instance, so every held-out
    # component is grounded.
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
        xt, yt = x[train], y[train]
        Vx, Vy = V.T @ xt, V.T @ yt
        xTx, xTy = float(xt @ xt), float(xt @ yt)
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
            denom = xTx - float((Vx * Vx) @ shrink)
            if denom <= 1e-12 * max(xTx, 1.0):
                beta = 0.0
            else:
                beta = (xTy - float((Vx * Vy) @ shrink)) / denom
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


def test_cv_names_failed_lapack_routine():
    # Negative edge weights make I + lam L_tt indefinite, which the
    # positive definite tridiagonal solve reports instead of returning garbage.
    A = -5.0 * (np.ones((4, 4)) - np.eye(4))
    x, y = np.arange(4.0), np.ones(4)
    with pytest.raises(np.linalg.LinAlgError, match="dptsv"):
        cv_select_lambda(A, x, y, n_folds=4, grid=[1.0])


def numpy_solve_netcoh_reference(A, x, y, lam):
    """The refit as it was before it moved to scipy's LAPACK: numpy's solve."""
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
    np.testing.assert_allclose(fit.alpha, alpha, rtol=1e-12, atol=0)
    np.testing.assert_allclose(fit.beta, beta, rtol=1e-12, atol=0)
    # The system is factored in place, never the caller's matrix.
    assert np.array_equal(A, A_before)


def singular_netcoh_cases():
    # x = 1 on the identity network and x = 0 on an SBM make the normal
    # system exactly singular: the slope is unidentified.
    rng = np.random.default_rng(20)
    yield "identity_ones", np.eye(50), np.ones(50), rng.standard_normal(50)
    A, _, y = connected_instance(21, n=80)
    yield "sbm_zeros", A, np.zeros(80), y


@pytest.mark.parametrize("case", list(singular_netcoh_cases()), ids=lambda c: c[0])
def test_fit_netcoh_singular_fallback_is_lstsq_on_intact_system(case):
    _, A, x, y = case
    lam, n = 0.8, x.size
    A_before = A.copy()
    system = np.block([[np.eye(n) + lam * laplacian(A), x[:, None]], [x[None, :], x @ x]])
    rhs = np.append(y, x @ y)
    assert lapack.dgesv(system, rhs)[-1] > 0  # the fallback is really taken
    fit = fit_netcoh(A, x, y, lam)
    # lstsq on the factored (overwritten) system would give other numbers.
    expected = np.linalg.lstsq(system, rhs, rcond=None)[0]
    assert np.array_equal(fit.alpha, expected[:n]) and fit.beta == expected[n]
    assert np.array_equal(A, A_before)


def test_fit_netcoh_singular_fallback_holds_one_system():
    # The factored system is freed before the fallback builds it again. At
    # n = 400 the system (1.3 MB) dwarfs numpy's fixed-size ufunc buffers.
    n = 400
    A, x, y = np.eye(n), np.ones(n), np.random.default_rng(22).standard_normal(n)
    tracemalloc.start()
    fit_netcoh(A, x, y, 0.8)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1.5 * (n + 1) ** 2 * 8


def test_fit_netcoh_validation():
    A, x, y = connected_instance(15)
    with pytest.raises(ValueError):
        fit_netcoh(A, x, y, 0.0)
    with pytest.raises(ValueError):
        fit_netcoh(A, x[:-1], y, 1.0)


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
