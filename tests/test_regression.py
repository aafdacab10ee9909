import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_layout, random_membership, small_instance
from netreg import (
    Membership,
    build_design,
    center_data,
    fit_full,
    fit_full_multi,
    fit_ols,
    fit_row,
    fit_singleton,
    loss,
    loss_community,
    predict,
)
from netreg.regression import aggregate, solve_normal_equations


def test_design_identity_network():
    rng = np.random.default_rng(0)
    m = random_membership(rng, 12, 3)
    x = rng.standard_normal(12)
    for k in range(3):
        M = build_design(np.eye(12), x, m, k)
        for i in range(12):
            expected = np.zeros(3)
            if m.labels[i] == k:
                expected[m.labels[i]] = x[i]
            assert np.allclose(M[i], expected)


def test_design_hand_example():
    # n=3, two communities {0,1} and {2}, complete graph, x = (1,2,3)
    m = Membership(labels=np.array([0, 0, 1]), n_communities=2)
    A = np.ones((3, 3))
    x = np.array([1.0, 2.0, 3.0])
    M0 = build_design(A, x, m, 0)
    M1 = build_design(A, x, m, 1)
    assert np.allclose(M0, [[3.0, 3.0], [3.0, 3.0], [0.0, 0.0]])
    assert np.allclose(M1, [[0.0, 0.0], [0.0, 0.0], [3.0, 3.0]])


def test_design_zero_covariate():
    A, x, m = small_instance(1)
    M = build_design(A, np.zeros_like(x), m, 0)
    assert np.all(M == 0.0)


def test_fit_reduces_to_simple_regression():
    rng = np.random.default_rng(2)
    n = 30
    m = Membership(labels=np.zeros(n, dtype=int), n_communities=1)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    fit = fit_full(np.eye(n), x, y, m)
    assert np.isclose(fit.beta[0, 0], (x @ y) / (x @ x), atol=1e-12)


def test_noiseless_recovery():
    A, x, m = small_instance(3, n=200, n_communities=3)
    rng = np.random.default_rng(4)
    beta_star = rng.standard_normal((3, 3))
    y = predict(A, x, m, beta_star)
    fit = fit_full(A, x, y, m)
    assert not fit.rank_deficient
    assert np.linalg.norm(fit.beta - beta_star) < 1e-8
    # noiseless identifiability: squared per-entry error below 1e-16
    assert np.max((fit.beta - beta_star) ** 2) < 1e-16


def test_zero_response_gives_zero_beta():
    A, x, m = small_instance(5, n=50, n_communities=2)
    fit = fit_full(A, x, np.zeros(50), m)
    assert np.allclose(fit.beta, 0.0)


def test_predict_trivial_cases():
    A, x, m = small_instance(6)
    assert np.allclose(predict(A, x, m, np.zeros((2, 2))), 0.0)
    n = 20
    single = Membership(labels=np.zeros(n, dtype=int), n_communities=1)
    xs = np.arange(1.0, n + 1)
    assert np.allclose(predict(np.eye(n), xs, single, [[2.5]]), 2.5 * xs)


def test_predict_matches_literal_formula():
    A, x, m = small_instance(38, n=60, n_communities=3)
    beta = np.random.default_rng(39).standard_normal((3, 3))
    Z = m.onehot()
    literal = ((Z @ beta @ Z.T) * A) @ x
    assert np.allclose(predict(A, x, m, beta), literal, rtol=0.0, atol=1e-12)


def test_predict_matches_stacked_design_form():
    A, x, m = small_instance(7, n=60, n_communities=3)
    rng = np.random.default_rng(8)
    beta = rng.standard_normal((3, 3))
    stacked = np.zeros(60)
    for k in range(3):
        stacked += build_design(A, x, m, k) @ beta[k]
    assert np.allclose(predict(A, x, m, beta), stacked, atol=1e-12)


def test_loss_values_and_decomposition():
    A, x, m = small_instance(9, n=45, n_communities=3)
    rng = np.random.default_rng(10)
    beta = rng.standard_normal((3, 3))
    y = predict(A, x, m, beta)
    assert loss(A, x, y, m, beta) == 0.0

    ones = np.ones(45)
    assert np.isclose(loss(A, x, ones, m, np.zeros((3, 3))), 0.5)

    y_noisy = y + rng.standard_normal(45)
    total = loss(A, x, y_noisy, m, beta)
    parts = sum(
        m.sizes()[k] / m.n * loss_community(A, x, y_noisy, m, beta, k) for k in range(3)
    )
    assert abs(total - parts) <= 1e-12 * max(1.0, abs(total))


def test_fit_row_recovery_and_edge_cases():
    A, x, m = small_instance(11, n=80, n_communities=3)
    rng = np.random.default_rng(12)
    b0 = rng.standard_normal(3)
    beta_star = np.tile(b0, (3, 1))
    y = predict(A, x, m, beta_star)
    fit = fit_row(A, x, y, m)
    assert fit.structure == "row"
    assert np.allclose(fit.beta, beta_star, atol=1e-10)
    # all rows identical by construction
    assert np.array_equal(fit.beta, np.tile(fit.beta[0], (3, 1)))

    # K = 1: row and singleton coincide
    single = Membership(labels=np.zeros(80, dtype=int), n_communities=1)
    fr = fit_row(A, x, y, single)
    fs = fit_singleton(A, x, y, single)
    assert np.allclose(fr.beta, fs.beta, atol=1e-12)

    degenerate = fit_row(A, np.zeros(80), y, m)
    assert degenerate.rank_deficient
    assert np.allclose(degenerate.beta, 0.0)


def test_fit_singleton():
    rng = np.random.default_rng(13)
    n = 40
    m = Membership(labels=rng.integers(0, 2, n), n_communities=2)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    fit_id = fit_singleton(np.eye(n), x, y, m)
    assert np.isclose(fit_id.beta[0, 0], (x @ y) / (x @ x), atol=1e-12)

    A, x2, m2 = small_instance(14, n=50, n_communities=2)
    y2 = A @ x2
    assert np.isclose(fit_singleton(A, x2, y2, m2).beta[0, 0], 1.0, atol=1e-12)

    y3 = predict(A, x2, m2, np.full((2, 2), 2.5))
    fit3 = fit_singleton(A, x2, y3, m2)
    assert abs(fit3.beta[0, 0] - 2.5) < 1e-10
    assert np.all(fit3.beta == fit3.beta[0, 0])

    with pytest.raises(ValueError):
        fit_singleton(np.eye(4), np.zeros(4), np.ones(4), Membership(np.zeros(4, int), 1))


def test_fit_ols():
    x = np.arange(1.0, 11.0)
    slope, fitted = fit_ols(x, 3.0 * x)
    assert np.isclose(slope, 3.0)
    assert np.allclose(fitted, 3.0 * x)

    orth = np.zeros(10)
    orth[0], orth[1] = 1.0, -1.0
    y_perp = np.zeros(10)
    y_perp[0] = y_perp[1] = 1.0
    assert fit_ols(orth, y_perp)[0] == 0.0

    rng = np.random.default_rng(15)
    xr, yr = rng.standard_normal(100), rng.standard_normal(100)
    oracle = np.linalg.lstsq(xr[:, None], yr, rcond=None)[0][0]
    assert np.isclose(fit_ols(xr, yr)[0], oracle, atol=1e-12)

    with pytest.raises(ValueError):
        fit_ols(np.zeros(5), np.ones(5))


def test_center_data_uniform_weights():
    n = 12
    m = Membership(labels=np.zeros(n, dtype=int), n_communities=1)
    rng = np.random.default_rng(16)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    centered = center_data(np.ones((n, n)), x, y, m)
    assert np.allclose(centered.response, y - y.mean(), atol=1e-12)
    assert np.allclose(centered.covariate[0], x - x.mean(), atol=1e-12)
    assert centered.zero_blocks == []


def test_center_data_community_means_vanish():
    A, x, m = small_instance(17, n=60, n_communities=3)
    rng = np.random.default_rng(18)
    y = rng.standard_normal(60)
    centered = center_data(A, x, y, m)
    for k in range(3):
        assert abs(centered.response[m.labels == k].mean()) < 1e-12
    # weighted means of each centered covariate row vanish as well
    Z = m.onehot()
    S = Z.T @ A
    for k in range(3):
        numer = (S[k] * centered.covariate[k]) @ Z
        denom = S[k] @ Z
        assert np.allclose(numer / denom, 0.0, atol=1e-12)


def test_center_data_idempotent_on_centered_data():
    A, x, m = small_instance(19, n=40, n_communities=2)
    rng = np.random.default_rng(20)
    y = rng.standard_normal(40)
    first = center_data(A, x, y, m)
    again = center_data(A, x, first.response, m)
    assert np.allclose(again.response, first.response, atol=1e-12)


def test_multi_covariate_reduces_to_single():
    A, x, m = small_instance(21, n=50, n_communities=2)
    rng = np.random.default_rng(22)
    y = rng.standard_normal(50)
    multi = fit_full_multi(A, x[:, None], y, m)
    single = fit_full(A, x, y, m)
    assert np.allclose(multi.beta[:, :, 0], single.beta, atol=1e-12)
    assert np.allclose(multi.fitted, single.fitted, atol=1e-12)


def test_multi_covariate_noiseless_recovery():
    A, _, m = small_instance(23, n=400, n_communities=2)
    rng = np.random.default_rng(24)
    X = rng.standard_normal((400, 2))
    tensor = rng.standard_normal((2, 2, 2))
    y = np.zeros(400)
    for l in range(2):
        y += predict(A, X[:, l], m, tensor[:, :, l])
    multi = fit_full_multi(A, X, y, m)
    assert np.abs(multi.beta - tensor).max() < 1e-8


def test_multi_covariate_non_finite_names_column_and_node():
    A, x, m = small_instance(28, n=30, n_communities=2)
    X = np.column_stack([x, x])
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="^covariates column 1 must be finite; node 2 is not$"):
        fit_full_multi(A, X, x, m)


def test_multi_covariate_zero_design():
    A, _, m = small_instance(25, n=30, n_communities=2)
    y = np.random.default_rng(26).standard_normal(30)
    multi = fit_full_multi(A, np.zeros((30, 3)), y, m)
    assert np.allclose(multi.beta, 0.0)
    assert all(multi.min_norm)


def test_global_least_squares_oracle_agreement():
    # fit_full equals the single K^2-parameter least-squares problem
    A, x, m = small_instance(27, n=45, n_communities=3)
    rng = np.random.default_rng(28)
    y = rng.standard_normal(45)
    fit = fit_full(A, x, y, m)
    assert not fit.rank_deficient
    K, Z = 3, m.onehot()
    N = (A * x[None, :]) @ Z
    D = np.zeros((45, K * K))
    for k in range(K):
        mask = m.labels == k
        D[mask, k * K : (k + 1) * K] = N[mask]
    oracle = np.linalg.lstsq(D, y, rcond=None)[0].reshape(K, K)
    assert np.abs(fit.beta - oracle).max() < 1e-10


def test_permutation_equivariance():
    A, x, m = small_instance(29, n=70, n_communities=3)
    rng = np.random.default_rng(30)
    y = rng.standard_normal(70)
    fit = fit_full(A, x, y, m)

    perm = np.array([1, 2, 0])
    relabeled = Membership(labels=perm[m.labels], n_communities=3)
    fit_rel = fit_full(A, x, y, relabeled)
    Q = np.zeros((3, 3))
    Q[np.arange(3), perm] = 1.0
    assert np.allclose(fit_rel.beta, Q.T @ fit.beta @ Q, atol=1e-10)
    assert np.allclose(fit_rel.fitted, fit.fitted, atol=1e-10)


def test_scale_covariance():
    A, x, m = small_instance(31, n=60, n_communities=2)
    rng = np.random.default_rng(32)
    y = rng.standard_normal(60)
    base = fit_full(A, x, y, m)
    scaled = fit_full(A, 4.0 * x, y, m)
    assert np.allclose(scaled.beta, base.beta / 4.0, atol=1e-10)
    assert np.allclose(scaled.fitted, base.fitted, atol=1e-10)


def test_estimator_chain_coincides_on_identity_network():
    rng = np.random.default_rng(33)
    n = 25
    m = Membership(labels=np.zeros(n, dtype=int), n_communities=1)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    full = fit_full(np.eye(n), x, y, m).beta[0, 0]
    singleton = fit_singleton(np.eye(n), x, y, m).beta[0, 0]
    ols = fit_ols(x, y)[0]
    assert np.isclose(full, singleton, atol=1e-12)
    assert np.isclose(singleton, ols, atol=1e-12)


def test_residuals_match_prediction():
    A, x, m = small_instance(34, n=50, n_communities=2)
    rng = np.random.default_rng(35)
    y = rng.standard_normal(50)
    fit = fit_full(A, x, y, m)
    assert np.array_equal(fit.residuals, y - predict(A, x, m, fit.beta))


@pytest.mark.parametrize("fitter", [fit_full, fit_row, fit_singleton])
def test_fitted_values_equal_predict(fitter):
    # The fitters hand predict the aggregate they solved on instead of letting
    # it recompute one; the bits must be the same as a plain predict's.
    A, x, m = small_instance(36, n=150, n_communities=3)
    y = np.random.default_rng(37).standard_normal(150)
    fit = fitter(A, x, y, m)
    assert np.array_equal(fit.fitted, predict(A, x, m, fit.beta))
    assert np.array_equal(fit.residuals, y - fit.fitted)


def test_predict_rejects_misshapen_aggregates():
    A, x, m = small_instance(38, n=40, n_communities=2)
    with pytest.raises(ValueError, match="aggregates must be 40x2"):
        predict(A, x, m, np.ones((2, 2)), aggregates=np.ones((40, 3)))


def test_fit_full_on_given_aggregates_reads_no_adjacency():
    A, x, m = small_instance(39, n=120, n_communities=3)
    y = np.random.default_rng(40).standard_normal(120)
    direct = fit_full(A, x, y, m)
    given = fit_full(None, x, y, m, aggregates=aggregate(A, x[:, None], m))
    for field in ("beta", "fitted", "residuals", "aggregates"):
        assert getattr(given, field).tobytes() == getattr(direct, field).tobytes()
    assert given.min_norm == direct.min_norm


_ENTRY = np.arange(80).reshape(40, 2)  # entry numbers of a 40 x 2 aggregate in row order


@pytest.mark.parametrize(
    "N, message",
    [
        (np.ones((40, 3)), r"^aggregates must be 40x2, got \(40, 3\)$"),
        (np.ones(40), r"^aggregates must be 40x2, got \(40,\)$"),
        (np.where(_ENTRY == 15, np.nan, 1.0), r"^aggregates must be finite; row 7 is not$"),
        (np.where(_ENTRY == 78, -np.inf, 1.0), r"^aggregates must be finite; row 39 is not$"),
    ],
)
def test_fit_full_rejects_bad_aggregates(N, message):
    _, x, m = small_instance(38, n=40, n_communities=2)
    with pytest.raises(ValueError, match=message):
        fit_full(None, x, x, m, aggregates=N)


_ADJACENCY_USERS = {
    "fit_full": fit_full,
    "fit_row": fit_row,
    "fit_singleton": fit_singleton,
    "predict": lambda A, x, y, m: predict(A, x, m, np.ones((2, 2))),
    "center_data": center_data,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(_ADJACENCY_USERS))
def test_non_finite_adjacency_is_rejected(name, bad):
    # A NaN or inf in A must fail here, not reach a solver as NaN coefficients.
    A, x, m = small_instance(39, n=60, n_communities=2)
    y = np.random.default_rng(40).standard_normal(60)
    A[3, 5] = bad
    with pytest.raises(ValueError, match="adjacency must be finite; row 3 "):
        _ADJACENCY_USERS[name](A, x, y, m)


@pytest.mark.parametrize("name", sorted(_ADJACENCY_USERS))
def test_directed_adjacency_is_accepted(name):
    # The model's A is any neighbourhood matrix; only the spectral path, the
    # cohesion fits and the writers need it undirected.
    A, x, m = small_instance(39, n=60, n_communities=2)
    y = np.random.default_rng(40).standard_normal(60)
    A[0, 1], A[1, 0] = 1.0, 0.0
    _ADJACENCY_USERS[name](A, x, y, m)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 40),
    K=st.integers(1, 4),
    p=st.integers(1, 3),
    layout=st.sampled_from(["c", "fortran", "strided", "integer"]),
    symmetric=st.booleans(),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregate_matches_numpy_product(n, K, p, layout, symmetric, weighted, seed):
    rng = np.random.default_rng(seed)
    m = random_membership(rng, n, K)
    A = (rng.random((n, n)) < 0.4).astype(np.float64)
    if weighted:  # integer weights, so the integer layout holds the same matrix
        A *= rng.integers(1, 6, size=(n, n))
    if symmetric:
        A = np.triu(A) + np.triu(A, k=1).T
    X = rng.standard_normal((n, p))
    M = (X[:, :, None] * m.onehot()[:, None, :]).reshape(n, -1)
    ref = A @ M
    given_A = in_layout(A, layout)
    kept = given_A.copy()
    N = aggregate(given_A, X, m)
    scale = float((np.abs(A) @ np.abs(M)).max())
    np.testing.assert_allclose(N, ref, rtol=1e-12, atol=1e-12 * scale)
    # Every layout gives the C-ordered float64 result bit for bit.
    assert np.array_equal(N, aggregate(A, X, m))
    assert given_A.dtype == kept.dtype and np.array_equal(given_A, kept)


def test_solver_min_norm_fallback():
    # Singular normal equations: duplicate columns
    H = np.array([[2.0, 2.0], [2.0, 2.0]])
    rhs = np.array([2.0, 2.0])
    b, deficient = solve_normal_equations(H, rhs, scale_rows=10)
    assert deficient
    # min-norm solution of the consistent system is (0.5, 0.5)
    assert np.allclose(b, [0.5, 0.5], atol=1e-12)
    b0, deficient0 = solve_normal_equations(np.zeros((2, 2)), np.zeros(2), scale_rows=10)
    assert deficient0 and np.all(b0 == 0.0)


def test_fit_result_serialization(tmp_path):
    A, x, m = small_instance(36, n=30, n_communities=2)
    y = np.random.default_rng(37).standard_normal(30)
    fit = fit_full(A, x, y, m)
    out = tmp_path / "fit.json"
    fit.save_json(out)
    import json

    data = json.loads(out.read_text())
    assert np.allclose(np.array(data["beta_hat"]), fit.beta)
    assert data["structure"] == "full"
    assert len(data["min_norm_used"]) == 2
    fitted_csv = tmp_path / "fitted.csv"
    fit.save_fitted_csv(fitted_csv)
    lines = fitted_csv.read_text().strip().splitlines()
    assert lines[0] == "node_id,fitted"
    assert len(lines) == 31


# Properties under hypothesis: node permutations, scaling of x and y, and
# centring twice.


@st.composite
def _network_problem(draw):
    """A, x, y and a membership: 0/1 or weighted, symmetric or directed."""
    K = draw(st.integers(1, 4), label="K")
    n = draw(st.integers(3 * K, 40), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    A = (rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 0.9]), label="density")).astype(float)
    if draw(st.booleans(), label="weighted"):
        A *= rng.uniform(0.1, 5.0, size=(n, n))
    if draw(st.booleans(), label="symmetric"):
        A = np.triu(A) + np.triu(A, k=1).T
    np.fill_diagonal(A, 1.0)
    return A, rng.standard_normal(n), rng.standard_normal(n), random_membership(rng, n, K)


# The designs each fitter solves by normal equations, from the aggregate N:
# one per community, N itself, or the neighbourhood sum.
_DESIGNS = {
    fit_full: lambda N, m: [N[m.labels == k] for k in range(m.n_communities)],
    fit_row: lambda N, m: [N],
    fit_singleton: lambda N, m: [N.sum(axis=1, keepdims=True)],
}


def _conditioning(A, x, m, fitter) -> float:
    """Largest condition number of the fitter's normal matrices, on the eigenvalues pinv_psd keeps."""
    worst = 1.0
    for Nk in _DESIGNS[fitter](aggregate(A, x[:, None], m), m):
        w = np.linalg.eigvalsh(Nk.T @ Nk)
        kept = w[w > m.n * np.finfo(np.float64).eps * max(w[-1], 0.0)]
        if kept.size:
            worst = max(worst, kept[-1] / kept[0])
    return worst


def _close(got, want, rtol):
    """Equal up to rtol of the larger array's largest entry."""
    scale = max(float(np.abs(want).max(initial=0.0)), 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * scale)


@settings(max_examples=100, deadline=None)
@given(problem=_network_problem(), data=st.data())
def test_fit_and_predict_are_node_permutation_equivariant(problem, data):
    # Relabelling the nodes by P permutes the fitted values and keeps beta:
    # fit(P A P^T, P x, P y, labels o P^-1) = (beta, P fitted), for the full,
    # row and singleton fits. Only the order of the sums changes, so the two
    # fits agree to rounding times the conditioning of the normal equations.
    A, x, y, m = problem
    n = x.size
    fitter = data.draw(st.sampled_from(list(_DESIGNS)), label="fitter")
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    A_p, x_p, y_p = A[np.ix_(perm, perm)], x[perm], y[perm]
    m_p = Membership(labels=m.labels[perm], n_communities=m.n_communities)
    fit, fit_p = fitter(A, x, y, m), fitter(A_p, x_p, y_p, m_p)
    rtol = 1e-14 * _conditioning(A, x, m, fitter)
    assert fit_p.min_norm == fit.min_norm
    _close(fit_p.beta, fit.beta, rtol)
    _close(fit_p.fitted, fit.fitted[perm], rtol)
    # Each prediction sums the terms N_ik beta_c(i)k; its rounding scales
    # with their magnitudes, not with the prediction, which may cancel.
    beta = data.draw(st.sampled_from([fit.beta, np.ones_like(fit.beta)]), label="beta")
    terms = np.abs(aggregate(A, x[:, None], m) * beta[m.labels]).sum(axis=1)
    np.testing.assert_allclose(
        predict(A_p, x_p, m_p, beta), predict(A, x, m, beta)[perm], rtol=0, atol=1e-13 * max(terms.max(), 1.0)
    )


@settings(max_examples=100, deadline=None)
@given(
    problem=_network_problem(),
    c=st.sampled_from([-4.0, 0.25, 2.0, 2.0**20]),
    d=st.sampled_from([-0.5, 2.0, 8.0, 2.0**-10]),
)
def test_fit_full_is_scale_covariant(problem, c, d):
    # fit(A, c x, d y) has coefficients (d / c) beta and fitted values
    # d * fitted. Scaling by a power of two is exact in every step (the
    # aggregate, the normal equations, their eigendecomposition and pinv_psd's
    # rank rule), so the results are equal bit for bit.
    A, x, y, m = problem
    fit, scaled = fit_full(A, x, y, m), fit_full(A, c * x, d * y, m)
    assert scaled.min_norm == fit.min_norm
    assert np.array_equal(scaled.beta, (d / c) * fit.beta)
    assert np.array_equal(scaled.fitted, d * fit.fitted)


@settings(max_examples=100, deadline=None)
@given(problem=_network_problem())
def test_center_data_is_idempotent(problem):
    # Centring the centred response, or target community k's centred
    # covariate, again changes neither.
    A, x, y, m = problem
    first = center_data(A, x, y, m)
    for k in range(m.n_communities):
        again = center_data(A, first.covariate[k], first.response, m)
        _close(again.response, first.response, 1e-12)
        _close(again.covariate[k], first.covariate[k], 1e-12)
        assert again.zero_blocks == first.zero_blocks
