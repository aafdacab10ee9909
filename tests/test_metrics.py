import numpy as np
import pytest

from conftest import random_membership, small_instance
from netreg import (
    Membership,
    align_permutation,
    estimation_error,
    fit_full,
    fit_ols,
    loss,
    network_adjusted_r2,
    prediction_error,
    predict,
)


def test_estimation_error_basics():
    rng = np.random.default_rng(0)
    beta = rng.standard_normal((3, 3))
    assert estimation_error(beta, beta) == 0.0
    assert np.isclose(estimation_error(beta + 1.0, beta, np.eye(3)), 9.0 / 9.0)
    two = rng.standard_normal((2, 2))
    assert np.isclose(estimation_error(two + 1.0, two), 1.0)


def test_estimation_error_alignment_removes_relabeling():
    rng = np.random.default_rng(1)
    m = random_membership(rng, 40, 3)
    beta_star = rng.standard_normal((3, 3))
    perm = np.array([2, 0, 1])
    Q0 = np.zeros((3, 3))
    Q0[np.arange(3), perm] = 1.0
    relabeled = Membership(labels=perm[m.labels], n_communities=3)
    beta_hat = Q0.T @ beta_star @ Q0  # what a fit on relabeled communities returns
    Q = align_permutation(relabeled, m)
    assert estimation_error(beta_hat, beta_star, Q) < 1e-24


def test_estimation_error_invariant_to_consistent_relabeling():
    rng = np.random.default_rng(2)
    m = random_membership(rng, 50, 4)
    est = random_membership(rng, 50, 4)
    beta_hat = rng.standard_normal((4, 4))
    beta_star = rng.standard_normal((4, 4))
    base = estimation_error(beta_hat, beta_star, align_permutation(est, m))

    perm = rng.permutation(4)
    Q0 = np.zeros((4, 4))
    Q0[np.arange(4), perm] = 1.0
    est_rel = Membership(labels=perm[est.labels], n_communities=4)
    beta_rel = Q0.T @ beta_hat @ Q0
    relabeled = estimation_error(beta_rel, beta_star, align_permutation(est_rel, m))
    assert np.isclose(base, relabeled, atol=1e-12)


def test_prediction_error():
    y = np.arange(10.0)
    assert prediction_error(y, y) == 0.0
    assert prediction_error(y + 1.0, y) == 1.0
    with pytest.raises(ValueError):
        prediction_error(y, y[:-1])


def test_prediction_error_is_twice_loss():
    A, x, m = small_instance(3, n=40, n_communities=2)
    rng = np.random.default_rng(4)
    beta = rng.standard_normal((2, 2))
    y = rng.standard_normal(40)
    yhat = predict(A, x, m, beta)
    assert prediction_error(yhat, y) == 2.0 * loss(A, x, y, m, beta)


def test_noiseless_fit_has_zero_prediction_error():
    A, x, m = small_instance(5, n=100, n_communities=2)
    beta_star = np.random.default_rng(6).standard_normal((2, 2))
    y = predict(A, x, m, beta_star)
    fit = fit_full(A, x, y, m)
    assert prediction_error(fit.fitted, y) <= 1e-16


def test_network_adjusted_r2():
    A, x, m = small_instance(7, n=60, n_communities=2)
    rng = np.random.default_rng(8)
    beta = rng.standard_normal((2, 2))
    y = predict(A, x, m, beta) + 0.3 * rng.standard_normal(60)
    _, fitted_ols = fit_ols(x, y)

    perfect = network_adjusted_r2(y, y, fitted_ols, m)
    assert perfect == 1.0

    # community fit identical to OLS with K = 1 collapses to zero
    single = Membership(labels=np.zeros(60, dtype=int), n_communities=1)
    assert np.isclose(network_adjusted_r2(y, fitted_ols, fitted_ols, single), 0.0)

    fit = fit_full(A, x, y, m)
    value = network_adjusted_r2(y, fit.fitted, fitted_ols, m)
    assert np.isfinite(value)

    with pytest.raises(ValueError):
        # n = 4 <= K^2 = 4: not enough degrees of freedom
        network_adjusted_r2(y[:4], y[:4], y[:4], Membership(np.array([0, 0, 1, 1]), 2))
    with pytest.raises(ValueError):
        network_adjusted_r2(y, y, y, m)  # zero OLS residual


def test_negative_r2_reported_as_is():
    rng = np.random.default_rng(9)
    n = 30
    m = Membership(labels=rng.integers(0, 2, n), n_communities=2)
    while np.unique(m.labels).size < 2:
        m = Membership(labels=rng.integers(0, 2, n), n_communities=2)
    y = rng.standard_normal(n)
    x = y + 0.01 * rng.standard_normal(n)  # OLS is nearly perfect
    _, fitted_ols = fit_ols(x, y)
    bad_fit = np.zeros(n)
    value = network_adjusted_r2(y, bad_fit, fitted_ols, m)
    assert value < 0.0
