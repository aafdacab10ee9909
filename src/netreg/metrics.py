"""Evaluation metrics: aligned estimation error, prediction error, adjusted R^2."""

from __future__ import annotations

import numpy as np

from .community import Membership


def estimation_error(beta_hat, beta_star, permutation=None) -> float:
    """Mean squared entry error of beta after aligning community labels.

    Computes ||Q^T beta_hat Q - beta_star||_F^2 / K^2 where Q maps estimated
    labels to reference labels (identity when omitted).
    """
    bh = np.asarray(beta_hat, dtype=np.float64)
    bs = np.asarray(beta_star, dtype=np.float64)
    if bh.shape != bs.shape or bh.ndim != 2 or bh.shape[0] != bh.shape[1]:
        raise ValueError("beta matrices must be square with equal shapes")
    K = bh.shape[0]
    if permutation is None:
        aligned = bh
    else:
        Q = np.asarray(permutation, dtype=np.float64)
        if Q.shape != (K, K):
            raise ValueError(f"permutation must be {K}x{K}")
        aligned = Q.T @ bh @ Q
    diff = aligned - bs
    return float((diff * diff).sum()) / (K * K)


def prediction_error(predicted, actual) -> float:
    """Mean squared prediction error."""
    yh = np.asarray(predicted, dtype=np.float64)
    y = np.asarray(actual, dtype=np.float64)
    if yh.shape != y.shape or yh.ndim != 1:
        raise ValueError("predicted and actual must be 1-d of equal length")
    r = yh - y
    return float(r @ r) / y.size


def network_adjusted_r2(response, fitted, fitted_ols, membership: Membership) -> float:
    """Adjusted share of response variation explained relative to plain OLS.

    1 - ((n - 1) / (n - K^2)) * sum_k ||y_k - yhat_k||^2 / ||y - yhat_ols||^2,
    summing squared residuals community by community. May be negative; it is
    reported as-is.
    """
    y = np.asarray(response, dtype=np.float64)
    yh = np.asarray(fitted, dtype=np.float64)
    yo = np.asarray(fitted_ols, dtype=np.float64)
    n, K = membership.n, membership.n_communities
    if y.shape != (n,) or yh.shape != (n,) or yo.shape != (n,):
        raise ValueError("all vectors must have length n")
    if n <= K * K:
        raise ValueError(f"need n > K^2 = {K * K}, got n = {n}")
    denom = float((y - yo) @ (y - yo))
    if denom <= 0.0:
        raise ValueError("OLS baseline has zero residual; statistic undefined")
    numer = 0.0
    for k in range(K):
        rk = (y - yh)[membership.labels == k]
        numer += float(rk @ rk)
    return 1.0 - (n - 1) / (n - K * K) * numer / denom

