"""Least-squares estimation for neighborhood regression with block coefficients.

The model ties node i's response to the covariates of its neighbors through a
K x K matrix beta indexed by community pairs:

    y_i = sum_{j : A_ij = 1} beta[c(i), c(j)] * x_j + noise_i

Estimation decomposes into K independent least-squares problems, one per
response community, each with the n x K design

    M_k = diag(Z[:, k]) (1 x^T * A) Z,

whose (i, k') entry aggregates the covariates of i's neighbors inside
community k' (zero for rows outside community k); ``aggregate`` computes
them. Rank-deficient normal equations fall back to the minimum-norm solution
and are flagged, never fatal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .community import Membership


def _as_vector(v, n: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_inputs(adjacency, membership: Membership) -> np.ndarray:
    A = np.asarray(adjacency, dtype=np.float64)
    n = membership.n
    if A.shape != (n, n):
        raise ValueError(f"adjacency must be {n}x{n}, got {A.shape}")
    return A


def pinv_psd(H, scale_rows: int) -> tuple[np.ndarray, bool]:
    """Pseudo-inverse of a symmetric PSD matrix, plus a rank-deficiency flag.

    Eigenvalues below ``scale_rows * eps * max_eigenvalue`` are treated as
    zero; the flag is set when any are.
    """
    w, V = np.linalg.eigh(np.asarray(H, dtype=np.float64))
    threshold = scale_rows * np.finfo(np.float64).eps * max(float(w[-1]), 0.0)
    keep = w > threshold
    Vk = V[:, keep]
    return (Vk / w[keep]) @ Vk.T, not keep.all()


def solve_normal_equations(H, rhs, scale_rows: int) -> tuple[np.ndarray, bool]:
    """Solve H b = rhs for symmetric PSD H; the min-norm solution if ``pinv_psd`` flags H."""
    H_pinv, deficient = pinv_psd(H, scale_rows)
    return H_pinv @ np.asarray(rhs, dtype=np.float64), deficient


def aggregate(adjacency, covariates, membership: Membership) -> np.ndarray:
    """Neighbourhood aggregate N = A (X (x) Z) of an n x p covariate block X.

    Column ``l * K + k'`` of the n x pK result sums covariate l over each
    node's neighbours in community k'; no n x n temporary is formed. A
    non-finite entry of A makes its row of N non-finite (0 * nan and 0 * inf
    are nan), so checking the n x pK result rejects it without a pass over A;
    the check replaces numpy's floating-point warnings.
    """
    Z = membership.onehot()
    with np.errstate(invalid="ignore", over="ignore"):
        N = adjacency @ (covariates[:, :, None] * Z[:, None, :]).reshape(membership.n, -1)
    if not np.isfinite(N).all():
        row = int(np.flatnonzero(~np.isfinite(N).all(axis=1))[0])
        raise ValueError(f"adjacency must be finite; row {row} of its aggregate is not")
    return N


def _fitted(N, coef, membership: Membership) -> np.ndarray:
    """Fitted values from the aggregate N: row i of N dotted with its community's coefficients."""
    return np.einsum("ik,ik->i", N, coef[membership.labels])


def build_design(adjacency, covariate, membership: Membership, community: int) -> np.ndarray:
    """Design matrix M_k for one response community (full n x K, zero rows kept).

    Entry (i, k') is sum over neighbors j of i in community k' of x_j when i
    belongs to ``community``, zero otherwise.
    """
    A = _check_inputs(adjacency, membership)
    x = _as_vector(covariate, membership.n, "covariate")
    K = membership.n_communities
    if not 0 <= community < K:
        raise ValueError(f"community must be in [0, {K}), got {community}")
    M = aggregate(A, x[:, None], membership)
    M[membership.labels != community] = 0.0
    return M


def _solve_per_community(N, y, membership: Membership) -> tuple[np.ndarray, list]:
    """Coefficient rows and min-norm flags of y regressed on N[labels == k], per community k."""
    rows, flags = [], []
    for k in range(membership.n_communities):
        mask = membership.labels == k
        Nk = N[mask]
        b, deficient = solve_normal_equations(Nk.T @ Nk, Nk.T @ y[mask], scale_rows=membership.n)
        rows.append(b)
        flags.append(deficient)
    return np.array(rows), flags


@dataclass
class FitResult:
    """Fitted block coefficients plus per-community solver diagnostics.

    ``aggregates`` is the n x K aggregate N; community k's design rows are
    ``aggregates[labels == k]``. ``min_norm`` is per response community for the
    full structure and holds the shared problem's flag for row and singleton.
    """

    beta: np.ndarray
    structure: str
    membership: Membership
    fitted: np.ndarray
    residuals: np.ndarray
    aggregates: np.ndarray
    min_norm: list

    @property
    def rank_deficient(self) -> bool:
        return any(self.min_norm)

    def to_dict(self) -> dict:
        res = self.residuals
        return {
            "beta_hat": [[float(v) for v in row] for row in self.beta],
            "structure": self.structure,
            "min_norm_used": list(self.min_norm),
            "residuals": {
                "n": int(res.size),
                "mean": float(res.mean()),
                "std": float(res.std(ddof=1)) if res.size > 1 else 0.0,
                "min": float(res.min()),
                "max": float(res.max()),
                "sum_sq": float(res @ res),
            },
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    def save_fitted_csv(self, path) -> None:
        write_csv(path, ["node_id", "fitted"], enumerate(self.fitted.tolist()))


def fit_full(adjacency, covariate, response, membership: Membership) -> FitResult:
    """Blockwise least squares: solve M_k^T M_k b = M_k^T y per community.

    Each row of the returned K x K coefficient matrix is estimated from the
    responses of one community; rank-deficient communities get the min-norm
    solution and are flagged in the result.
    """
    A = _check_inputs(adjacency, membership)
    x = _as_vector(covariate, membership.n, "covariate")
    y = _as_vector(response, membership.n, "response")
    N = aggregate(A, x[:, None], membership)
    beta, flags = _solve_per_community(N, y, membership)
    fitted = predict(A, x, membership, beta, aggregates=N)
    return FitResult(
        beta=beta,
        structure="full",
        membership=membership,
        fitted=fitted,
        residuals=y - fitted,
        aggregates=N,
        min_norm=flags,
    )


def predict(adjacency, covariate, membership: Membership, beta, aggregates=None) -> np.ndarray:
    """Model predictions ((Z beta Z^T) * A) x for a given coefficient matrix.

    ``aggregates`` is ``aggregate(A, x[:, None], membership)`` when the caller
    already holds it (the fitters do); it is then used instead of recomputed.
    """
    A = _check_inputs(adjacency, membership)
    x = _as_vector(covariate, membership.n, "covariate")
    beta = np.asarray(beta, dtype=np.float64)
    K = membership.n_communities
    if beta.shape != (K, K):
        raise ValueError(f"beta must be {K}x{K}, got {beta.shape}")
    if aggregates is None:
        aggregates = aggregate(A, x[:, None], membership)
    elif aggregates.shape != (membership.n, K):
        raise ValueError(f"aggregates must be {membership.n}x{K}, got {aggregates.shape}")
    return _fitted(aggregates, beta, membership)


def loss(adjacency, covariate, response, membership: Membership, beta) -> float:
    """Half mean squared error of the model predictions."""
    y = _as_vector(response, membership.n, "response")
    r = y - predict(adjacency, covariate, membership, beta)
    return 0.5 * float(r @ r) / membership.n


def loss_community(
    adjacency, covariate, response, membership: Membership, beta, community: int
) -> float:
    """Per-community half MSE; the total loss is their size-weighted average."""
    y = _as_vector(response, membership.n, "response")
    beta = np.asarray(beta, dtype=np.float64)
    M = build_design(adjacency, covariate, membership, community)
    mask = membership.labels == community
    n_k = int(mask.sum())
    r = y * mask - M @ beta[community]
    return 0.5 * float(r @ r) / n_k


def fit_row(adjacency, covariate, response, membership: Membership) -> FitResult:
    """Row-structured fit: one coefficient per source community, shared by all targets.

    Reduces to a single K-dimensional regression of y on the neighborhood
    aggregates (A * x) Z over all nodes.
    """
    A = _check_inputs(adjacency, membership)
    n, K = membership.n, membership.n_communities
    x = _as_vector(covariate, n, "covariate")
    y = _as_vector(response, n, "response")
    N = aggregate(A, x[:, None], membership)
    b0, deficient = solve_normal_equations(N.T @ N, N.T @ y, scale_rows=n)
    beta = np.tile(b0, (K, 1))
    fitted = predict(A, x, membership, beta, aggregates=N)
    return FitResult(
        beta=beta,
        structure="row",
        membership=membership,
        fitted=fitted,
        residuals=y - fitted,
        aggregates=N,
        min_norm=[deficient],
    )


def fit_singleton(adjacency, covariate, response, membership: Membership) -> FitResult:
    """Singleton fit: a single scalar slope on the full neighborhood sum A x."""
    A = _check_inputs(adjacency, membership)
    n, K = membership.n, membership.n_communities
    x = _as_vector(covariate, n, "covariate")
    y = _as_vector(response, n, "response")
    N = aggregate(A, x[:, None], membership)
    v = N.sum(axis=1)
    denom = float(v @ v)
    if denom <= 0.0:
        raise ValueError("degenerate input: x^T A^2 x is zero")
    b0 = float(v @ y) / denom
    beta = np.full((K, K), b0, dtype=np.float64)
    fitted = predict(A, x, membership, beta, aggregates=N)
    return FitResult(
        beta=beta,
        structure="singleton",
        membership=membership,
        fitted=fitted,
        residuals=y - fitted,
        aggregates=N,
        min_norm=[False],
    )


def fit_ols(covariate, response) -> tuple[float, np.ndarray]:
    """No-intercept simple regression slope and fitted values (the R^2 baseline)."""
    x = np.asarray(covariate, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("covariate and response must be 1-d of equal length")
    denom = float(x @ x)
    if denom <= 0.0:
        raise ValueError("degenerate input: x^T x is zero")
    slope = float(x @ y) / denom
    return slope, slope * x


@dataclass(frozen=True)
class CenteredData:
    """Response centered per community; covariates centered per (target, source) pair.

    ``covariate`` holds K rows: row k is the covariate vector centered by the
    connection-weighted source-community means used when fitting community k.
    (k, k') blocks with no edges get a zero mean and are listed in
    ``zero_blocks``.
    """

    covariate: np.ndarray
    response: np.ndarray
    zero_blocks: list


def center_data(adjacency, covariate, response, membership: Membership) -> CenteredData:
    """Center data so the community-wise fits need no intercepts.

    The response is centered by its community mean. For target community k,
    the covariate of node j in source community k' is shifted by the mean of
    the source community's covariates weighted by each node's share of the
    edges between k' and k.
    """
    A = _check_inputs(adjacency, membership)
    x = _as_vector(covariate, membership.n, "covariate")
    y = _as_vector(response, membership.n, "response")
    Z = membership.onehot()
    labels = membership.labels
    K = membership.n_communities

    sizes = membership.sizes().astype(np.float64)
    y_means = Z.T @ y / sizes
    y_centered = y - y_means[labels]

    # numer[k, k'] sums x_j over the edges from community k into community k';
    # denom[k, k'] counts those edges.
    sums = Z.T @ aggregate(A, np.column_stack([x, np.ones_like(x)]), membership)
    numer, denom = sums[:, :K], sums[:, K:]
    zero_blocks = [
        (int(k), int(kp)) for k, kp in zip(*np.nonzero(denom == 0.0))
    ]
    mu = np.divide(numer, denom, out=np.zeros_like(numer), where=denom != 0.0)
    x_centered = x - mu[:, labels]
    return CenteredData(covariate=x_centered, response=y_centered, zero_blocks=zero_blocks)


@dataclass
class MultiFitResult:
    """Fit of the multi-covariate extension: coefficient tensor (K, K, p)."""

    beta: np.ndarray
    membership: Membership
    fitted: np.ndarray
    residuals: np.ndarray
    min_norm: list


def fit_full_multi(adjacency, covariates, response, membership: Membership) -> MultiFitResult:
    """Blockwise least squares with p covariates per node.

    Community k's design stacks the per-covariate neighborhood aggregates side
    by side, so each row solves a Kp-dimensional problem; for p = 1 this is
    exactly the single-covariate fit.
    """
    A = _check_inputs(adjacency, membership)
    n, K = membership.n, membership.n_communities
    X = np.asarray(covariates, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"covariates must be n x p with n = {n}, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("covariates must be finite")
    p = X.shape[1]
    if p < 1:
        raise ValueError("need at least one covariate column")
    y = _as_vector(response, n, "response")
    N = aggregate(A, X, membership)
    # Row k holds community k's coefficients in N's column order l * K + k'.
    coef, flags = _solve_per_community(N, y, membership)
    fitted = _fitted(N, coef, membership)
    return MultiFitResult(
        beta=coef.reshape(K, p, K).transpose(0, 2, 1),
        membership=membership,
        fitted=fitted,
        residuals=y - fitted,
        min_norm=flags,
    )
