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
from scipy.linalg import blas

from ._inputs import reject_non_finite_rows, square, vector
from ._io import write_csv, write_json
from .community import Membership


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
    node's neighbours in community k'; no n x n temporary is formed. The
    product is scipy's ``dgemm`` (README, "One OpenBLAS pool"); A.T of a
    C-ordered A is Fortran-ordered, so A is read in place, and A need not be
    symmetric. A non-finite entry of A makes its row of N non-finite (0 * nan
    and 0 * inf are nan), so checking the n x pK result rejects it without a
    pass over A.
    """
    A = square(adjacency, membership.n)
    M = (covariates[:, :, None] * membership.onehot()[:, None, :]).reshape(membership.n, -1)
    N = blas.dgemm(1.0, A.T, M, trans_a=1)
    reject_non_finite_rows(N, " of its aggregate")
    return N


def _fitted(N, coef, membership: Membership) -> np.ndarray:
    """Fitted values from the aggregate N: row i of N dotted with its community's coefficients."""
    return np.einsum("ik,ik->i", N, coef[membership.labels])


def build_design(adjacency, covariate, membership: Membership, community: int) -> np.ndarray:
    """Design matrix M_k for one response community (full n x K, zero rows kept).

    Entry (i, k') is sum over neighbors j of i in community k' of x_j when i
    belongs to ``community``, zero otherwise.
    """
    A = square(adjacency, membership.n)
    x = vector(covariate, membership.n, "covariate")
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


def _aggregates(adjacency, x, membership: Membership, aggregates) -> np.ndarray:
    """N = ``aggregate(A, x[:, None], membership)``, or the caller's ``aggregates``.

    Given ``aggregates``, A is not read; they must be n x K and finite.
    """
    if aggregates is None:
        return aggregate(adjacency, x[:, None], membership)
    N = np.asarray(aggregates, dtype=np.float64)
    shape = (membership.n, membership.n_communities)
    if N.shape != shape:
        raise ValueError(f"aggregates must be {shape[0]}x{shape[1]}, got {N.shape}")
    reject_non_finite_rows(N, name="aggregates")
    return N


def _fit(
    adjacency, covariate, response, membership: Membership, structure, solve, aggregates=None
) -> FitResult:
    """The structure fitters' one body: check the inputs, aggregate once, solve, predict.

    ``solve(N, y, membership)`` returns the K x K coefficients and the
    min-norm flags; ``predict`` is looked up at call time, so wrapping the
    module global wraps this call too. Given ``aggregates``, A is not read.
    """
    x = vector(covariate, membership.n, "covariate")
    y = vector(response, membership.n, "response")
    N = _aggregates(adjacency, x, membership, aggregates)
    beta, flags = solve(N, y, membership)
    fitted = predict(None, x, membership, beta, aggregates=N)
    return FitResult(
        beta=beta,
        structure=structure,
        membership=membership,
        fitted=fitted,
        residuals=y - fitted,
        aggregates=N,
        min_norm=flags,
    )


def fit_full(adjacency, covariate, response, membership: Membership, aggregates=None) -> FitResult:
    """Blockwise least squares: solve M_k^T M_k b = M_k^T y per community.

    Each row of the returned K x K coefficient matrix is estimated from the
    responses of one community; rank-deficient communities get the min-norm
    solution and are flagged in the result. ``aggregates``, when given, is
    the n x K aggregate N = A (x (x) Z) of some network; ``adjacency`` is
    then not read and may be None.
    """
    return _fit(
        adjacency, covariate, response, membership, "full", _solve_per_community, aggregates
    )


def predict(adjacency, covariate, membership: Membership, beta, aggregates=None) -> np.ndarray:
    """Model predictions ((Z beta Z^T) * A) x for a given coefficient matrix.

    ``aggregates`` is ``aggregate(A, x[:, None], membership)`` when the caller
    already holds it (the fitters do); it is then used instead of recomputed,
    and ``adjacency`` is not read and may be None.
    """
    x = vector(covariate, membership.n, "covariate")
    beta = np.asarray(beta, dtype=np.float64)
    K = membership.n_communities
    if beta.shape != (K, K):
        raise ValueError(f"beta must be {K}x{K}, got {beta.shape}")
    return _fitted(_aggregates(adjacency, x, membership, aggregates), beta, membership)


def loss(adjacency, covariate, response, membership: Membership, beta) -> float:
    """Half mean squared error of the model predictions."""
    y = vector(response, membership.n, "response")
    r = y - predict(adjacency, covariate, membership, beta)
    return 0.5 * float(r @ r) / membership.n


def loss_community(
    adjacency, covariate, response, membership: Membership, beta, community: int
) -> float:
    """Per-community half MSE; the total loss is their size-weighted average."""
    y = vector(response, membership.n, "response")
    beta = np.asarray(beta, dtype=np.float64)
    M = build_design(adjacency, covariate, membership, community)
    mask = membership.labels == community
    n_k = int(mask.sum())
    r = y * mask - M @ beta[community]
    return 0.5 * float(r @ r) / n_k


def _solve_row(N, y, membership: Membership) -> tuple[np.ndarray, list]:
    b0, deficient = solve_normal_equations(N.T @ N, N.T @ y, scale_rows=membership.n)
    return np.tile(b0, (membership.n_communities, 1)), [deficient]


def fit_row(adjacency, covariate, response, membership: Membership) -> FitResult:
    """Row-structured fit: one coefficient per source community, shared by all targets.

    Reduces to a single K-dimensional regression of y on the neighborhood
    aggregates (A * x) Z over all nodes.
    """
    return _fit(adjacency, covariate, response, membership, "row", _solve_row)


def _solve_singleton(N, y, membership: Membership) -> tuple[np.ndarray, list]:
    v = N.sum(axis=1)
    denom = float(v @ v)
    if denom <= 0.0:
        raise ValueError("degenerate input: x^T A^2 x is zero")
    K = membership.n_communities
    return np.full((K, K), float(v @ y) / denom), [False]


def fit_singleton(adjacency, covariate, response, membership: Membership) -> FitResult:
    """Singleton fit: a single scalar slope on the full neighborhood sum A x."""
    return _fit(adjacency, covariate, response, membership, "singleton", _solve_singleton)


def fit_ols(covariate, response) -> tuple[float, np.ndarray]:
    """No-intercept simple regression slope and fitted values (the R^2 baseline)."""
    x = vector(covariate, None, "covariate")
    y = vector(response, x.size, "response")
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
    A = square(adjacency, membership.n)
    x = vector(covariate, membership.n, "covariate")
    y = vector(response, membership.n, "response")
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
    n, K = membership.n, membership.n_communities
    A = square(adjacency, n)
    X = np.asarray(covariates, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"covariates must be n x p with n = {n}, got {X.shape}")
    p = X.shape[1]
    for col in range(p):
        vector(X[:, col], n, f"covariates column {col}")
    if p < 1:
        raise ValueError("need at least one covariate column")
    y = vector(response, n, "response")
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
