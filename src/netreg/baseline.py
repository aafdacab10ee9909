"""Network-cohesion baseline and trivial network ablations.

The cohesion model gives every node its own intercept, shrunk toward local
smoothness by the graph Laplacian quadratic form, plus one global slope:

    minimize ||y - alpha - beta x||^2 + lam * alpha^T L alpha,  L = diag(A 1) - A.

The regularization weight is picked by node-level cross-validation; held-out
intercepts are imputed by harmonic extension of the training intercepts over
the graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

DEFAULT_GRID_SIZE = 100
DEFAULT_GRID_RANGE = (1e-3, 10.0)


def laplacian(adjacency) -> np.ndarray:
    """Combinatorial graph Laplacian diag(A 1) - A (self-loops cancel)."""
    A = np.asarray(adjacency, dtype=np.float64)
    L = -A
    L[np.diag_indices_from(L)] += A.sum(axis=1)
    return L


@dataclass
class NetcohFit:
    """Per-node intercepts, global slope, and the CV trace that chose lambda."""

    alpha: np.ndarray
    beta: float
    lam: float
    cv_curve: list | None = None
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "alpha": [float(v) for v in self.alpha],
            "beta": float(self.beta),
            "lambda": float(self.lam),
            "notes": self.notes,
        }
        if self.cv_curve is not None:
            out["cv_curve"] = [
                {"lambda": float(l), "cv_error": float(e)} for l, e in self.cv_curve
            ]
        return out

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _netcoh_system(A: np.ndarray, x: np.ndarray, lam: float) -> np.ndarray:
    """The (n+1) x (n+1) normal matrix [[I + lam L, x], [x^T, x^T x]].

    I + lam L is written in place: the same values as that sum (up to the
    sign of zeros) without an n x n temporary beside the system.
    """
    n = x.size
    system = np.empty((n + 1, n + 1), dtype=np.float64)
    np.multiply(A, -lam, out=system[:n, :n])
    system[np.diag_indices(n)] = 1.0 + lam * (A.sum(axis=1) - np.diagonal(A))
    system[:n, n] = x
    system[n, :n] = x
    system[n, n] = x @ x
    return system


def fit_netcoh(adjacency, covariate, response, lam: float) -> NetcohFit:
    """Solve the penalized problem exactly via its (n+1)-dimensional normal system."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    A = np.asarray(adjacency, dtype=np.float64)
    x = np.asarray(covariate, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    n = x.size
    if A.shape != (n, n) or y.shape != (n,):
        raise ValueError("adjacency, covariate, and response dimensions disagree")
    rhs = np.concatenate([y, [x @ y]])
    try:
        # The system is symmetric, so its transpose is the same matrix in
        # Fortran order, and dgesv factors it in place without a copy.
        sol = _lapack("dgesv", _netcoh_system(A, x, lam).T, rhs, overwrite_a=1)[2]
    except np.linalg.LinAlgError:
        # Singular only when the slope is unidentifiable (e.g. constant x).
        # The traceback holds the factored system until this block ends.
        sol = None
    if sol is None:
        # dgesv overwrote the system with its factors, so it is built again,
        # after the factors are freed.
        sol = np.linalg.lstsq(_netcoh_system(A, x, lam), rhs, rcond=None)[0]
    return NetcohFit(alpha=sol[:n], beta=float(sol[n]), lam=float(lam))


def predict_netcoh(fit: NetcohFit, covariate) -> np.ndarray:
    x = np.asarray(covariate, dtype=np.float64)
    return fit.alpha + fit.beta * x


def netcoh_objective(adjacency, covariate, response, alpha, beta, lam) -> float:
    """Penalized loss ||y - alpha - beta x||^2 + lam alpha^T L alpha."""
    y = np.asarray(response, dtype=np.float64)
    r = y - predict_netcoh(NetcohFit(alpha=np.asarray(alpha, float), beta=beta, lam=lam), covariate)
    a = np.asarray(alpha, dtype=np.float64)
    L = laplacian(adjacency)
    return float(r @ r + lam * (a @ L @ a))


def default_lambda_grid() -> np.ndarray:
    lo, hi = DEFAULT_GRID_RANGE
    return np.logspace(np.log10(lo), np.log10(hi), DEFAULT_GRID_SIZE)


# Every dense BLAS or LAPACK call on the hot paths goes through scipy: inside
# a CV fold, in the fit_netcoh refit and in the Lanczos products of
# community._leading_eigenpairs (ARPACK itself is scipy's). numpy and scipy
# each load their own OpenBLAS with its own thread pool; when calls alternate
# between the two, the idle workers of one pool spin and take CPU from the
# other. On 2 cores a CV call at n = 1000 took 0.80 s (median of 7) with numpy
# doing the fold's harmonic solve and products, and 0.39 s with scipy only.


def _lapack(routine: str, *args, **kwargs) -> list:
    """Call a scipy LAPACK wrapper; raise LinAlgError naming it unless info == 0."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")
    return out


def _apply_q(trans: str, reflectors: np.ndarray, tau: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Q C (trans "N") or Q^T C (trans "T") for Householder reflectors in QR storage."""
    lwork = int(_lapack("dormqr", "L", trans, reflectors, tau, C, -1)[1][0])
    return _lapack("dormqr", "L", trans, reflectors, tau, C, lwork)[0]


def _harmonic_operator(A: np.ndarray, deg: np.ndarray, train: np.ndarray, held: np.ndarray):
    """Precompute the held-out intercept rule alpha_h = Op @ alpha_t.

    Minimizing alpha^T L alpha over held coordinates gives
    L_hh alpha_h = A_ht alpha_t. Connected components of the held-out
    subgraph with no edge into the training set are ungrounded: their block
    of L_hh is singular and they fall back to the training mean. ``deg`` is
    the degree vector of the whole graph, so L_hh is built without L.
    """
    _, comp = connected_components(csr_matrix(A[np.ix_(held, held)]), directed=False)
    boundary = A[np.ix_(held, train)]
    grounded = np.bincount(comp, weights=boundary.sum(axis=1) > 0)[comp] > 0
    if not grounded.any():
        return grounded, None
    hg = held[grounded]
    L_gg = -A[np.ix_(hg, hg)]
    L_gg[np.diag_indices_from(L_gg)] += deg[hg]
    # Each grounded component's block is an irreducibly diagonally dominant
    # M-matrix, hence positive definite.
    op = scipy.linalg.solve(L_gg, boundary[grounded], assume_a="pos")
    return grounded, op


def _fold_sq_err(A, deg, x, y, train, held, lambdas):
    """Held-out squared error of every lambda on one fold, and the ungrounded count.

    The training fit solves (I + lam L_tt) [s_x, s_y] = [x_t, y_t] for every
    lambda. One Householder reduction L_tt = Q T Q^T (dsytrd) turns each of
    those into a positive definite tridiagonal solve (dptsv) in the Q basis,
    so no eigenvector is formed; Q is applied once on the way in and once, to
    all lambdas' intercepts together, on the way out (dormqr).
    """
    t, m = train.size, lambdas.size
    xt, yt = x[train], y[train]
    # An isolated node appended to the training graph, with x = y = 0 on it,
    # is decoupled from the rest and changes no training solution; it keeps
    # the off-diagonal and reflector arrays non-empty when t = 1.
    L = laplacian(np.pad(A[np.ix_(train, train)], (0, 1)))
    lwork = int(_lapack("dsytrd_lwork", t + 1, lower=1)[0])
    # L is symmetric, so L.T is the same matrix in Fortran order and dsytrd
    # reduces it in place.
    c, d, e, tau = _lapack("dsytrd", L.T, lower=1, lwork=lwork, overwrite_a=1)
    # In lower storage Q = diag(1, Q1), where Q1 is the product of the
    # reflectors below the subdiagonal, stored as a QR factorization stores
    # its Q.
    reflectors = c[1:, :-1]
    U = np.zeros((t + 1, 2), order="F")
    U[:t, 0], U[:t, 1] = xt, yt
    U[1:] = _apply_q("T", reflectors, tau, U[1:])
    S_x = np.empty((t + 1, m), order="F")
    S_y = np.empty((t + 1, m), order="F")
    for j, lam in enumerate(lambdas):
        S = _lapack("dptsv", 1.0 + lam * d, lam * e, U)[2]
        S_x[:, j], S_y[:, j] = S[:, 0], S[:, 1]

    # beta and the intercepts (I + lam L_tt)^-1 (y_t - beta x_t), in the Q basis.
    xTx, xTy = blas.ddot(xt, xt), blas.ddot(xt, yt)
    denom = xTx - blas.dgemv(1.0, S_x, U[:, 0], trans=1)
    num = xTy - blas.dgemv(1.0, S_y, U[:, 0], trans=1)
    beta = np.zeros(m)
    identified = denom > 1e-12 * max(xTx, 1.0)
    beta[identified] = num[identified] / denom[identified]
    W = S_y - S_x * beta
    W[1:] = _apply_q("N", reflectors, tau, W[1:])
    alpha_t = W[:t]

    grounded, op = _harmonic_operator(A, deg, train, held)
    alpha_h = np.empty((held.size, m))
    alpha_h[:] = alpha_t.mean(axis=0)
    if op is not None:
        alpha_h[grounded] = blas.dgemm(1.0, op, alpha_t)
    resid = y[held][:, None] - (alpha_h + np.outer(x[held], beta))
    return (resid * resid).sum(axis=0), int(held.size - np.count_nonzero(grounded))


def cv_select_lambda(
    adjacency,
    covariate,
    response,
    n_folds: int = 5,
    seed: int = 0,
    grid=None,
) -> NetcohFit:
    """Pick lambda by node-level cross-validation, then refit on all nodes.

    Folds are a seeded random partition of the nodes. For each candidate
    lambda the model is fitted on the training subgraph, training intercepts
    are harmonically extended to the held-out nodes, and the held-out squared
    error is accumulated; the winner minimizes the mean held-out error (ties
    to the smallest lambda). Per fold the training Laplacian is reduced once
    to tridiagonal form, and every lambda costs one tridiagonal solve with
    two right-hand sides instead of a dense solve or an eigendecomposition.
    Held-out nodes in components with no edge into the training set take the
    training mean; ``notes["ungrounded_held_out"]`` counts them over folds.
    """
    A = np.asarray(adjacency, dtype=np.float64)
    x = np.asarray(covariate, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    n = x.size
    if not 2 <= n_folds <= n:
        raise ValueError(f"n_folds must be in [2, {n}], got {n_folds}")
    lambdas = default_lambda_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if np.any(lambdas <= 0.0):
        raise ValueError("all grid values must be positive")
    deg = A.sum(axis=1)
    rng = np.random.default_rng(seed)
    folds = np.array_split(rng.permutation(n), n_folds)
    total_sq_err = np.zeros(lambdas.size)
    ungrounded = 0
    for fold in folds:
        held = np.sort(fold)
        train = np.setdiff1d(np.arange(n), held)
        # The fold's arrays are freed on return, before the refit below.
        sq_err, fold_ungrounded = _fold_sq_err(A, deg, x, y, train, held, lambdas)
        total_sq_err += sq_err
        ungrounded += fold_ungrounded
    cv_errors = total_sq_err / n
    best = int(np.argmin(cv_errors))
    fit = fit_netcoh(A, x, y, float(lambdas[best]))
    fit.cv_curve = list(zip(lambdas.tolist(), cv_errors.tolist()))
    fit.notes = {
        "n_folds": n_folds,
        "seed": seed,
        "held_out_rule": "harmonic_extension",
        "ungrounded_rule": "training_mean",
        "ungrounded_held_out": ungrounded,
        "grid_size": int(lambdas.size),
    }
    return fit


def ablation_network(kind: str, n: int) -> np.ndarray:
    """Degenerate networks used as estimator ablations: identity or complete."""
    if n < 1:
        raise ValueError("n must be positive")
    if kind == "identity":
        return np.eye(n)
    if kind == "complete":
        return np.ones((n, n))
    raise ValueError(f"kind must be 'identity' or 'complete', got {kind!r}")
