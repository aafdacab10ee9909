"""Network-cohesion baseline and trivial network ablations.

The cohesion model gives every node its own intercept, shrunk toward local
smoothness by the graph Laplacian quadratic form, plus one global slope:

    minimize ||y - alpha - beta x||^2 + lam * alpha^T L alpha,  L = diag(A 1) - A.

The regularization weight is picked by node-level cross-validation; held-out
intercepts are imputed by harmonic extension of the training intercepts over
the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._io import write_json

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
        write_json(path, self.to_dict())


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
    _check_inputs(A, x, y)
    n = x.size
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


# Every dense BLAS or LAPACK call on the hot paths goes through scipy: the
# cohesion CV's Lanczos products (dgemm), tridiagonal eigensolves (dstev) and
# held-out solves (dposv), the fit_netcoh refit (dgesv) and the Lanczos
# products of community._leading_eigenpairs (ARPACK itself is scipy's). The
# CV's other contractions are numpy einsum, which calls no BLAS. numpy and
# scipy each load their own OpenBLAS with its own thread pool; when calls
# alternate between the two, the idle workers of one pool spin and take CPU
# from the other. On 2 cores an earlier form of the CV took 0.80 s at
# n = 1000 (median of 7) with numpy doing part of each fold's products, and
# 0.39 s with scipy only.


def _lapack(routine: str, *args, **kwargs) -> list:
    """Call a scipy LAPACK wrapper; raise LinAlgError naming it unless info == 0."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")
    return out


def _check_inputs(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Raise ValueError unless A is finite, symmetric and n x n, and x, y are finite n-vectors."""
    if x.ndim != 1:
        raise ValueError(f"covariate must be a vector, got shape {x.shape}")
    n = x.size
    if A.shape != (n, n):
        raise ValueError(f"adjacency must be {n} x {n} to match the covariate, got shape {A.shape}")
    if y.shape != (n,):
        raise ValueError(f"response must have shape ({n},) to match the covariate, got {y.shape}")
    for name, values in (("adjacency", A), ("covariate", x), ("response", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} has non-finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError("adjacency must be symmetric")


# A Lanczos run stops once the Galerkin residual of every grid lambda is below
# this, relative to the right-hand side. I + lam L_tt >= I, so the residual
# also bounds the relative error of the run's solutions.
_LANCZOS_RTOL = 1e-13
# Basis steps allocated at a time; runs on the paper's networks take 20-31.
_LANCZOS_CHUNK = 32


def _lanczos(A_f, rhs, mask, deg, held, lambdas):
    """Lanczos for many training Laplacians at once, one product with A per step.

    Run r solves (I + lam L_r) s = rhs[r] for every grid lambda. For a v that
    is zero off the run's training nodes (mask[r] = 1), L_r v =
    deg[r] v - mask[r] (A v) is the training subgraph's Laplacian, where deg[r]
    = A mask[r]; one dgemm of A_f (A in Fortran order) with the block of
    current basis vectors advances every run. The held-out rows ``held[r]`` of
    each product A v are kept for the harmonic extension.

    For each lambda the LDL^T pivots of I + lam T_m, d_1 = 1 + lam a_1 and
    d_k = 1 + lam a_k - (lam b_{k-1})^2 / d_{k-1}, and the relative Galerkin
    residual lam b_m prod_{k<m} lam b_k / prod_{k<=m} d_k update in O(1) per
    step. A run stops when that residual is below _LANCZOS_RTOL for every
    lambda, when b_m vanishes against |L_r v_m| (the Krylov space is
    invariant, so the answer is exact) or when the basis spans the training
    set. A pivot <= 0 means I + lam L_r is not positive definite.

    Returns the bases (runs x steps x n), the kept rows of A V (runs x steps x
    held), the tridiagonals' diagonals a and off-diagonals b, the norms of the
    right-hand sides and every run's step count.
    """
    runs, n = rhs.shape
    cap = _LANCZOS_CHUNK
    V = np.empty((runs, cap, n))
    AV_held = np.empty((runs, cap, held.shape[1]))
    a_diag = np.empty((runs, cap))
    b_off = np.empty((runs, cap))
    steps = np.zeros(runs, dtype=np.intp)
    size = np.count_nonzero(mask, axis=1)
    norm = np.sqrt(np.einsum("rn,rn->r", rhs, rhs))
    # A zero right-hand side starts from v = 0: a = b = 0, and the run ends
    # after one step with the exact solution s = 0. A run that has ended
    # continues with v = 0, so the block keeps its shape.
    v = rhs / np.where(norm > 0.0, norm, 1.0)[:, None]
    v_prev = np.zeros_like(v)
    b_prev = np.zeros(runs)
    pivot = np.ones((runs, lambdas.size))
    gain = np.ones((runs, lambdas.size))
    for k in range(n):
        if k == cap:
            cap += _LANCZOS_CHUNK
            V, AV_held, a_diag, b_off = (
                np.concatenate((arr, np.empty((runs, _LANCZOS_CHUNK, *arr.shape[2:]))), axis=1)
                for arr in (V, AV_held, a_diag, b_off)
            )
        V[:, k] = v
        Av = blas.dgemm(1.0, A_f, v.T).T
        AV_held[:, k] = np.take_along_axis(Av, held, axis=1)
        w = deg * v - mask * Av
        a = np.einsum("rn,rn->r", v, w)
        lv_norm = np.sqrt(np.einsum("rn,rn->r", w, w))
        w -= a[:, None] * v + b_prev[:, None] * v_prev
        # Full reorthogonalisation against the run's own basis, twice.
        for _ in range(2):
            w -= np.einsum("rkn,rk->rn", V[:, : k + 1], np.einsum("rkn,rn->rk", V[:, : k + 1], w))
        b = np.sqrt(np.einsum("rn,rn->r", w, w))
        a_diag[:, k], b_off[:, k] = a, b

        coupling = lambdas * b_prev[:, None]
        pivot = 1.0 + lambdas * a[:, None] - coupling * coupling / pivot
        if not (pivot > 0.0).all():
            r, j = np.unravel_index(np.argmin(pivot), pivot.shape)
            raise np.linalg.LinAlgError(
                f"I + lam L of a CV training subgraph is not positive definite at "
                f"lam = {lambdas[j]:.6g} (Lanczos pivot {pivot[r, j]:.6g}); "
                "are some edge weights negative?"
            )
        gain = gain * (coupling if k else 1.0) / pivot
        done = (
            (lambdas * b[:, None] * gain <= _LANCZOS_RTOL).all(axis=1)
            | (b <= 1e-13 * lv_norm)
            | (k + 1 >= size)
        )
        steps[(steps == 0) & done] = k + 1
        if steps.all():
            break
        b_prev = np.where(steps == 0, b, 0.0)
        v_prev, v = v, w / np.where(steps == 0, b, np.inf)[:, None]
    return V, AV_held, a_diag, b_off, norm, steps


def _shifted_coefficients(a, b, norm, lambdas):
    """Coefficients of a run's solution s(lam) = V C(lam) and of rhs - s(lam) = V D(lam).

    With T = tridiag(b, a, b) = W diag(theta) W^T, the columns are
    C(lam) = W diag(1 / (1 + lam theta)) W^T e_1 norm and
    D(lam) = W diag(lam theta / (1 + lam theta)) W^T e_1 norm, one per lambda.
    D is formed directly, without the cancellation in norm e_1 - C, because
    the slope's denominator x^T (x_t - s_x) can be a tiny part of x^T x.
    """
    theta, W = _lapack("dstev", a, b)
    shift = np.outer(theta, lambdas)
    coef = (W[0] * norm)[:, None] / (1.0 + shift)
    return blas.dgemm(1.0, W, coef), blas.dgemm(1.0, W, coef * shift)


def _grounded(A: np.ndarray, held: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Held-out nodes whose component of the held-out subgraph has an edge into the training set.

    ``boundary`` is each held-out node's edge weight into the training set.
    The block of L_hh on the other (ungrounded) components is singular.
    """
    touches = boundary > 0
    if touches.all():
        return touches
    _, comp = connected_components(csr_matrix(A[np.ix_(held, held)]), directed=False)
    return np.bincount(comp, weights=touches)[comp] > 0


def _pass_sq_err(A, A_f, deg, x, y, folds, lambdas):
    """Held-out squared error of every lambda summed over some folds, and their ungrounded count.

    Each fold's training fit solves (I + lam L_tt) [s_x, s_y] = [x_t, y_t]
    for every lambda; both solutions of every fold come from one Lanczos pass
    (see _lanczos), as s(lam) = V C(lam), with x_t - s_x = V_x D_x and
    y_t - s_y = V_y D_y. Then
    beta = x^T (y_t - s_y) / x^T (x_t - s_x) = (x^T V_y) D_y / (x^T V_x) D_x,
    alpha_t = s_y - beta s_x, and the training mean comes from (1^T V) C.
    The harmonic extension L_gg alpha_g = A_gt alpha_t of the grounded
    held-out nodes g is, since A_gt s = (A V)[g] C, one SPD solve for the
    kept rows of A V.
    """
    n, nf = x.size, len(folds)
    train = np.ones((n, nf), order="F")
    for f, held in enumerate(folds):
        train[held, f] = 0.0
    # Training degrees; on a held-out node, its edge weight into the training set.
    deg_t = blas.dgemm(1.0, A_f, train)
    mask = np.tile(train.T, (2, 1))
    held_rows = np.zeros((2 * nf, max(h.size for h in folds)), dtype=np.intp)
    for f, held in enumerate(folds):
        held_rows[f, : held.size] = held_rows[nf + f, : held.size] = held
    rhs = mask * np.repeat(np.stack((x, y)), nf, axis=0)
    V, AV_held, a_diag, b_off, norm, steps = _lanczos(
        A_f, rhs, mask, np.tile(deg_t.T, (2, 1)), held_rows, lambdas
    )
    x_one = np.stack((x, np.ones(n)))
    sq_err = np.zeros(lambdas.size)
    ungrounded = 0
    for f, held in enumerate(folds):
        runs = (f, nf + f)
        (C_x, D_x), (C_y, D_y) = (
            _shifted_coefficients(
                a_diag[r, : steps[r]], b_off[r, : max(steps[r] - 1, 1)], norm[r], lambdas
            )
            for r in runs
        )
        # x^T V and 1^T V of both runs.
        (xV_x, oneV_x), (xV_y, oneV_y) = (
            np.einsum("kn,pn->pk", V[r, : steps[r]], x_one) for r in runs
        )
        denom = np.einsum("k,kq->q", xV_x, D_x)
        num = np.einsum("k,kq->q", xV_y, D_y)
        beta = np.zeros(lambdas.size)
        identified = denom > 1e-12 * max(norm[f] ** 2, 1.0)
        beta[identified] = num[identified] / denom[identified]

        # Ungrounded held-out nodes take the training mean of alpha_t.
        alpha_h = np.empty((held.size, lambdas.size))
        alpha_h[:] = (
            np.einsum("k,kq->q", oneV_y, C_y) - beta * np.einsum("k,kq->q", oneV_x, C_x)
        ) / (n - held.size)
        grounded = _grounded(A, held, deg_t[held, f])
        if grounded.any():
            hg = held[grounded]
            L_gg = -A[np.ix_(hg, hg)]
            L_gg[np.diag_indices_from(L_gg)] += deg[hg]
            rows = np.concatenate([AV_held[r, : steps[r], : held.size][:, grounded] for r in runs])
            # L_gg is symmetric, so L_gg.T, like rows.T, is in Fortran order
            # and dposv reads both without a copy. Each grounded component's
            # block is an irreducibly diagonally dominant M-matrix, hence
            # positive definite.
            Z = _lapack("dposv", L_gg.T, rows.T, overwrite_a=1)[1]
            m_x = steps[f]
            alpha_h[grounded] = blas.dgemm(1.0, Z[:, m_x:], C_y) - beta * blas.dgemm(
                1.0, Z[:, :m_x], C_x
            )
        resid = y[held][:, None] - (alpha_h + np.outer(x[held], beta))
        sq_err += np.einsum("gq,gq->q", resid, resid)
        ungrounded += held.size - int(np.count_nonzero(grounded))
    return sq_err, ungrounded


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
    to the smallest lambda). Krylov spaces are invariant under shifts, so one
    Lanczos run per right-hand side (x_t and y_t of each fold) serves every
    lambda; all runs advance together by one product of A with a block of
    vectors per step, and the training Laplacians are never formed. A pass
    holds up to max(5, n // 32) folds, so the bases stay near twice the size
    of A. Held-out nodes in components with no edge into the training set
    take the training mean; ``notes["ungrounded_held_out"]`` counts them over
    folds. Raises LinAlgError when some I + lam L_tt is not positive definite
    (negative edge weights).
    """
    A = np.asarray(adjacency, dtype=np.float64)
    x = np.asarray(covariate, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    _check_inputs(A, x, y)
    n = x.size
    if not 2 <= n_folds <= n:
        raise ValueError(f"n_folds must be in [2, {n}], got {n_folds}")
    lambdas = default_lambda_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if np.any(lambdas <= 0.0):
        raise ValueError("all grid values must be positive")
    # A is symmetric, so A.T is A in Fortran order, and dgemm reads it without
    # a copy; any other layout is copied once here, never per product.
    A_f = A.T if A.flags.c_contiguous else np.asfortranarray(A)
    deg = A.sum(axis=1)
    rng = np.random.default_rng(seed)
    folds = [np.sort(fold) for fold in np.array_split(rng.permutation(n), n_folds)]
    per_pass = max(5, n // _LANCZOS_CHUNK)
    total_sq_err = np.zeros(lambdas.size)
    ungrounded = 0
    for start in range(0, n_folds, per_pass):
        # The pass's bases are freed on return, before the refit below.
        sq_err, pass_ungrounded = _pass_sq_err(
            A, A_f, deg, x, y, folds[start : start + per_pass], lambdas
        )
        total_sq_err += sq_err
        ungrounded += pass_ungrounded
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
