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

from ._inputs import symmetric, vector
from ._io import write_json

DEFAULT_GRID_SIZE = 100
DEFAULT_GRID_RANGE = (1e-3, 10.0)


def laplacian(adjacency) -> np.ndarray:
    """Combinatorial graph Laplacian diag(A 1) - A (self-loops cancel); A finite and symmetric."""
    A = symmetric(adjacency)
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


def fit_netcoh(adjacency, covariate, response, lam: float) -> NetcohFit:
    """Solve the penalized problem exactly: alpha = s_y - beta s_x, beta from _slope.

    (I + lam L) [s_x, s_y] = [x, y] is one Lanczos run each on the whole graph
    (see _lanczos). An unidentified slope (x constant on every connected
    component) is beta = 0 with ``notes["slope_identified"]`` False. Raises
    LinAlgError when I + lam L is not positive definite (negative edge weights).
    """
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    A, x, y = _checked(adjacency, covariate, response)
    rhs = np.stack((x, y))
    deg = np.tile(A.sum(axis=1), (2, 1))
    held = np.zeros((2, 0), np.intp)
    runs = _lanczos(A, rhs, np.ones_like(rhs), deg, held, np.array([lam]), np.array([0, 0]))
    return _whole_graph_fit(runs, x, lam)


def predict_netcoh(fit: NetcohFit, covariate) -> np.ndarray:
    x = np.asarray(covariate, dtype=np.float64)
    return fit.alpha + fit.beta * x


def netcoh_objective(adjacency, covariate, response, alpha, beta, lam) -> float:
    """Penalized loss ||y - alpha - beta x||^2 + lam alpha^T L alpha."""
    y = np.asarray(response, dtype=np.float64)
    r = y - predict_netcoh(NetcohFit(alpha=np.asarray(alpha, float), beta=beta, lam=lam), covariate)
    a = np.asarray(alpha, dtype=np.float64)
    L = laplacian(adjacency)
    return float(r @ r + lam * np.einsum("i,ij,j->", a, L, a))


def default_lambda_grid() -> np.ndarray:
    lo, hi = DEFAULT_GRID_RANGE
    return np.logspace(np.log10(lo), np.log10(hi), DEFAULT_GRID_SIZE)


# Every product with A and every LAPACK call of the cohesion fits is scipy's.
# The Lanczos sweep's dot products of length n are numpy's vecdot, a BLAS ddot
# that OpenBLAS runs on the calling thread up to n = 10 000; see README, "One
# OpenBLAS pool".


def _lapack(routine: str, *args, **kwargs) -> list:
    """Call a scipy LAPACK wrapper; raise LinAlgError naming it unless info == 0."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")
    return out


def _checked(adjacency, covariate, response):
    """A (C-ordered), x and y: A finite, symmetric and n x n, x and y finite n-vectors."""
    x = vector(covariate, None, "covariate")
    return symmetric(adjacency, x.size), x, vector(response, x.size, "response")


# A Lanczos run stops once the Galerkin residual of every grid lambda is below
# this, relative to the right-hand side. I + lam L_tt >= I, so the residual
# also bounds the relative error of the run's solutions.
_LANCZOS_RTOL = 1e-13
# A y run's residual must be below _LANCZOS_RTOL times the slope's
# denominator as a fraction of x^T x, x^T (x - s_x) / x^T x, taken from its x
# run: beta = x^T (y - s_y) / x^T (x - s_x) carries the y run's error divided
# by that denominator, while the denominator itself is a Gauss quadrature,
# accurate to about the square of the x run's residual. The fraction is
# floored here, so that the y run of an unidentified slope (a fraction at
# rounding size) does not run to n; below the floor, beta loses accuracy in
# proportion to floor / fraction.
_SLOPE_FRACTION_FLOOR = 1e-4
# Basis steps allocated at a time; runs on the paper's networks take 20-31.
_LANCZOS_CHUNK = 32
# Blocks of at most this many runs advance by one dsymv per run, not a dgemm:
# at n = 2000 two dsymv took 0.85 ms a step, a two-column dgemm 1.5-1.9 ms.
_DSYMV_MAX_RUNS = 2


def _lanczos(A, rhs, mask, deg, held, lambdas, x_run):
    """Lanczos for many training Laplacians at once, one product with A per step.

    Run r solves (I + lam L_r) s = rhs[r] for every grid lambda. For a v that
    is zero off the run's training nodes (mask[r] = 1), L_r v =
    deg[r] v - mask[r] (A v) is the training subgraph's Laplacian, where deg[r]
    = A mask[r]; one dgemm of A.T (A in Fortran order) with the block of
    current basis vectors advances every run, or one dsymv per run for a
    block of up to _DSYMV_MAX_RUNS runs. The held-out rows ``held[r]`` of
    each product -A v are kept for the harmonic extension, gathered by one
    flat take.

    For each lambda the LDL^T pivots of I + lam T_m, d_1 = 1 + lam a_1 and
    d_k = 1 + lam a_k - (lam b_{k-1})^2 / d_{k-1}, and the relative Galerkin
    residual lam b_m prod_{k<m} lam b_k / prod_{k<=m} d_k update in O(1) per
    step, and so does rhs^T (rhs - s) / rhs^T rhs = 1 - e_1^T (I + lam T_m)^-1 e_1
    = 1 - sum_k z_k^2 / d_k, where z_1 = 1 and z_{k+1} = -(lam b_k / d_k) z_k.
    Run r is the y of a slope whose x is run ``x_run[r]`` where that differs
    from r. A run stops when that residual is below _LANCZOS_RTOL for every
    lambda, for a y run times its x run's fraction (at least
    _SLOPE_FRACTION_FLOOR) and only once that run has stopped, so that the
    fraction is final; or when b_m vanishes against |L_r v_m| (the Krylov
    space is invariant, so the answer is exact); or when the basis spans the
    training set. A pivot <= 0 means I + lam L_r is not positive definite.

    Returns the bases (steps x runs x n), the kept rows of -A V (steps x runs x
    held), the tridiagonals' diagonals a and off-diagonals b (runs x steps),
    the norms of the right-hand sides and every run's step count. Past its
    last step, a run's basis vectors are zero.
    """
    runs, n = rhs.shape
    cap = _LANCZOS_CHUNK
    V = np.empty((cap, runs, n))
    AV_held = np.empty((cap, *held.shape))
    a_diag = np.empty((runs, cap))
    b_off = np.empty((runs, cap))
    steps = np.zeros(runs, dtype=np.intp)
    size = np.count_nonzero(mask, axis=1)
    norm = np.sqrt(np.einsum("rn,rn->r", rhs, rhs))
    flat_held = held + n * np.arange(runs)[:, None]
    # A zero right-hand side starts from v = 0: a = b = 0, and the run ends
    # after one step with the exact solution s = 0. A run that has ended
    # continues with v = 0, so the block keeps its shape.
    np.divide(rhs, np.where(norm > 0.0, norm, 1.0)[:, None], out=V[0])
    # The next basis vector w, the pivots and the gains are formed in place;
    # three_term holds b_{k-1} and a_k, and part holds what w loses.
    w, part = np.empty((runs, n)), np.empty((runs, n))
    three_term = np.zeros((2, runs))
    b_prev, a = three_term
    pivot = np.ones((runs, lambdas.size))
    gain = np.ones((runs, lambdas.size))
    fraction = np.ones((runs, lambdas.size))
    y_run = x_run != np.arange(runs)
    # The residual each run must reach, relative to its rhs.
    tol = np.full((runs, lambdas.size), _LANCZOS_RTOL)
    coupling = np.empty_like(pivot)
    shrink = np.empty_like(pivot)
    for k in range(n):
        v = V[k]
        # w = deg v - A v, by one dgemm into w^T (Fortran order) or one dsymv
        # into each row of w. v is zero off the training set, so there w is
        # -A v: the kept rows.
        np.multiply(deg, v, out=w)
        if runs <= _DSYMV_MAX_RUNS:
            for v_r, w_r in zip(v, w):
                blas.dsymv(-1.0, A.T, v_r, 1.0, w_r, overwrite_y=1)
        else:
            blas.dgemm(-1.0, A.T, v.T, 1.0, w.T, overwrite_c=1)
        w.take(flat_held, out=AV_held[k], mode="clip")  # the ids are in range
        w *= mask
        np.vecdot(v, w, out=a)
        if k:
            w -= np.einsum("krn,kr->rn", V[k - 1 : k + 1], three_term, out=part)
        else:
            w -= np.multiply(a[:, None], v, out=part)
        # Full reorthogonalisation against the run's own basis: once, and
        # again where the part it removed outweighs the part it left, that is
        # where it cancelled more than a factor sqrt(2) of w's norm (the test
        # of Daniel, Gragg, Kaufman and Stewart, 1976, as in ARPACK).
        for _ in range(2):
            c = np.vecdot(V[: k + 1], w)
            w -= np.einsum("krn,kr->rn", V[: k + 1], c, out=part)
            b = np.sqrt(np.vecdot(w, w))
            if not (np.einsum("kr,kr->r", c, c) > b * b).any():
                break
        a_diag[:, k], b_off[:, k] = a, b

        np.multiply(lambdas, b_prev[:, None], out=coupling)
        np.multiply(coupling, coupling, out=shrink)
        shrink /= pivot
        np.multiply(lambdas, a[:, None], out=pivot)
        pivot += 1.0
        pivot -= shrink
        if not pivot.min() > 0.0:
            r, j = np.unravel_index(np.argmin(pivot), pivot.shape)
            raise np.linalg.LinAlgError(
                f"I + lam L is not positive definite at lam = {lambdas[j]:.6g} "
                f"(Lanczos pivot {pivot[r, j]:.6g}); are some edge weights negative?"
            )
        if k:
            gain *= coupling
        gain /= pivot
        # z_k^2 / d_k = gain_k^2 d_k, as gain_k = |z_k| / d_k.
        fraction -= gain * gain * pivot
        tol[y_run] = _LANCZOS_RTOL * np.maximum(fraction[x_run[y_run]], _SLOPE_FRACTION_FLOOR)
        np.multiply(lambdas, b[:, None], out=shrink)
        shrink *= gain
        # |L_r v| = |(b_prev, a, b)|, as v_prev, v and the next vector are orthonormal.
        invariant = b <= 1e-13 * np.hypot(np.hypot(b_prev, a), b)
        active = steps == 0
        ended = invariant | (k + 1 >= size)
        converged = (shrink <= tol).all(axis=1)
        x_done = ~active | converged | ended
        steps[active & ((converged & x_done[x_run]) | ended)] = k + 1
        if steps.all():
            break
        active = steps == 0
        np.multiply(b, active, out=b_prev)
        if k + 1 == cap:
            cap += _LANCZOS_CHUNK
            V, AV_held = (
                np.concatenate((arr, np.empty((_LANCZOS_CHUNK, *arr.shape[1:])))) for arr in (V, AV_held)
            )
            a_diag, b_off = (
                np.concatenate((arr, np.empty((runs, _LANCZOS_CHUNK))), axis=1) for arr in (a_diag, b_off)
            )
        np.divide(w, np.where(active, b, np.inf)[:, None], out=V[k + 1])
    return V, AV_held, a_diag, b_off, norm, steps


def _shifted_coefficients(a, b, norm, steps, lambdas):
    """A run's solutions in the eigenbasis of its tridiagonal T = tridiag(b, a, b) = W diag(theta) W^T.

    With q = W^T e_1 norm, s(lam) = V W coef(lam) and rhs - s(lam) =
    V W kept(lam), where coef = q / (1 + lam theta) and kept = coef lam theta,
    one column per lambda. kept is formed directly, without the cancellation
    in q - coef, because the slope's denominator x^T (x_t - s_x) can be a tiny
    part of x^T x. For the same reason an eigenvalue within dstev's rounding,
    steps eps max|theta|, of zero is zero (L is PSD): left as it is, a null
    eigenvalue enters kept at rounding size and, on a tiny denominator, moves
    the slope in its tenth digit. Returns W, coef and kept.
    """
    theta, W = _lapack("dstev", a[:steps], b[: max(steps - 1, 1)])
    theta[np.abs(theta) <= steps * np.finfo(float).eps * np.abs(theta).max()] = 0.0
    shift = np.outer(theta, lambdas)
    coef = (W[0] * norm)[:, None] / (1.0 + shift)
    return W, coef, coef * shift


def _slope(xU_x, kept_x, xU_y, kept_y, x_norm):
    """beta = x^T (rhs_y - s_y) / x^T (rhs_x - s_x) = (x^T V_y W_y) kept_y / (x^T V_x W_x) kept_x.

    xU_x and xU_y are x^T V W of the two runs. Where the denominator is not
    above 1e-12 max(|rhs_x|^2, 1), x is constant on every connected component
    (up to rounding) and beta = 0. Returns beta and where it is identified.
    """
    denom = np.einsum("k,kq->q", xU_x, kept_x)
    num = np.einsum("k,kq->q", xU_y, kept_y)
    beta = np.zeros(denom.size)
    identified = denom > 1e-12 * max(x_norm**2, 1.0)
    beta[identified] = num[identified] / denom[identified]
    return beta, identified


def _whole_graph_fit(runs, x, lam: float) -> NetcohFit:
    """The fit at lam from a _lanczos result whose runs 0 and 1 are x and y on the whole graph."""
    V, _, a_diag, b_off, norm, steps = runs
    lambdas = np.array([lam])
    (W_x, coef_x, kept_x), (W_y, coef_y, kept_y) = (
        _shifted_coefficients(a_diag[r], b_off[r], norm[r], steps[r], lambdas) for r in (0, 1)
    )
    V_x, V_y = V[: steps[0], 0], V[: steps[1], 1]
    xU_x, xU_y = (
        np.einsum("k,kj->j", np.einsum("kn,n->k", V_r, x), W) for V_r, W in ((V_x, W_x), (V_y, W_y))
    )
    beta, identified = _slope(xU_x, kept_x, xU_y, kept_y, norm[0])
    s_x, s_y = (
        np.einsum("kn,k->n", V_r, np.einsum("kj,j->k", W, coef[:, 0]))
        for V_r, W, coef in ((V_x, W_x, coef_x), (V_y, W_y, coef_y))
    )
    notes = {"slope_identified": bool(identified[0])}
    return NetcohFit(alpha=s_y - beta[0] * s_x, beta=float(beta[0]), lam=lam, notes=notes)


def _grounded(A: np.ndarray, held: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Held-out nodes whose component of the held-out subgraph has an edge into the training set.

    ``boundary`` is each held-out node's edge weight into the training set.
    The block of L_hh on the other (ungrounded) components is singular.
    """
    touches = boundary > 0
    if touches.all():
        return touches
    # Imported here: only a fold with an ungrounded held-out node needs them,
    # and scipy.sparse.csgraph adds about 1 MB to every process that loads it.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    _, comp = connected_components(csr_matrix(A[np.ix_(held, held)]), directed=False)
    return np.bincount(comp, weights=touches)[comp] > 0


def _cv_pass(A, x, y, folds, lambdas, deg=None):
    """Held-out squared error of every lambda summed over some folds, and their ungrounded count.

    Each fold's training fit solves (I + lam L_tt) [s_x, s_y] = [x_t, y_t]
    for every lambda; both solutions of every fold come from one Lanczos pass
    (see _lanczos), as s(lam) = V W coef(lam) with x_t - s_x = V_x W_x kept_x
    and y_t - s_y = V_y W_y kept_y (see _shifted_coefficients). Then beta
    comes from _slope, alpha_t = s_y - beta s_x, and the training mean comes
    from 1^T s. The harmonic extension L_gg alpha_g = A_gt alpha_t of the
    grounded held-out nodes g is, since A_gt s = (A V)[g] W coef, one SPD
    solve whose right-hand sides are the kept rows of -A V (see _lanczos),
    one per basis vector of the fold's two runs.

    Without ``deg`` (the first pass), one dgemm of A with [1, train] gives deg
    = A 1 beside the training degrees, and the pass carries two more runs: x
    and y on the whole graph, the refit's. Returns the squared errors, the
    ungrounded count, deg, and those two runs in _lanczos's layout (None when
    deg was given).
    """
    n, nf = x.size, len(folds)
    whole = int(deg is None)
    train = np.ones((n, whole + nf), order="F")
    for f, held in enumerate(folds):
        train[held, whole + f] = 0.0
    # Training degrees; on a held-out node, its edge weight into the training set.
    deg_t = blas.dgemm(1.0, A.T, train)
    if whole:
        deg = deg_t[:, 0]
    # Runs: x_t of every fold, y_t of every fold, then x and y on the whole graph.
    fold_cols = np.arange(whole, whole + nf)
    cols = np.concatenate((fold_cols, fold_cols, np.zeros(2 * whole, dtype=np.intp)))
    which = np.repeat([0, 1, 0, 1], [nf, nf, whole, whole])
    mask = train.T[cols]
    rhs = mask * np.stack((x, y))[which]
    held_rows = np.zeros((cols.size, max(h.size for h in folds)), dtype=np.intp)
    for f, held in enumerate(folds):
        held_rows[f, : held.size] = held_rows[nf + f, : held.size] = held
    x_run = np.concatenate((np.tile(np.arange(nf), 2), np.full(2 * whole, 2 * nf)))
    runs = _lanczos(A, rhs, mask, deg_t.T[cols], held_rows, lambdas, x_run)
    V, AV_held, a_diag, b_off, norm, steps = runs
    top = steps.max()
    # x^T V of every run (zero past a run's last step).
    xV = np.vecdot(V[:top], x).T
    sq_err = np.zeros(lambdas.size)
    ungrounded = 0
    for f, held in enumerate(folds):
        (W_x, coef_x, kept_x), (W_y, coef_y, kept_y) = (
            _shifted_coefficients(a_diag[r], b_off[r], norm[r], steps[r], lambdas) for r in (f, nf + f)
        )
        m_x, m_y = steps[f], steps[nf + f]
        beta = _slope(
            np.einsum("k,kj->j", xV[f, :m_x], W_x), kept_x,
            np.einsum("k,kj->j", xV[nf + f, :m_y], W_y), kept_y, norm[f],
        )[0]
        # alpha_t = V_y C_y - V_x C_x beta, with C = W coef.
        C = np.concatenate((blas.dgemm(-1.0, W_x, coef_x * beta), blas.dgemm(1.0, W_y, coef_y)))
        h = held.size
        # The held-out residual y_h - beta x_h - alpha_h, from alpha_h = 0.
        resid = np.outer(x[held], -beta)
        resid += y[held][:, None]
        grounded = _grounded(A, held, deg_t[held, whole + f])
        if not grounded.all():
            # Ungrounded held-out nodes take the training mean of alpha_t.
            one = np.concatenate((V[:m_x, f].sum(axis=1), V[:m_y, nf + f].sum(axis=1)))
            resid[~grounded] -= np.einsum("k,kq->q", one, C) / (n - h)
            ungrounded += h - int(np.count_nonzero(grounded))
        if grounded.any():
            hg = held[grounded]
            L_gg = A.take(np.add.outer(hg * n, hg))
            np.negative(L_gg, out=L_gg)
            L_gg.flat[:: hg.size + 1] += deg[hg]
            rows = np.concatenate((AV_held[:m_x, f, :h], AV_held[:m_y, nf + f, :h]))[:, grounded]
            # L_gg is symmetric, so L_gg.T, like rows.T, is in Fortran order
            # and dposv reads both without a copy. Each grounded component's
            # block is an irreducibly diagonally dominant M-matrix, hence
            # positive definite.
            Z = _lapack("dposv", L_gg.T, rows.T, overwrite_a=1, overwrite_b=1)[1]
            # alpha_g = -Z C, as the kept rows are those of -A V.
            resid[grounded] += blas.dgemm(1.0, Z, C)
        sq_err += np.einsum("gq,gq->q", resid, resid)
    if not whole:
        return sq_err, ungrounded, deg, None
    refit = V[:top, -2:].copy(), None, a_diag[-2:], b_off[-2:], norm[-2:], steps[-2:]
    return sq_err, ungrounded, deg, refit


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
    vectors per step, and the training Laplacians are never formed. The first
    pass also carries the refit's two runs, x and y on the whole graph, so
    the fit at the chosen lambda reads A no more. A pass holds up to
    max(5, n // 32) folds, so the bases stay near twice the size of A.
    Held-out nodes in components with no edge into the training set take the
    training mean; ``notes["ungrounded_held_out"]`` counts them over folds.
    Raises LinAlgError when some I + lam L_tt is not positive definite
    (negative edge weights).
    """
    A, x, y = _checked(adjacency, covariate, response)
    n = x.size
    if not 2 <= n_folds <= n:
        raise ValueError(f"n_folds must be in [2, {n}], got {n_folds}")
    lambdas = default_lambda_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if lambdas.ndim != 1 or not lambdas.size:
        raise ValueError(f"grid must be a non-empty 1-d sequence, got shape {lambdas.shape}")
    bad = ~(np.isfinite(lambdas) & (lambdas > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"grid values must be finite and positive; grid[{i}] = {lambdas[i]}")
    rng = np.random.default_rng(seed)
    folds = [np.sort(fold) for fold in np.array_split(rng.permutation(n), n_folds)]
    per_pass = max(5, n // _LANCZOS_CHUNK)
    total_sq_err, ungrounded, deg, refit = _cv_pass(A, x, y, folds[:per_pass], lambdas)
    for start in range(per_pass, n_folds, per_pass):
        sq_err, pass_ungrounded, _, _ = _cv_pass(A, x, y, folds[start : start + per_pass], lambdas, deg)
        total_sq_err += sq_err
        ungrounded += pass_ungrounded
    cv_errors = total_sq_err / n
    best = int(np.argmin(cv_errors))
    fit = _whole_graph_fit(refit, x, float(lambdas[best]))
    fit.cv_curve = list(zip(lambdas.tolist(), cv_errors.tolist()))
    fit.notes.update(
        n_folds=n_folds,
        seed=seed,
        held_out_rule="harmonic_extension",
        ungrounded_rule="training_mean",
        ungrounded_held_out=ungrounded,
        grid_size=int(lambdas.size),
    )
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
