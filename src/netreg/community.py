"""Spectral community detection and label alignment.

Detection follows the row-normalized spectral route: take the eigenvectors of
the adjacency matrix attached to its K leading singular values, normalize each
row to unit length, and cluster the rows with k-means. Label ambiguity against
a reference membership is resolved by the permutation minimizing the Frobenius
distance between one-hot membership matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, eigh
from scipy.sparse.linalg import LinearOperator, eigsh

from ._inputs import reject_non_finite_rows, symmetric
from ._io import write_csv

# Brute force over K! permutations up to this K; Hungarian above it.
_EXHAUSTIVE_PERM_MAX_K = 8
# ARPACK's relative residual for the scree. A Ritz value's error is quadratic
# in its residual (Kato-Temple), so the values agree with tol = 0 to about
# 1e-14 while the bulk vectors, which no output of the scree reads, stop early.
_SCREE_TOL = 1e-8
# Scree values this close, relative to |theta_1|, are one multiple eigenvalue.
# A tol = 1e-8 solve gets its values to about 1e-14, so exact copies agree
# far closer; the 20 leading values of sampled networks were at least 1e-5
# apart.
_REPEATED_RTOL = 1e-10
# A scree eigenvector is kept for the embedding when its residual
# ||A v - theta v|| is at most this times |theta_1|: a backward error at
# machine precision, as with tol = 0.
_KEPT_RESIDUAL = 1e-12
# Restarts per batched Lloyd: as many as keep a restarts x K x n array of
# distances within 2^15 entries (256 KiB), so that a batch's temporaries stay
# near one restart's. All ten default restarts fit at n = 1000 and K = 3.
_LLOYD_BATCH_ENTRIES = 2**15
# Lloyd steps per restart; one whose labels still change keeps its last ones.
_LLOYD_MAX_ITER = 300


class DegenerateInputError(ValueError):
    """Input admits no meaningful clustering (e.g. fewer distinct rows than clusters)."""


@dataclass(frozen=True)
class Membership:
    """Hard community assignment: integer labels in [0, K).

    Every community must be non-empty.
    """

    labels: np.ndarray
    n_communities: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-d array")
        K = int(self.n_communities)
        if K < 1:
            raise ValueError("n_communities must be >= 1")
        if labels.min() < 0 or labels.max() >= K:
            raise ValueError(f"labels must lie in [0, {K})")
        if np.unique(labels).size != K:
            raise ValueError("every community must be non-empty")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_communities", K)

    @property
    def n(self) -> int:
        return self.labels.size

    def onehot(self) -> np.ndarray:
        """n x K one-hot matrix (float64)."""
        Z = np.zeros((self.n, self.n_communities), dtype=np.float64)
        Z[np.arange(self.n), self.labels] = 1.0
        return Z

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_communities)

    def to_csv(self, path) -> None:
        write_csv(path, ["node_id", "label"], enumerate(self.labels.tolist()))

    @classmethod
    def from_csv(cls, path) -> "Membership":
        """Read a node_id,label CSV; the n rows must name each id in 0..n-1 once.

        Labels must be non-negative and, with K the largest label plus one,
        use each of 0..K-1.
        """
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header.strip().lower().startswith("node_id"):
                raise ValueError("membership CSV must start with a node_id,label header")
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                node, _, lab = line.partition(",")
                try:
                    rows.append((line_no, int(node), int(lab)))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {line_no}: expected integer node_id,label, got {line!r}"
                    ) from None
        n = len(rows)
        labels = np.empty(n, dtype=np.int64)
        seen = {}
        for line_no, node, lab in rows:
            if not 0 <= node < n:
                raise ValueError(f"{path}: line {line_no}: node_id {node} outside 0..{n - 1}")
            if node in seen:
                raise ValueError(f"{path}: line {line_no}: node_id {node} repeats line {seen[node]}")
            if lab < 0:
                raise ValueError(f"{path}: line {line_no}: negative label {lab}")
            seen[node] = line_no
            labels[node] = lab
        if n == 0:
            raise ValueError(f"{path}: no node_id,label rows")
        used = np.unique(labels)
        K = int(used[-1]) + 1
        if used.size < K:
            # used is sorted and distinct: label i is missing at the first i with used[i] != i.
            unused = np.flatnonzero(used != np.arange(used.size))[0]
            raise ValueError(f"{path}: no node has label {unused}; 0..{K - 1} must all be used")
        return cls(labels=labels, n_communities=K)


@dataclass(frozen=True)
class SpectralEmbedding:
    """Row-normalized leading eigenvectors plus the leading singular values.

    Rows whose pre-normalization norm is numerically zero are flagged in
    ``zero_rows`` and left unnormalized.
    """

    vectors: np.ndarray
    singular_values: np.ndarray
    zero_rows: np.ndarray = field(repr=False)


def _leading_eigenpairs(
    A: np.ndarray, A_f: np.ndarray, k: int, tol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of A, as ``_inputs.symmetric`` returns it, for the k largest |eigenvalues|.

    Returned in descending |eigenvalue| order (ties broken by descending
    eigenvalue), with a deterministic sign convention: each vector's
    largest-magnitude entry is positive. Both solvers are scipy's (README,
    "One OpenBLAS pool"); ARPACK's products read A_f, A in Fortran order.
    ``tol`` is ARPACK's relative residual (0: machine precision); the dense
    solver ignores it.
    """
    n = A.shape[0]
    if k >= n - 1:  # ARPACK's basis would be the whole space: dsyevd, as numpy's eigh.
        vals, vecs = eigh(A, driver="evd", check_finite=False)
    else:
        op = LinearOperator(A.shape, matvec=lambda v: blas.dsymv(1.0, A_f, v), dtype=np.float64)
        # A fixed start vector, and a fixed seed for the random vector ARPACK
        # restarts from when its Krylov space turns invariant (as on an
        # identity or clique graph), give every call and process the same bits.
        v0 = np.full(n, 1.0 / np.sqrt(n))
        # ARPACK's Lanczos basis: scipy's default of 20 up to k = 5, then
        # 3k + 4. A wider basis restarts less: the k = 20 scree of a 2000-node
        # network took 380-404 products with A instead of 397-506 (README, Notes).
        ncv = min(n, max(20, 3 * k + 4))
        vals, vecs = eigsh(op, k=k, which="LM", v0=v0, ncv=ncv, tol=tol, rng=0)
    order = np.lexsort((-vals, -np.abs(vals)))[:k]
    vals = vals[order]
    vecs = vecs[:, order]
    flip = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])] < 0
    vecs[:, flip] = -vecs[:, flip]
    return vals, vecs


def _embedding(vals: np.ndarray, vecs: np.ndarray) -> SpectralEmbedding:
    """Row-normalize leading eigenvectors; the singular values are |vals|."""
    if not np.all(np.isfinite(vecs)):
        raise np.linalg.LinAlgError("eigensolver returned non-finite values")
    norms = np.linalg.norm(vecs, axis=1)
    zero_rows = norms <= 1e-12
    safe = np.where(zero_rows, 1.0, norms)
    return SpectralEmbedding(
        vectors=vecs / safe[:, None],
        singular_values=np.abs(vals),
        zero_rows=zero_rows,
    )


def spectral_embed(adjacency, n_communities: int) -> SpectralEmbedding:
    """Embed nodes via eigenvectors of the K leading singular values of A.

    For a symmetric matrix the singular values are the absolute eigenvalues,
    so the embedding columns are the eigenvectors with largest |eigenvalue|.
    Rows are normalized to unit Euclidean norm.
    """
    A, A_f = symmetric(adjacency)
    n = A.shape[0]
    K = int(n_communities)
    if not 1 <= K <= n:
        raise ValueError(f"n_communities must be in [1, {n}], got {K}")
    return _embedding(*_leading_eigenpairs(A, A_f, K))


@dataclass(frozen=True)
class ScreeResult:
    """Leading singular values with the bulk-edge suggestion for K.

    ``bulk_edge`` is the threshold the suggestion counted singular values
    above. ``estimate_k`` also keeps the leading eigenvectors the scree came
    from in ``eigenvectors``, so ``embedding`` reuses them instead of solving
    again: the longest prefix whose residuals meet the backward-error bound
    (``_KEPT_RESIDUAL``), which a dense solve meets for all k_max.
    """

    singular_values: np.ndarray
    suggested_k: int
    flat_scree: bool
    eigenvectors: np.ndarray = field(repr=False, compare=False)
    bulk_edge: float

    def embedding(self, n_communities: int) -> SpectralEmbedding:
        """What spectral_embed returns for K up to the kept eigenvectors, from the stored eigenpairs."""
        K = int(n_communities)
        kept = self.eigenvectors.shape[1]
        if not 1 <= K <= kept:
            raise ValueError(f"n_communities must be in [1, {kept}], got {K}")
        return _embedding(self.singular_values[:K], self.eigenvectors[:, :K])

    def to_csv(self, path) -> None:
        write_csv(path, ["index", "sigma"], enumerate(self.singular_values.tolist(), start=1))


def estimate_k(adjacency, k_max: int) -> ScreeResult:
    """Leading singular values of A with a bulk-edge suggestion for K.

    The suggestion counts the singular values above the edge of the noise
    bulk, 1.1 * 2 sqrt(n p (1 - p)) with p the off-diagonal edge density
    (Lei, AoS 2016; Le & Levina, arXiv:1507.00827); it is advisory and the
    scree values are the primary output. A count of 0 or of k_max (no
    separation within the first k_max values) yields suggestion 1 with the
    ``flat_scree`` flag.

    ARPACK stops at a relative residual of ``_SCREE_TOL``. When two of the
    values found agree to ``_REPEATED_RTOL`` (a multiple eigenvalue), the
    solve runs again to machine precision. The eigenvectors kept
    for ``ScreeResult.embedding`` are the leading ones whose residual is at
    machine precision (``_converged_prefix``).
    """
    A, A_f = symmetric(adjacency)
    n = A.shape[0]
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must be in [1, {n}], got {k_max}")
    vals, vecs = _leading_eigenpairs(A, A_f, k_max, tol=_SCREE_TOL)
    if _has_repeated_value(vals):
        # Lanczos from one start vector finds the further copies of a
        # multiple eigenvalue only as rounding grows them, and a run stopped
        # at _SCREE_TOL may end before it has: solve to machine precision
        # instead. A dense solve gives the same bits again.
        vals, vecs = _leading_eigenpairs(A, A_f, k_max)
    vecs = vecs[:, : _converged_prefix(A_f, vals, vecs)]
    sigma = np.abs(vals)
    p = float(np.clip((A.sum() - np.trace(A)) / max(n * (n - 1), 1), 0.0, 1.0))
    bulk_edge = 1.1 * 2.0 * float(np.sqrt(n * p * (1.0 - p)))
    count = int(np.count_nonzero(sigma > bulk_edge))
    flat = count in (0, k_max)
    return ScreeResult(
        singular_values=sigma,
        suggested_k=1 if flat else count,
        flat_scree=flat,
        eigenvectors=vecs,
        bulk_edge=bulk_edge,
    )


def _has_repeated_value(vals: np.ndarray) -> bool:
    """Whether two eigenvalues agree to within _REPEATED_RTOL |theta_1|."""
    return bool((np.diff(np.sort(vals)) <= _REPEATED_RTOL * np.abs(vals).max()).any())


def _converged_prefix(A_f: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> int:
    """How many leading pairs have ||A v_j - theta_j v_j|| <= _KEPT_RESIDUAL |theta_1|.

    One dsymv per pair, in order, up to the first that fails. One dgemm for
    all k = 20 pairs took 3 ms against 8 ms at n = 2000, but as the CLI's
    first scipy dgemm it touched OpenBLAS's buffer while detection held its
    memory, which raised `netreg detect`'s peak RSS by 1.5 MB.
    """
    bound = _KEPT_RESIDUAL * abs(vals[0])
    for j, (theta, v) in enumerate(zip(vals, vecs.T)):
        if np.linalg.norm(blas.dsymv(1.0, A_f, v, -theta, v)) > bound:
            return j
    return vals.size


def _kmeanspp_centers(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ start centers (K x d) drawn from ``rng``.

    The first center is ``rng.integers(n)``; each next one is
    ``rng.choice(n, p=d2 / total)`` on the squared distances d2 to the
    nearest center so far, or ``rng.integers(n)`` where every d2 is zero.
    """
    n = points.shape[0]
    centers = np.empty((K, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, K):
        total = d2.sum()
        if not np.isfinite(total):
            raise ValueError("k-means points are too far apart: their squared distances overflow")
        centers[c] = points[rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)]
        np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1), out=d2)
    return centers


def _pairwise_sum(term, count: int) -> np.ndarray:
    """term(0) + ... + term(count - 1), elementwise, in numpy's pairwise order.

    Stacked on a last axis, the terms would sum (``sum(axis=-1)``) by numpy's
    ``pairwise_sum`` over each row of ``count`` values: in order below 8
    values, eight running sums up to 128, halves at a multiple of 8 above.
    This adds whole arrays in that order, so the result has those bits
    without a reduction call per row, which is what makes a sum over a short
    last axis slow. ``term(j)`` returns a new array; below 8 terms only the
    running sum and one term are alive. ``test_pairwise_sum_is_numpys``
    checks the order.
    """
    if count > 128:
        half = count // 2 - count // 2 % 8
        total = _pairwise_sum(term, half)
        total += _pairwise_sum(lambda j: term(half + j), count - half)
        return total
    if count < 8:
        total = term(0)
        for j in range(1, count):
            total += term(j)
        return total
    acc = [term(j) for j in range(8)]
    tail = count - count % 8
    for i in range(8, tail, 8):
        for j, running in enumerate(acc):
            running += term(i + j)
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        acc[a] += acc[b]
    total = acc[0]  # ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
    for j in range(tail, count):
        total += term(j)
    return total


def _repair_empty(points: np.ndarray, d2: np.ndarray, labels: np.ndarray, counts: np.ndarray):
    """Fill each empty cluster with the point farthest from its center, in place.

    ``d2`` is one restart's n x K squared distances, ``labels`` and
    ``counts`` its assignment; a donor keeps at least one point.
    """
    n = labels.size
    for k in np.flatnonzero(counts == 0):
        assigned = d2[np.arange(n), labels]
        donor_ok = counts[labels] > 1
        assigned = np.where(donor_ok, assigned, -np.inf)
        far = int(np.argmax(assigned))
        counts[labels[far]] -= 1
        labels[far] = k
        counts[k] += 1
        d2[:, k] = ((points - points[far]) ** 2).sum(axis=1)


def _assign(points: np.ndarray, cols: np.ndarray, centers: np.ndarray):
    """Each restart's labels (a x n) and cluster sizes (a x K), empty clusters repaired.

    A point goes to its nearest center, the lowest index on a tie; squared
    distances are summed over dimensions in numpy's order (``_pairwise_sum``).
    ``cols`` is ``points.T``.
    """
    a, K, _ = centers.shape

    def squared_distance(j):  # a x K x n: dimension j of every point to every center
        diff = cols[j] - centers[:, :, j, None]
        return np.multiply(diff, diff, out=diff)

    d2 = _pairwise_sum(squared_distance, cols.shape[0])
    labels = d2.argmin(axis=1)
    counts = np.bincount(_bins(labels, K), minlength=a * K).reshape(a, K)
    for r in np.flatnonzero((counts == 0).any(axis=1)):
        _repair_empty(points, d2[r].T, labels[r], counts[r])
    return labels, counts


def _bins(labels: np.ndarray, K: int) -> np.ndarray:
    """The a x n labels, flattened, with restart r's clusters as bins r*K..r*K+K-1."""
    return (labels + K * np.arange(labels.shape[0])[:, None]).ravel()


def _centers(points: np.ndarray, cols: np.ndarray, labels: np.ndarray, counts: np.ndarray):
    """Each restart's cluster means (a x K x d): its points' sum in index order over their count.

    A weighted ``bincount`` adds a cluster's rows in index order, as numpy's
    mean over rows does. A one-column mean is numpy's pairwise sum instead,
    so that case takes the mean itself.
    """
    (a, K), d = counts.shape, cols.shape[0]
    if d == 1:
        return np.array([[points[lab == k].mean(axis=0) for k in range(K)] for lab in labels])
    bins = _bins(labels, K)
    sums = [np.bincount(bins, weights=np.tile(col, a), minlength=a * K) for col in cols]
    return np.stack(sums, axis=-1).reshape(a, K, d) / counts[:, :, None]


def _objectives(cols: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each restart's ((points - centers[labels]) ** 2).sum(), over n x d entries in row order."""
    (d, n), (a, K, _) = cols.shape, centers.shape
    bins = _bins(labels, K)
    resid = np.empty((a, n, d))
    for j in range(d):
        np.subtract(cols[j], centers[:, :, j].ravel()[bins].reshape(a, n), out=resid[:, :, j])
    return np.multiply(resid, resid, out=resid).reshape(a, -1).sum(axis=1)


def _lloyd(points: np.ndarray, centers: np.ndarray):
    """Lloyd's algorithm for R restarts at once from their R x K x d ``centers``.

    Returns the R x n labels and the R objectives. Each restart runs as it
    would alone, bit for bit (``_assign``, ``_centers``, ``_objectives``),
    and leaves the batch once its labels repeat.
    """
    R, n = centers.shape[0], points.shape[0]
    cols = np.ascontiguousarray(points.T)
    out_labels = np.empty((R, n), dtype=np.int64)
    out_obj = np.empty(R)
    active = np.arange(R)
    labels = np.full((R, n), -1, dtype=np.int64)
    prev_obj = np.full(R, np.inf)
    for _ in range(_LLOYD_MAX_ITER):
        new_labels, counts = _assign(points, cols, centers)
        converged = (new_labels == labels).all(axis=1)
        labels = new_labels
        centers = _centers(points, cols, labels, counts)
        obj = _objectives(cols, centers, labels)
        slack = 1e-9 * (1.0 + np.abs(np.where(np.isfinite(prev_obj), prev_obj, 0.0)))
        if (obj > prev_obj + slack).any():
            raise RuntimeError("k-means objective increased")
        done = active[converged]
        out_labels[done], out_obj[done] = labels[converged], obj[converged]
        keep = ~converged
        active, labels, centers, prev_obj = active[keep], labels[keep], centers[keep], obj[keep]
        if not active.size:
            break
    out_labels[active], out_obj[active] = labels, prev_obj
    return out_labels, out_obj


def _has_distinct_rows(points: np.ndarray, count: int) -> bool:
    """Whether the finite ``points`` has at least ``count`` distinct rows; stops at the count-th."""
    seen = np.zeros(points.shape[0], dtype=bool)
    for _ in range(count):
        unseen = np.flatnonzero(~seen)
        if not unseen.size:
            return False
        seen |= (points == points[unseen[0]]).all(axis=1)
    return True


def kmeans(embedding, n_clusters: int, seed: int, restarts: int = 10) -> Membership:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` runs.

    Deterministic given ``seed``: restart r uses the r-th spawned child seed,
    and ties in the final objective go to the lowest restart index. Empty
    clusters are repaired by stealing the point farthest from its center.
    The restarts run together in batched Lloyds (``_lloyd``).
    """
    points = embedding.vectors if isinstance(embedding, SpectralEmbedding) else np.asarray(
        embedding, dtype=np.float64
    )
    K = int(n_clusters)
    if K < 1:
        raise ValueError("n_clusters must be >= 1")
    reject_non_finite_rows(points, name="k-means points")
    if not _has_distinct_rows(points, K):
        raise DegenerateInputError(
            f"need at least {K} distinct rows to form {K} clusters"
        )
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    children = np.random.SeedSequence(seed).spawn(restarts)
    centers = np.stack([_kmeanspp_centers(points, K, np.random.default_rng(c)) for c in children])
    batch = max(1, _LLOYD_BATCH_ENTRIES // (K * points.shape[0]))
    runs = [_lloyd(points, centers[i : i + batch]) for i in range(0, restarts, batch)]
    labels = np.concatenate([lab for lab, _ in runs])
    objectives = np.concatenate([obj for _, obj in runs])
    # The first minimum: a tie goes to the lowest restart index.
    return Membership(labels=labels[np.argmin(objectives)], n_communities=K)


def detect_communities(
    adjacency, n_communities: int, seed: int, restarts: int = 10
) -> Membership:
    """Spectral embedding followed by k-means."""
    emb = spectral_embed(adjacency, n_communities)
    return kmeans(emb, n_communities, seed=seed, restarts=restarts)


def align_permutation(estimated: Membership, reference: Membership) -> np.ndarray:
    """Permutation matrix Q minimizing ||Z_est Q - Z_ref||_F^2.

    Q[a, b] = 1 maps estimated label a to reference label b; equivalently Q
    maximizes label agreement. Exhaustive search over K! permutations for
    small K, Hungarian assignment on the agreement-count matrix otherwise;
    both are global optima.
    """
    if estimated.n != reference.n:
        raise ValueError("memberships must have the same number of nodes")
    if estimated.n_communities != reference.n_communities:
        raise ValueError("memberships must have the same number of communities")
    K = estimated.n_communities
    # counts[a, b]: nodes with estimated label a and reference label b.
    counts = np.bincount(estimated.labels * K + reference.labels, minlength=K * K).reshape(K, K)
    if K <= _EXHAUSTIVE_PERM_MAX_K:
        rows = counts.tolist()
        # The first best permutation in lexicographic order: max keeps the first maximum.
        best = max(
            itertools.permutations(range(K)), key=lambda p: sum(map(list.__getitem__, rows, p))
        )
        assignment = np.array(best, dtype=np.int64)
    else:
        # Imported here: scipy.optimize costs every process about 17 MB and 0.25 s to load.
        from scipy.optimize import linear_sum_assignment

        row, col = linear_sum_assignment(counts, maximize=True)
        assignment = np.empty(K, dtype=np.int64)
        assignment[row] = col
    Q = np.zeros((K, K), dtype=np.int64)
    Q[np.arange(K), assignment] = 1
    return Q


def perturb_membership(membership: Membership, n_flips: int, seed: int) -> Membership:
    """Reassign ``n_flips`` distinct nodes, each to a uniformly random other community.

    Retries the whole draw when a community would become empty; raises after a
    bounded number of attempts.
    """
    n, K = membership.n, membership.n_communities
    if not 0 <= n_flips <= n:
        raise ValueError(f"n_flips must be in [0, {n}], got {n_flips}")
    if K < 2:
        raise ValueError("perturbation needs at least 2 communities")
    if n_flips == 0:
        return membership
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        labels = membership.labels.copy()
        chosen = rng.choice(n, size=n_flips, replace=False)
        offsets = rng.integers(1, K, size=n_flips)
        labels[chosen] = (labels[chosen] + offsets) % K
        if np.unique(labels).size == K:
            return Membership(labels=labels, n_communities=K)
    raise RuntimeError("could not perturb membership without emptying a community")
