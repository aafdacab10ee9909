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
from scipy.linalg import blas
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import LinearOperator, eigsh

from ._io import write_csv

# Brute force over K! permutations up to this K; Hungarian above it.
_EXHAUSTIVE_PERM_MAX_K = 8
# Dense eigendecomposition below this size; Lanczos above.
_DENSE_EIG_MAX_N = 500


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

    @classmethod
    def from_onehot(cls, Z) -> "Membership":
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2:
            raise ValueError("one-hot matrix must be 2-d")
        if not np.all((Z == 0.0) | (Z == 1.0)) or not np.all(Z.sum(axis=1) == 1.0):
            raise ValueError("rows must contain exactly one 1")
        return cls(labels=Z.argmax(axis=1), n_communities=Z.shape[1])

    def to_csv(self, path) -> None:
        write_csv(path, ["node_id", "label"], enumerate(self.labels.tolist()))

    @classmethod
    def from_csv(cls, path, n_communities: int | None = None) -> "Membership":
        """Read a node_id,label CSV; the n rows must name each id in 0..n-1 once.

        Labels must be non-negative and, with K communities (the largest label
        plus one when ``n_communities`` is not given), use each of 0..K-1.
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
        K = n_communities if n_communities is not None else int(labels.max()) + 1
        unused = np.flatnonzero(np.bincount(labels, minlength=K)[:K] == 0)
        if unused.size:
            raise ValueError(f"{path}: no node has label {unused[0]}; 0..{K - 1} must all be used")
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


def _leading_eigenpairs(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of symmetric A for the k largest-magnitude eigenvalues.

    Returned in descending |eigenvalue| order (ties broken by descending
    eigenvalue), with a deterministic sign convention: each vector's
    largest-magnitude entry is positive.
    """
    n = A.shape[0]
    if n <= _DENSE_EIG_MAX_N or k >= n - 1:
        vals, vecs = np.linalg.eigh(A)
    else:
        # ARPACK runs on scipy's OpenBLAS, so its products do too (dsymv; see
        # the note above baseline._lapack). A symmetric C-ordered A is, as
        # A.T, the same matrix in Fortran order; any other layout is copied
        # once here, never per product.
        F = A.T if A.flags.c_contiguous else np.asfortranarray(A)
        op = LinearOperator(A.shape, matvec=lambda v: blas.dsymv(1.0, F, v), dtype=np.float64)
        # Fixed start vector keeps Lanczos deterministic.
        v0 = np.full(n, 1.0 / np.sqrt(n))
        vals, vecs = eigsh(op, k=k, which="LM", v0=v0)
    order = np.lexsort((-vals, -np.abs(vals)))[:k]
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, j]))
        if vecs[pivot, j] < 0:
            vecs[:, j] = -vecs[:, j]
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
    A = np.asarray(adjacency, dtype=np.float64)
    n = A.shape[0]
    K = int(n_communities)
    if not 1 <= K <= n:
        raise ValueError(f"n_communities must be in [1, {n}], got {K}")
    return _embedding(*_leading_eigenpairs(A, K))


@dataclass(frozen=True)
class ScreeResult:
    """Leading singular values with the bulk-edge suggestion for K.

    ``bulk_edge`` is the threshold the suggestion counted singular values
    above. ``estimate_k`` also keeps the k_max eigenvectors the scree came
    from in ``eigenvectors``, so ``embedding`` reuses them instead of solving
    again. A scree built without them has ``eigenvectors=None`` and no
    embedding.
    """

    singular_values: np.ndarray
    suggested_k: int
    flat_scree: bool
    eigenvectors: np.ndarray | None = field(default=None, repr=False, compare=False)
    bulk_edge: float | None = None

    def embedding(self, n_communities: int) -> SpectralEmbedding:
        """What spectral_embed returns for K <= k_max, from the stored eigenpairs."""
        if self.eigenvectors is None:
            raise ValueError("this scree holds no eigenvectors")
        K = int(n_communities)
        k_max = self.singular_values.size
        if not 1 <= K <= k_max:
            raise ValueError(f"n_communities must be in [1, {k_max}], got {K}")
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
    """
    A = np.asarray(adjacency, dtype=np.float64)
    n = A.shape[0]
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must be in [1, {n}], got {k_max}")
    vals, vecs = _leading_eigenpairs(A, k_max)
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


def _kmeanspp_centers(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((K, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, K):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int = 300):
    n, K = points.shape[0], centers.shape[0]
    prev_obj = np.inf
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        # Repair empty clusters: move the point currently farthest from its
        # center into the empty cluster and anchor the center there.
        counts = np.bincount(new_labels, minlength=K)
        for k in np.nonzero(counts == 0)[0]:
            assigned = d2[np.arange(n), new_labels]
            donor_ok = counts[new_labels] > 1
            assigned = np.where(donor_ok, assigned, -np.inf)
            far = int(np.argmax(assigned))
            counts[new_labels[far]] -= 1
            new_labels[far] = k
            counts[k] += 1
            centers[k] = points[far]
            d2[:, k] = ((points - centers[k]) ** 2).sum(axis=1)
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        for k in range(K):
            centers[k] = points[labels == k].mean(axis=0)
        obj = float(((points - centers[labels]) ** 2).sum())
        if obj > prev_obj + 1e-9 * (1.0 + abs(prev_obj if np.isfinite(prev_obj) else 0.0)):
            raise RuntimeError("k-means objective increased")
        prev_obj = obj
        if converged:
            break
    return labels, prev_obj


def kmeans(embedding, n_clusters: int, seed: int, restarts: int = 10) -> Membership:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` runs.

    Deterministic given ``seed``: restart r uses the r-th spawned child seed,
    and ties in the final objective go to the lowest restart index. Empty
    clusters are repaired by stealing the point farthest from its center.
    """
    points = embedding.vectors if isinstance(embedding, SpectralEmbedding) else np.asarray(
        embedding, dtype=np.float64
    )
    K = int(n_clusters)
    if K < 1:
        raise ValueError("n_clusters must be >= 1")
    if np.unique(points, axis=0).shape[0] < K:
        raise DegenerateInputError(
            f"need at least {K} distinct rows to form {K} clusters"
        )
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best_labels, best_obj = None, np.inf
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = _kmeanspp_centers(points, K, rng)
        labels, obj = _lloyd(points, centers.copy())
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    return Membership(labels=best_labels, n_communities=K)


def detect_communities(
    adjacency, n_communities: int, seed: int, restarts: int = 10
) -> Membership:
    """Spectral embedding followed by k-means."""
    emb = spectral_embed(adjacency, n_communities)
    return kmeans(emb, n_communities, seed=seed, restarts=restarts)


def _agreement_counts(est: Membership, ref: Membership) -> np.ndarray:
    K = est.n_communities
    counts = np.zeros((K, K), dtype=np.int64)
    np.add.at(counts, (est.labels, ref.labels), 1)
    return counts


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
    counts = _agreement_counts(estimated, reference)
    if K <= _EXHAUSTIVE_PERM_MAX_K:
        best_perm, best_score = None, -1
        for perm in itertools.permutations(range(K)):
            score = sum(counts[a, perm[a]] for a in range(K))
            if score > best_score:
                best_perm, best_score = perm, score
        assignment = np.array(best_perm, dtype=np.int64)
    else:
        row, col = linear_sum_assignment(counts, maximize=True)
        assignment = np.empty(K, dtype=np.int64)
        assignment[row] = col
    Q = np.zeros((K, K), dtype=np.int64)
    Q[np.arange(K), assignment] = 1
    return Q


def misclustering_count(estimated: Membership, reference: Membership) -> int:
    """Nodes whose label differs from the reference after optimal alignment."""
    Q = align_permutation(estimated, reference)
    mapped = Q.argmax(axis=1)[estimated.labels]
    return int(np.sum(mapped != reference.labels))


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
