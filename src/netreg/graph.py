"""Stochastic block model networks with deterministic self-loops.

Adjacency matrices are plain ``numpy`` arrays of 0/1 floats. Every matrix
produced here is symmetric with a unit diagonal: node i is always in its own
neighborhood, so downstream regression formulas never special-case the
diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._inputs import symmetric
from .community import Membership


class EdgeListFormatError(ValueError):
    """Raised for malformed edge-list files ("<path>: line <n>: ..."); keeps ``line_number``."""

    def __init__(self, message: str, line_number: int | None = None, path=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_number = line_number


def validate_adjacency(adjacency) -> np.ndarray:
    """Check symmetry, {0,1} entries, and unit diagonal; return a float64 array."""
    A, _ = symmetric(adjacency)
    if not np.all((A == 0.0) | (A == 1.0)):
        raise ValueError("adjacency entries must be 0 or 1")
    if not np.all(np.diag(A) == 1.0):
        raise ValueError("adjacency must have unit diagonal (self-loops)")
    return A


@dataclass(frozen=True)
class SbmParams:
    """Block-model parameters: a membership and a symmetric K x K edge-probability matrix."""

    membership: Membership
    block_probs: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.block_probs, dtype=np.float64)
        K = self.membership.n_communities
        if B.shape != (K, K):
            raise ValueError(f"block_probs must be {K}x{K}, got {B.shape}")
        if np.any(B < 0.0) or np.any(B > 1.0):
            raise ValueError("block_probs entries must lie in [0, 1]")
        if not np.array_equal(B, B.T):
            raise ValueError("block_probs must be symmetric")
        object.__setattr__(self, "block_probs", B)


def sample_sbm(params: SbmParams, seed: int) -> np.ndarray:
    """Sample an adjacency matrix from the stochastic block model.

    Each upper-triangle edge (i, j), i < j, is an independent Bernoulli with
    probability ``B[label_i, label_j]``; the matrix is mirrored and the
    diagonal forced to 1. The RNG stream is consumed in fixed row-major order
    over the strict upper triangle, so identical seeds give bit-identical
    matrices. Row i draws its ``n - 1 - i`` uniforms in one call, which is the
    same stream as one draw over the whole triangle.
    """
    labels = params.membership.labels
    n = labels.size
    probs_to = params.block_probs[:, labels]  # K x n: B[k, label_j]
    rng = np.random.default_rng(seed)
    upper = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        upper[i, i + 1 :] = rng.random(n - 1 - i) < probs_to[labels[i], i + 1 :]
    upper = upper | upper.T
    np.fill_diagonal(upper, True)
    return upper.astype(np.float64)


def network_sparsity(block_probs) -> float:
    """Maximum entry of the block-probability matrix."""
    B = np.asarray(block_probs, dtype=np.float64)
    if np.any(B < 0.0) or np.any(B > 1.0):
        raise ValueError("block_probs entries must lie in [0, 1]")
    return float(B.max())


def load_edge_list(path, n: int) -> np.ndarray:
    """Read a whitespace-separated edge list into an n x n adjacency matrix.

    Grammar, one line at a time: a blank (whitespace-only) line or a line
    whose first non-blank character is '#' is skipped; every other line holds
    exactly two whitespace-separated integers "i j" in [0, n), one undirected
    edge, 0-based. '#' starts a comment only at the start of a line. Lines may
    end in LF or CRLF and may carry leading or trailing spaces or tabs.
    Self-loops are forced to 1 regardless of the file content.

    The whole file is first parsed in one vectorised read. A file that read
    cannot take (a comment, a non-integer token, a wrong token count, an
    index out of range, no data) is parsed again by the line scan
    ``_scan_edge_list``, which is the reference for the grammar and the only
    source of ``EdgeListFormatError`` and its line number.
    """
    if n < 1:
        raise ValueError("n must be positive")
    A = np.zeros((n, n), dtype=np.float64)
    pairs = _read_edge_pairs(path, n)
    if pairs is None:
        _scan_edge_list(path, n, A)
    else:
        A[pairs[:, 0], pairs[:, 1]] = 1.0
        A[pairs[:, 1], pairs[:, 0]] = 1.0
    np.fill_diagonal(A, 1.0)
    return A


def _read_edge_pairs(path, n: int) -> np.ndarray | None:
    """The file as an (m, 2) int64 array of in-range pairs, or None to defer to the scan."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            pairs = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2, encoding="utf-8")
    except (ValueError, OverflowError, Warning):
        return None
    if pairs.size == 0 or pairs.shape[1] != 2 or pairs.min() < 0 or pairs.max() >= n:
        return None
    return pairs


def _scan_edge_list(path, n: int, A: np.ndarray) -> None:
    """Set A[i, j] = A[j, i] = 1 for each edge line; raise on the first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListFormatError(
                    f"expected two node indices, got {len(parts)} tokens", line_no, path
                )
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListFormatError(
                    f"non-integer node index in {line!r}", line_no, path
                ) from None
            if not (0 <= i < n and 0 <= j < n):
                raise EdgeListFormatError(
                    f"node index out of range [0, {n}) in {line!r}", line_no, path
                )
            A[i, j] = 1.0
            A[j, i] = 1.0


def save_edge_list(adjacency, path) -> None:
    """Write the strict upper triangle as "i j" lines (self-loops implicit)."""
    A = validate_adjacency(adjacency)
    n = A.shape[0]
    ids = [str(i) for i in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n - 1):
            cols = (np.flatnonzero(A[i, i + 1 :]) + (i + 1)).tolist()
            if cols:
                head = ids[i] + " "
                fh.write(head + ("\n" + head).join([ids[j] for j in cols]) + "\n")


def save_adjacency_csv(adjacency, path) -> None:
    """Export the full 0/1 matrix as CSV (one row per node)."""
    A = validate_adjacency(adjacency)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in A.astype(np.int64):
            fh.write(",".join(str(v) for v in row.tolist()) + "\n")
