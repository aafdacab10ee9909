"""Stochastic block model networks with deterministic self-loops.

Adjacency matrices are plain ``numpy`` arrays of 0/1 floats. Every matrix
produced here is symmetric with a unit diagonal: node i is always in its own
neighborhood, so downstream regression formulas never special-case the
diagonal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._inputs import symmetric
from .community import Membership

# Rows per block of ``sample_sbm``.
_TILE = 128
# Rows of A per block of ``validate_adjacency``'s 0/1 check and of ``save_edge_list``.
_ROW_BLOCK = 32


class EdgeListFormatError(ValueError):
    """Raised for malformed edge-list files ("<path>: line <n>: ..."); keeps ``line_number``."""

    def __init__(self, message: str, line_number: int, path):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number


def validate_adjacency(adjacency) -> np.ndarray:
    """Check symmetry, {0,1} entries, and unit diagonal; return a float64 array."""
    A = symmetric(adjacency)
    for i in range(0, A.shape[0], _ROW_BLOCK):
        rows = A[i : i + _ROW_BLOCK]
        if not ((rows == 0.0) | (rows == 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
    if not (A.diagonal() == 1.0).all():
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
        if not ((B >= 0.0) & (B <= 1.0)).all():  # NaN is outside too
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

    Rows are drawn ``_TILE`` at a time into a bool buffer, which is copied into
    the float64 result and, transposed, into its mirror below; nothing n x n
    is allocated but the result.
    """
    labels = params.membership.labels
    n = labels.size
    probs_to = list(params.block_probs[:, labels])  # K rows: B[k, label_j]
    label_of = labels.tolist()
    rng = np.random.default_rng(seed)
    A = np.empty((n, n), dtype=np.float64)  # every entry is written below
    block = np.empty((_TILE, n), dtype=bool)
    draws = np.empty(n, dtype=np.float64)
    for r in range(0, n, _TILE):
        rows = block[: min(_TILE, n - r), r:]  # rows r.., columns r..
        b = rows.shape[0]
        rows[:, :b] = False
        for k in range(b):
            i = r + k
            row = draws[: n - 1 - i]
            rng.random(out=row)
            np.less(row, probs_to[label_of[i]][i + 1 :], out=rows[k, k + 1 :])
        rows[:, :b] |= rows[:, :b].T  # the diagonal tile, mirrored
        A[r : r + b, r:] = rows
        # Transposed as bool first; the cast into A then runs along rows.
        A[r + b :, r : r + b] = np.ascontiguousarray(rows[:, b:].T)
    np.fill_diagonal(A, 1.0)
    return A


def load_edge_list(path, n: int) -> np.ndarray:
    """Read a whitespace-separated edge list into an n x n adjacency matrix.

    Grammar, one line at a time: a blank (whitespace-only) line or a line
    whose first non-blank character is '#' is skipped; every other line holds
    exactly two whitespace-separated integers "i j" in [0, n), one undirected
    edge, 0-based. '#' starts a comment only at the start of a line. Lines may
    end in LF, CRLF or CR and may carry leading or trailing spaces or tabs.
    Self-loops are forced to 1 regardless of the file content.

    The file is parsed and scattered into A in chunks of whole lines (about
    ``_CHUNK`` bytes), so besides A only one chunk's arrays are held. A file
    the vectorised chunk parse cannot take (a '#' past a line's first
    non-blank byte, a non-integer token, a wrong token count, an index out of
    range) is read again by the line scan ``_scan_edge_list``, which is the
    reference for the grammar and the only source of ``EdgeListFormatError``
    and its line number.
    """
    if n < 1:
        raise ValueError("n must be positive")
    A = np.zeros((n, n), dtype=np.float64)
    if not _read_edges(path, n, A):
        _scan_edge_list(path, n, A)  # the edges set so far are the file's own
    np.fill_diagonal(A, 1.0)
    return A


# Bytes read per chunk; a chunk's arrays take about 16 bytes per byte read.
_CHUNK = 1 << 16
# Longest node id the chunk parse decodes (int32 arithmetic); a longer one goes to the scan.
_MAX_DIGITS = 8
_DIGITS_BLANKS_BREAKS = b"0123456789 \t\r\n"
_IS_BLANK = np.zeros(256, dtype=bool)
_IS_BLANK[[ord(" "), ord("\t")]] = True
_IS_BREAK = np.zeros(256, dtype=bool)
_IS_BREAK[[ord("\n"), ord("\r")]] = True
# Whole-line comments; see _parse_chunk.
_COMMENTS = re.compile(rb"(?<=[\r\n])[ \t]*#[^\r\n]*")


def _read_edges(path, n: int, A: np.ndarray) -> bool:
    """Set A[i, j] = A[j, i] = 1 for every edge; False (A part set) defers to the scan."""
    flat = A.reshape(-1)
    with open(path, "rb") as fh:
        tail = b""
        while True:
            data = fh.read(_CHUNK)
            text = b"\n" + tail + (data or b"\n")
            cut = max(text.rfind(b"\n"), text.rfind(b"\r")) + 1
            text, tail = text[:cut], text[cut:]
            if len(tail) > _CHUNK:
                return False  # a line longer than a chunk
            ids = _parse_chunk(text, n)
            if ids is None:
                return False
            i, j = ids[0::2].astype(np.intp), ids[1::2].astype(np.intp)
            flat[i * n + j] = 1.0
            flat[j * n + i] = 1.0
            if not data:
                return True


def _parse_chunk(text: bytes, n: int) -> np.ndarray | None:
    """The ids of whole lines as [i0, j0, i1, j1, ...], or None to defer to the scan.

    ``text`` is a line break and then whole lines; a chunk that holds a '#'
    first has its whole-line comments emptied by ``_COMMENTS``. Only digits,
    blanks and line breaks are parsed, so None may also mean a chunk the
    grammar accepts (a "+1", an id longer than _MAX_DIGITS digits). Tokens
    are runs of digits. Most files pass the exact check: a line's ids one
    blank apart, lines one or two bytes apart, the last a line break. Any
    other chunk counts the line breaks in each gap between ids: none inside
    a line, at least one before the next line's first id.
    """
    if b"#" in text:
        text = _COMMENTS.sub(b"", text)
    if text.translate(None, _DIGITS_BLANKS_BREAKS):
        return None
    # Room to read _MAX_DIGITS bytes from the start of the last id.
    raw = np.frombuffer(text + b"\n" * _MAX_DIGITS, dtype=np.uint8)
    digit = raw >= ord("0")  # only digits are, after the check above
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]  # id t is text[starts[t]:ends[t]]
    if starts.size % 2:
        return None
    next_starts = starts[2::2]
    if not (
        (starts[1::2] - ends[0::2] == 1).all()
        and _IS_BLANK[raw[ends[0::2]]].all()
        and (next_starts - ends[1:-1:2] <= 2).all()
        and _IS_BREAK[raw[next_starts - 1]].all()
    ):
        breaks = np.cumsum(_IS_BREAK[raw], dtype=np.int32)  # [t]: line breaks in raw[:t + 1]
        gaps = breaks[starts[1:] - 1] - breaks[ends[:-1] - 1]  # between ids t and t + 1
        if gaps[0::2].any() or not gaps[1::2].all():
            return None
    digits = ends - starts
    longest = int(digits.max(initial=0))
    if longest > _MAX_DIGITS:
        return None
    ids = raw[starts].astype(np.int32) - ord("0")
    for k in range(1, longest):
        ids = np.where(digits > k, 10 * ids + raw[k:][starts] - ord("0"), ids)
    if ids.size and ids.max() >= n:
        return None
    return ids


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
    """Write the strict upper triangle as "i j" lines (self-loops implicit).

    Each id has two 8-byte records, its digits and then a blank (as i) or a
    line break (as j), padded with zero bytes; ids < 10**7 fit, and a dense
    A is never that large. ``_ROW_BLOCK`` rows at a time, the edges'
    records are gathered in row-major order by one ``uint64`` take per
    column, and the bytes that are not padding are written.
    """
    A = validate_adjacency(adjacency)
    n = A.shape[0]
    heads = np.array([f"{i} ".encode() for i in range(n)], dtype="S8").view(np.uint64)
    tails = np.array([f"{i}\n".encode() for i in range(n)], dtype="S8").view(np.uint64)
    # Row r + k of a block keeps columns r + 1 + c with c >= k, right of its diagonal.
    upper = np.triu(np.ones((_ROW_BLOCK, _ROW_BLOCK), dtype=bool))
    with open(path, "wb") as fh:
        for r in range(0, n - 1, _ROW_BLOCK):
            edges = A[r : r + _ROW_BLOCK, r + 1 :] != 0.0  # column r + 1 + c
            square = edges[:, : edges.shape[0]]  # fewer columns than rows in the last block
            square &= upper[: square.shape[0], : square.shape[1]]
            row, col = np.divmod(np.flatnonzero(edges), n - r - 1)
            records = np.empty((row.size, 2), dtype=np.uint64)
            np.take(heads, row + r, out=records[:, 0])
            np.take(tails, col + (r + 1), out=records[:, 1])
            text = records.view(np.uint8)
            fh.write(text[text != 0])


def save_adjacency_csv(adjacency, path) -> None:
    """Export the full 0/1 matrix as CSV (one row per node)."""
    A = validate_adjacency(adjacency)
    line = np.full(2 * A.shape[0], ord(","), dtype=np.uint8)
    line[-1] = ord("\n")
    with open(path, "wb") as fh:
        for row in A:
            line[0::2] = row  # 0 or 1, validated above
            line[0::2] += ord("0")
            fh.write(line.tobytes())
