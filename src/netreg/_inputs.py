"""What the public entry points accept as an adjacency matrix, a covariate and a response.

Every public function that takes ``adjacency`` reads it here, once per call:
through ``square`` for the regression, whose A may be directed, or through
``symmetric`` where an undirected graph is needed. Errors name the first bad
row, node or pair.
"""

from __future__ import annotations

import numpy as np

# Side of the square tiles the symmetry pass compares with their mirror images.
_TILE = 128


def reject_non_finite_rows(M: np.ndarray, of: str = "", name: str = "adjacency") -> None:
    """Raise ValueError naming the first row of M with a non-finite entry.

    M is the matrix ``name``: an adjacency matrix by default, or a product of
    one named by ``of`` (e.g. " of its aggregate"), whose non-finite rows are
    those of A.
    """
    finite = np.isfinite(M)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ValueError(f"{name} must be finite; row {row}{of} is not")


def square(adjacency, n: int | None = None) -> np.ndarray:
    """A as a float64 n x n array (any n when n is None); no copy if it is one."""
    A = np.asarray(adjacency, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or n not in (None, A.shape[0]):
        size = "n" if n is None else n
        raise ValueError(f"adjacency must be {size} x {size}, got shape {A.shape}")
    return A


def symmetric(adjacency, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``square(adjacency, n)``, finite and symmetric, and the same matrix in Fortran order.

    One pass over the upper triangle's tiles checks both: with t = 128,
    A[i:i+t, j:j+t] - A[j:j+t, i:i+t].T is 0 exactly where a pair is finite
    and equal (inf - inf is nan, and an overflowing difference is inf), so a
    nonzero (nan included) entry fails. Whole tiles keep the mirror's reads
    short strided runs instead of single rows. For C-contiguous A the Fortran
    view is A.T.
    """
    A = square(adjacency, n)
    size = A.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(0, size, _TILE):
            for j in range(i, size, _TILE):
                if (A[i : i + _TILE, j : j + _TILE] - A[j : j + _TILE, i : i + _TILE].T).any():
                    reject_non_finite_rows(A)
                    r, c = np.argwhere(A != A.T)[0]  # the first in row-major order
                    a, b = (np.format_float_positional(v, trim="-") for v in (A[r, c], A[c, r]))
                    raise ValueError(
                        f"adjacency must be symmetric; A[{r}, {c}] = {a} but A[{c}, {r}] = {b}"
                    )
    return A, A.T if A.flags.c_contiguous else np.asfortranarray(A)


def vector(values, n: int | None, name: str) -> np.ndarray:
    """``values`` as a finite float64 vector of length n (any length when n is None)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or n not in (None, v.size):
        raise ValueError(f"{name} must have shape ({'n' if n is None else n},), got {v.shape}")
    finite = np.isfinite(v)
    if not finite.all():
        raise ValueError(f"{name} must be finite; node {int(np.argmin(finite))} is not")
    return v
