"""The input contract: what netreg._inputs accepts and how it names what it rejects."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import netreg
from conftest import in_layout
from netreg._inputs import square, symmetric, vector

# Ordinary weights, the smallest subnormal (an asymmetry of 5e-324 must be
# seen) and entries whose difference overflows to inf.
_VALUES = [0.0, 1.0, -1.0, 2.5, 5e-324, 1.7e308, -1.7e308]


def _first_defect(A):
    """A plain scan for what the contract must name: the first non-finite row,
    or else the first asymmetric pair (i, j) in row-major order."""
    rows = A.tolist()
    for i, row in enumerate(rows):
        if not all(np.isfinite(row)):
            return "finite", i
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v != rows[j][i]:
                return "symmetric", (i, j)
    return None


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 140),
    layout=st.sampled_from(["c", "fortran", "strided", "integer"]),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_symmetric_accepts_every_layout_bit_for_bit(n, layout, weighted, seed):
    rng = np.random.default_rng(seed)
    A = (rng.random((n, n)) < 0.3).astype(np.float64)
    if weighted:  # integer weights, so the integer layout holds the same matrix
        A *= rng.integers(1, 6, size=(n, n))
    A = np.triu(A) + np.triu(A, k=1).T
    given_A = in_layout(A, layout)
    kept = given_A.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = symmetric(given_A)
    ref = np.asarray(given_A, dtype=np.float64)
    # One C-ordered float64 array; a contiguous float64 input (C or Fortran) is not copied.
    assert got.dtype == np.float64 and got.flags.c_contiguous and got.tobytes() == ref.tobytes()
    contiguous = given_A.flags.c_contiguous or given_A.flags.f_contiguous
    assert np.shares_memory(got, given_A) == (given_A.dtype == np.float64 and contiguous)
    assert given_A.dtype == kept.dtype and np.array_equal(given_A, kept)
    assert square(given_A, n).tobytes() == ref.tobytes()


@st.composite
def _malformed(draw):
    """A symmetric matrix with 1-3 defects: asymmetric pairs and non-finite entries."""
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    seed = draw(st.integers(0, 2**32 - 1))
    A = np.random.default_rng(seed).choice(_VALUES, size=(n, n))
    A = np.triu(A) + np.triu(A, k=1).T
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(index), draw(index)
        if n > 1 and draw(st.booleans()):
            assume(i != j)
            A[i, j] = draw(st.sampled_from(_VALUES))
            assume(A[i, j] != A[j, i])
        else:
            A[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return A


@settings(max_examples=200, deadline=None)
@given(A=_malformed(), layout=st.sampled_from(["c", "fortran", "strided"]))
def test_symmetric_names_the_first_defect(A, layout):
    expected = _first_defect(A)
    assume(expected is not None)  # a later defect may have undone an earlier one
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf and an overflowing difference warn nothing
        with pytest.raises(ValueError) as excinfo:
            symmetric(in_layout(A, layout))
    message = str(excinfo.value)
    if expected[0] == "finite":
        assert message == f"adjacency must be finite; row {expected[1]} is not"
        return
    i, j = expected[1]
    pair = r"A\[(\d+), (\d+)\] = (\S+)"
    got = re.fullmatch(rf"adjacency must be symmetric; {pair} but {pair}", message)
    assert got is not None, message
    assert tuple(map(int, got.group(1, 2, 4, 5))) == (i, j, j, i)
    # The printed entries are exact.
    assert (float(got[3]), float(got[6])) == (A[i, j], A[j, i])


def test_asymmetric_pair_message_gives_both_entries():
    A = np.full((2, 2), 1.7e308)
    A[1, 0] = -A[0, 1]  # the difference overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"symmetric; A\[0, 1\] = 17\d{307} but A\[1, 0\] = -17"):
            symmetric(A)
    A = np.eye(3)
    A[0, 1] = 1.0
    A[2, 1] = 0.1
    with pytest.raises(ValueError, match=r"symmetric; A\[0, 1\] = 1 but A\[1, 0\] = 0$"):
        symmetric(A)
    A[0, 1] = 0.0
    with pytest.raises(ValueError, match=r"symmetric; A\[1, 2\] = 0 but A\[2, 1\] = 0\.1$"):
        symmetric(A)


@pytest.mark.parametrize(
    "A, n, message",
    [
        (np.zeros(3), None, r"^adjacency must be n x n, got shape \(3,\)$"),
        (np.zeros((3, 4)), None, r"^adjacency must be n x n, got shape \(3, 4\)$"),
        (np.zeros((3, 4)), 3, r"^adjacency must be 3 x 3, got shape \(3, 4\)$"),
        (np.zeros((3, 3)), 4, r"^adjacency must be 4 x 4, got shape \(3, 3\)$"),
    ],
)
def test_square_names_the_shape(A, n, message):
    with pytest.raises(ValueError, match=message):
        square(A, n)


def test_vector_names_the_first_bad_node():
    assert vector([1, 2], 2, "x").dtype == np.float64
    with pytest.raises(ValueError, match=r"^x must be finite; node 1 is not$"):
        vector([0.0, np.nan, np.inf], 3, "x")
    with pytest.raises(ValueError, match=r"^x must have shape \(3,\), got \(2,\)$"):
        vector([0.0, 1.0], 3, "x")
    with pytest.raises(ValueError, match=r"^x must have shape \(n,\), got \(2, 1\)$"):
        vector(np.zeros((2, 1)), None, "x")


_CONVERTERS = {"array", "asarray", "asanyarray", "ascontiguousarray", "asfortranarray"}


def _converts_adjacency(source: str) -> list:
    """Line numbers of the np.array-style calls whose first argument is the name ``adjacency``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in _CONVERTERS
            and node.args
            and getattr(node.args[0], "id", None) == "adjacency"
        ):
            found.append(node.lineno)
    return found


def test_only_the_contract_converts_adjacency():
    # A new entry point that converted A itself would skip the checks.
    source = "np.asarray(adjacency)\nnp.array(adjacency, float)\nnp.asarray(A)\n"
    assert _converts_adjacency(source) == [1, 2]
    package = Path(netreg.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _converts_adjacency(path.read_text(encoding="utf-8")))
    }
    assert set(found) == {"_inputs.py"}
    assert re.search(r"def square\(adjacency", (package / "_inputs.py").read_text(encoding="utf-8"))
