import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assortative_params, random_membership
from netreg import (
    Membership,
    SbmParams,
    load_edge_list,
    sample_sbm,
    save_adjacency_csv,
    save_edge_list,
    validate_adjacency,
)
from netreg import graph
from netreg.cli import main
from netreg.graph import EdgeListFormatError


def _check_adjacency_invariants(A):
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 1.0)
    assert np.all((A == 0.0) | (A == 1.0))


def test_zero_probability_gives_identity():
    m = Membership(labels=np.zeros(5, dtype=int), n_communities=1)
    A = sample_sbm(SbmParams(membership=m, block_probs=[[0.0]]), seed=0)
    assert np.array_equal(A, np.eye(5))


def test_unit_probability_gives_complete_graph():
    m = Membership(labels=np.zeros(5, dtype=int), n_communities=1)
    A = sample_sbm(SbmParams(membership=m, block_probs=[[1.0]]), seed=0)
    assert np.array_equal(A, np.ones((5, 5)))


def test_block_densities_match_probabilities():
    n_k = 1000
    labels = np.repeat([0, 1], n_k)
    m = Membership(labels=labels, n_communities=2)
    B = np.array([[0.8, 0.1], [0.1, 0.8]])
    A = sample_sbm(SbmParams(membership=m, block_probs=B), seed=11)
    _check_adjacency_invariants(A)
    within_0 = (A[:n_k, :n_k].sum() - n_k) / (n_k * (n_k - 1))
    within_1 = (A[n_k:, n_k:].sum() - n_k) / (n_k * (n_k - 1))
    between = A[:n_k, n_k:].mean()
    assert abs(within_0 - 0.8) < 0.01
    assert abs(within_1 - 0.8) < 0.01
    assert abs(between - 0.1) < 0.01


def test_block_densities_within_three_binomial_se():
    n_k = 1000
    labels = np.repeat([0, 1], n_k)
    m = Membership(labels=labels, n_communities=2)
    B = np.array([[0.7, 0.15], [0.15, 0.6]])
    # Unordered node pairs per block; the edge count of each block is binomial.
    pairs = {
        (0, 0): n_k * (n_k - 1) / 2,
        (1, 1): n_k * (n_k - 1) / 2,
        (0, 1): float(n_k * n_k),
    }
    n_samples, checks, hits = 100, 0, 0
    for s in range(n_samples):
        A = sample_sbm(SbmParams(membership=m, block_probs=B), seed=1000 + s)
        edges = {
            (0, 0): (A[:n_k, :n_k].sum() - n_k) / 2,
            (1, 1): (A[n_k:, n_k:].sum() - n_k) / 2,
            (0, 1): A[:n_k, n_k:].sum(),
        }
        for key, count in pairs.items():
            p = B[key]
            se = np.sqrt(count * p * (1 - p))
            checks += 1
            hits += abs(edges[key] - count * p) <= 3 * se
    assert hits / checks >= 0.99


def test_sampling_is_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(3)
    params = assortative_params(rng, 60, 3)
    A1 = sample_sbm(params, seed=42)
    A2 = sample_sbm(params, seed=42)
    A3 = sample_sbm(params, seed=43)
    assert np.array_equal(A1, A2)
    assert not np.array_equal(A1, A3)
    _check_adjacency_invariants(A1)


def test_invalid_block_probs_rejected():
    m = Membership(labels=np.array([0, 0, 1, 1]), n_communities=2)
    with pytest.raises(ValueError):
        SbmParams(membership=m, block_probs=[[0.5, 1.2], [1.2, 0.5]])
    with pytest.raises(ValueError):
        SbmParams(membership=m, block_probs=[[0.5, 0.1], [0.2, 0.5]])
    with pytest.raises(ValueError):
        # empty community is impossible to construct
        Membership(labels=np.array([0, 0, 0, 0]), n_communities=2)


def test_empty_edge_list_gives_identity(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert np.array_equal(load_edge_list(path, 3), np.eye(3))


def test_single_edge_file(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("0 1\n")
    assert np.array_equal(load_edge_list(path, 2), np.ones((2, 2)))


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    params = assortative_params(rng, 50, 2)
    A = sample_sbm(params, seed=7)
    path = tmp_path / "net.txt"
    save_edge_list(A, path)
    assert np.array_equal(load_edge_list(path, 50), A)


def test_edge_list_errors(tmp_path):
    bad_index = tmp_path / "bad_index.txt"
    bad_index.write_text("0 1\n0 7\n")
    with pytest.raises(EdgeListFormatError) as excinfo:
        load_edge_list(bad_index, 3)
    assert excinfo.value.line_number == 2

    malformed = tmp_path / "malformed.txt"
    malformed.write_text("0 1 2\n")
    with pytest.raises(EdgeListFormatError):
        load_edge_list(malformed, 3)

    not_int = tmp_path / "not_int.txt"
    not_int.write_text("0 x\n")
    with pytest.raises(EdgeListFormatError):
        load_edge_list(not_int, 3)


def test_edge_list_error_names_the_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("0 5\n")
    message = r"bad\.txt: line 1: node index out of range \[0, 3\) in '0 5'$"
    with pytest.raises(EdgeListFormatError, match="^" + message) as excinfo:
        load_edge_list("bad.txt", 3)
    assert excinfo.value.line_number == 1
    with pytest.raises(SystemExit, match="^netreg detect: " + message):
        main(["detect", "--network", "bad.txt", "--n", "3", "--out", "m.csv"])


def test_adjacency_csv_export(tmp_path):
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    path = tmp_path / "a.csv"
    save_adjacency_csv(A, path)
    assert path.read_text() == "1,1\n1,1\n"


def test_validate_adjacency_rejects_bad_matrices():
    with pytest.raises(ValueError):
        validate_adjacency(np.zeros((3, 3)))  # missing self-loops
    bad = np.eye(3)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        validate_adjacency(bad)  # asymmetric
    weighted = np.eye(3)
    weighted[0, 1] = weighted[1, 0] = 0.5
    with pytest.raises(ValueError):
        validate_adjacency(weighted)


def test_sampled_membership_params_round_trip():
    rng = np.random.default_rng(0)
    m = random_membership(rng, 30, 3)
    assert m.sizes().sum() == 30


# Reference implementations: the earlier per-line reader, the triu_indices
# sampler and the per-edge writer. The library versions must match them
# exactly (same matrix, same bytes, same error and line number).


def _load_edge_list_reference(path, n):
    A = np.zeros((n, n), dtype=np.float64)
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
    np.fill_diagonal(A, 1.0)
    return A


def _sample_sbm_reference(params, seed):
    labels = params.membership.labels
    n = labels.size
    P = params.block_probs[np.ix_(labels, labels)]
    rows, cols = np.triu_indices(n, k=1)
    rng = np.random.default_rng(seed)
    draws = rng.random(rows.size)
    A = np.zeros((n, n), dtype=np.float64)
    edges = draws < P[rows, cols]
    A[rows[edges], cols[edges]] = 1.0
    A = A + A.T
    np.fill_diagonal(A, 1.0)
    return A


def _save_edge_list_reference(A, path):
    rows, cols = np.nonzero(np.triu(A, k=1))
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i} {j}\n")


def _save_edge_list_row_loop(A, path):
    """The writer before the array-op one: one joined string per row."""
    n = A.shape[0]
    ids = [str(i) for i in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n - 1):
            cols = (np.flatnonzero(A[i, i + 1 :]) + (i + 1)).tolist()
            if cols:
                head = ids[i] + " "
                fh.write(head + ("\n" + head).join([ids[j] for j in cols]) + "\n")


def _outcome(load, path, n):
    try:
        return "ok", load(path, n)
    except EdgeListFormatError as exc:
        return "error", (exc.line_number, str(exc))


_ORACLE_N = 5
_PAD = st.sampled_from(["", " ", "\t", "  ", " \t "])
_SEP = st.sampled_from([" ", "\t", "  ", " \t"])
_ID = st.integers(0, _ORACLE_N - 1).map(str)
_TOKEN = st.one_of(
    st.integers(-3, _ORACLE_N + 2).map(str),
    st.sampled_from(["x", "1.0", "1e0", "+1", "-0", "0x1", "1_0", "#", "0#", "99999999999999999999"]),
)


@st.composite
def _edge_line(draw):
    kind = draw(st.sampled_from(["pair", "pair", "pair", "tokens", "blank", "comment"]))
    if kind == "pair":
        body = draw(_ID) + draw(_SEP) + draw(_ID)
    elif kind == "tokens":
        tokens = draw(st.lists(_TOKEN, min_size=1, max_size=4))
        body = tokens[0] + "".join(draw(_SEP) + t for t in tokens[1:])
    elif kind == "blank":
        body = ""
    else:
        body = "#" + draw(st.sampled_from(["", " c", "0 1", "#", " 1\t2 ", "x"]))
    return draw(_PAD) + body + draw(_PAD) + draw(st.sampled_from(["\n", "\r\n"]))


@st.composite
def _edge_file(draw):
    text = "".join(draw(st.lists(_edge_line(), max_size=10)))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # last line without a line end
    return text


@settings(max_examples=300, deadline=None)
@given(text=_edge_file())
def test_load_edge_list_matches_line_scan_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("oracle") / "net.txt"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(load_edge_list, path, _ORACLE_N)
    want = _outcome(_load_edge_list_reference, path, _ORACLE_N)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


def test_load_edge_list_reports_file_line_not_data_row(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("0 1\n\n# c\n0 9\n")
    with pytest.raises(EdgeListFormatError) as excinfo:
        load_edge_list(path, 3)
    assert excinfo.value.line_number == 4


def test_plain_edge_list_skips_line_scan(tmp_path, monkeypatch):
    path = tmp_path / "net.txt"
    path.write_text("0 1\r\n 2\t0 \n\n1 2")

    def fail(*args):
        raise AssertionError("line scan used for a plain edge list")

    monkeypatch.setattr(graph, "_scan_edge_list", fail)
    assert np.array_equal(load_edge_list(path, 3), np.ones((3, 3)))


@pytest.mark.parametrize(
    "n, K, seed, block_probs",
    [
        (1, 1, 0, [[0.5]]),
        (2, 1, 1, [[0.5]]),
        (2, 2, 2, [[1.0, 0.0], [0.0, 1.0]]),
        (2, 2, 3, [[0.0, 1.0], [1.0, 0.0]]),
        (9, 3, 4, None),
        (60, 2, 5, [[1.0, 0.3], [0.3, 0.0]]),
        (150, 4, 6, None),
        (301, 5, 7, None),
    ],
)
def test_sample_sbm_matches_triu_reference(n, K, seed, block_probs):
    rng = np.random.default_rng(100 + seed)
    if block_probs is None:
        params = assortative_params(rng, n, K)
    else:
        labels = np.arange(n) % K
        params = SbmParams(membership=Membership(labels=labels, n_communities=K), block_probs=block_probs)
    A = sample_sbm(params, seed=seed)
    assert A.dtype == np.float64
    assert np.array_equal(A, _sample_sbm_reference(params, seed))


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (7, 2), (120, 3), (400, 4)])
def test_save_edge_list_matches_per_edge_writer(tmp_path, n, seed):
    rng = np.random.default_rng(seed)
    matrices = [np.eye(n), np.ones((n, n))]
    if n >= 2:
        matrices.append(sample_sbm(assortative_params(rng, n, 2 if n >= 4 else 1), seed=seed))
    for A in matrices:
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        save_edge_list(A, got)
        _save_edge_list_reference(A, want)
        assert got.read_bytes() == want.read_bytes()


# Digit-width boundaries of the ids, and block boundaries of the writer's rows.
@pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 11, 31, 32, 33, 65, 99, 100, 101, 130, 257, 999, 1000, 1001])
def test_save_edge_list_matches_row_loop_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    for density in (0.0, 0.05, 0.5, 1.0):
        upper = np.triu(rng.random((n, n)) < density, k=1)
        A = (upper | upper.T).astype(np.float64)
        np.fill_diagonal(A, 1.0)
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        save_edge_list(A, got)
        _save_edge_list_row_loop(A, want)
        assert got.read_bytes() == want.read_bytes()


# Chunked parse: chunk boundaries inside lines, the break count, the scan fallback.


def _no_scan(*args):
    raise AssertionError("line scan used")


@pytest.mark.parametrize("n, chunk", [(40, 16), (40, 23), (300, 64), (300, 1 << 16)])
def test_load_edge_list_chunk_boundary_inside_a_line(tmp_path, monkeypatch, n, chunk):
    rng = np.random.default_rng(n + chunk)
    A = sample_sbm(assortative_params(rng, n, 3), seed=chunk)
    path = tmp_path / "net.txt"
    save_edge_list(A, path)
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    monkeypatch.setattr(graph, "_scan_edge_list", _no_scan)
    assert np.array_equal(load_edge_list(path, n), A)


def test_load_edge_list_counts_breaks_in_wide_gaps_without_the_scan(tmp_path, monkeypatch):
    # CRLF, tabs, blank lines, indentation and trailing blanks; 16-byte chunks.
    text = "0 1\r\n  2\t\t0  \r\n\r\n\n1   2\n\t3 0 \n \n0\t3"
    path = tmp_path / "net.txt"
    path.write_bytes(text.encode())
    want = _load_edge_list_reference(path, 4)
    monkeypatch.setattr(graph, "_CHUNK", 16)
    monkeypatch.setattr(graph, "_scan_edge_list", _no_scan)
    assert np.array_equal(load_edge_list(path, 4), want)


def test_load_edge_list_comment_lines_skip_the_scan(tmp_path, monkeypatch):
    # Whole-line comments, indented or not, anywhere in the file; 32-byte chunks.
    lines = [f"{i} {(i + 1) % 30}" for i in range(30)]
    lines.insert(20, "# a comment past the first chunks")
    lines.insert(5, " \t#0 1")
    lines.insert(0, "# header")
    lines.append("#")
    path = tmp_path / "net.txt"
    path.write_bytes("\r\n".join(lines).encode())
    monkeypatch.setattr(graph, "_CHUNK", 32)
    monkeypatch.setattr(graph, "_scan_edge_list", _no_scan)
    assert np.array_equal(load_edge_list(path, 30), _load_edge_list_reference(path, 30))


def test_load_edge_list_runs_the_comment_regex_only_on_chunks_with_a_hash(tmp_path, monkeypatch):
    # 30 lines in 32-byte chunks; the one comment line lies in one chunk.
    lines = [f"{i} {(i + 1) % 30}" for i in range(30)]
    path = tmp_path / "net.txt"
    comments, subs = graph._COMMENTS, []

    class Counting:
        def sub(self, repl, text):
            subs.append(text)
            return comments.sub(repl, text)

    monkeypatch.setattr(graph, "_COMMENTS", Counting())
    monkeypatch.setattr(graph, "_CHUNK", 32)
    for with_comment, calls in ((False, 0), (True, 1)):
        path.write_text("\n".join(lines[:12] + ["# c"] * with_comment + lines[12:]) + "\n")
        subs.clear()
        assert np.array_equal(load_edge_list(path, 30), _load_edge_list_reference(path, 30))
        assert len(subs) == calls and all(b"#" in text for text in subs)


@pytest.mark.parametrize("line, message", [
    ("1 #2", "non-integer node index in '1 #2'"),
    ("1 2 # edge", "expected two node indices, got 4 tokens"),
    ("1# 2", "non-integer node index in '1# 2'"),
])
def test_load_edge_list_comment_past_a_line_start_is_the_scans_error(tmp_path, line, message):
    path = tmp_path / "net.txt"
    path.write_text(f"# header\n0 1\n{line}\n2 0\n")
    with pytest.raises(EdgeListFormatError) as excinfo:
        load_edge_list(path, 3)
    assert excinfo.value.line_number == 3
    assert str(excinfo.value) == f"{path}: line 3: {message}"


@pytest.mark.parametrize("text", [b"0 1\n1 2 0 2\n", b"0 1\r\n1  2\t0 2\r\n"])
def test_load_edge_list_two_pairs_on_one_line_is_the_scans_error(tmp_path, text):
    # Even counts of ids, so only the line breaks between them tell the lines apart.
    path = tmp_path / "net.txt"
    path.write_bytes(text)
    with pytest.raises(EdgeListFormatError) as excinfo:
        load_edge_list(path, 3)
    assert str(excinfo.value) == f"{path}: line 2: expected two node indices, got 4 tokens"


def test_load_edge_list_bad_line_past_the_first_chunk(tmp_path):
    rng = np.random.default_rng(61)
    lines = [f"{i} {j}" for i, j in rng.integers(0, 300, size=(20000, 2)).tolist()]
    lines[14999] = "12 x"
    path = tmp_path / "net.txt"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size > 2 * graph._CHUNK
    with pytest.raises(EdgeListFormatError) as excinfo:
        load_edge_list(path, 300)
    assert excinfo.value.line_number == 15000
    assert str(excinfo.value) == f"{path}: line 15000: non-integer node index in '12 x'"


@settings(max_examples=200, deadline=None)
@given(text=_edge_file(), chunk=st.sampled_from([4, 7, 16, 64]))
def test_chunked_load_edge_list_matches_line_scan_oracle(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("oracle") / "net.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_CHUNK", chunk)
        got = _outcome(load_edge_list, path, _ORACLE_N)
    want = _outcome(_load_edge_list_reference, path, _ORACLE_N)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


@st.composite
def _valid_edge_file(draw):
    """Lines the grammar accepts: pairs, blank lines and whole-line comments, any line end."""
    lines = []
    for kind in draw(st.lists(st.sampled_from(["pair", "pair", "blank", "comment"]), max_size=10)):
        if kind == "pair":
            body = draw(_ID) + draw(_SEP) + draw(_ID)
        elif kind == "blank":
            body = ""
        else:
            body = "#" + draw(st.sampled_from(["", " c", "0 1", "#", " 1\t2 ", "x"]))
        lines.append(draw(_PAD) + body + draw(_PAD) + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(text=_valid_edge_file(), chunk=st.sampled_from([4, 7, 16, 64, 1 << 16]))
def test_valid_edge_file_loads_without_the_scan(tmp_path_factory, text, chunk):
    # The chunk parse takes every valid file whose lines each fit in a chunk;
    # _read_edges defers a longer line to the scan.
    path = tmp_path_factory.mktemp("valid") / "net.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_CHUNK", chunk)
        if max(len(line) for line in re.split("[\r\n]", text)) <= chunk:
            patch.setattr(graph, "_scan_edge_list", _no_scan)
        got = load_edge_list(path, _ORACLE_N)
    assert np.array_equal(got, _load_edge_list_reference(path, _ORACLE_N))


# Memory: at n = 2000 (A = 30.5 MiB) each function holds A, if it returns or
# takes one, plus a bounded chunk. Peaks are tracemalloc's, above entry.

_MIB = 2**20


def _peak_above_entry(call) -> int:
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sbm_2000():
    n, K = 2000, 4
    labels = np.arange(n) % K
    B = np.full((K, K), 0.1) + 0.4 * np.eye(K)
    params = SbmParams(membership=Membership(labels=labels, n_communities=K), block_probs=B)
    return params, sample_sbm(params, seed=7)


def test_graph_memory_is_a_plus_a_bounded_chunk(tmp_path, sbm_2000):
    params, A = sbm_2000
    a_bytes = A.nbytes
    path = tmp_path / "net.txt"
    assert _peak_above_entry(lambda: sample_sbm(params, seed=7)) <= a_bytes + 1 * _MIB
    assert _peak_above_entry(lambda: validate_adjacency(A)) <= 1 * _MIB
    assert _peak_above_entry(lambda: save_edge_list(A, path)) <= 1 * _MIB
    assert _peak_above_entry(lambda: load_edge_list(path, A.shape[0])) <= a_bytes + 2 * _MIB
    csv = tmp_path / "a.csv"
    assert _peak_above_entry(lambda: save_adjacency_csv(A, csv)) <= 1 * _MIB


def test_save_edge_list_memory_on_a_complete_graph(tmp_path):
    # The densest block of rows, not A: no n x n temporary at any density.
    A = np.ones((2000, 2000))
    assert _peak_above_entry(lambda: save_edge_list(A, tmp_path / "net.txt")) <= 6 * _MIB


def test_save_adjacency_csv_matches_per_row_writer(tmp_path):
    rng = np.random.default_rng(62)
    A = sample_sbm(assortative_params(rng, 150, 3), seed=63)
    path = tmp_path / "a.csv"
    save_adjacency_csv(A, path)
    want = "".join(",".join(str(v) for v in row.tolist()) + "\n" for row in A.astype(np.int64))
    assert path.read_bytes() == want.encode()
