import itertools

import numpy as np
import pytest

from conftest import assortative_params, random_membership
from netreg import (
    Membership,
    SbmParams,
    ScreeResult,
    align_permutation,
    detect_communities,
    estimate_k,
    kmeans,
    misclustering_count,
    perturb_membership,
    sample_sbm,
    spectral_embed,
)
from netreg import community
from netreg.cli import main
from netreg.community import _DENSE_EIG_MAX_N, DegenerateInputError, _leading_eigenpairs
from netreg.graph import load_edge_list, save_edge_list
from netreg.simharness import gen_instance


def two_complete_blocks():
    """Block-diagonal union of two complete graphs on 5 nodes each."""
    A = np.zeros((10, 10))
    A[:5, :5] = 1.0
    A[5:, 5:] = 1.0
    return A


def test_identity_spectrum():
    emb = spectral_embed(np.eye(6), 1)
    assert np.allclose(emb.singular_values, 1.0)
    norms = np.linalg.norm(emb.vectors, axis=1)
    ok = (np.abs(norms - 1.0) <= 1e-12) | emb.zero_rows
    assert ok.all()


def test_two_block_spectrum_and_embedding():
    emb = spectral_embed(two_complete_blocks(), 2)
    assert np.allclose(emb.singular_values, [5.0, 5.0])
    for block in (slice(0, 5), slice(5, 10)):
        rows = emb.vectors[block]
        assert np.allclose(rows, rows[0], atol=1e-10)
    assert np.allclose(np.linalg.norm(emb.vectors, axis=1), 1.0, atol=1e-12)


def test_embedding_row_norms_on_sbm():
    rng = np.random.default_rng(2)
    params = assortative_params(rng, 80, 3)
    A = sample_sbm(params, seed=4)
    emb = spectral_embed(A, 3)
    norms = np.linalg.norm(emb.vectors[~emb.zero_rows], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_spectral_embed_k_validation():
    with pytest.raises(ValueError):
        spectral_embed(np.eye(4), 5)
    with pytest.raises(ValueError):
        spectral_embed(np.eye(4), 0)


def test_detection_on_sbm_sample():
    # Typical assortative draws; mean misclustering rate stays under 2%.
    rates = []
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        params = assortative_params(rng, 600, 3)
        A = sample_sbm(params, seed=100 + seed)
        est = detect_communities(A, 3, seed=seed)
        rates.append(misclustering_count(est, params.membership) / 600)
    assert np.mean(rates) <= 0.02


def test_kmeans_single_cluster():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 2))
    m = kmeans(pts, 1, seed=0)
    assert m.n_communities == 1
    assert np.all(m.labels == 0)


def test_kmeans_separated_clouds():
    rng = np.random.default_rng(1)
    pts = np.vstack([rng.normal(0, 0.05, (15, 2)), rng.normal(10, 0.05, (10, 2))])
    m = kmeans(pts, 2, seed=3)
    truth = Membership(labels=np.repeat([0, 1], [15, 10]), n_communities=2)
    assert misclustering_count(m, truth) == 0


def test_kmeans_recovers_blocks_from_embedding():
    emb = spectral_embed(two_complete_blocks(), 2)
    m = kmeans(emb, 2, seed=0)
    truth = Membership(labels=np.repeat([0, 1], 5), n_communities=2)
    assert misclustering_count(m, truth) == 0


def test_kmeans_degenerate_input():
    pts = np.ones((6, 2))
    with pytest.raises(DegenerateInputError):
        kmeans(pts, 2, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((40, 3))
    m1 = kmeans(pts, 3, seed=5)
    m2 = kmeans(pts, 3, seed=5)
    assert np.array_equal(m1.labels, m2.labels)


def test_estimate_k_two_blocks():
    res = estimate_k(two_complete_blocks(), 6)
    assert res.suggested_k == 2
    assert np.allclose(res.singular_values[:2], 5.0)
    assert np.allclose(res.singular_values[2:], 0.0, atol=1e-10)
    assert not res.flat_scree


def test_estimate_k_flat_scree():
    res = estimate_k(np.eye(5), 5)
    assert res.flat_scree
    assert res.suggested_k == 1
    assert np.allclose(res.singular_values, 1.0)


def test_estimate_k_six_planted_blocks():
    labels = np.repeat(np.arange(6), 100)
    m = Membership(labels=labels, n_communities=6)
    B = np.full((6, 6), 0.05) + 0.55 * np.eye(6)
    A = sample_sbm(SbmParams(membership=m, block_probs=B), seed=3)
    res = estimate_k(A, 12)
    assert res.suggested_k == 6


@pytest.mark.parametrize(
    "source, K", [("planted_n2000", 4), ("gen_instance_n1000", 2), ("gen_instance_n1000", 3)]
)
def test_estimate_k_counts_singular_values_above_bulk_edge(source, K):
    if source == "planted_n2000":
        # p_in 0.5, p_out 0.1: the degree eigenvalue (~400) stands far above
        # the three community ones (~200), which defeats a largest-gap rule.
        m = random_membership(np.random.default_rng(2), 2000, K)
        B = np.full((K, K), 0.1) + 0.4 * np.eye(K)
        networks = [sample_sbm(SbmParams(membership=m, block_probs=B), seed=3)]
    else:
        networks = [gen_instance(1000, K, 0.5, seed).adjacency for seed in range(6)]
    for A in networks:
        res = estimate_k(A, 20)
        assert res.suggested_k == K
        assert not res.flat_scree
        assert res.singular_values[K - 1] > res.bulk_edge > res.singular_values[K]


def test_align_identity_and_swap():
    m = Membership(labels=np.array([0, 0, 1, 1, 0]), n_communities=2)
    assert np.array_equal(align_permutation(m, m), np.eye(2, dtype=int))
    swapped = Membership(labels=1 - m.labels, n_communities=2)
    Q = align_permutation(swapped, m)
    assert np.array_equal(Q, np.array([[0, 1], [1, 0]]))
    assert np.array_equal(Q.argmax(axis=1)[swapped.labels], m.labels)


def test_align_recovers_random_relabeling():
    rng = np.random.default_rng(7)
    m = random_membership(rng, 50, 4)
    perm = rng.permutation(4)
    relabeled = Membership(labels=perm[m.labels], n_communities=4)
    Q = align_permutation(relabeled, m)
    assert np.array_equal(Q.argmax(axis=1)[relabeled.labels], m.labels)
    assert misclustering_count(relabeled, m) == 0


def _brute_force_agreement(est, ref):
    K = est.n_communities
    best = -1
    for perm in itertools.permutations(range(K)):
        mapped = np.array(perm)[est.labels]
        best = max(best, int(np.sum(mapped == ref.labels)))
    return best


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_align_is_globally_optimal(K):
    rng = np.random.default_rng(K)
    ref = random_membership(rng, 60, K)
    est = random_membership(rng, 60, K)
    Q = align_permutation(est, ref)
    agreement = int(np.sum(Q.argmax(axis=1)[est.labels] == ref.labels))
    assert agreement == _brute_force_agreement(est, ref)
    # permutation matrix invariants
    assert np.array_equal(Q.sum(axis=0), np.ones(K, dtype=int))
    assert np.array_equal(Q.sum(axis=1), np.ones(K, dtype=int))
    assert np.array_equal(Q.T @ Q, np.eye(K, dtype=int))


def test_align_hungarian_path_matches_brute_force():
    # K = 9 exercises the assignment-problem branch.
    rng = np.random.default_rng(11)
    ref = random_membership(rng, 120, 9)
    est = random_membership(rng, 120, 9)
    Q = align_permutation(est, ref)
    agreement = int(np.sum(Q.argmax(axis=1)[est.labels] == ref.labels))
    assert agreement == _brute_force_agreement(est, ref)


def test_misclustering_counts():
    rng = np.random.default_rng(13)
    m = random_membership(rng, 60, 3)
    assert misclustering_count(m, m) == 0
    flipped = m.labels.copy()
    flipped[0] = (flipped[0] + 1) % 3
    assert misclustering_count(Membership(labels=flipped, n_communities=3), m) == 1


def test_perturb_membership():
    m = Membership(labels=np.tile(np.arange(4), 25), n_communities=4)
    assert perturb_membership(m, 0, seed=0) is m
    # Alignment stays identity while flipped nodes are a clear minority; at
    # exactly n/2 a concentrated draw can make a swapped labeling closer.
    for flips in [1, 5, 20, 40]:
        pert = perturb_membership(m, flips, seed=flips)
        assert misclustering_count(pert, m) == flips
    two = Membership(labels=np.array([0, 1, 0, 1]), n_communities=2)
    all_flipped = perturb_membership(two, 4, seed=1)
    assert np.array_equal(all_flipped.labels, 1 - two.labels)
    with pytest.raises(ValueError):
        perturb_membership(two, 5, seed=0)
    one = Membership(labels=np.zeros(4, dtype=int), n_communities=1)
    with pytest.raises(ValueError):
        perturb_membership(one, 1, seed=0)


def test_pipeline_equivariance_under_relabeling():
    rng = np.random.default_rng(23)
    params = assortative_params(rng, 150, 3)
    A = sample_sbm(params, seed=29)
    est = detect_communities(A, 3, seed=1)
    count_original = misclustering_count(est, params.membership)
    perm = np.array([2, 0, 1])
    relabeled = Membership(labels=perm[params.membership.labels], n_communities=3)
    assert misclustering_count(est, relabeled) == count_original


def test_membership_csv_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    m = random_membership(rng, 25, 3)
    path = tmp_path / "membership.csv"
    m.to_csv(path)
    loaded = Membership.from_csv(path)
    assert np.array_equal(loaded.labels, m.labels)
    assert loaded.n_communities == 3


def test_membership_csv_node_ids(tmp_path):
    path = tmp_path / "membership.csv"
    path.write_text("node_id,label\n2,1\n0,0\n1,1\n")
    assert Membership.from_csv(path).labels.tolist() == [0, 1, 1]

    path.write_text("node_id,label\n1,0\n2,1\n3,0\n3,1\n")
    with pytest.raises(ValueError, match="line 5: node_id 3"):
        Membership.from_csv(path)
    path.write_text("node_id,label\n1,0\n2,1\n3,0\n4,1\n")
    with pytest.raises(ValueError, match="line 5: node_id 4"):
        Membership.from_csv(path)


@pytest.mark.parametrize("row", ["1", "1,0,2", "a,0", "1,"])
def test_membership_csv_malformed_row_names_line(tmp_path, row):
    path = tmp_path / "membership.csv"
    path.write_text(f"node_id,label\n0,0\n{row}\n")
    with pytest.raises(ValueError, match=r"membership\.csv: line 3: expected integer node_id,label"):
        Membership.from_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,0\n1,-1\n", r"membership\.csv: line 3: negative label -1"),
        ("0,0\n1,2\n2,0\n", r"membership\.csv: no node has label 1; 0\.\.2 must all be used"),
    ],
    ids=["negative", "unused"],
)
def test_membership_csv_bad_label_names_path(tmp_path, body, message):
    path = tmp_path / "membership.csv"
    path.write_text("node_id,label\n" + body)
    with pytest.raises(ValueError, match=message):
        Membership.from_csv(path)


def lanczos_cases():
    """Symmetric matrices above the dense-eigensolver size, with their k."""
    n = _DENSE_EIG_MAX_N + 100
    rng = np.random.default_rng(41)
    yield "sbm", sample_sbm(assortative_params(rng, n, 3), seed=42), 6
    # Two copies of one dense weighted block: every eigenvalue is repeated.
    W = rng.random((n // 2, n // 2))
    W = W + W.T
    A = np.zeros((n, n))
    A[: n // 2, : n // 2] = W
    A[n // 2 :, n // 2 :] = W
    yield "repeated", A, 4


@pytest.mark.parametrize("case", list(lanczos_cases()), ids=lambda c: c[0])
def test_lanczos_eigenpairs_match_dense_eigh(case):
    _, A, k = case
    vals, vecs = _leading_eigenpairs(A, k)
    w, V = np.linalg.eigh(A)
    order = np.argsort(-np.abs(w))[:k]
    np.testing.assert_allclose(vals, w[order], rtol=1e-10, atol=0)
    # Eigenvectors are unique up to sign only where the eigenvalue is
    # separated; a repeated eigenvalue pins down its eigenspace, so compare
    # the projector onto the whole leading subspace as well.
    np.testing.assert_allclose(vecs @ vecs.T, V[:, order] @ V[:, order].T, atol=1e-10)
    lam = w[order]
    for j in range(k):
        if np.sum(np.isclose(lam, lam[j], rtol=1e-8)) == 1:
            ref = V[:, order[j]]
            sign = np.sign(ref @ vecs[:, j])
            np.testing.assert_allclose(vecs[:, j], sign * ref, atol=1e-10)


def test_lanczos_result_does_not_depend_on_memory_layout():
    n = _DENSE_EIG_MAX_N + 50
    rng = np.random.default_rng(43)
    A = sample_sbm(assortative_params(rng, n, 3), seed=44)
    padded = np.zeros((2 * n, 2 * n))
    padded[::2, ::2] = A
    layouts = [A, np.asfortranarray(A), padded[::2, ::2]]
    assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
    results = [_leading_eigenpairs(M, 5) for M in layouts]
    for vals, vecs in results[1:]:
        assert np.array_equal(vals, results[0][0])
        assert np.array_equal(vecs, results[0][1])


def test_scree_embedding_equals_spectral_embed_on_dense_path():
    rng = np.random.default_rng(45)
    A = sample_sbm(assortative_params(rng, 120, 3), seed=46)
    scree = estimate_k(A, 8)
    for K in (1, 3, 8):
        emb, ref = scree.embedding(K), spectral_embed(A, K)
        assert np.array_equal(emb.vectors, ref.vectors)
        assert np.array_equal(emb.singular_values, ref.singular_values)
        assert np.array_equal(emb.zero_rows, ref.zero_rows)
    for K in (0, 9):
        with pytest.raises(ValueError):
            scree.embedding(K)


def test_scree_built_without_eigenvectors():
    # The three fields a ScreeResult had before it kept eigenvectors still
    # build one; only its embedding needs the vectors.
    scree = ScreeResult(singular_values=np.array([3.0, 1.0]), suggested_k=1, flat_scree=False)
    assert scree.eigenvectors is None
    with pytest.raises(ValueError, match="no eigenvectors"):
        scree.embedding(1)


@pytest.mark.parametrize("k, k_max, solves", [(3, 8, 1), (3, 3, 1), (4, 3, 2)])
def test_detect_solves_once_when_k_within_k_max(tmp_path, monkeypatch, k, k_max, solves):
    n = _DENSE_EIG_MAX_N + 100
    rng = np.random.default_rng(47)
    params = assortative_params(rng, n, 3)
    save_edge_list(sample_sbm(params, seed=48), tmp_path / "net.txt")
    calls = []

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    eigsh = community.eigsh
    monkeypatch.setattr(community, "eigsh", counting_eigsh)
    out = tmp_path / "det.csv"
    argv = ["detect", "--network", str(tmp_path / "net.txt"), "--n", str(n), "--k", str(k)]
    rc = main(argv + ["--k-max", str(k_max), "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert len(calls) == solves
    ref = detect_communities(load_edge_list(tmp_path / "net.txt", n), k, seed=5)
    assert np.array_equal(Membership.from_csv(out).labels, ref.labels)
