import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assortative_params, random_membership, run_child
from netreg import (
    Membership,
    SbmParams,
    align_permutation,
    detect_communities,
    estimate_k,
    kmeans,
    perturb_membership,
    sample_sbm,
    spectral_embed,
)
from netreg import community
from netreg._inputs import symmetric
from netreg.cli import main
from netreg.community import DegenerateInputError, _leading_eigenpairs
from netreg.graph import load_edge_list, save_adjacency_csv, save_edge_list
from netreg.simharness import gen_instance


def misclustering_count(estimated, reference):
    """Nodes whose label differs from the reference after optimal alignment."""
    mapped = align_permutation(estimated, reference).argmax(axis=1)[estimated.labels]
    return int(np.sum(mapped != reference.labels))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_kmeans_rejects_non_finite_points(bad):
    # Seeding used to fail inside rng.choice ("Probabilities contain NaN").
    pts = np.random.default_rng(10).standard_normal((12, 2))
    pts[7, 1] = bad
    pts[9, 0] = bad
    with pytest.raises(ValueError, match="^k-means points must be finite; row 7 is not$"):
        kmeans(pts, 3, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((40, 3))
    m1 = kmeans(pts, 3, seed=5)
    m2 = kmeans(pts, 3, seed=5)
    assert np.array_equal(m1.labels, m2.labels)


# The per-restart Lloyd that community._lloyd batches, kept as the oracle for
# its bits: labels, objectives and the empty-cluster repair.
def _lloyd_one_restart(points, centers, max_iter=300):
    n, K = points.shape[0], centers.shape[0]
    prev_obj = np.inf
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
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


# The per-restart k-means++ seeding, kept as the oracle for
# community._kmeanspp_centers's random stream and its bits.
def _kmeanspp_one_restart(points, K, rng):
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


def _kmeans_one_restart_at_a_time(points, K, seed, restarts=10):
    if np.unique(points, axis=0).shape[0] < K:
        raise DegenerateInputError(f"need at least {K} distinct rows to form {K} clusters")
    best_labels, best_obj = None, np.inf
    for child in np.random.SeedSequence(seed).spawn(restarts):
        centers = _kmeanspp_one_restart(points, K, np.random.default_rng(child))
        labels, obj = _lloyd_one_restart(points, centers.copy())
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    return best_labels


def _outcome(call):
    """What ``call`` returns, or the type of what it raises."""
    try:
        return call()
    except (RuntimeError, DegenerateInputError) as exc:
        return type(exc)


@st.composite
def _points(draw, max_rows=40):
    """n x d points drawn from a pool of at most 8 rows, so rows repeat."""
    d = draw(st.integers(1, 10))
    value = st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False),
    )
    pool = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=8))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_rows))
    return np.array(pool, dtype=np.float64)[rows]


@settings(max_examples=200, deadline=None)
@given(points=_points(), K=st.integers(1, 5), R=st.integers(1, 4), data=st.data())
def test_batched_lloyd_matches_one_restart_at_a_time(points, K, R, data):
    # Start centers are points, some repeated: a repeated center starts empty
    # and takes the repair. A restart's bits must not depend on the others.
    n = points.shape[0]
    assume(n >= K)  # kmeans asks for K distinct rows first; a repair needs a donor
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=R * K, max_size=R * K))
    centers = points[starts].reshape(R, K, -1)
    got = _outcome(lambda: community._lloyd(points, centers.copy()))
    want = [_outcome(lambda: _lloyd_one_restart(points, c.copy())) for c in centers]
    if got is RuntimeError or RuntimeError in want:
        assert got is RuntimeError and RuntimeError in want
        return
    labels, objectives = got
    for r, (want_labels, want_obj) in enumerate(want):
        assert np.array_equal(labels[r], want_labels)
        assert objectives[r].tobytes() == np.float64(want_obj).tobytes()


@pytest.mark.parametrize("d", [1, 2, 9])
def test_batched_lloyd_on_long_clusters(d):
    # Clusters of hundreds of points, so the order a center's sum adds them in
    # shows in its bits: for one column numpy's mean adds pairwise.
    rng = np.random.default_rng(d)
    points = rng.standard_normal((600, d))
    centers = points[rng.integers(0, 600, size=(4, 3))]
    labels, objectives = community._lloyd(points, centers.copy())
    for r in range(4):
        want_labels, want_obj = _lloyd_one_restart(points, centers[r].copy())
        assert np.array_equal(labels[r], want_labels)
        assert objectives[r].tobytes() == np.float64(want_obj).tobytes()


@settings(max_examples=300, deadline=None)
@given(points=_points(), K=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), R=st.integers(1, 5))
def test_kmeanspp_centers_match_one_restart_at_a_time(points, K, seed, R):
    # Repeated rows make all-zero distances, which take rng.integers instead.
    children = np.random.SeedSequence(seed).spawn(R)
    got_rngs = [np.random.default_rng(c) for c in children]
    got = np.stack([community._kmeanspp_centers(points, K, rng) for rng in got_rngs])
    rngs = [np.random.default_rng(c) for c in children]
    want = np.stack([_kmeanspp_one_restart(points, K, rng) for rng in rngs])
    assert got.tobytes() == want.tobytes()
    # Both consumed the same stream: the generators are at the same state.
    assert [g.bit_generator.state for g in got_rngs] == [g.bit_generator.state for g in rngs]


@pytest.mark.parametrize("seed", range(4))
def test_kmeanspp_centers_on_embeddings_match_one_restart_at_a_time(seed):
    K = 3 + seed % 3
    points = spectral_embed(gen_instance(1000, K, 0.5, seed=seed).adjacency, K).vectors
    for child in np.random.SeedSequence(seed).spawn(10):
        got_rng, rng = np.random.default_rng(child), np.random.default_rng(child)
        got = community._kmeanspp_centers(points, K, got_rng)
        assert got.tobytes() == _kmeanspp_one_restart(points, K, rng).tobytes()
        assert got_rng.bit_generator.state == rng.bit_generator.state


def test_kmeanspp_centers_reject_overflowing_distances():
    points = np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]])
    with pytest.raises(ValueError, match="squared distances overflow"), np.errstate(over="ignore"):
        kmeans(points, 2, seed=0)


@settings(max_examples=200, deadline=None)
@given(points=_points(), K=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), R=st.integers(1, 5))
def test_kmeans_matches_one_restart_at_a_time(points, K, seed, R):
    want = _outcome(lambda: _kmeans_one_restart_at_a_time(points, K, seed, R))
    got = _outcome(lambda: kmeans(points, K, seed, R).labels)
    if isinstance(want, type):
        assert got is want  # fewer than K distinct rows is DegenerateInputError
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_kmeans_tie_goes_to_the_lowest_restart(seed):
    # Three tight, far-apart clouds: every restart finds the same partition,
    # so the objectives tie bit for bit, but each restart numbers the clusters
    # in the order its seeding met them. The first restart's labels must win.
    rng = np.random.default_rng(seed)
    points = np.repeat(10.0 * np.eye(3), 5, axis=0) + rng.normal(0.0, 0.01, (15, 3))
    runs = []
    for child in np.random.SeedSequence(seed).spawn(10):
        centers = _kmeanspp_one_restart(points, 3, np.random.default_rng(child))
        labels, objectives = community._lloyd(points, centers[None])
        runs.append((labels[0], objectives[0]))
    assert len({obj.tobytes() for _, obj in runs}) == 1
    assert len({labels.tobytes() for labels, _ in runs}) > 1
    assert np.array_equal(kmeans(points, 3, seed=seed).labels, runs[0][0])


@pytest.mark.parametrize("entries", [1, 200, 2**15])
def test_kmeans_in_batches_matches_one_restart_at_a_time(monkeypatch, entries):
    # 40 points and K = 2 take 80 entries per restart: batches of 1, 2 and 10.
    monkeypatch.setattr(community, "_LLOYD_BATCH_ENTRIES", entries)
    rng = np.random.default_rng(entries)
    points = np.vstack([rng.normal(0.0, 1.0, (25, 3)), rng.normal(1.5, 1.0, (15, 3))])
    want = _kmeans_one_restart_at_a_time(points, 2, seed=entries)
    assert np.array_equal(kmeans(points, 2, seed=entries).labels, want)


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_on_embeddings_matches_one_restart_at_a_time(seed):
    K = 3 + seed % 3
    emb = spectral_embed(gen_instance(600, K, 0.5, seed=seed).adjacency, K)
    want = _kmeans_one_restart_at_a_time(emb.vectors, K, seed)
    assert np.array_equal(kmeans(emb, K, seed).labels, want)


@pytest.mark.parametrize("d", [*range(1, 20), 127, 128, 129, 136, 300])
def test_pairwise_sum_is_numpys(d):
    t = np.random.default_rng(d).random((3, 4, d))
    got = community._pairwise_sum(lambda j: t[..., j].copy(), d)
    assert got.tobytes() == t.sum(axis=-1).tobytes()


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


@pytest.mark.parametrize("K", range(2, 9))
def test_align_tie_goes_to_the_first_permutation_in_lexicographic_order(K):
    # Agreement counts 1 + 3 [b = p(a)] + 3 [b = q(a)]: p, q and every
    # permutation taking each a to p(a) or q(a) tie. Q must be the first of
    # them in itertools.permutations order; err_est in raw.csv reads Q.
    rng = np.random.default_rng(K)
    p = rng.permutation(K)
    q = p
    while np.array_equal(q, p):
        q = rng.permutation(K)
    counts = np.ones((K, K), dtype=np.int64)
    counts[np.arange(K), p] += 3
    counts[np.arange(K), q] += 3
    perms = list(itertools.permutations(range(K)))
    scores = [int(counts[np.arange(K), perm].sum()) for perm in perms]
    assert scores.count(max(scores)) >= 2
    first_best = perms[scores.index(max(scores))]
    est = np.repeat(np.repeat(np.arange(K), K), counts.ravel())
    ref = np.repeat(np.tile(np.arange(K), K), counts.ravel())
    order = rng.permutation(est.size)
    Q = align_permutation(Membership(est[order], K), Membership(ref[order], K))
    assert tuple(Q.argmax(axis=1).tolist()) == first_best


def test_align_hungarian_path_matches_brute_force():
    # K = 9 exercises the assignment-problem branch.
    rng = np.random.default_rng(11)
    ref = random_membership(rng, 120, 9)
    est = random_membership(rng, 120, 9)
    Q = align_permutation(est, ref)
    agreement = int(np.sum(Q.argmax(axis=1)[est.labels] == ref.labels))
    assert agreement == _brute_force_agreement(est, ref)


_IMPORT_CHILD = r"""
import itertools, json, sys

import numpy as np

import netreg, netreg.cli
from netreg.community import Membership, align_permutation

report = {"loaded_by_import": "scipy.optimize" in sys.modules}
rng = np.random.default_rng(11)
K = 9
est, ref = (Membership(labels=rng.permutation(np.arange(120) % K), n_communities=K) for _ in "ab")
Q = align_permutation(est, ref)
report["loaded_by_k9"] = "scipy.optimize" in sys.modules
report["agreement"] = int(np.sum(Q.argmax(axis=1)[est.labels] == ref.labels))
counts = np.zeros((K, K), dtype=np.int64)
np.add.at(counts, (est.labels, ref.labels), 1)
perms = np.array(list(itertools.permutations(range(K))))
report["brute_force"] = int(counts[np.arange(K), perms].sum(axis=1).max())
print(json.dumps(report))
"""


def test_scipy_optimize_loads_only_for_more_than_eight_communities():
    # Importing it cost every process about 17 MB and 0.25 s.
    report = run_child(_IMPORT_CHILD)
    assert not report["loaded_by_import"]
    assert report["loaded_by_k9"]
    assert report["agreement"] == report["brute_force"]


_DEGENERATE_SPECTRA_CHILD = r"""
import hashlib, json

import numpy as np

from netreg import detect_communities, estimate_k, spectral_embed


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


cliques = np.kron(np.eye(3), np.ones((200, 200))) - np.eye(600)
report = {}
for name, A in (("eye600", np.eye(600)), ("eye50", np.eye(50)), ("cliques", cliques)):
    for _ in range(3):
        emb, scree = spectral_embed(A, 3), estimate_k(A, 20)
        report.setdefault(name, []).append([
            digest(emb.vectors, emb.singular_values, emb.zero_rows),
            digest(detect_communities(A, 3, seed=0).labels),
            digest(scree.singular_values, scree.eigenvectors),
        ])
print(json.dumps(report))
"""


def test_degenerate_spectra_give_the_same_bits_in_every_call_and_process():
    # From the uniform start vector, ARPACK's Krylov space is invariant at
    # once on these graphs, and it restarts from a random vector. Unseeded,
    # that vector came from OS entropy: spectral_embed(np.eye(600), 3) had a
    # new hash on every call, and the k-means labels moved with it.
    reports = [run_child(_DEGENERATE_SPECTRA_CHILD) for _ in range(2)]
    for name, calls in reports[0].items():
        assert calls == [calls[0]] * 3, name
    assert reports[1] == reports[0]


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
        (
            "0,0\n1,2\n2,0\n",
            r"membership\.csv: no node has label 1; 0\.\.2 must all be used",
        ),
    ],
    ids=["negative", "unused"],
)
def test_membership_csv_bad_label_names_path(tmp_path, body, message):
    path = tmp_path / "membership.csv"
    path.write_text("node_id,label\n" + body)
    with pytest.raises(ValueError, match=message):
        Membership.from_csv(path)


def test_membership_csv_unused_label_check_is_sized_by_the_rows(tmp_path):
    # A label count sized by the largest label took 172 MB here before the
    # error; a label near 1e10 would ask for about 80 GB.
    path = tmp_path / "membership.csv"
    path.write_text("node_id,label\n0,0\n1,20000000\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"no node has label 1; 0\.\.20000000 must all be used"):
            Membership.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def lanczos_cases():
    """Symmetric matrices that ARPACK solves (k < n - 1), with their k."""
    n = 600
    rng = np.random.default_rng(41)
    yield "sbm", sample_sbm(assortative_params(rng, n, 3), seed=42), 6
    # Two copies of one dense weighted block: every eigenvalue is repeated.
    W = rng.random((n // 2, n // 2))
    W = W + W.T
    A = np.zeros((n, n))
    A[: n // 2, : n // 2] = W
    A[n // 2 :, n // 2 :] = W
    yield "repeated", A, 4
    # The CLI scree's k_max: ARPACK's basis is 3k + 4 = 64 vectors there.
    rng = np.random.default_rng(45)
    yield "sbm_k20", sample_sbm(assortative_params(rng, n, 4), seed=46), 20


@pytest.mark.parametrize("case", list(lanczos_cases()), ids=lambda c: c[0])
def test_lanczos_eigenpairs_match_dense_eigh(case):
    _, A, k = case
    vals, vecs = _leading_eigenpairs(*symmetric(A), k)
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


@pytest.mark.parametrize("case", list(lanczos_cases()), ids=lambda c: c[0])
def test_scree_values_match_dense_eigh(case):
    # ARPACK stops at _SCREE_TOL; the values keep their machine-precision
    # agreement (the Ritz value error is quadratic in the residual).
    _, A, k = case
    scree = estimate_k(A, k)
    w = np.linalg.eigh(A)[0]
    ref = np.abs(w[np.argsort(-np.abs(w))[:k]])
    np.testing.assert_allclose(scree.singular_values, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", list(lanczos_cases()), ids=lambda c: c[0])
def test_scree_keeps_eigenvectors_at_machine_precision(case):
    _, A, k = case
    scree = estimate_k(A, k)
    V = scree.eigenvectors
    kept = V.shape[1]
    assert 1 <= kept <= k
    theta = np.einsum("ij,ij->j", V, A @ V)
    residual = np.linalg.norm(A @ V - V * theta, axis=0)
    assert (residual <= community._KEPT_RESIDUAL * scree.singular_values[0]).all()


@pytest.mark.parametrize("case", list(lanczos_cases()), ids=lambda c: c[0])
def test_scree_solves_again_on_a_multiple_eigenvalue(monkeypatch, case):
    # Stopped at _SCREE_TOL, ARPACK finds one copy of the "repeated" case's
    # fourth value and returns the fifth in its place; the two copies of the
    # first value show the spectrum has multiple eigenvalues.
    name, A, k = case
    tols = []

    def recording_eigsh(*args, **kwargs):
        tols.append(kwargs["tol"])
        return eigsh(*args, **kwargs)

    eigsh = community.eigsh
    monkeypatch.setattr(community, "eigsh", recording_eigsh)
    estimate_k(A, k)
    assert tols == ([community._SCREE_TOL, 0.0] if name == "repeated" else [community._SCREE_TOL])


def test_scree_embedding_stops_at_the_kept_prefix(monkeypatch):
    # A loose tolerance leaves bulk vectors unconverged; they are not kept.
    n = 600
    A = sample_sbm(assortative_params(np.random.default_rng(47), n, 3), seed=48)
    monkeypatch.setattr(community, "_SCREE_TOL", 1e-2)
    scree = estimate_k(A, 8)
    kept = scree.eigenvectors.shape[1]
    assert 1 <= kept < 8 and scree.singular_values.size == 8
    emb, ref = scree.embedding(kept), spectral_embed(A, kept)
    np.testing.assert_allclose(emb.vectors, ref.vectors, rtol=0, atol=1e-10)
    with pytest.raises(ValueError, match=rf"in \[1, {kept}\], got {kept + 1}"):
        scree.embedding(kept + 1)


def test_lanczos_result_does_not_depend_on_memory_layout():
    n = 550
    rng = np.random.default_rng(43)
    A = sample_sbm(assortative_params(rng, n, 3), seed=44)
    padded = np.zeros((2 * n, 2 * n))
    padded[::2, ::2] = A
    layouts = [A, np.asfortranarray(A), padded[::2, ::2]]
    assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
    results = [_leading_eigenpairs(*symmetric(M), 5) for M in layouts]
    for vals, vecs in results[1:]:
        assert np.array_equal(vals, results[0][0])
        assert np.array_equal(vecs, results[0][1])


def _numpy_leading_eigenpairs(A, k):
    """np.linalg.eigh reference with _leading_eigenpairs' order and sign convention."""
    w, V = np.linalg.eigh(A)
    order = np.lexsort((-w, -np.abs(w)))[:k]
    vals, vecs = w[order], V[:, order]
    pivots = np.abs(vecs).argmax(axis=0)
    return vals, vecs * np.sign(vecs[pivots, np.arange(k)])


@pytest.mark.parametrize(
    "n, k", [(120, 5), (300, 3), (500, 8), (40, 39), (120, 119), (300, 299), (30, 30)]
)
def test_dense_eigenpairs_match_numpy_eigh(n, k):
    # k >= n - 1 takes the dense eigh, a smaller k ARPACK.
    rng = np.random.default_rng(n)
    A = sample_sbm(assortative_params(rng, n, 3), seed=n + 1)
    vals, vecs = _leading_eigenpairs(*symmetric(A), k)
    ref_vals, ref_vecs = _numpy_leading_eigenpairs(A, k)
    np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-10 * np.abs(ref_vals).max())
    np.testing.assert_allclose(vecs, ref_vecs, rtol=0, atol=1e-8)


def test_detect_communities_matches_numpy_eigh_pipeline():
    A = gen_instance(300, 3, 0.5, seed=49).adjacency
    reference = kmeans(community._embedding(*_numpy_leading_eigenpairs(A, 3)), 3, seed=50)
    assert np.array_equal(detect_communities(A, 3, seed=50).labels, reference.labels)


_EIGEN_USERS = {
    "spectral_embed": lambda A: spectral_embed(A, 3),
    "estimate_k": lambda A: estimate_k(A, 5),
    "detect_communities": lambda A: detect_communities(A, 3, seed=0),
}


def _malformed(A, bad):
    """A with one defect, and the one message every consumer of A gives for it."""
    if bad == "directed":
        A[3, 7], A[7, 3] = 1.0, 0.0
        return A, r"^adjacency must be symmetric; A\[3, 7\] = 1 but A\[7, 3\] = 0$"
    if bad == "non_square":
        n = A.shape[0]
        return A[:, :-1], rf"^adjacency must be n x n, got shape \({n}, {n - 1}\)$"
    A[3, 7] = A[7, 3] = bad
    return A, "^adjacency must be finite; row 3 is not$"


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, "directed", "non_square"], ids=["nan", "inf", "directed", "non_square"]
)
@pytest.mark.parametrize("n", [50, 600], ids=["dense", "lanczos"])
@pytest.mark.parametrize("name", sorted(_EIGEN_USERS))
def test_non_finite_adjacency_fails_before_the_eigensolver(capfd, name, n, bad):
    # A directed A used to be read through its lower triangle, and a
    # non-square one failed inside scipy without naming the adjacency.
    rng = np.random.default_rng(51)
    A, message = _malformed(sample_sbm(assortative_params(rng, n, 3), seed=52), bad)
    with pytest.raises(ValueError, match=message):
        _EIGEN_USERS[name](A)
    # LAPACK prints nothing: no solver saw the matrix.
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    "bad", [np.nan, "directed", "non_square"], ids=["nan", "directed", "non_square"]
)
@pytest.mark.parametrize("writer", [save_edge_list, save_adjacency_csv], ids=lambda w: w.__name__)
def test_writers_reject_malformed_adjacency(tmp_path, writer, bad):
    rng = np.random.default_rng(53)
    A, message = _malformed(sample_sbm(assortative_params(rng, 30, 2), seed=54), bad)
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=message):
        writer(A, path)
    assert not path.exists()


def test_scree_embedding_equals_spectral_embed_on_dense_path():
    # k_max = n and K >= n - 1: the scree and spectral_embed both take eigh.
    rng = np.random.default_rng(45)
    A = sample_sbm(assortative_params(rng, 120, 3), seed=46)
    scree = estimate_k(A, 120)
    assert scree.eigenvectors.shape == (120, 120)
    for K in (119, 120):
        emb, ref = scree.embedding(K), spectral_embed(A, K)
        assert np.array_equal(emb.vectors, ref.vectors)
        assert np.array_equal(emb.singular_values, ref.singular_values)
        assert np.array_equal(emb.zero_rows, ref.zero_rows)
    for K in (0, 121):
        with pytest.raises(ValueError):
            scree.embedding(K)


@pytest.mark.parametrize(
    "k, k_max, tol, solves",
    [(3, 8, None, 1), (3, 3, None, 1), (4, 3, None, 2), (3, 8, 1e-2, 1), (4, 8, 1e-2, 2)],
)
def test_detect_solves_once_when_k_within_k_max(tmp_path, monkeypatch, k, k_max, tol, solves):
    # With tol, a loose _SCREE_TOL keeps 3 of the 8 scree eigenvectors, so
    # K = 4 is beyond the kept prefix and detect solves again.
    if tol is not None:
        monkeypatch.setattr(community, "_SCREE_TOL", tol)
    n = 600
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
