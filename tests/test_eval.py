"""Tests for the clustering evaluation stack.

The agreement metrics are verified against brute-force oracles implemented
here from scratch: entropies via collections.Counter and math.log for the
mutual-information score, and exhaustive mapping enumeration via
itertools.permutations for the best-match accuracy.  k-means is checked
bit for bit against a plain per-cluster-mean Lloyd loop kept here.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import eigsh

from sfgraph import (
    DataError,
    DimensionError,
    FeatureMatrix,
    NumericalError,
    ParameterError,
    SynthSpec,
    acc,
    gaussian_similarity,
    generate,
    kmeans,
    mcfs_select,
    njw_cluster,
    nmi,
    normalize_features,
    pairwise_euclidean,
    spectral_embedding,
)
from sfgraph import evaluate
from sfgraph.evaluate import _best_match_total, _contingency, _plus_plus_init, _restart_seed
from sfgraph.matrix import BLOCK_BYTES


def _nmi_oracle(a, b):
    n = len(a)
    ca, cb, cab = Counter(a), Counter(b), Counter(zip(a, b))

    def entropy(counter):
        return -sum((c / n) * math.log(c / n) for c in counter.values())

    h_a, h_b, h_ab = entropy(ca), entropy(cb), entropy(cab)
    denom = max(h_a, h_b)
    if denom == 0.0:
        return 1.0  # two constant labelings partition identically
    return (h_a + h_b - h_ab) / denom


def _acc_oracle(a, b):
    """Best agreement over every one-to-one mapping of label ids."""
    ids_a = sorted(set(a))
    ids_b = sorted(set(b))
    k = max(len(ids_a), len(ids_b))
    ids_a = ids_a + [f"pad_a{i}" for i in range(k - len(ids_a))]
    ids_b = ids_b + [f"pad_b{i}" for i in range(k - len(ids_b))]
    best = 0
    for perm in itertools.permutations(range(k)):
        mapping = {ids_a[i]: ids_b[perm[i]] for i in range(k)}
        best = max(best, sum(1 for x, y in zip(a, b) if mapping[x] == y))
    return best / len(a)


# --------------------------------------------------------------------------
# gaussian similarity


def test_similarity_diagonal_symmetry_and_range():
    rng = np.random.default_rng(0)
    sim = gaussian_similarity(rng.normal(size=(15, 4)))
    w = sim.weights
    np.testing.assert_allclose(np.diag(w), 1.0, atol=1e-15)
    np.testing.assert_allclose(w, w.T, atol=1e-15)
    assert np.all(w > 0.0) and np.all(w <= 1.0)


def test_similarity_default_width_is_mean_offdiagonal_distance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 3))
    sim = gaussian_similarity(x)
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += float(np.linalg.norm(x[i] - x[j]))
    assert abs(sim.sigma - total / (n * (n - 1))) < 1e-12
    expected = np.exp(
        -np.array(
            [[np.sum((x[i] - x[j]) ** 2) for j in range(n)] for i in range(n)]
        )
        / (2.0 * sim.sigma**2)
    )
    np.testing.assert_allclose(sim.weights, expected, atol=1e-12)


def test_similarity_is_scale_invariant_with_matching_width():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 3))
    # the width is the mean pairwise distance, so it scales with the data
    auto, auto_scaled = gaussian_similarity(x), gaussian_similarity(2.0 * x)
    np.testing.assert_allclose(auto_scaled.weights, auto.weights, atol=1e-12)


def test_similarity_weights_are_bitwise_the_out_of_place_kernel():
    # The kernel is formed in place; it must equal the plain expression.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(120, 9)) * rng.uniform(0.1, 10.0, size=9)
    dist = pairwise_euclidean(x)
    sigma = float(dist.sum() / (120 * 119))
    sim = gaussian_similarity(x)
    assert sim.sigma == sigma
    expected = np.exp(-(dist**2) / (2.0 * sigma**2))
    assert sim.weights.tobytes() == expected.tobytes()


def test_similarity_identical_samples_is_a_data_error():
    with pytest.raises(DataError):
        gaussian_similarity(np.ones((5, 3)))


def test_similarity_validates_shape():
    with pytest.raises(DimensionError):
        gaussian_similarity(np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_similarity_names_the_first_sample_holding_a_non_finite_value(bad):
    x = np.arange(12.0).reshape(4, 3)
    x[1, 2] = x[3, 0] = bad
    with pytest.raises(DataError, match=r"^sample 1 holds a non-finite value$"):
        gaussian_similarity(x)


# --------------------------------------------------------------------------
# spectral embedding


def _laplacian(w):
    """The symmetric normalized Laplacian, built densely as an oracle."""
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    lap = np.eye(w.shape[0]) - w * inv_sqrt[:, None] * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def test_embedding_columns_are_orthonormal():
    rng = np.random.default_rng(4)
    sim = gaussian_similarity(rng.normal(size=(30, 5)))
    emb = spectral_embedding(sim, 4)
    gram = emb.vectors.T @ emb.vectors
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)


def test_embedding_pairs_satisfy_the_eigenproblem():
    rng = np.random.default_rng(5)
    sim = gaussian_similarity(rng.normal(size=(25, 4)))
    emb = spectral_embedding(sim, 3)
    lap = _laplacian(sim.weights)
    for k in range(3):
        y = emb.vectors[:, k]
        lam = emb.eigenvalues[k]
        assert np.linalg.norm(lap @ y - lam * y) <= 1e-6
    assert np.all(np.diff(emb.eigenvalues) >= -1e-12)


def test_embedding_matches_direct_eigendecomposition():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 3))
    sim = gaussian_similarity(x)
    emb = spectral_embedding(sim, 4)
    values, vectors = np.linalg.eigh(_laplacian(sim.weights))
    np.testing.assert_allclose(emb.eigenvalues, values[:4], atol=1e-10)
    for k in range(4):
        ours = emb.vectors[:, k]
        ref = vectors[:, k]
        big = np.flatnonzero(np.abs(ref) > 1e-12)
        if big.size and ref[big[0]] < 0:
            ref = -ref
        np.testing.assert_allclose(ours, ref, atol=1e-8)


def test_embedding_separates_disconnected_blocks():
    # two blocks with (nearly) no cross-similarity: the two smallest
    # eigenvalues vanish and the embedding rows are block-constant
    n = 12
    w = np.full((n, n), 1e-12)
    w[:6, :6] = 1.0
    w[6:, 6:] = 1.0
    emb = spectral_embedding(type("S", (), {"weights": w})(), 2)
    np.testing.assert_allclose(emb.eigenvalues, [0.0, 0.0], atol=1e-6)
    labels = njw_cluster(emb, 2, seed=0)
    assert len(set(labels[:6].tolist())) == 1
    assert len(set(labels[6:].tolist())) == 1
    assert labels[0] != labels[6]


def test_embedding_k_one_gets_the_trivial_eigenvector():
    rng = np.random.default_rng(7)
    sim = gaussian_similarity(rng.normal(size=(10, 3)))
    emb = spectral_embedding(sim, 1)
    assert emb.vectors.shape == (10, 1)
    assert abs(emb.eigenvalues[0]) < 1e-10


def test_embedding_validates_inputs():
    rng = np.random.default_rng(8)
    sim = gaussian_similarity(rng.normal(size=(6, 2)))
    for bad in (0, 6, 7):
        with pytest.raises(ParameterError):
            spectral_embedding(sim, bad)
    with pytest.raises(DimensionError):
        spectral_embedding(type("S", (), {"weights": np.ones((3, 4))})(), 1)
    isolated = np.eye(4)
    isolated[2, 2] = 0.0  # no similarity mass anywhere in row 2
    with pytest.raises(DataError):
        spectral_embedding(type("S", (), {"weights": isolated})(), 2)
    # one entry off by an ulp from its mirror: weights are never symmetrised
    lopsided = sim.weights.copy()
    lopsided[0, 1] = np.nextafter(lopsided[0, 1], 2.0)
    with pytest.raises(DataError, match="not symmetric"):
        spectral_embedding(type("S", (), {"weights": lopsided})(), 2)


@pytest.mark.parametrize("n", [60, 300, 1000])
def test_iterative_eigensolver_matches_the_dense_one(monkeypatch, n):
    sim = gaussian_similarity(np.random.default_rng(18).normal(size=(n, 3)))
    calls = []

    def counting_eigsh(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    iterative = spectral_embedding(sim, 4)
    assert calls == [1]
    # independent oracle: a dense solve of the explicit Laplacian
    values, vectors = scipy.linalg.eigh(_laplacian(sim.weights), subset_by_index=(0, 3))
    first = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    vectors *= np.sign(vectors[first, np.arange(4)])
    assert np.min(np.diff(values)) > 1e-3  # vectors are well defined
    np.testing.assert_allclose(iterative.eigenvalues, values, atol=1e-8)
    np.testing.assert_allclose(iterative.vectors, vectors, atol=1e-6)


def test_iterative_eigensolver_non_convergence_is_a_numerical_error(monkeypatch):
    sim = gaussian_similarity(np.random.default_rng(19).normal(size=(30, 3)))

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(1), np.zeros((30, 1))
        )

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="1 of 3 eigenpairs"):
        spectral_embedding(sim, 3)


def test_embedding_is_bitwise_reproducible():
    # ARPACK's own random start would make the last bits differ per call
    sim = gaussian_similarity(np.random.default_rng(20).normal(size=(600, 8)))
    a = spectral_embedding(sim, 10)
    b = spectral_embedding(sim, 10)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


# n = 2; n within one block of distance rows; n = 300 and 1000, which end
# on a partial block
@pytest.mark.parametrize("n, d", [(2, 3), (100, 7), (300, 5), (1000, 16)])
def test_similarity_over_blocked_distances_is_bitwise_the_whole_matrix_kernel(n, d):
    rows = BLOCK_BYTES // (8 * n)  # rows per block of pairwise_euclidean
    assert n <= rows if n <= 100 else n % rows != 0
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    dist = pairwise_euclidean(x)  # test_matrix checks it against the whole pass
    sigma = float(dist.sum() / (n * (n - 1)))
    sim = gaussian_similarity(x)
    assert sim.sigma == sigma
    expected = np.exp(-(dist**2) / (2.0 * sigma**2))
    assert sim.weights.tobytes() == expected.tobytes()

    weights = sim.weights.copy()
    spectral_embedding(sim, min(n - 1, 10))
    assert sim.weights.tobytes() == weights.tobytes()  # left untouched


def test_embedding_allocates_no_n_by_n_float_array():
    # S is applied as an operator on the weights, never formed; the
    # symmetry check's n x n booleans are an eighth of a float64 array
    n = 1000
    sim = gaussian_similarity(np.random.default_rng(22).normal(size=(n, 16)))
    tracemalloc.start()
    try:
        spectral_embedding(sim, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * n * n * 8, peak


def test_embedding_k_can_be_all_but_one_sample():
    sim = gaussian_similarity(np.random.default_rng(21).normal(size=(12, 3)))
    emb = spectral_embedding(sim, 11)
    assert emb.vectors.shape == (12, 11)
    np.testing.assert_allclose(emb.vectors.T @ emb.vectors, np.eye(11), atol=1e-8)
    values = scipy.linalg.eigvalsh(_laplacian(sim.weights))
    np.testing.assert_allclose(emb.eigenvalues, values[:11], atol=1e-8)


# --------------------------------------------------------------------------
# k-means


def test_kmeans_objective_never_increases():
    rng = np.random.default_rng(9)
    for trial in range(20):
        x = rng.normal(size=(int(rng.integers(10, 40)), int(rng.integers(1, 4))))
        result = kmeans(x, int(rng.integers(1, 5)), seed=trial, restarts=2)
        assert np.all(np.diff(result.objective_trace) <= 1e-9)
        assert result.inertia == result.objective_trace[-1]


def test_kmeans_is_deterministic_and_restarts_only_help():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(40, 3))
    a = kmeans(x, 4, seed=7, restarts=5)
    b = kmeans(x, 4, seed=7, restarts=5)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.centers, b.centers)
    single = kmeans(x, 4, seed=7, restarts=1)
    assert a.inertia <= single.inertia + 1e-12


def test_kmeans_k_equals_n_and_k_one():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 2))
    each = kmeans(x, 6, seed=0)
    assert sorted(each.labels.tolist()) == list(range(6))
    assert each.inertia < 1e-20
    one = kmeans(x, 1, seed=0)
    np.testing.assert_allclose(one.centers[0], x.mean(axis=0), atol=1e-12)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(12)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    truth = np.repeat([0, 1, 2], 30)
    x = centers[truth] + rng.normal(scale=0.5, size=(90, 2))
    result = kmeans(x, 3, seed=1)
    assert acc(truth, result.labels) == 1.0


def test_kmeans_fills_every_cluster_even_with_duplicate_points():
    x = np.array([[0.0, 0.0]] * 4 + [[10.0, 10.0]] * 3)
    result = kmeans(x, 3, seed=0, restarts=3)
    counts = np.bincount(result.labels, minlength=3)
    assert np.all(counts >= 1)


def test_seeding_never_repeats_a_center_while_a_distinct_point_remains():
    # Lloyd's distance form can round a point's distance to its own copy
    # below zero.  Unclipped, 100 such copies outweigh the one distinct
    # neighbour's distance, the total falls to <= 0, and the draw falls back
    # to a uniform pick, which repeats the center.
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a = rng.normal(size=4)
        x = np.vstack([np.tile(a, (100, 1)), a * (1.0 + 1e-7)])
        x_sq = np.sum(x**2, axis=1)
        d2 = np.add.outer(x_sq, x_sq[:1]) - 2.0 * (x @ x[:1].T)
        if d2[0, 0] < 0.0 < d2[-1, 0]:
            break
    else:
        pytest.fail("no point rounds its distance to itself below zero")
    for seed in range(10):
        centers = _plus_plus_init(x, x_sq, 2, [np.random.default_rng(seed)])[0]
        assert not np.array_equal(centers[0], centers[1]), seed


def _reference_plus_plus_init(x, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def _reference_lloyd(x, k, rng, splits):
    """Lloyd's loop with one boolean mask and ``mean`` per cluster; every
    empty-cluster split is appended to ``splits``."""
    centers = _reference_plus_plus_init(x, k, rng)
    trace = []
    for it in range(300):
        d2 = (
            np.sum(x**2, axis=1)[:, None]
            + np.sum(centers**2, axis=1)[None, :]
            - 2.0 * (x @ centers.T)
        )
        np.maximum(d2, 0.0, out=d2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            largest = int(np.argmax(counts))
            members = np.flatnonzero(labels == largest)
            far = members[int(np.argmax(d2[members, largest]))]
            labels[far] = empty
            counts[largest] -= 1
            counts[empty] += 1
            splits.append(empty)
        for c in range(k):
            centers[c] = x[labels == c].mean(axis=0)
        trace.append(float(np.sum((x - centers[labels]) ** 2)))
        if it > 0:
            prev = trace[-2]
            if prev == 0.0 or abs(prev - trace[-1]) <= 1e-6 * prev:
                break
    return labels, centers, np.asarray(trace)


def _reference_kmeans(x, k, seed, restarts, splits):
    best = None
    for r in range(restarts):
        fit = _reference_lloyd(x, k, np.random.default_rng([seed, r]), splits)
        if best is None or fit[2][-1] < best[2][-1]:
            best = fit
    return best


def _oracle_points(case, rng, n_range=(12, 160), dim_range=(2, 13)):
    """Points of 2-12 coordinates (by default); by case: plain, rounded to a
    coarse grid (ties in distance), half duplicated, or a few distinct points
    repeated (duplicate centers, so empty clusters)."""
    n = int(rng.integers(*n_range))
    dim = int(rng.integers(*dim_range))
    kind = case % 4
    if kind == 3:
        distinct = rng.normal(size=(int(rng.integers(2, 6)), dim))
        return distinct[rng.integers(len(distinct), size=n)]
    x = rng.normal(size=(n, dim))
    if kind == 1:
        x = np.round(x * 2.0) / 2.0
    elif kind == 2:
        x[n // 2 :] = x[: n - n // 2]
    return x


def test_kmeans_matches_the_per_cluster_mean_loop_bit_for_bit():
    rng = np.random.default_rng(2024)
    splits = []
    for case in range(120):
        x = _oracle_points(case, rng)
        k = int(rng.integers(1, min(12, x.shape[0]) + 1))
        restarts = int(rng.integers(1, 4))
        labels, centers, trace = _reference_kmeans(x, k, case, restarts, splits)
        result = kmeans(x, k, seed=case, restarts=restarts)
        np.testing.assert_array_equal(result.labels, labels)
        assert result.centers.tobytes() == centers.tobytes(), case
        assert result.objective_trace.tobytes() == trace.tobytes(), case
        assert result.n_iter == len(trace)
        assert result.inertia == trace[-1]
    assert splits, "no case reached the empty-cluster split"


def _same_fit(a, b):
    return (
        a.labels.tobytes() == b.labels.tobytes()
        and a.centers.tobytes() == b.centers.tobytes()
        and a.objective_trace.tobytes() == b.objective_trace.tobytes()
        and a.n_iter == b.n_iter
    )


def test_kmeans_restarts_across_several_groups_match_the_loop_bit_for_bit():
    # At n ~ 1000 and dim = k = 10 a group holds 3 restarts of the 10.
    rng = np.random.default_rng(77)
    splits = []
    for case in range(8):
        x = _oracle_points(case, rng, n_range=(900, 1100), dim_range=(10, 11))
        restarts = int(rng.integers(4, 11))
        assert BLOCK_BYTES // (8 * x.shape[0] * 10) < restarts
        labels, centers, trace = _reference_kmeans(x, 10, case, restarts, splits)
        result = kmeans(x, 10, seed=case, restarts=restarts)
        np.testing.assert_array_equal(result.labels, labels)
        assert result.centers.tobytes() == centers.tobytes(), case
        assert result.objective_trace.tobytes() == trace.tobytes(), case
        assert result.n_iter == len(trace)
    assert splits, "no case reached the empty-cluster split"


@pytest.mark.parametrize("max_iter", [evaluate.KMEANS_MAX_ITER, 2, 4])
def test_kmeans_bits_do_not_depend_on_the_restart_group_size(monkeypatch, max_iter):
    # A small round limit stops some restarts at the limit in the round
    # where others converge.
    monkeypatch.setattr(evaluate, "KMEANS_MAX_ITER", max_iter)
    rng = np.random.default_rng(78)
    cases = []
    for case in range(24):
        x = _oracle_points(case, rng)
        k = int(rng.integers(1, min(12, x.shape[0]) + 1))
        cases.append((x, k, case, int(rng.integers(1, 11))))
    default = [kmeans(x, k, seed=s, restarts=r) for x, k, s, r in cases]
    for (x, k, s, r), want in zip(cases, default):
        three = 3 * 8 * x.shape[0] * max(k, x.shape[1])
        # Groups of one restart, of three (the last one shorter), of all.
        for budget in (8, three, 1 << 40):
            monkeypatch.setattr(evaluate, "BLOCK_BYTES", budget)
            assert _same_fit(kmeans(x, k, seed=s, restarts=r), want), (budget, s)


def test_cached_restart_seeds_give_the_default_rng_streams():
    # kmeans builds each restart's generator from a cached seed; twice, so
    # that the second build reads the cache.
    for seed in (0, 1, 7, 12345):
        for r in range(12):
            for _ in range(2):
                got = np.random.Generator(np.random.PCG64(_restart_seed(seed, r)))
                want = np.random.default_rng([seed, r])
                assert got.bit_generator.state == want.bit_generator.state, (seed, r)
                np.testing.assert_array_equal(got.random(16), want.random(16))


def test_kmeans_on_identical_points_raises_no_warning():
    # Every distance is 0: the seeding's cumulative distribution is 0 / 0
    # for each restart, which must neither warn nor be read.
    result = kmeans(np.full((8, 3), 2.5), 3, seed=0, restarts=4)
    assert result.inertia == 0.0
    assert np.bincount(result.labels, minlength=3).min() >= 1


def test_kmeans_validates_inputs():
    x = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        kmeans(x, 0, seed=0)
    with pytest.raises(ParameterError):
        kmeans(x, 5, seed=0)
    with pytest.raises(ParameterError):
        kmeans(x, 2, seed=0, restarts=0)
    with pytest.raises(DimensionError):
        kmeans(np.zeros(4), 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match=r"^point 0 holds a non-finite value$"):
            kmeans([[bad, 0.0], [1.0, 1.0], [2.0, 2.0]], 2)
        x = np.arange(10.0).reshape(5, 2)
        x[2, 1] = x[4, 0] = bad
        with pytest.raises(DataError, match=r"^point 2 holds a non-finite value$"):
            kmeans(x, 2)


# --------------------------------------------------------------------------
# end-to-end spectral clustering sanity


def test_njw_clusters_well_separated_blobs():
    good = 0
    for seed in range(5):
        spec = SynthSpec(
            n_samples=150, base_features=4, clusters=3, separation=10.0, seed=seed
        )
        matrix, truth, _ = generate(spec)
        emb = spectral_embedding(gaussian_similarity(matrix), 3)
        pred = njw_cluster(emb, 3, seed=seed)
        if nmi(truth, pred) >= 0.95:
            good += 1
    assert good >= 4


def test_njw_needs_enough_embedding_columns():
    rng = np.random.default_rng(13)
    emb = spectral_embedding(gaussian_similarity(rng.normal(size=(10, 3))), 2)
    with pytest.raises(ParameterError):
        njw_cluster(emb, 3)


# --------------------------------------------------------------------------
# agreement metrics


def test_nmi_frozen_reference_value():
    value = nmi([0, 0, 1, 1], [0, 1, 1, 1])
    assert abs(value - 0.3112781244591327) < 1e-12


def test_acc_frozen_reference_value():
    assert acc([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


def test_nmi_identity_symmetry_relabeling():
    rng = np.random.default_rng(14)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        assert abs(nmi(a, a) - 1.0) < 1e-12
        assert abs(nmi(a, b) - nmi(b, a)) < 1e-12
        relabeled = (a + 7) * 3  # injective relabeling
        assert abs(nmi(a, b) - nmi(relabeled, b)) < 1e-12
        assert 0.0 <= nmi(a, b) <= 1.0


def test_nmi_matches_brute_force_oracle():
    rng = np.random.default_rng(15)
    for trial in range(100):
        n = int(rng.integers(2, 10))
        a = [int(v) for v in rng.integers(0, 3, size=n)]
        b = [int(v) for v in rng.integers(0, 3, size=n)]
        assert abs(nmi(a, b) - _nmi_oracle(a, b)) < 1e-12


def test_nmi_constant_labeling_conventions():
    assert nmi([1, 1, 1], [1, 1, 1]) == 1.0
    assert nmi([0, 0, 0], [5, 5, 5]) == 1.0  # same partition, different ids
    assert nmi([0, 0, 0], [0, 1, 0]) == 0.0
    assert nmi([0, 1, 0], [2, 2, 2]) == 0.0


def test_acc_matches_brute_force_oracle():
    rng = np.random.default_rng(16)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        a = [int(v) for v in rng.integers(0, 3, size=n)]
        b = [int(v) for v in rng.integers(0, 3, size=n)]
        assert acc(a, b) == _acc_oracle(a, b)


def test_acc_identity_symmetry_permutation_invariance():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        assert acc(a, a) == 1.0
        assert acc(a, b) == acc(b, a)
        swapped = np.where(a == 0, 2, np.where(a == 2, 0, a))
        assert acc(a, b) == acc(swapped, b)


def test_acc_handles_different_id_counts():
    assert acc([0, 0, 0, 0], [0, 1, 2, 0]) == 0.5


def _assignment_total(table):
    """scipy's best one-to-one total, the reference the solver replaced."""
    row, col = linear_sum_assignment(table, maximize=True)
    return table[row, col].sum()


def _acc_reference(a, b):
    """acc through scipy's assignment solver, as the reference."""
    table = _contingency(a, b)
    return float(_assignment_total(table) / table.sum())


def test_acc_equals_scipy_assignment_on_random_rectangular_tables():
    rng = np.random.default_rng(18)
    for trial in range(300):
        ids_a, ids_b = (int(x) for x in rng.integers(1, 41, size=2))
        a = rng.integers(0, ids_a, size=int(rng.integers(1, 400)))
        b = rng.integers(0, ids_b, size=a.size)
        b = np.where(rng.random(a.size) < 0.5, a % ids_b, b)  # some agreement
        assert acc(a, b) == _acc_reference(a, b)
        assert acc(b, a) == _acc_reference(b, a)


def test_best_match_total_equals_scipy_on_degenerate_tables():
    # contingency tables from labels never hold an all-zero row or column,
    # so the solver is also checked on such tables directly
    rng = np.random.default_rng(19)
    tables = [np.array([[5]]), np.zeros((3, 4), int), np.ones((1, 7), int)]
    for trial in range(200):
        r, c = (int(x) for x in rng.integers(1, 13, size=2))
        ties = rng.integers(0, 3, size=(r, c))  # few distinct counts
        zero_columns = rng.integers(1, 6, size=(r, c))
        zero_columns[:, rng.random(c) < 0.5] = 0
        single = np.zeros((r, c), int)
        single[rng.integers(r), rng.integers(c)] = int(rng.integers(1, 9))
        equal = np.full((r, c), int(rng.integers(1, 4)))
        tables += [ties, zero_columns, single, equal]
    for table in tables:
        for t in (table, table.T):
            assert _best_match_total(t) == _assignment_total(t), t
            if t.any(axis=0).all() and t.any(axis=1).all():
                rows, cols = np.nonzero(t)
                a, b = (np.repeat(ids, t[rows, cols]) for ids in (rows, cols))
                assert acc(a, b) == _acc_reference(a, b), t


def test_metrics_treat_label_values_as_categories():
    # 0.2 and 0.7 are two ids, not 0 and 0 after truncation
    ints = [0, 1, 1, 2, 0]
    for other in ([0.2, 0.7, 0.7, 1.5, 0.2], ["a", "b", "b", "c", "a"]):
        assert nmi(ints, other) == 1.0
        assert acc(ints, other) == 1.0
        assert nmi(other, ints) == 1.0
        assert acc(other, ints) == 1.0


def test_metrics_validate_shapes():
    with pytest.raises(DimensionError):
        nmi([0, 1], [0, 1, 2])
    with pytest.raises(DimensionError):
        acc([0, 1], [0])
    with pytest.raises(DimensionError):
        nmi([], [])


# --------------------------------------------------------------------------
# regression-based feature scoring


def _informative_fixture(seed):
    spec = SynthSpec(
        n_samples=90,
        base_features=4,
        clusters=3,
        separation=12.0,
        noise_features=16,
        seed=seed,
    )
    matrix, truth, _ = generate(spec)
    normalized, _ = normalize_features(matrix)
    emb = spectral_embedding(gaussian_similarity(normalized), 3)
    return normalized, emb, truth


def test_mcfs_scores_equal_columnwise_coefficient_max():
    normalized, emb, _ = _informative_fixture(seed=0)
    result = mcfs_select(normalized, emb, 5)
    assert result.coefficients.shape == (3, normalized.n_features)
    np.testing.assert_array_equal(
        result.scores, np.abs(result.coefficients).max(axis=0)
    )


def test_mcfs_selection_is_top_m_by_score():
    normalized, emb, _ = _informative_fixture(seed=1)
    result = mcfs_select(normalized, emb, 6)
    assert result.selected.shape == (6,)
    picked_scores = result.scores[result.selected]
    assert np.all(np.diff(picked_scores) <= 1e-15)  # best first
    worst_picked = picked_scores.min()
    not_picked = np.setdiff1d(np.arange(normalized.n_features), result.selected)
    assert np.all(result.scores[not_picked] <= worst_picked + 1e-15)


def test_mcfs_support_cap_bounds_row_sparsity():
    normalized, emb, _ = _informative_fixture(seed=2)
    for m in (1, 2, 4):
        result = mcfs_select(normalized, emb, m)
        nonzero_per_row = (result.coefficients != 0.0).sum(axis=1)
        assert np.all(nonzero_per_row <= m)


def test_mcfs_finds_the_informative_features():
    hits = 0
    for seed in range(3):
        normalized, emb, _ = _informative_fixture(seed=seed)
        result = mcfs_select(normalized, emb, 4)
        informative = set(range(4))  # base features carry the cluster signal
        if len(informative & set(result.selected.tolist())) >= 3:
            hits += 1
    assert hits >= 2


def test_mcfs_is_deterministic():
    normalized, emb, _ = _informative_fixture(seed=3)
    a = mcfs_select(normalized, emb, 5)
    b = mcfs_select(normalized, emb, 5)
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.selected, b.selected)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_mcfs_validates_inputs():
    normalized, emb, _ = _informative_fixture(seed=4)
    for bad in (0, normalized.n_features + 1):
        with pytest.raises(ParameterError):
            mcfs_select(normalized, emb, bad)
    short = FeatureMatrix(np.eye(5))
    with pytest.raises(DimensionError):
        mcfs_select(short, emb, 2)
