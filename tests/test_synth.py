"""Tests for the planted-structure dataset generator."""

import numpy as np
import pytest

from sfgraph import ParameterError, SynthSpec, acc, generate, kmeans


def test_feature_blocks_land_in_declared_order():
    spec = SynthSpec(
        n_samples=40,
        base_features=5,
        clusters=2,
        duplicate_pairs=3,
        mixture_features=2,
        noise_features=4,
        seed=0,
    )
    matrix, labels, truth = generate(spec)
    assert spec.n_features == 14
    assert matrix.n_features == 14
    assert matrix.n_samples == 40
    assert labels.shape == (40,)
    assert truth["base"] == [0, 1, 2, 3, 4]
    assert [pair[0] for pair in truth["duplicates"]] == [5, 6, 7]
    assert [m["index"] for m in truth["mixtures"]] == [8, 9]
    assert truth["noise"] == [10, 11, 12, 13]
    names = matrix.feature_names
    assert names[0].startswith("base") and names[5].startswith("dup")
    assert names[8].startswith("mix") and names[10].startswith("noise")


def test_duplicates_are_exact_copies_cycling_through_base():
    spec = SynthSpec(n_samples=12, base_features=2, duplicate_pairs=2, seed=1)
    matrix, _, truth = generate(spec)
    assert matrix.n_features == 4
    assert truth["duplicates"] == [[2, 0], [3, 1]]
    np.testing.assert_array_equal(matrix.values[:, 2], matrix.values[:, 0])
    np.testing.assert_array_equal(matrix.values[:, 3], matrix.values[:, 1])
    # cycling wraps around when there are more pairs than base features
    spec = SynthSpec(n_samples=12, base_features=2, duplicate_pairs=3, seed=1)
    _, _, truth = generate(spec)
    assert [pair[1] for pair in truth["duplicates"]] == [0, 1, 0]


def test_same_seed_is_bit_identical_distinct_seeds_differ():
    spec = SynthSpec(
        n_samples=30,
        base_features=4,
        clusters=3,
        duplicate_pairs=2,
        mixture_features=2,
        noise_features=2,
        seed=7,
    )
    m1, l1, t1 = generate(spec)
    m2, l2, t2 = generate(spec)
    np.testing.assert_array_equal(m1.values, m2.values)
    np.testing.assert_array_equal(l1, l2)
    assert t1 == t2
    spec_other = SynthSpec(
        n_samples=30,
        base_features=4,
        clusters=3,
        duplicate_pairs=2,
        mixture_features=2,
        noise_features=2,
        seed=8,
    )
    m3, _, _ = generate(spec_other)
    assert not np.array_equal(m1.values, m3.values)


def test_truth_roles_cover_all_columns_without_overlap():
    spec = SynthSpec(
        n_samples=20,
        base_features=3,
        duplicate_pairs=4,
        mixture_features=3,
        noise_features=2,
        seed=3,
    )
    matrix, _, truth = generate(spec)
    base = set(truth["base"])
    copies = {pair[0] for pair in truth["duplicates"]}
    mixtures = {m["index"] for m in truth["mixtures"]}
    noise = set(truth["noise"])
    all_roles = [base, copies, mixtures, noise]
    for i, a in enumerate(all_roles):
        for b in all_roles[i + 1 :]:
            assert not (a & b)
    assert base | copies | mixtures | noise == set(range(matrix.n_features))
    # duplicate sources and mixture parents point into the base block
    assert all(pair[1] in base for pair in truth["duplicates"])
    assert all(set(m["parents"]) <= base for m in truth["mixtures"])


def test_mixtures_are_convex_combinations_of_their_parents():
    spec = SynthSpec(n_samples=50, base_features=5, mixture_features=4, seed=4)
    matrix, _, truth = generate(spec)
    for record in truth["mixtures"]:
        weights = np.asarray(record["weights"])
        assert np.all(weights > 0.0)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert 2 <= len(record["parents"]) <= 4
        signal = matrix.values[:, record["parents"]] @ weights
        column = matrix.values[:, record["index"]]
        rel_err = np.linalg.norm(column - signal) / np.linalg.norm(signal)
        assert rel_err < 5e-3  # noise scale is 1e-3 relative to the signal


def test_labels_are_balanced():
    spec = SynthSpec(n_samples=31, base_features=3, clusters=4, seed=6)
    _, labels, _ = generate(spec)
    counts = np.bincount(labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert set(labels.tolist()) == {0, 1, 2, 3}


def test_high_separation_clusters_are_trivially_recoverable():
    for seed in range(5):
        spec = SynthSpec(
            n_samples=60, base_features=4, clusters=3, separation=10.0, seed=seed
        )
        matrix, truth_labels, _ = generate(spec)
        result = kmeans(matrix.values, 3, seed=seed)
        assert acc(truth_labels, result.labels) == 1.0, f"seed {seed}"


def test_spec_validation():
    with pytest.raises(ParameterError):
        SynthSpec(n_samples=1, base_features=2)
    with pytest.raises(ParameterError):
        SynthSpec(n_samples=10, base_features=0)
    with pytest.raises(ParameterError):
        SynthSpec(n_samples=10, base_features=2, clusters=11)
    with pytest.raises(ParameterError):
        SynthSpec(n_samples=10, base_features=2, clusters=2, separation=0.0)
    with pytest.raises(ParameterError):
        SynthSpec(n_samples=10, base_features=1, mixture_features=1)
    with pytest.raises(ParameterError):
        SynthSpec(n_samples=10, base_features=2, duplicate_pairs=-1)
    for separation in (np.inf, -np.inf, np.nan):
        for clusters in (1, 3):
            with pytest.raises(ParameterError, match="separation must be finite"):
                SynthSpec(n_samples=10, base_features=3, clusters=clusters,
                          separation=separation)


def test_scales_that_overflow_are_a_parameter_error():
    # finite settings whose data would hold inf cells: centroids scaled to
    # about 1e308 overflow in the mixtures' norms
    spec = SynthSpec(n_samples=10, base_features=3, clusters=3, separation=1e308,
                     mixture_features=3)
    with pytest.raises(ParameterError, match="non-finite values"):
        generate(spec)
    huge, _, _ = generate(
        SynthSpec(n_samples=10, base_features=3, clusters=3, separation=1e308)
    )
    assert np.isfinite(huge.values).all()
