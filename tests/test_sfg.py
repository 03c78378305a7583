"""Tests for sparse feature graph construction, angle filtering and I/O."""

import numpy as np
import pytest
import scipy.sparse as sp

from sfgraph import (
    FeatureMatrix,
    OmpConfig,
    ParameterError,
    ParseError,
    SparseFeatureGraph,
    angle_histogram,
    build_sfg,
    filter_failed,
    load_sfg,
    normalize_features,
    representation_angle,
    save_sfg,
)


def _unit_columns(values):
    return values / np.linalg.norm(values, axis=0)


def _graph_from_rows(d, rows):
    """Hand-build a graph: rows = {src: {dst: weight}}."""
    lil = sp.lil_matrix((d, d))
    for i, edges in rows.items():
        for j, w in edges.items():
            lil[i, j] = w
    return SparseFeatureGraph(lil.tocsr(), frozenset())


def test_duplicate_features_point_at_each_other_with_weight_one():
    rng = np.random.default_rng(0)
    g = rng.normal(size=12)
    cols = np.column_stack([rng.normal(size=12), g, g])
    features = FeatureMatrix(_unit_columns(cols))
    graph = build_sfg(features, OmpConfig(epsilon=1e-6))
    w = graph.weights.toarray()
    assert abs(w[1, 2] - 1.0) <= 1e-8
    assert abs(w[2, 1] - 1.0) <= 1e-8
    # a feature never represents itself
    np.testing.assert_array_equal(np.diag(w), np.zeros(3))


def test_planted_mixture_support_contains_parents_with_ls_weights():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(30, 4))
    mix = 0.6 * base[:, 1] + 0.4 * base[:, 2] + 1e-8 * rng.normal(size=30)
    features = FeatureMatrix(_unit_columns(np.column_stack([base, mix])))
    graph = build_sfg(features, OmpConfig(epsilon=1e-6))
    dst, weights = graph.out_edges(4)
    support = set(dst.tolist())
    assert {1, 2} <= support
    # the edge weights to the true parents match a direct least-squares fit
    # of the mixture column on exactly those parents
    oracle, *_ = np.linalg.lstsq(
        features.values[:, [1, 2]], features.values[:, 4], rcond=None
    )
    got = dict(zip(dst.tolist(), weights))
    assert abs(got[1] - oracle[0]) <= 1e-6
    assert abs(got[2] - oracle[1]) <= 1e-6


def test_zero_norm_feature_fails_at_build_and_is_never_an_atom():
    rng = np.random.default_rng(2)
    g = rng.normal(size=10)
    cols = _unit_columns(np.column_stack([g, rng.normal(size=10), g]))
    cols = np.column_stack([cols, np.zeros(10)])
    graph = build_sfg(FeatureMatrix(cols))
    assert graph.failed_nodes == frozenset({3})
    dst3, _ = graph.out_edges(3)
    assert dst3.size == 0
    incoming = graph.weights.tocsc()[:, 3]
    assert incoming.nnz == 0


def test_all_zero_features_give_an_empty_graph_of_failed_nodes():
    graph = build_sfg(FeatureMatrix(np.zeros((5, 3))))
    assert graph.weights.shape == (3, 3)
    assert graph.weights.nnz == 0
    assert graph.failed_nodes == frozenset({0, 1, 2})


def test_unrepresentable_feature_keeps_empty_row_but_is_not_failed_at_build():
    # mutually orthogonal features: no column can represent any other
    features = FeatureMatrix(np.eye(4))
    graph = build_sfg(features)
    assert graph.weights.nnz == 0
    assert graph.failed_nodes == frozenset()
    # the angle filter is the stage that rejects them
    filtered = filter_failed(graph, features, np.deg2rad(15.0))
    assert filtered.failed_nodes == frozenset({0, 1, 2, 3})


def test_build_rejects_non_unit_columns_by_index():
    cols = np.eye(3)
    cols[:, 2] *= 3.0
    with pytest.raises(ParameterError) as err:
        build_sfg(FeatureMatrix(cols))
    assert "2" in str(err.value)


def test_build_needs_two_features():
    with pytest.raises(ParameterError):
        build_sfg(FeatureMatrix(np.ones((4, 1))))


def test_thread_pool_result_is_identical_to_sequential():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(25, 6))
    cols = np.column_stack([base, base[:, 0], 0.5 * base[:, 1] + 0.5 * base[:, 2]])
    features = FeatureMatrix(_unit_columns(cols))
    seq = build_sfg(features, n_jobs=1)
    par = build_sfg(features, n_jobs=4)
    assert seq.failed_nodes == par.failed_nodes
    np.testing.assert_array_equal(seq.weights.indptr, par.weights.indptr)
    np.testing.assert_array_equal(seq.weights.indices, par.weights.indices)
    np.testing.assert_array_equal(seq.weights.data, par.weights.data)


def test_in_degrees_match_brute_force():
    rng = np.random.default_rng(4)
    for trial in range(20):
        d = int(rng.integers(2, 10))
        dense = rng.normal(size=(d, d)) * (rng.random(size=(d, d)) < 0.4)
        np.fill_diagonal(dense, 0.0)
        graph = SparseFeatureGraph(sp.csr_matrix(dense), frozenset())
        expected = (dense != 0.0).sum(axis=0)
        np.testing.assert_array_equal(graph.in_degrees(), expected)


def test_representation_angle_oracle_cases():
    e = np.eye(3)
    # f0 == f1, f2 orthogonal to both
    features = FeatureMatrix(np.column_stack([e[:, 0], e[:, 0], e[:, 1], e[:, 2]]))
    graph = _graph_from_rows(
        4,
        {
            0: {1: 1.0},  # exact reconstruction -> angle 0
            1: {2: 1.0},  # orthogonal reconstruction -> angle pi/2
            2: {0: 1.0, 1: -1.0},  # weights cancel -> zero vector -> undefined
            # node 3 has no out-edges -> undefined
        },
    )
    angles = representation_angle(graph, features)
    assert abs(angles[0] - 0.0) < 1e-12
    assert abs(angles[1] - np.pi / 2.0) < 1e-12
    assert np.isnan(angles[2])
    assert np.isnan(angles[3])


def _loop_angles(graph, features):
    """Reference: each node's angle from its own out-edges, one node at a time."""
    values = features.values
    angles = np.full(graph.n_nodes, np.nan)
    for i in range(graph.n_nodes):
        dst, w = graph.out_edges(i)
        if dst.size == 0:
            continue
        recon = values[:, dst] @ w
        rn = np.linalg.norm(recon)
        fn = np.linalg.norm(values[:, i])
        if rn == 0.0 or fn == 0.0:
            continue
        cos = float(values[:, i] @ recon) / (fn * rn)
        angles[i] = float(np.arccos(np.clip(cos, -1.0, 1.0)))
    return angles


def test_representation_angle_matches_per_node_oracle():
    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(5, 16))
        values = rng.normal(size=(n, d))
        values[:, 1] = values[:, 0]  # a duplicate pair, so +1/-1 weights cancel
        if trial % 3 == 0:
            values[:, -1] = 0.0  # a zero-norm feature
        norms = np.linalg.norm(values, axis=0)
        features = FeatureMatrix(values / np.where(norms == 0.0, 1.0, norms))
        dense = rng.normal(size=(d, d)) * (rng.random(size=(d, d)) < 0.4)
        np.fill_diagonal(dense, 0.0)
        dense[2:5, :] = 0.0
        dense[3, [0, 4]] = [0.7, -0.7]  # weights that sum to zero
        dense[4, [0, 1]] = [1.0, -1.0]  # a reconstruction that is exactly zero
        graph = SparseFeatureGraph(sp.csr_matrix(dense), frozenset())

        got = representation_angle(graph, features)
        expected = _loop_angles(graph, features)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        assert np.isnan(got[2]) and np.isnan(got[4])  # empty row, zero reconstruction
        assert not np.isnan(got[3])
        # arccos near 0 turns ulp-level differences into ~3e-8 rad, so compare
        # the cosines, which the reordered sums leave within a few ulps.
        defined = ~np.isnan(expected)
        np.testing.assert_allclose(
            np.cos(got[defined]), np.cos(expected[defined]), rtol=0, atol=1e-12
        )


def test_representation_angle_checks_shape():
    graph = _graph_from_rows(3, {0: {1: 1.0}})
    with pytest.raises(ParameterError):
        representation_angle(graph, FeatureMatrix(np.eye(4)))


def _angle_fixture():
    """Features and a hand graph with angles [0, ~6.34deg, pi/2, NaN]."""
    e = np.eye(3)
    features = FeatureMatrix(np.column_stack([e[:, 0], e[:, 0], e[:, 1], e[:, 2]]))
    graph = _graph_from_rows(
        4,
        {
            0: {1: 1.0},
            1: {0: 0.9, 2: 0.1},
            2: {0: 1.0},
        },
    )
    return features, graph


def test_filter_rejects_large_and_undefined_angles_keeps_in_edges():
    features, graph = _angle_fixture()
    filtered = filter_failed(graph, features, np.deg2rad(15.0))
    assert filtered.failed_nodes == frozenset({2, 3})
    dst2, _ = filtered.out_edges(2)
    assert dst2.size == 0
    # node 1 survives and keeps its edge into the failed node 2
    dst1, _ = filtered.out_edges(1)
    assert 2 in dst1.tolist()


def test_filter_is_idempotent():
    features, graph = _angle_fixture()
    once = filter_failed(graph, features, np.deg2rad(15.0))
    twice = filter_failed(once, features, np.deg2rad(15.0))
    assert once.failed_nodes == twice.failed_nodes
    np.testing.assert_array_equal(once.weights.indptr, twice.weights.indptr)
    np.testing.assert_array_equal(once.weights.indices, twice.weights.indices)
    np.testing.assert_array_equal(once.weights.data, twice.weights.data)


def test_filter_invert_flag_rejects_small_angles_instead():
    features, graph = _angle_fixture()
    filtered = filter_failed(graph, features, np.deg2rad(15.0), invert=True)
    # angle-0 and angle-6.34deg nodes fail, the pi/2 node survives,
    # undefined still fails
    assert filtered.failed_nodes == frozenset({0, 1, 3})
    dst2, _ = filtered.out_edges(2)
    assert dst2.size == 1


def test_filter_threshold_domain():
    features, graph = _angle_fixture()
    for bad in (0.0, -0.1, np.pi / 2.0 + 1e-9, 3.0):
        with pytest.raises(ParameterError):
            filter_failed(graph, features, bad)
    # pi/2 itself is allowed
    filter_failed(graph, features, np.pi / 2.0)


def test_filter_carries_forward_earlier_failures():
    rng = np.random.default_rng(5)
    g = rng.normal(size=10)
    cols = _unit_columns(np.column_stack([g, g]))
    cols = np.column_stack([cols, np.zeros(10)])
    graph = build_sfg(FeatureMatrix(cols))
    assert graph.failed_nodes == frozenset({2})
    filtered = filter_failed(graph, FeatureMatrix(cols), np.deg2rad(15.0))
    assert 2 in filtered.failed_nodes


def test_angle_histogram_counts_and_overflow():
    features, graph = _angle_fixture()
    report = angle_histogram(graph, features, bins=9)
    assert report.bin_edges.shape == (10,)
    assert report.bin_edges[0] == 0.0
    assert abs(report.bin_edges[-1] - np.pi / 2.0) < 1e-15
    # three defined angles (0, ~6.34deg, pi/2), one undefined node
    assert int(report.counts.sum()) == 3
    assert report.overflow == 1
    assert int(report.counts.sum()) + report.overflow == graph.n_nodes
    # pi/2 falls in the last (right-inclusive) bin
    assert report.counts[-1] >= 1


def test_angle_histogram_clamps_angles_beyond_right_edge():
    e = np.eye(3)
    features = FeatureMatrix(np.column_stack([e[:, 0], e[:, 0], e[:, 1]]))
    # reconstruction is the exact negation: cos = -1, angle = pi
    graph = _graph_from_rows(3, {0: {1: -1.0}})
    report = angle_histogram(graph, features, bins=4)
    angles = report.angles
    assert abs(angles[0] - np.pi) < 1e-12
    assert int(report.counts.sum()) == 1  # still counted as defined
    assert report.counts[-1] == 1  # in the last bin
    assert report.overflow == 2  # only the two undefined nodes


def test_angle_histogram_validates_bins():
    features, graph = _angle_fixture()
    with pytest.raises(ParameterError):
        angle_histogram(graph, features, bins=0)


def test_save_load_round_trip_preserves_graph_exactly(tmp_path):
    rng = np.random.default_rng(6)
    for trial in range(10):
        d = int(rng.integers(2, 12))
        dense = rng.normal(size=(d, d)) * (rng.random(size=(d, d)) < 0.35)
        np.fill_diagonal(dense, 0.0)
        failed = frozenset(
            int(i) for i in rng.choice(d, size=int(rng.integers(0, d)), replace=False)
        )
        graph = SparseFeatureGraph(sp.csr_matrix(dense), failed)
        path = tmp_path / f"graph_{trial}.tsv"
        save_sfg(graph, path)
        loaded = load_sfg(path)
        assert loaded.n_nodes == d
        assert loaded.failed_nodes == graph.failed_nodes
        np.testing.assert_array_equal(loaded.weights.indptr, graph.weights.indptr)
        np.testing.assert_array_equal(loaded.weights.indices, graph.weights.indices)
        np.testing.assert_array_equal(loaded.weights.data, graph.weights.data)


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t1\t0.5\n")
    with pytest.raises(ParseError):
        load_sfg(path)


def test_load_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad2.tsv"
    path.write_text("# sfg d=3 failed=\n0\t1\n")
    with pytest.raises(ParseError) as err:
        load_sfg(path)
    assert "line 2" in str(err.value)
    path.write_text("# sfg d=3 failed=\n0\tx\t1.0\n")
    with pytest.raises(ParseError):
        load_sfg(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad3.tsv"
    path.write_text("# sfg failed=\n")
    with pytest.raises(ParseError):
        load_sfg(path)
