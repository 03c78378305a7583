"""Tests for sparse feature graph construction, angle filtering and I/O."""

import numpy as np
import pytest
import scipy.sparse as sp

from sfgraph import (
    FeatureMatrix,
    ParameterError,
    ParseError,
    SparseFeatureGraph,
    SynthSpec,
    angle_histogram,
    build_sfg,
    filter_failed,
    generate,
    load_sfg,
    normalize_features,
    omp,
    representation_angle,
    save_sfg,
)
from sfgraph import sfg
from sfgraph.omp import STOP_CHANCE


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
    graph = build_sfg(features, epsilon=1e-6)
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
    graph = build_sfg(features, epsilon=1e-6)
    dst, weights = graph.weights[4].indices, graph.weights[4].data
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
    assert graph.weights[3].indices.size == 0
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


def _wide_synth(seed):
    """A quarter of the benchmark's n < d shape: 60 samples, 154 features."""
    spec = SynthSpec(
        n_samples=60, base_features=60, clusters=4, separation=8.0,
        duplicate_pairs=45, mixture_features=30, noise_features=19, seed=seed,
    )
    matrix, _, truth = generate(spec)
    return normalize_features(matrix)[0], truth


def test_rows_are_capped_at_half_the_samples_and_match_the_default_omp():
    features, _ = _wide_synth(0)
    values = features.values
    n, d = values.shape
    graph = build_sfg(features)
    support = np.diff(graph.weights.indptr)
    assert support.max() <= n // 2
    for i in range(d):
        rep = omp(np.delete(values, i, axis=1), values[:, i])
        dst = np.where(rep.support < i, rep.support, rep.support + 1)
        order = np.argsort(dst)
        row = graph.weights[i]
        np.testing.assert_array_equal(dst[order], row.indices, err_msg=f"row {i}")
        np.testing.assert_allclose(
            rep.coefficients[order], row.data, rtol=0, atol=1e-10, err_msg=f"row {i}"
        )
        assert graph.stop_reasons[i] == rep.stop_reason, f"row {i}"


def test_capped_noise_rows_fail_the_angle_filter(capped_fit):
    # Unstopped, a noise column is an exact combination of about n others and
    # passes at angle 0; stopped at chance level, it keeps a residual the
    # filter can see.
    features, truth = _wide_synth(1)
    noise = set(truth["noise"])
    max_angle = np.deg2rad(15.0)
    graph = build_sfg(features)
    assert all(graph.stop_reasons[i] == STOP_CHANCE for i in noise)
    filtered = filter_failed(graph, features, max_angle)
    assert filtered.stop_reasons.tolist() == graph.stop_reasons.tolist()
    assert noise <= filtered.failed_nodes
    # Fit at a cap of d - 1 without the chance stop, as MCFS fits, every
    # noise column comes within 15 degrees: its
    # squared residual, sin^2 of its angle, falls below sin^2(15 degrees).
    values = features.values
    d = features.n_features
    for i in noise:
        rep = capped_fit(values, values[:, i], 1e-6, d - 1, np.arange(d) == i)
        assert rep.support.size and rep.final_residual < np.sin(max_angle) ** 2, f"row {i}"


def test_rows_match_least_squares_on_a_tall_shape():
    # n > d with mixtures 1e-3 off their parents: supports with a mixture and
    # its parents are ill-conditioned.  R comes from the Gram matrix, so R c = z
    # alone misses this bound by orders of magnitude; the refinement step of
    # the solver has to bring every row to QR accuracy.
    spec = SynthSpec(
        n_samples=250, base_features=32, clusters=10, separation=8.0,
        duplicate_pairs=16, mixture_features=8, noise_features=8, seed=0,
    )
    features = normalize_features(generate(spec)[0])[0]
    values = features.values
    graph = build_sfg(features)
    w = graph.weights
    for i in range(features.n_features):
        support, coef = w.indices[w.indptr[i] : w.indptr[i + 1]], w[i].data
        ref = np.linalg.lstsq(values[:, support], values[:, i], rcond=None)[0]
        scale = max(1.0, float(np.max(np.abs(coef))))
        np.testing.assert_allclose(coef, ref, rtol=0, atol=1e-10 * scale, err_msg=f"row {i}")


def test_final_residuals_are_kept_per_fitted_node():
    features, _ = _wide_synth(2)
    values = features.values
    graph = build_sfg(features)
    fitted = np.not_equal(graph.stop_reasons, None)
    np.testing.assert_array_equal(~np.isnan(graph.residuals), fitted)
    for i in (0, 70, 120, 150):  # base, duplicate, mixture and noise columns
        rep = omp(np.delete(values, i, axis=1), values[:, i])
        assert abs(graph.residuals[i] - rep.final_residual) <= 1e-12, f"row {i}"
        recon = graph.weights[i] @ values.T
        explicit = float(np.sum((values[:, i] - recon) ** 2))
        assert abs(graph.residuals[i] - explicit) <= 1e-12, f"row {i}"
    filtered = filter_failed(graph, features, np.deg2rad(15.0))
    np.testing.assert_array_equal(filtered.residuals, graph.residuals)


def test_build_rejects_non_unit_columns_by_index():
    cols = np.eye(3)
    cols[:, 2] *= 3.0
    with pytest.raises(ParameterError) as err:
        build_sfg(FeatureMatrix(cols))
    assert "2" in str(err.value)


def test_build_rejects_a_nan_column_by_index():
    cols = np.eye(3)
    cols[0, 1] = np.nan
    with pytest.raises(ParameterError, match="^column 1 is not unit-norm"):
        build_sfg(FeatureMatrix(cols))


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
    assert seq.stop_reasons.tolist() == par.stop_reasons.tolist()
    np.testing.assert_array_equal(seq.residuals, par.residuals)


def _same_graph_bits(a, b):
    return (
        a.weights.indptr.tobytes() == b.weights.indptr.tobytes()
        and a.weights.indices.tobytes() == b.weights.indices.tobytes()
        and a.weights.data.tobytes() == b.weights.data.tobytes()
        and a.stop_reasons.tolist() == b.stop_reasons.tolist()
        and a.residuals.tobytes() == b.residuals.tobytes()
        and a.failed_nodes == b.failed_nodes
    )


def test_lockstep_batches_of_any_size_give_the_same_graph_bits(monkeypatch):
    # Every fit reads only its own rows of the batch, so batches of one
    # target, of three (the last one shorter) and of all targets, run in
    # order or through a thread pool, build the same graph bit for bit.
    # The set has twins, chance stops and fits of several atoms.
    features, _ = _wide_synth(3)
    d = features.n_features
    assert d % 3
    graphs = []
    for targets, jobs in ((1, 1), (3, 1), (3, 4), (d, 1)):
        monkeypatch.setattr(sfg, "BLOCK_BYTES", 8 * d * targets)
        graphs.append(build_sfg(features, n_jobs=jobs))
    reasons = set(graphs[0].stop_reasons.tolist())
    assert {"converged", "chance"} <= reasons
    assert np.diff(graphs[0].weights.indptr).max() >= 3
    for graph in graphs[1:]:
        assert _same_graph_bits(graph, graphs[0])


def test_a_build_at_614_features_fits_batches_of_53_targets(monkeypatch):
    batches = []

    def spy(gram, epsilon, ids):
        batches.append(ids.size)
        return fit_columns(gram, epsilon, ids)

    fit_columns = sfg._fit_columns
    monkeypatch.setattr(sfg, "_fit_columns", spy)
    values = np.random.default_rng(5).normal(size=(20, 614))
    build_sfg(normalize_features(FeatureMatrix(values))[0])
    assert batches == [53] * 11 + [614 - 53 * 11]


def test_in_degrees_match_brute_force():
    rng = np.random.default_rng(4)
    for trial in range(20):
        d = int(rng.integers(2, 10))
        dense = rng.normal(size=(d, d)) * (rng.random(size=(d, d)) < 0.4)
        np.fill_diagonal(dense, 0.0)
        graph = SparseFeatureGraph(sp.csr_matrix(dense), frozenset())
        expected = (dense != 0.0).sum(axis=0)
        np.testing.assert_array_equal(graph.in_degrees(), expected)
        assert graph.in_degrees().dtype == np.int64
    # nodes past the last edge's target still get a count
    graph = SparseFeatureGraph(sp.csr_matrix(([1.0], ([1], [0])), shape=(3, 3)), frozenset())
    assert graph.in_degrees().tolist() == [1, 0, 0]


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
        dst, w = graph.weights[i].indices, graph.weights[i].data
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
    assert filtered.weights[2].indices.size == 0
    # node 1 survives and keeps its edge into the failed node 2
    assert 2 in filtered.weights[1].indices.tolist()
    # the filter keeps the angles it measured, the rejected nodes' included
    np.testing.assert_array_equal(filtered.angles, representation_angle(graph, features))
    assert graph.angles is None


def test_filter_is_idempotent():
    features, graph = _angle_fixture()
    once = filter_failed(graph, features, np.deg2rad(15.0))
    twice = filter_failed(once, features, np.deg2rad(15.0))
    assert once.failed_nodes == twice.failed_nodes
    np.testing.assert_array_equal(once.weights.indptr, twice.weights.indptr)
    np.testing.assert_array_equal(once.weights.indices, twice.weights.indices)
    np.testing.assert_array_equal(once.weights.data, twice.weights.data)


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
    report = angle_histogram(representation_angle(graph, features))
    assert len(report["bin_edges"]) == 19  # 18 bins of 5 degrees
    assert report["bin_edges"][0] == 0.0
    assert abs(report["bin_edges"][-1] - np.pi / 2.0) < 1e-15
    # three defined angles (0, ~6.34deg, pi/2), one undefined node
    assert sum(report["counts"]) == 3
    assert report["overflow"] == 1
    assert sum(report["counts"]) + report["overflow"] == graph.n_nodes
    # pi/2 falls in the last (right-inclusive) bin
    assert report["counts"][-1] >= 1


def test_angle_histogram_clamps_angles_beyond_right_edge():
    e = np.eye(3)
    features = FeatureMatrix(np.column_stack([e[:, 0], e[:, 0], e[:, 1]]))
    # reconstruction is the exact negation: cos = -1, angle = pi
    graph = _graph_from_rows(3, {0: {1: -1.0}})
    angles = representation_angle(graph, features)
    report = angle_histogram(angles)
    assert abs(angles[0] - np.pi) < 1e-12
    assert sum(report["counts"]) == 1  # still counted as defined
    assert report["counts"][-1] == 1  # in the last bin
    assert report["overflow"] == 2  # only the two undefined nodes


def test_save_load_round_trip_preserves_graph_exactly(tmp_path):
    rng = np.random.default_rng(6)
    graphs = []
    for _ in range(10):
        d = int(rng.integers(2, 12))
        dense = rng.normal(size=(d, d)) * (rng.random(size=(d, d)) < 0.35)
        np.fill_diagonal(dense, 0.0)
        failed = frozenset(
            int(i) for i in rng.choice(d, size=int(rng.integers(0, d)), replace=False)
        )
        graphs.append(SparseFeatureGraph(sp.csr_matrix(dense), failed))
    # header edge cases: d = 0 with no failed id, one node, two-digit ids
    graphs.append(_graph_from_rows(0, {}))
    graphs.append(SparseFeatureGraph(_graph_from_rows(1, {}).weights, frozenset({0})))
    graphs.append(SparseFeatureGraph(_graph_from_rows(12, {11: {10: -2.0}}).weights,
                                     frozenset(range(12))))
    for trial, graph in enumerate(graphs):
        path = tmp_path / f"graph_{trial}.tsv"
        save_sfg(graph, path)
        loaded = load_sfg(path)
        assert loaded.n_nodes == graph.n_nodes
        assert loaded.failed_nodes == graph.failed_nodes
        np.testing.assert_array_equal(loaded.weights.indptr, graph.weights.indptr)
        np.testing.assert_array_equal(loaded.weights.indices, graph.weights.indices)
        np.testing.assert_array_equal(loaded.weights.data, graph.weights.data)
    assert path.read_text().startswith("# sfg d=12 failed=0,1,2,3,4,5,6,7,8,9,10,11\n")


def test_save_sfg_writes_row_major_edges_with_shortest_round_trip_weights(tmp_path):
    # row 0's columns arrive unsorted, and the -0.0 weight is no edge
    weights = sp.csr_matrix(
        (np.array([1e22, 0.1, -0.0, 5e-324]), np.array([2, 1, 2, 0]), np.array([0, 2, 4, 4])),
        shape=(3, 3),
    )
    path = tmp_path / "graph.tsv"
    save_sfg(SparseFeatureGraph(weights, frozenset({2})), path)
    assert path.read_bytes() == (
        b"# sfg d=3 failed=2\n0\t1\t0.1\n0\t2\t1e+22\n1\t0\t5e-324\n"
    )


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
