"""Tests for redundancy-group mining and representative selection.

Group structure is cross-checked against an independent breadth-first
closure oracle written in plain Python over adjacency dicts.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgraph import (
    FeatureMatrix,
    ParameterError,
    SparseFeatureGraph,
    find_lcs,
    save_partition,
)


def _graph(d, edges, failed=()):
    """edges = list of (src, dst, weight)."""
    lil = sp.lil_matrix((d, d))
    for i, j, w in edges:
        lil[i, j] = w
    return SparseFeatureGraph(lil.tocsr(), frozenset(failed))


def _closure_oracle(graph, theta):
    """Independent group finder: threshold, then BFS over undirected edges,
    seeded by (-in_degree, index)."""
    d = graph.n_nodes
    coo = graph.weights.tocoo()
    max_w = max((abs(float(v)) for v in coo.data), default=0.0)
    und = {i: set() for i in range(d)}
    in_deg = [0] * d
    for i, j, v in zip(coo.row, coo.col, coo.data):
        in_deg[int(j)] += 1
        if max_w > 0.0 and abs(float(v)) / max_w >= theta:
            und[int(i)].add(int(j))
            und[int(j)].add(int(i))
    labels = [0] * d
    groups = []
    for seed in sorted(range(d), key=lambda i: (-in_deg[i], i)):
        if labels[seed]:
            continue
        label = len(groups) + 1
        labels[seed] = label
        members = [seed]
        frontier = [seed]
        while frontier:
            nxt = []
            for u in frontier:
                for v in sorted(und[u]):
                    if not labels[v]:
                        labels[v] = label
                        members.append(v)
                        nxt.append(v)
            frontier = nxt
        groups.append(sorted(members))
    return labels, groups


def _six_node_fixture():
    return _graph(
        6,
        [
            (0, 1, 1.0),
            (1, 0, 0.9),
            (2, 3, 0.5),
            (3, 2, 0.45),
            (4, 0, 0.3),
        ],
    )


def test_duplicate_pair_groups_at_theta_one():
    graph = _graph(3, [(1, 2, 1.0), (2, 1, 1.0)])
    partition = find_lcs(graph, 1.0)
    assert partition.subgraphs == [[1, 2]]
    assert partition.singletons == [0]
    assert partition.labels[1] == partition.labels[2]
    assert partition.labels[0] != partition.labels[1]


def test_six_node_graph_against_hand_worked_groups():
    graph = _six_node_fixture()
    by_theta = {
        1.0: ([[0, 1]], [2, 3, 4, 5]),
        0.5: ([[0, 1], [2, 3]], [4, 5]),
        0.3: ([[0, 1, 4], [2, 3]], [5]),
        0.2: ([[0, 1, 4], [2, 3]], [5]),
    }
    for theta, (subgraphs, singletons) in by_theta.items():
        partition = find_lcs(graph, theta)
        assert partition.subgraphs == subgraphs, f"theta={theta}"
        assert partition.singletons == singletons, f"theta={theta}"
    # group labels come out in seed order: node 0 has the top in-degree
    partition = find_lcs(graph, 0.5)
    assert partition.labels.tolist() == [1, 1, 2, 2, 3, 4]


def test_negative_weights_participate_by_magnitude():
    graph = _graph(4, [(0, 1, -0.8), (2, 3, 0.79), (3, 2, 1.0)])
    partition = find_lcs(graph, 0.8)
    assert sorted(map(tuple, partition.subgraphs)) == [(0, 1), (2, 3)]
    # |-0.8| / 1.0 sits exactly on the threshold and is included
    assert partition.labels[0] == partition.labels[1]
    partition = find_lcs(graph, 0.81)
    assert partition.subgraphs == [[2, 3]]
    assert 0 in partition.singletons and 1 in partition.singletons


def test_edge_free_graph_is_all_singletons():
    graph = _graph(5, [])
    partition = find_lcs(graph, 0.5)
    assert partition.subgraphs == []
    assert partition.singletons == [0, 1, 2, 3, 4]
    assert partition.kept.tolist() == [0, 1, 2, 3, 4]


def test_theta_domain():
    graph = _six_node_fixture()
    for bad in (0.0, -0.5, 1.0001, 2.0):
        with pytest.raises(ParameterError):
            find_lcs(graph, bad)
    find_lcs(graph, 1.0)
    find_lcs(graph, 1e-9)


def test_matches_closure_oracle_on_random_graphs():
    rng = np.random.default_rng(321)
    for trial in range(60):
        d = int(rng.integers(2, 13))
        mask = rng.random(size=(d, d)) < 0.3
        np.fill_diagonal(mask, False)
        dense = np.where(mask, rng.uniform(-1.0, 1.0, size=(d, d)), 0.0)
        graph = SparseFeatureGraph(sp.csr_matrix(dense), frozenset())
        for theta in (0.25, 0.5, 0.75):
            partition = find_lcs(graph, theta)
            labels, groups = _closure_oracle(graph, theta)
            assert partition.labels.tolist() == labels, (trial, theta)
            expected_subgraphs = [g for g in groups if len(g) > 1]
            expected_singletons = sorted(g[0] for g in groups if len(g) == 1)
            assert partition.subgraphs == expected_subgraphs, (trial, theta)
            assert partition.singletons == expected_singletons, (trial, theta)


def test_subgraphs_match_the_split_grouping_and_hold_python_ints():
    # Sparse graphs large enough for hundreds of groups, as at d = 614.
    rng = np.random.default_rng(322)
    for trial in range(12):
        d = int(rng.integers(50, 700))
        graph = SparseFeatureGraph(
            sp.random(d, d, density=1.5 / d, format="csr", random_state=rng), frozenset()
        )
        for theta in (0.9, 0.5, 0.1):
            partition = find_lcs(graph, theta)
            sizes = np.bincount(partition.labels)[1:]
            groups = np.split(
                np.argsort(partition.labels, kind="stable"), np.cumsum(sizes)[:-1]
            )
            want = [g.tolist() for g in groups if g.size > 1]
            assert partition.subgraphs == want, (trial, theta)
            for members in partition.subgraphs:
                assert all(type(i) is int for i in members), (trial, theta)
            assert all(type(i) is int for i in partition.representatives)
            assert all(type(i) is int for i in partition.singletons)


def test_lower_theta_only_coarsens_the_partition():
    rng = np.random.default_rng(99)
    for trial in range(30):
        d = int(rng.integers(3, 14))
        mask = rng.random(size=(d, d)) < 0.35
        np.fill_diagonal(mask, False)
        dense = np.where(mask, rng.uniform(-1.0, 1.0, size=(d, d)), 0.0)
        graph = SparseFeatureGraph(sp.csr_matrix(dense), frozenset())
        previous_kept = None
        previous_groups = None
        for theta in (0.9, 0.7, 0.5, 0.3, 0.1):
            partition = find_lcs(graph, theta)
            kept = partition.kept.size
            if previous_kept is not None:
                assert kept <= previous_kept
                # every earlier group sits inside one current group
                for group in previous_groups:
                    containing = {int(partition.labels[i]) for i in group}
                    assert len(containing) == 1
            previous_kept = kept
            previous_groups = partition.subgraphs


def test_kept_count_identity():
    rng = np.random.default_rng(55)
    for trial in range(30):
        d = int(rng.integers(2, 15))
        mask = rng.random(size=(d, d)) < 0.3
        np.fill_diagonal(mask, False)
        dense = np.where(mask, rng.uniform(-1.0, 1.0, size=(d, d)), 0.0)
        graph = SparseFeatureGraph(sp.csr_matrix(dense), frozenset())
        partition = find_lcs(graph, 0.4)
        kept = partition.kept
        removed = sum(len(g) - 1 for g in partition.subgraphs)
        assert kept.size == d - removed
        assert kept.dtype == np.intp
        assert np.all(np.diff(kept) > 0)  # ascending and unique


def test_representative_is_highest_in_degree_lowest_index():
    graph = _six_node_fixture()
    partition = find_lcs(graph, 0.5)
    # group [0, 1]: in-degrees 2 vs 1 -> 0 wins
    # group [2, 3]: in-degrees tie at 1 -> lower index wins
    assert partition.representatives == [0, 2]
    assert partition.kept.tolist() == [0, 2, 4, 5]


def test_representatives_match_max_in_degree_lowest_index_oracle():
    # integer weights from a small range give many tied in-degrees
    rng = np.random.default_rng(77)
    for trial in range(60):
        d = int(rng.integers(2, 14))
        mask = rng.random(size=(d, d)) < 0.3
        np.fill_diagonal(mask, False)
        dense = np.where(mask, rng.integers(1, 4, size=(d, d)), 0).astype(float)
        graph = SparseFeatureGraph(sp.csr_matrix(dense), frozenset())
        in_deg = mask.sum(axis=0)
        for theta in (0.3, 0.6, 1.0):
            partition = find_lcs(graph, theta)
            expected = [
                max(members, key=lambda i: (in_deg[i], -i))
                for members in partition.subgraphs
            ]
            assert partition.representatives == expected, (trial, theta)
            assert partition.kept.tolist() == sorted(expected + partition.singletons)


def test_pairwise_duplicates_keep_one_member_each():
    # 20 base + 10 exact-copy pairs + 20 isolated noise nodes: each pair
    # forms one group and contributes exactly one kept feature
    edges = []
    for t in range(10):
        edges.append((t, 20 + t, 1.0))
        edges.append((20 + t, t, 1.0))
    graph = _graph(50, edges)
    partition = find_lcs(graph, 0.5)
    assert len(partition.subgraphs) == 10
    kept = partition.kept
    assert kept.size == 40
    for t in range(10):
        pair = {t, 20 + t}
        assert len(pair & set(kept.tolist())) == 1


def test_subset_of_the_kept_set_picks_its_columns():
    rng = np.random.default_rng(12)
    features = FeatureMatrix(rng.normal(size=(8, 6)), feature_names=list("abcdef"))
    graph = _graph(6, [(0, 1, 1.0), (1, 0, 1.0)])
    kept = find_lcs(graph, 0.9).kept
    out = features.subset(kept)
    assert out.n_features == 5
    np.testing.assert_array_equal(out.values, features.values[:, kept])


def test_save_partition_format(tmp_path):
    graph = _six_node_fixture()
    partition = find_lcs(graph, 0.5)
    path = tmp_path / "partition.txt"
    save_partition(partition, path)
    lines = path.read_text().splitlines()
    assert lines == ["0,1", "2,3", "S:4", "S:5"]
    # each representative leads its line: node 2 (in-degree 2) ranks its
    # group first, and node 1 outranks node 0 in the other
    partition = find_lcs(_graph(6, [(0, 1, 1.0), (3, 2, 1.0), (4, 2, 1.0)]), 0.5)
    save_partition(partition, path)
    assert path.read_text().splitlines() == ["2,3,4", "1,0", "S:5"]


# Random graphs of up to 12 nodes; weights from a short list, so that edges
# often tie at a breakpoint, of either sign.
_edges = st.integers(2, 12).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.tuples(
                st.integers(0, d - 1),
                st.integers(0, d - 1),
                st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0, 3.0, -0.5, -2.0]),
            ),
            max_size=30,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(graph=_edges)
def test_kept_sets_nest_as_theta_falls(graph):
    # Lowering theta only adds edges, so groups only merge, and a merged
    # group keeps the best-ranked of its parts' representatives: each kept
    # set holds the next lower breakpoint's.  The kept set changes only at a
    # breakpoint, the value |w| / max|w| of some edge, computed as find_lcs
    # computes it.
    d, edges = graph
    g = _graph(d, [(i, j, w) for i, j, w in edges if i != j])
    breakpoints = np.unique(np.abs(g.weights.data) / g.max_abs_weight())[::-1]
    partitions = [find_lcs(g, float(t)) for t in breakpoints]
    for p in partitions:
        # one kept feature per group: each representative and each singleton
        assert p.kept.tolist() == sorted(p.representatives + p.singletons), p.theta
    kept = [set(p.kept.tolist()) for p in partitions]
    for theta, higher, lower in zip(breakpoints[1:], kept, kept[1:]):
        assert lower <= higher, theta
