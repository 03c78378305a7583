"""Mining locally compressible subgraphs out of a sparse feature graph.

A locally compressible subgraph (LCS) is a connected group of feature nodes
tied together by strong representation edges: any member is (directly or
through peers) well expressed by the others, so the whole group compresses to
a single representative feature with bounded loss.

Group discovery keeps only edges whose normalized absolute weight reaches a
threshold ``theta`` in (0, 1]; the groups are the connected components of
that thresholded graph with edge direction ignored.  Groups are numbered in
the order of their best seed, where nodes rank by decreasing in-degree with
ties to the lower index; the numbering does not affect membership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import ParameterError
from .matrix import FeatureMatrix
from .sfg import SparseFeatureGraph

__all__ = [
    "LcsPartition",
    "ReducedFeatureSet",
    "find_lcs",
    "select_representatives",
    "reduce_matrix",
    "save_partition",
]


@dataclass
class LcsPartition:
    """Grouping of graph nodes at one threshold.

    labels : 1-based group label per node (every node gets one).
    subgraphs : members of each group of size > 1, ascending, listed in
        label order.
    singletons : nodes whose group is just themselves, ascending.
    theta : threshold the partition was mined at.
    """

    labels: np.ndarray
    subgraphs: list[list[int]]
    singletons: list[int]
    theta: float


@dataclass
class ReducedFeatureSet:
    """Outcome of collapsing each subgraph to one representative.

    kept / dropped partition the node set; ``representative_of`` maps the
    position of a subgraph in the partition's list to the member kept for it.
    """

    kept: np.ndarray
    dropped: np.ndarray
    representative_of: dict[int, int]


def find_lcs(graph: SparseFeatureGraph, theta: float) -> LcsPartition:
    """Partition graph nodes into connected redundancy groups.

    Edge weights are normalized by the largest absolute weight in the graph;
    an edge participates iff its normalized absolute weight is >= ``theta``.
    The groups are the weakly connected components of the participating
    edges.  Nodes rank by decreasing in-degree (ties to the lower index), and
    groups are labelled 1, 2, ... in the order of their best-ranked member.
    """
    if not 0.0 < theta <= 1.0:
        raise ParameterError(f"theta must lie in (0, 1], got {theta}")
    strong = graph.weights.copy()
    # |w| / max_w >= theta, not |w| >= theta * max_w: the two round differently.
    strong.data = np.abs(strong.data) / graph.max_abs_weight() >= theta
    strong.eliminate_zeros()
    _, component = connected_components(strong, directed=True, connection="weak")

    seeds = np.lexsort((np.arange(graph.n_nodes), -graph.in_degrees()))
    _, best_rank = np.unique(component[seeds], return_index=True)
    labels = np.argsort(np.argsort(best_rank))[component] + 1

    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(labels)[1:])[:-1])
    subgraphs = [g.tolist() for g in groups if g.size > 1]
    singletons = sorted(int(g[0]) for g in groups if g.size == 1)
    return LcsPartition(labels, subgraphs, singletons, float(theta))


def select_representatives(
    partition: LcsPartition,
    graph: SparseFeatureGraph,
    keep_singletons: bool = True,
) -> ReducedFeatureSet:
    """Pick one representative per subgraph: its highest in-degree member.

    The representative is the member most other features lean on (in-degree
    in the full graph, ties to the lower index).  Singleton nodes carry no
    redundancy and are kept unless ``keep_singletons`` is False.
    """
    in_deg = graph.in_degrees()
    kept: list[int] = []
    representative_of: dict[int, int] = {}
    for pos, members in enumerate(partition.subgraphs):
        rep = min(members, key=lambda i: (-int(in_deg[i]), i))
        representative_of[pos] = rep
        kept.append(rep)
    if keep_singletons:
        kept.extend(partition.singletons)
    kept_arr = np.array(sorted(kept), dtype=np.intp)
    mask = np.ones(graph.n_nodes, dtype=bool)
    mask[kept_arr] = False
    dropped = np.flatnonzero(mask).astype(np.intp)
    return ReducedFeatureSet(kept_arr, dropped, representative_of)


def reduce_matrix(features: FeatureMatrix, reduced: ReducedFeatureSet) -> FeatureMatrix:
    """Column subset of the matrix holding only the kept features, in order."""
    if reduced.kept.size and int(reduced.kept.max()) >= features.n_features:
        raise ParameterError(
            f"kept index {int(reduced.kept.max())} out of range for "
            f"{features.n_features} features"
        )
    return features.subset(reduced.kept)


def save_partition(partition: LcsPartition, reduced: ReducedFeatureSet, path) -> None:
    """Write the partition as text: one line per subgraph, representative
    first and remaining members ascending; one ``S:<index>`` line per
    singleton."""
    with open(path, "w") as fh:
        for pos, members in enumerate(partition.subgraphs):
            rep = reduced.representative_of[pos]
            rest = [i for i in members if i != rep]
            fh.write(",".join(str(i) for i in [rep] + rest) + "\n")
        for i in partition.singletons:
            fh.write(f"S:{i}\n")
