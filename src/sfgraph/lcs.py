"""Mining locally compressible subgraphs out of a sparse feature graph.

A locally compressible subgraph (LCS) is a group of feature nodes that
representation edges of at least a threshold weight connect; the reduction
keeps one representative feature of each group.

Group discovery keeps only edges whose normalized absolute weight reaches a
threshold ``theta`` in (0, 1]; the groups are the connected components of
that thresholded graph with edge direction ignored.  Nodes rank by decreasing
in-degree with ties to the lower index.  Groups are numbered in the order of
their best-ranked member, and that member is the group's representative,
recorded in ``LcsPartition.representatives``; neither affects membership.
The partition fixes the reduction, ``LcsPartition.kept``: each subgraph keeps
its representative, and every singleton is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import DimensionError, ParameterError
from .sfg import SparseFeatureGraph

__all__ = ["LcsPartition", "find_lcs", "save_partition"]


@dataclass
class LcsPartition:
    """Grouping of graph nodes at one threshold.

    labels : 1-based group label per node (every node gets one).
    subgraphs : members of each group of size > 1, ascending, listed in
        label order.
    representatives : the best-ranked member of each subgraph (highest
        in-degree, ties to the lower index), aligned with ``subgraphs``.
    singletons : nodes whose group is just themselves, ascending.
    kept : ascending ``intp`` indices of the features the reduction keeps,
        one per group: each subgraph's representative, the member most other
        features lean on, and every singleton, which carries no redundancy.
    theta : threshold the partition was mined at.
    """

    labels: np.ndarray
    subgraphs: list[list[int]]
    representatives: list[int]
    singletons: list[int]
    kept: np.ndarray
    theta: float


def find_lcs(graph: SparseFeatureGraph, theta: float) -> LcsPartition:
    """Partition graph nodes into connected redundancy groups.

    Edge weights are normalized by the largest absolute weight in the graph;
    an edge participates iff its normalized absolute weight is >= ``theta``.
    The groups are the weakly connected components of the participating
    edges.  Nodes rank by decreasing in-degree (ties to the lower index),
    groups are labelled 1, 2, ... in the order of their best-ranked member,
    and that member is the subgraph's representative.  The partition's
    ``kept`` set holds each group's best-ranked member, so one feature per
    group, ascending.  A graph with no nodes has nothing to mine and raises
    :class:`DimensionError`.
    """
    if not 0.0 < theta <= 1.0:
        raise ParameterError(f"theta must lie in (0, 1], got {theta}")
    if graph.n_nodes == 0:
        raise DimensionError("graph has no nodes: there are no features to group")
    strong = graph.weights.copy()
    # |w| / max_w >= theta, not |w| >= theta * max_w: the two round differently.
    strong.data = np.abs(strong.data) / graph.max_abs_weight() >= theta
    strong.eliminate_zeros()
    _, component = connected_components(strong, directed=True, connection="weak")

    seeds = np.lexsort((np.arange(graph.n_nodes), -graph.in_degrees()))
    _, best_rank = np.unique(component[seeds], return_index=True)
    labels = np.argsort(np.argsort(best_rank))[component] + 1
    best = seeds[np.sort(best_rank)]  # best-ranked member per label

    sizes = np.bincount(labels)[1:]
    members = np.argsort(labels, kind="stable").tolist()  # by label, ascending
    ends = np.cumsum(sizes).tolist()
    subgraphs = [
        members[end - size : end] for end, size in zip(ends, sizes.tolist()) if size > 1
    ]
    representatives = best[sizes > 1].tolist()
    singletons = np.sort(best[sizes == 1]).tolist()
    return LcsPartition(
        labels, subgraphs, representatives, singletons, np.sort(best), float(theta)
    )


def save_partition(partition: LcsPartition, path) -> None:
    """Write the partition as text: one line per subgraph, representative
    first and remaining members ascending; one ``S:<index>`` line per
    singleton."""
    with open(path, "w") as fh:
        for rep, members in zip(partition.representatives, partition.subgraphs):
            rest = [i for i in members if i != rep]
            fh.write(",".join(str(i) for i in [rep] + rest) + "\n")
        for i in partition.singletons:
            fh.write(f"S:{i}\n")
