"""Clustering-based evaluation: does feature reduction hurt cluster quality?

The harness mirrors a standard unsupervised pipeline: a Gaussian similarity
graph over samples, spectral embedding through the symmetric normalized
Laplacian (one restarted-Lanczos solve at every size, from a fixed start
vector so that reruns agree bit for bit), k-means on the re-normalized
embedding rows, and agreement scores (normalized mutual information and
best-match accuracy) against ground-truth labels.  A sparse-regression
feature scorer (`mcfs_select`) is included as a reference selection method:
MCFS's scoring over greedy OMP, where the MCFS paper uses least angle regression.

Memory grows as n^2 in one place only: the similarity weights, the
distances turned into the kernel in place.  The eigensolver applies the
normalized matrix as an operator on those weights and never forms it, so a
clustering pass holds one n x n float64 array: 8 MB at n = 1000, 800 MB at
n = 10^4.  k-means runs all its restarts in lockstep; beyond its inputs it
holds five (restarts, n, max(k, dim)) arrays of 8-byte values, 4 MB in all
for 10 restarts at n = 1000 and k = dim = 10.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import DataError, DimensionError, NumericalError, ParameterError
from .matrix import FeatureMatrix, pairwise_euclidean
from .omp import GramRows, _pursue

__all__ = [
    "SimilarityGraph",
    "SpectralEmbedding",
    "KMeansResult",
    "McfsResult",
    "gaussian_similarity",
    "spectral_embedding",
    "kmeans",
    "njw_cluster",
    "nmi",
    "acc",
    "mcfs_select",
]

# Lloyd iterations stop after KMEANS_MAX_ITER rounds or once the objective
# improves by at most KMEANS_REL_TOL of its previous value.
KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-6
# Threshold used by the sparse-regression scorer; effectively "run until m
# atoms", since coefficient paths are cut by cardinality, not residual.
MCFS_EPSILON = 1e-12


@dataclass
class SimilarityGraph:
    """Dense sample-similarity matrix with the kernel width that built it."""

    weights: np.ndarray
    sigma: float


@dataclass
class SpectralEmbedding:
    """Per-sample spectral coordinates.

    vectors : (n, K) eigenvectors of the symmetric normalized Laplacian for
        the K smallest eigenvalues, one column per eigenvalue, each column's
        first non-negligible entry made positive.
    eigenvalues : the K eigenvalues, ascending.
    """

    vectors: np.ndarray
    eigenvalues: np.ndarray


@dataclass
class KMeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    objective_trace: np.ndarray
    n_iter: int


@dataclass
class McfsResult:
    """Feature relevance scores and the top-m selection they induce.

    scores : per-feature relevance, the max |coefficient| over regressions.
    selected : indices of the m best features, best first.
    coefficients : (k, d) regression coefficients, one row per embedding
        column; zero outside each regression's support.
    """

    scores: np.ndarray
    selected: np.ndarray
    coefficients: np.ndarray


def _check_finite_rows(x: np.ndarray, row_name: str) -> None:
    """Raise a :class:`DataError` naming the first row of ``x`` that holds a
    non-finite value."""
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataError(f"{row_name} {bad} holds a non-finite value")


def gaussian_similarity(samples) -> SimilarityGraph:
    """Gaussian kernel similarity between sample rows.

    ``W[i, j] = exp(-dist(i, j)^2 / (2 sigma^2))`` with ``sigma`` the mean
    pairwise distance between distinct samples, which keeps the kernel scale
    proportionate to the data spread.  A sample holding a NaN or an infinity
    is a :class:`DataError`, raised before any distance is computed.
    """
    x = samples.values if isinstance(samples, FeatureMatrix) else np.asarray(samples)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DimensionError("need a 2-D matrix with at least 2 sample rows")
    _check_finite_rows(x, "sample")
    dist = pairwise_euclidean(x)
    n = x.shape[0]
    sigma = float(dist.sum() / (n * (n - 1)))
    if sigma == 0.0:
        raise DataError("all samples are identical; similarity width is undefined")
    # The kernel is formed in place on the distances, one n x n array: the
    # operations and their order are those of exp(-(dist**2) / (2 sigma^2)),
    # so the weights are bitwise the same.
    weights = np.square(dist, out=dist)
    np.negative(weights, out=weights)
    weights /= 2.0 * sigma**2
    np.exp(weights, out=weights)
    return SimilarityGraph(weights, sigma)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's first entry with |v| > 1e-12 positive (in place)."""
    first = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    vectors *= np.where(vectors[first, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors


def spectral_embedding(graph: SimilarityGraph, k: int) -> SpectralEmbedding:
    """Eigenvectors of the symmetric normalized Laplacian of a similarity graph.

    The k smallest eigenpairs of ``I - S`` are the k largest of
    ``S = D^-1/2 W D^-1/2``, found by restarted Lanczos (ARPACK) at every
    size.  ARPACK draws a random start vector on each call unless given one,
    so the start is a fixed seeded draw; not all ones, which is S's top
    eigenvector when all degrees are equal and stalls Lanczos at once.
    Non-convergence is reported as a :class:`NumericalError`.  ``S`` is
    never formed: the solver applies it as ``x -> D^-1/2 (W (D^-1/2 x))``
    on ``graph.weights``, which is read and not modified, so the call
    allocates no n x n float64 array.  ``W`` must be exactly symmetric, as
    the weights of :func:`gaussian_similarity` are; any other matrix is a
    :class:`DataError`.
    """
    w = np.asarray(graph.weights, dtype=np.float64)
    n = w.shape[0]
    if w.ndim != 2 or w.shape[1] != n:
        raise DimensionError(f"similarity matrix must be square, got {w.shape}")
    if not 1 <= k < n:
        raise ParameterError(f"k must lie in [1, {n - 1}] for {n} samples, got {k}")
    if not np.array_equal(w, w.T):
        raise DataError("similarity matrix is not symmetric")
    deg = w.sum(axis=1)
    if np.any(deg <= 0.0):
        bad = int(np.flatnonzero(deg <= 0.0)[0])
        raise DataError(f"sample {bad} has no similarity mass (isolated vertex)")
    inv_sqrt = 1.0 / np.sqrt(deg)
    # A LinearOperator may hand its matvec an (n, 1) column.
    s = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: inv_sqrt * (w @ (inv_sqrt * x.ravel())), dtype=w.dtype
    )

    start = np.random.default_rng(0).standard_normal(n)
    try:
        mu, vectors = scipy.sparse.linalg.eigsh(s, k, which="LA", tol=1e-8, v0=start)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalError(
            f"eigensolver did not converge for {n} samples "
            f"({len(exc.eigenvalues)} of {k} eigenpairs found)"
        ) from exc
    order = np.argsort(-mu)  # largest of S == smallest of the Laplacian
    vectors = np.ascontiguousarray(vectors[:, order])
    return SpectralEmbedding(_fix_signs(vectors), 1.0 - mu[order])


def _sq_distances(
    x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """``out``, set to the (g, n, k) squared distances ``|x|^2 + |c|^2 -
    2 x.c``, clipped at 0, from each point to each center of g restarts'
    (g, k, dim) ``centers``.  ``x_sq`` holds the points' squared norms and
    ``work`` is scratch of ``out``'s shape.  The product is one
    ``np.matmul`` over the stack: the same BLAS call per restart as a lone
    ``x @ c.T``."""
    np.add(x_sq[:, None], np.sum(centers**2, axis=2)[:, None, :], out=out)
    out -= np.multiply(np.matmul(x, centers.transpose(0, 2, 1), out=work), 2.0, out=work)
    return np.maximum(out, 0.0, out=out)


def _plus_plus_init(
    x: np.ndarray, x_sq: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Spread-out initial centers, (g, k, dim) for the g generators ``rngs``:
    each next center of a restart is sampled with probability proportional
    to its squared distance from that restart's chosen ones.

    The restarts advance in lockstep, each drawing from its own generator in
    the order a lone restart would.  Distances take Lloyd's form
    (`_sq_distances`) on the points' squared norms ``x_sq``.  The draw
    inverts the cumulative distribution as ``Generator.choice(n, p=d2 /
    total)`` does, from one ``rng.random()``; a restart whose points all sit
    on its centers draws ``rng.integers(n)`` instead.
    """
    n = x.shape[0]
    centers = np.empty((len(rngs), k, x.shape[1]))
    centers[:, 0] = x[[rng.integers(n) for rng in rngs]]
    nearest, new, work = np.empty((3, len(rngs), n, 1))
    d2 = _sq_distances(x, x_sq, centers[:, :1], nearest, work)[:, :, 0]
    # A restart with a zero total divides 0 by 0 here; its row is not read.
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(1, k):
            total = d2.sum(axis=1)
            cdf = np.cumsum(d2 / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
            for i, rng in enumerate(rngs):
                if total[i] > 0.0:
                    idx = int(cdf[i].searchsorted(rng.random(), side="right"))
                else:
                    idx = rng.integers(n)
                centers[i, c] = x[idx]
            _sq_distances(x, x_sq, centers[:, c : c + 1], new, work)
            np.minimum(d2, new[:, :, 0], out=d2)
    return centers


def _fit_group(
    x: np.ndarray, x_sq: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> list[KMeansResult]:
    """k-means++ seeded Lloyd fits of g restarts in lockstep, one per
    generator of ``rngs`` and in their order.

    Every round runs as one set of array operations over the restarts still
    iterating, which sit first in the round's arrays; a restart leaves them
    in the round it converges.  Cluster ``c`` of the i-th of them is cluster
    ``i k + c`` of the group, so one ``np.bincount`` in point order counts
    and sums every restart's clusters.  The (g, n, k) and (g, n, dim) work
    arrays are allocated once and reused by every round: a fresh temporary of
    that size can come from new pages each round, which cost as much again
    as the arithmetic on them.
    """
    n, dim = x.shape
    size = len(rngs)
    centers = _plus_plus_init(x, x_sq, k, rngs)
    live = list(range(size))  # positions in ``rngs`` of the restarts iterating
    offsets = np.arange(size)[:, None] * k
    coord = np.arange(dim)
    weights = np.tile(x.ravel(), size)  # the points once per restart
    d2_buf, work_buf = np.empty((2, size, n, k))
    diff_buf = np.empty((size, n, dim))
    bins_buf = np.empty((size, n, dim), dtype=np.intp)
    traces: list[list[float]] = [[] for _ in rngs]
    fits: list[KMeansResult | None] = [None] * size
    for it in range(KMEANS_MAX_ITER):
        g = len(live)
        d2 = _sq_distances(x, x_sq, centers, d2_buf[:g], work_buf[:g])
        labels = np.argmin(d2, axis=2)
        flat = labels + offsets[:g]
        counts = np.bincount(flat.ravel(), minlength=g * k).reshape(g, k)
        if not counts.all():
            for i in np.flatnonzero(~counts.all(axis=1)):
                for empty in np.flatnonzero(counts[i] == 0):
                    # Split the largest cluster: hand its farthest member to
                    # the empty cluster.
                    largest = int(np.argmax(counts[i]))
                    members = np.flatnonzero(labels[i] == largest)
                    far = members[int(np.argmax(d2[i, members, largest]))]
                    labels[i, far] = empty
                    counts[i, largest] -= 1
                    counts[i, empty] += 1
            flat = labels + offsets[:g]
        # Bin (c, j) of the flattened coordinates sums x[:, j] over cluster c.
        bins = np.add((flat * dim)[:, :, None], coord, out=bins_buf[:g])
        sums = np.bincount(bins.ravel(), weights=weights[: g * n * dim], minlength=g * k * dim)
        centers = sums.reshape(g, k, dim) / counts[:, :, None]
        # Every index is in range; "clip" only spares take's buffered copy.
        diff = np.take(centers.reshape(g * k, dim), flat, axis=0, out=diff_buf[:g], mode="clip")
        np.subtract(x, diff, out=diff)
        # Each restart's objective sums one contiguous row, as a lone
        # restart's np.sum over its (n, dim) block does.
        objective = np.square(diff, out=diff).reshape(g, n * dim).sum(axis=1)
        going = []
        for i, value in enumerate(objective.tolist()):
            trace = traces[live[i]]
            trace.append(value)
            done = it == KMEANS_MAX_ITER - 1
            if it > 0:
                prev = trace[-2]
                done = done or prev == 0.0 or abs(prev - value) <= KMEANS_REL_TOL * prev
            if done:
                fits[live[i]] = KMeansResult(
                    labels[i], centers[i], value, np.asarray(trace), it + 1
                )
            else:
                going.append(i)
        if not going:
            break
        if len(going) < g:
            live = [live[i] for i in going]
            centers = centers[going]
    return fits


@functools.lru_cache(maxsize=256)
def _restart_seed(seed: int, restart: int) -> np.random.SeedSequence:
    """The seed of a restart's stream, ``default_rng([seed, restart])``'s:
    hashing the entropy is most of the cost of building a generator, and
    every k-means call of a run uses the same few."""
    return np.random.SeedSequence([seed, restart])


def kmeans(points, k: int, seed: int = 0, restarts: int = 10) -> KMeansResult:
    """Restarted Lloyd k-means with spread-out seeding.

    Runs ``restarts`` independent fits from deterministic per-restart RNG
    streams, ``default_rng([seed, r])`` for restart r, and returns the one
    with the lowest objective (earliest restart wins ties), so results are
    reproducible for a given ``seed``.  All the restarts run in lockstep,
    as one `_fit_group` whose work arrays are (restarts, n, max(k, dim));
    every restart takes the same steps, and gets the same bits, as it would
    alone.

    Squared point-to-center distances, in the seeding and in every Lloyd
    round, are ``|x|^2 + |c|^2 - 2 x.c``, clipped at 0, with the points'
    norms computed once per call.  A point holding a NaN or an infinity is a
    :class:`DataError`, raised before any fit.  A center is its
    members' coordinate sums, accumulated in point order by ``np.bincount``,
    divided by their count: for points of two or more coordinates that is
    bitwise the ``x[labels == c].mean(axis=0)`` of each cluster.  For
    one-coordinate points ``mean`` sums pairwise, so centers may differ from
    it in the last digits.
    """
    x = np.ascontiguousarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected 2-D points, got {x.ndim}-D")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k must lie in [1, {n}] for {n} points, got {k}")
    if restarts < 1:
        raise ParameterError(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    _check_finite_rows(x, "point")
    rngs = [
        np.random.Generator(np.random.PCG64(_restart_seed(int(seed), r)))
        for r in range(restarts)
    ]
    fits = _fit_group(x, np.sum(x**2, axis=1), k, rngs)
    # min keeps the first of equal inertias: the earliest restart wins ties.
    return min(fits, key=lambda fit: fit.inertia)


def njw_cluster(
    embedding: SpectralEmbedding,
    k: int,
    seed: int = 0,
    restarts: int = 10,
) -> np.ndarray:
    """Cluster samples from their spectral embedding.

    Rows of the first ``k`` embedding columns are scaled to unit norm (rows
    that are exactly zero are left as-is; they gravitate to whichever center
    is nearest the origin) and then clustered with restarted k-means.
    """
    y = embedding.vectors
    if y.shape[1] < k:
        raise ParameterError(
            f"embedding has {y.shape[1]} columns, need at least k={k}"
        )
    y = y[:, :k]
    norms = np.linalg.norm(y, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    rows = y / safe[:, None]
    return kmeans(rows, k, seed=seed, restarts=restarts).labels


def _entropy(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _contingency(labels_a, labels_b) -> np.ndarray:
    """Sample counts per (id in a, id in b) pair, ids in ascending order.

    Ids are categories: any values ``np.unique`` can sort, compared exactly.
    """
    a = np.asarray(labels_a).reshape(-1)
    b = np.asarray(labels_b).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise DimensionError("label vector is empty")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"label vectors differ in length: {a.shape[0]} vs {b.shape[0]}"
        )
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    cells = np.bincount(ia * ub.size + ib, minlength=ua.size * ub.size)
    return cells.reshape(ua.size, ub.size)


def nmi(labels_a, labels_b) -> float:
    """Normalized mutual information between two labelings.

    Natural-log entropies of the contingency table's row sums, column sums
    and cells, normalized by ``max(H(A), H(B))``.  When both labelings are
    constant the measure is 0/0; both then put every sample in one group,
    the same partition, and score 1.
    """
    table = _contingency(labels_a, labels_b)
    h_a = _entropy(table.sum(axis=1))
    h_b = _entropy(table.sum(axis=0))
    h_ab = _entropy(table.ravel())
    denom = max(h_a, h_b)
    if denom == 0.0:
        return 1.0
    return min(1.0, max(0.0, (h_a + h_b - h_ab) / denom))


def _best_match_total(table: np.ndarray) -> int:
    """Largest sum of cells of ``table`` with at most one per row and column.

    A least-cost full matching (scipy's sparse Jonker-Volgenant) on the costs
    ``table.max() + 1 - table``: every cost is at least 1, so every cell is an
    edge, and a full matching's ``min(r, c)`` cells cost ``min(r, c) *
    (table.max() + 1)`` less their total, so the least cost holds the largest
    total.  The counts are integers, so the total is exact, whichever of tied
    matchings is found.
    """
    # The matcher works on no more rows than columns, in float64 costs and
    # int32 indices; handed that form, it transposes and casts nothing.
    table = table.T if table.shape[0] > table.shape[1] else table
    r, c = table.shape
    costs = (table.max() + 1.0 - table).ravel()
    columns = np.tile(np.arange(c, dtype=np.int32), r)
    starts = np.arange(0, r * c + 1, c, dtype=np.int32)
    graph = scipy.sparse.csr_array((costs, columns, starts), shape=(r, c))
    rows, cols = min_weight_full_bipartite_matching(graph)
    return int(table[rows, cols].sum())


def acc(labels_a, labels_b) -> float:
    """Best-match clustering accuracy.

    Fraction of samples that agree under the one-to-one relabeling of cluster
    ids that maximizes agreement: an assignment on the rectangular
    contingency table, so ids of the labeling with more of them may stay
    unmatched.  Symmetric in its arguments.  The assignment is solved
    exactly as a least-cost full bipartite matching (`_best_match_total`);
    when several relabelings tie, any of them gives the same total and the
    same score.
    """
    table = _contingency(labels_a, labels_b)
    return float(_best_match_total(table) / table.sum())


def mcfs_select(
    features: FeatureMatrix, embedding: SpectralEmbedding, counts
) -> list[McfsResult]:
    """Score features by sparse regression onto the spectral embedding and
    select the top m for each m of ``counts``: one result per count, in the
    order given.

    Each embedding column is greedily regressed, with at most m nonzero
    coefficients, on the unit-norm columns it is given, not renormalized;
    a zero column is never an atom and scores 0.  A feature's score is the
    largest absolute coefficient it earns across the embedding columns, so
    ``scores`` equals the column-wise max of ``|coefficients|`` exactly; the
    top m scores win, ties resolved toward the lower feature index.  Only
    this scoring is MCFS's (Cai, Zhang & He, KDD 2010): its paper fits each
    eigenvector by least angle regression stopped at m nonzeros, not by
    greedy OMP capped at m atoms.

    All counts come from one lockstep batch (``omp._pursue``, a cap per
    distinct count) over one Gram matrix of the features: d^2 n work and
    d^2 float64 values, 800 MB at d = 10^4, and none for no counts.  Its
    scratch holds a d-long float64 row per atom of each embedding column:
    13 MB for 40 columns of 40 atoms at d = 1024.
    """
    d = features.n_features
    for m in counts:
        if not 1 <= m <= d:
            raise ParameterError(f"m must lie in [1, {d}] for {d} features, got {m}")
    y = embedding.vectors
    if y.shape[0] != features.n_samples:
        raise DimensionError(
            f"embedding rows {y.shape[0]} do not match samples {features.n_samples}"
        )
    caps = tuple(sorted(set(counts)))
    if not caps:
        return []
    gram = GramRows(features.values)
    norms = np.linalg.norm(y, axis=0)
    live = np.flatnonzero(norms != 0.0)
    targets = (y[:, live] / norms[live]).T
    fits = _pursue(
        gram, targets, targets @ features.values, np.tile(gram.zero, (live.size, 1)),
        MCFS_EPSILON, caps, False,
    )
    results = {}
    for m, fit in zip(caps, fits):
        coefficients = np.zeros((y.shape[1], d))
        target, atom, coef = fit.entries()
        coefficients[live[target], atom] = coef
        scores = np.abs(coefficients).max(axis=0, initial=0.0)
        order = np.lexsort((np.arange(d), -scores))
        results[m] = McfsResult(scores, order[:m].astype(np.intp), coefficients)
    return [results[m] for m in counts]
