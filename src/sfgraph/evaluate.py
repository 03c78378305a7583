"""Clustering-based evaluation: does feature reduction hurt cluster quality?

The harness mirrors a standard unsupervised pipeline: a Gaussian similarity
graph over samples, spectral embedding through the symmetric normalized
Laplacian (one restarted-Lanczos solve at every size, from a fixed start
vector so that reruns agree bit for bit), k-means on the re-normalized
embedding rows, and agreement scores (normalized mutual information and
best-match accuracy) against ground-truth labels.  A sparse-regression
feature scorer (`mcfs_select`) is included as a reference selection method.

Memory grows as n^2 in one place only: the similarity weights, the
distances turned into the kernel in place.  The eigensolver applies the
normalized matrix as an operator on those weights and never forms it, so a
clustering pass holds one n x n float64 array: 8 MB at n = 1000, 800 MB at
n = 10^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .errors import DataError, DimensionError, NumericalError, ParameterError
from .matrix import FeatureMatrix, normalize_features, pairwise_euclidean
from .omp import GramRows, _greedy_fit

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


def gaussian_similarity(samples, sigma: float | None = None) -> SimilarityGraph:
    """Gaussian kernel similarity between sample rows.

    ``W[i, j] = exp(-dist(i, j)^2 / (2 sigma^2))``.  When ``sigma`` is not
    given it defaults to the mean pairwise distance between distinct samples,
    which keeps the kernel scale proportionate to the data spread.
    """
    x = samples.values if isinstance(samples, FeatureMatrix) else np.asarray(samples)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DimensionError("need a 2-D matrix with at least 2 sample rows")
    dist = pairwise_euclidean(x)
    if sigma is None:
        n = x.shape[0]
        sigma = float(dist.sum() / (n * (n - 1)))
        if sigma == 0.0:
            raise DataError(
                "all samples are identical; similarity width is undefined"
            )
    elif not sigma > 0.0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    # The kernel is formed in place on the distances, one n x n array: the
    # operations and their order are those of exp(-(dist**2) / (2 sigma^2)),
    # so the weights are bitwise the same.
    weights = np.square(dist, out=dist)
    np.negative(weights, out=weights)
    weights /= 2.0 * float(sigma) ** 2
    np.exp(weights, out=weights)
    return SimilarityGraph(weights, float(sigma))


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


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out initial centers: each next center is sampled with
    probability proportional to its squared distance from the chosen ones.

    The draw inverts the cumulative distribution as
    ``Generator.choice(n, p=d2 / total)`` does, from one ``rng.random()``.
    """
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = rng.integers(n)
        centers[c] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(
    x: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator
) -> KMeansResult:
    """One k-means++ seeded Lloyd fit; ``x_sq`` holds the rows' squared norms."""
    n, dim = x.shape
    centers = _plus_plus_init(x, k, rng)
    # Bin (c, j) of the flattened coordinates sums x[:, j] over cluster c.
    coord = np.arange(dim)
    trace: list[float] = []
    labels = np.zeros(n, dtype=np.int64)
    for it in range(KMEANS_MAX_ITER):
        d2 = np.add.outer(x_sq, np.sum(centers**2, axis=1))
        d2 -= 2.0 * (x @ centers.T)
        np.maximum(d2, 0.0, out=d2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            # Split the largest cluster: hand its farthest member to the
            # empty cluster.
            largest = int(np.argmax(counts))
            members = np.flatnonzero(labels == largest)
            far = members[int(np.argmax(d2[members, largest]))]
            labels[far] = empty
            counts[largest] -= 1
            counts[empty] += 1
        bins = (labels[:, None] * dim + coord).ravel()
        sums = np.bincount(bins, weights=x.ravel(), minlength=k * dim)
        centers = sums.reshape(k, dim) / counts[:, None]
        objective = float(np.sum((x - centers[labels]) ** 2))
        trace.append(objective)
        if it > 0:
            prev = trace[-2]
            if prev == 0.0 or abs(prev - objective) <= KMEANS_REL_TOL * prev:
                break
    return KMeansResult(labels, centers, trace[-1], np.asarray(trace), len(trace))


def kmeans(points, k: int, seed: int = 0, restarts: int = 10) -> KMeansResult:
    """Restarted Lloyd k-means with spread-out seeding.

    Runs ``restarts`` independent fits from deterministic per-restart RNG
    streams and returns the one with the lowest objective (earliest restart
    wins ties), so results are reproducible for a given ``seed``.

    Squared point-to-center distances are ``|x|^2 + |c|^2 - 2 x.c``, clipped
    at 0, with the points' norms computed once per call.  A center is its
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
    x_sq = np.sum(x**2, axis=1)
    best: KMeansResult | None = None
    for r in range(restarts):
        rng = np.random.default_rng([int(seed), r])
        result = _lloyd(x, x_sq, k, rng)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


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

    Shortest augmenting paths with row and column potentials (Jonker and
    Volgenant, 1987): each row of the shorter side is matched in turn along
    the cheapest path of alternating cells, on costs ``-table`` reduced by
    the potentials, so every match made so far stays optimal.  The counts
    are integers, so every cost and potential is exact in float64 and the
    total is the optimum, whichever of tied matchings is found.
    """
    table = table.T if table.shape[0] > table.shape[1] else table
    cost = -table.astype(np.float64)
    n_rows, n_cols = cost.shape
    u, v = np.zeros(n_rows), np.zeros(n_cols)
    row_of = np.full(n_cols, -1)
    col_of = np.full(n_rows, -1)
    dist, final = np.empty(n_cols), np.empty(n_cols)
    pred = np.empty(n_cols, dtype=np.intp)
    done = np.empty(n_cols, dtype=bool)
    for start in range(n_rows):
        dist.fill(np.inf)  # tentative path costs of the open columns
        done.fill(False)
        i, low = start, 0.0
        while True:  # Dijkstra over columns until one is free
            reach = cost[i] - v
            reach += low - u[i]
            reach[done] = np.inf
            pred[reach < dist] = i
            np.minimum(dist, reach, out=dist)
            j = dist.argmin()
            low = dist[j]
            if row_of[j] >= 0:  # among tied columns, end at a free one
                free = (dist == low) & (row_of < 0)
                if free.any():
                    j = free.argmax()
            done[j], final[j], dist[j] = True, low, np.inf
            if row_of[j] < 0:
                break
            i = row_of[j]
        gain = low - final[done]
        v[done] -= gain
        u[start] += low
        rows = row_of[done]
        u[rows[rows >= 0]] += gain[rows >= 0]
        while True:  # flip the path's cells back to ``start``
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return int(table[np.arange(n_rows), col_of].sum())


def acc(labels_a, labels_b) -> float:
    """Best-match clustering accuracy.

    Fraction of samples that agree under the one-to-one relabeling of cluster
    ids that maximizes agreement: an assignment on the rectangular
    contingency table, so ids of the labeling with more of them may stay
    unmatched.  Symmetric in its arguments.  The assignment is solved
    exactly by shortest augmenting paths (`_best_match_total`); when several
    relabelings tie, any of them gives the same total and the same score.
    """
    table = _contingency(labels_a, labels_b)
    return float(_best_match_total(table) / table.sum())


def mcfs_select(
    features: FeatureMatrix, embedding: SpectralEmbedding, m: int
) -> McfsResult:
    """Score features by sparse regression onto the spectral embedding.

    Each embedding column is greedily regressed on the (unit-normalized)
    feature columns with at most ``m`` nonzero coefficients.  A feature's
    score is the largest absolute coefficient it earns across the embedding
    columns; the top ``m`` scores win, ties resolved toward the lower feature
    index.  The returned coefficients are those of the normalized
    regressions, so ``scores`` equals the column-wise max of
    ``|coefficients|`` exactly.  The regressions share one cache of Gram
    rows, so an atom selected for several columns costs one product.
    """
    d = features.n_features
    if not 1 <= m <= d:
        raise ParameterError(f"m must lie in [1, {d}] for {d} features, got {m}")
    y = embedding.vectors
    if y.shape[0] != features.n_samples:
        raise DimensionError(
            f"embedding rows {y.shape[0]} do not match samples {features.n_samples}"
        )

    normalized, zero_columns = normalize_features(features)
    zero_mask = np.zeros(d, dtype=bool)
    zero_mask[zero_columns] = True

    coefficients = np.zeros((y.shape[1], d))
    gram = GramRows(normalized.values)
    for col in range(y.shape[1]):
        t = y[:, col]
        tn = np.linalg.norm(t)
        if tn == 0.0:
            continue
        support, coef, _, _ = _greedy_fit(
            normalized.values, t / tn, MCFS_EPSILON, m, pre_banned=zero_mask, gram=gram
        )
        coefficients[col, support] = coef
    scores = np.abs(coefficients).max(axis=0, initial=0.0)
    order = np.lexsort((np.arange(d), -scores))
    selected = order[:m].astype(np.intp)
    return McfsResult(scores, selected, coefficients)
