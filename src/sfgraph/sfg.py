"""Sparse feature graph: leave-one-out self-representation of every feature.

Each feature column is greedily fit as a sparse combination of all the other
columns.  The coefficients become the weighted out-edges of that feature's
node in a directed graph, so an edge ``i -> j`` with weight ``w`` reads as
"feature j contributes w to reconstructing feature i".  Groups of mutually
well-representable features are exactly the redundancy structure later mined
by the subgraph stage.

Nodes whose reconstruction is poor (large angle between the feature and its
reconstruction) are marked *failed*: their out-edges say nothing reliable and
are dropped, while edges pointing at them are kept, since those encode other
features' valid representations.  The filter measures every node's angle once
and keeps those angles on the graph it returns (``SparseFeatureGraph.angles``);
``angle_histogram(angles)`` bins them for the report, so no stage measures
them again.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, ParseError
from .matrix import FeatureMatrix, _text_lines
from .omp import GramRows, OmpConfig, _greedy_fit, _not_unit_norm

__all__ = [
    "SparseFeatureGraph",
    "build_sfg",
    "representation_angle",
    "filter_failed",
    "angle_histogram",
    "save_sfg",
    "load_sfg",
]

# Bins of the angle histogram: 5 degrees each, so the default 15-degree
# filter threshold falls on a bin edge.
ANGLE_BINS = 18


@dataclass
class SparseFeatureGraph:
    """Directed weighted graph over feature indices.

    weights : scipy CSR matrix of shape (d, d); row i holds the out-edges of
        node i, i.e. the representation coefficients of feature i.  The
        diagonal is structurally zero (a feature never represents itself).
    failed_nodes : indices whose representation is unusable (zero-norm
        feature at build time, or rejected by the angle filter); their rows
        are empty.
    stop_reasons : the solver's stop reason for each fitted node, by node
        index.  Only :func:`build_sfg` knows them, and :func:`filter_failed`
        keeps them; a graph read from a file has none.
    residuals : the final squared residual of each fitted node's
        representation, by node index; kept and carried like
        ``stop_reasons``.
    angles : the per-node reconstruction angles (radians) that
        :func:`filter_failed` measured on its input graph, NaN where an angle
        is undefined; None on a graph that was built or loaded.
    """

    weights: sp.csr_matrix
    failed_nodes: frozenset[int]
    stop_reasons: dict[int, str] = field(default_factory=dict)
    residuals: dict[int, float] = field(default_factory=dict)
    angles: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = sp.csr_matrix(self.weights)
        w.eliminate_zeros()
        w.sort_indices()
        self.weights = w
        self.failed_nodes = frozenset(int(i) for i in self.failed_nodes)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    def in_degrees(self) -> np.ndarray:
        """Number of stored (nonzero) edges pointing at each node."""
        csc = self.weights.tocsc()
        return np.diff(csc.indptr).astype(np.int64)

    def max_abs_weight(self) -> float:
        return float(np.max(np.abs(self.weights.data))) if self.weights.nnz else 0.0


def _fit_row(
    values: np.ndarray, i: int, cfg: OmpConfig, zero_mask: np.ndarray, gram: GramRows
):
    support, coef, trace, reason = _greedy_fit(
        values, values[:, i], cfg.epsilon, cfg.max_support, exclude=i,
        pre_banned=zero_mask, gram=gram, corr=gram[i].copy(),
    )
    return support, coef, reason, trace[-1]


def build_sfg(
    features: FeatureMatrix, config: OmpConfig | None = None, n_jobs: int = 1
) -> SparseFeatureGraph:
    """Build the sparse feature graph of a unit-norm feature matrix.

    Every column is fit over all the other columns (the column itself is
    masked out by index, the matrix is never copied) and the coefficients are
    written into the corresponding adjacency row.  Zero-norm columns cannot be
    fit or used as atoms; they become failed nodes with empty rows.  A live
    column whose fit comes back empty keeps an empty row but is *not* marked
    failed here: it has no defined reconstruction angle, which is exactly what
    the downstream angle filter rejects.

    Each fit uses the solver's default support cap unless ``config`` sets
    one: ⌊n/2⌋ atoms for n samples.  With n < d any column is an exact
    combination of about n others, so an uncapped fit of a column the others
    cannot really represent would reach angle 0 and pass the angle filter.
    Capped, it keeps a residual and its angle shows it; the longest and
    costliest fits are cut short as well.  Each fit's stop reason is kept in
    ``stop_reasons`` and its final squared residual in ``residuals``.

    The fits share one cache of Gram rows ``values[:, j] @ values``.  Each
    fit starts from its own column's row, so a build computes the row of
    every live column: d^2 float64 values, 8 MB at d = 1024 and 800 MB at
    d = 10^4.  When that allocation fails the ``MemoryError`` propagates, and
    the command line exits 2 with "not enough memory".  ``n_jobs`` > 1 fans
    the per-feature fits out to a thread pool over the same cache; each task
    writes only its own row, so the result is identical for any job count.
    """
    cfg = config if config is not None else OmpConfig()
    values = features.values
    d = features.n_features
    if d < 2:
        raise ParameterError(f"need at least 2 features to build a graph, got {d}")

    norms = np.linalg.norm(values, axis=0)
    zero_mask = norms == 0.0
    bad = np.flatnonzero(~zero_mask & _not_unit_norm(norms))
    if bad.size:
        j = int(bad[0])
        raise ParameterError(
            f"feature {j} is not unit-norm (norm {norms[j]:.6g}); "
            f"apply normalize_features before building the graph"
        )

    live = np.flatnonzero(~zero_mask)
    gram = GramRows(values)
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            fits = list(pool.map(lambda i: _fit_row(values, i, cfg, zero_mask, gram), live))
    else:
        fits = [_fit_row(values, i, cfg, zero_mask, gram) for i in live]

    # The empty leading arrays keep concatenate defined when no column is live.
    rows = np.repeat(live, [len(s) for s, _, _, _ in fits])
    cols = np.concatenate([np.empty(0, dtype=np.intp)] + [s for s, _, _, _ in fits])
    vals = np.concatenate([np.empty(0)] + [c for _, c, _, _ in fits])
    weights = sp.csr_matrix((vals, (rows, cols)), shape=(d, d), dtype=np.float64)
    reasons = {int(i): fit[2] for i, fit in zip(live, fits)}
    residuals = {int(i): fit[3] for i, fit in zip(live, fits)}
    return SparseFeatureGraph(weights, np.flatnonzero(zero_mask), reasons, residuals)


def representation_angle(graph: SparseFeatureGraph, features: FeatureMatrix) -> np.ndarray:
    """Angle (radians) between each feature and its graph reconstruction.

    Node i's reconstruction is the weighted sum of its out-edge features.  A
    perfect representation gives angle 0.  Nodes with no out-edges or a
    zero-norm reconstruction have no defined angle and get NaN.
    """
    if features.n_features != graph.n_nodes:
        raise ParameterError(
            f"graph has {graph.n_nodes} nodes but matrix has "
            f"{features.n_features} features"
        )
    values = features.values
    recon = graph.weights @ values.T  # row i: node i's reconstruction
    dots = np.einsum("ij,ji->i", recon, values)
    rn = np.linalg.norm(recon, axis=1)
    fn = np.linalg.norm(values, axis=0)
    defined = (rn != 0.0) & (fn != 0.0)
    angles = np.full(graph.n_nodes, np.nan)
    cos = dots[defined] / (fn[defined] * rn[defined])
    angles[defined] = np.arccos(np.clip(cos, -1.0, 1.0))
    return angles


def filter_failed(
    graph: SparseFeatureGraph, features: FeatureMatrix, max_angle: float
) -> SparseFeatureGraph:
    """Drop the out-edges of nodes whose reconstruction angle is unacceptable.

    A node fails when its angle exceeds ``max_angle`` (radians) or is
    undefined.  In-edges of failed nodes are left untouched.  The operation
    is idempotent: surviving rows are unchanged, so their angles do not move.
    The returned graph keeps the angles measured here, rejected nodes'
    included, as ``angles``.
    """
    if not 0.0 < max_angle <= np.pi / 2.0:
        raise ParameterError(
            f"max_angle must lie in (0, pi/2] radians, got {max_angle}"
        )
    angles = representation_angle(graph, features)
    rejected = np.isnan(angles) | (angles > max_angle)

    weights = graph.weights.copy()
    weights.data[np.repeat(rejected, np.diff(weights.indptr))] = 0.0
    newly_failed = frozenset(np.flatnonzero(rejected).tolist())
    return SparseFeatureGraph(
        weights, graph.failed_nodes | newly_failed, graph.stop_reasons,
        graph.residuals, angles,
    )


def angle_histogram(angles: np.ndarray) -> dict:
    """Histogram of reconstruction angles over ``ANGLE_BINS`` equal bins on
    [0, pi/2], as the report's ``angles`` block.

    ``bin_edges`` holds the ``ANGLE_BINS + 1`` edges and ``counts`` the
    per-bin node counts; the last bin is right-inclusive and also absorbs the
    rare angle beyond pi/2, so the counts sum to the number of defined
    angles.  ``overflow`` counts the NaN (undefined) angles.
    """
    undefined = np.isnan(angles)
    edges = np.linspace(0.0, np.pi / 2.0, ANGLE_BINS + 1)
    counts, _ = np.histogram(np.minimum(angles[~undefined], np.pi / 2.0), bins=edges)
    return {
        "bin_edges": edges.tolist(),
        "counts": counts.tolist(),
        "overflow": int(undefined.sum()),
    }


def save_sfg(graph: SparseFeatureGraph, path) -> None:
    """Write a graph as a TSV edge list.

    First line: ``# sfg d=<nodes> failed=<comma-separated indices>``.
    Then one ``src<TAB>dst<TAB>weight`` line per edge, row-major, with
    full-precision weights (they survive a round-trip bit-exactly).  The
    weights' sorted CSR indices make their COO form row-major already.
    """
    failed = ",".join(str(i) for i in sorted(graph.failed_nodes))
    coo = graph.weights.tocoo()
    with open(path, "w") as fh:
        fh.write(f"# sfg d={graph.n_nodes} failed={failed}\n")
        csv.writer(fh, delimiter="\t", lineterminator="\n").writerows(
            zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
        )


def load_sfg(path) -> SparseFeatureGraph:
    """Read a graph written by :func:`save_sfg`.

    Raises :class:`ParseError` for a malformed header or edge line, a node
    index outside ``[0, d)``, a self-loop, a repeated edge, a non-finite
    weight or bytes that are not valid text.
    """
    with open(path) as fh:
        lines = _text_lines(fh, path)
        header = next(lines, "").strip()
        if not header.startswith("# sfg "):
            raise ParseError(f"{path}: missing graph header line")
        fields = dict(
            part.split("=", 1) for part in header[len("# sfg ") :].split() if "=" in part
        )
        try:
            d = int(fields["d"])
            failed = frozenset(
                int(tok) for tok in fields.get("failed", "").split(",") if tok
            )
        except (KeyError, ValueError):
            raise ParseError(f"{path}: bad graph header: {header!r}") from None
        if d < 0 or any(not 0 <= i < d for i in failed):
            raise ParseError(
                f"{path}: header needs d >= 0 and failed ids in [0, d): {header!r}"
            )
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for line_no, line in enumerate(lines, start=2):
            text = line.strip()
            if not text:
                continue
            parts = text.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}: line {line_no}: expected 3 tab-separated fields")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: bad edge {text!r}") from None
            if not (0 <= i < d and 0 <= j < d and i != j and math.isfinite(w)):
                raise ParseError(
                    f"{path}: line {line_no}: edge {text!r} needs two distinct "
                    f"nodes in [0, {d}) and a finite weight"
                )
            rows.append(i)
            cols.append(j)
            vals.append(w)
    weights = sp.csr_matrix((vals, (rows, cols)), shape=(d, d), dtype=np.float64)
    if weights.nnz != len(vals):  # the conversion summed a repeated edge
        raise ParseError(f"{path}: repeated edge: a src, dst pair appears twice")
    return SparseFeatureGraph(weights, failed)
