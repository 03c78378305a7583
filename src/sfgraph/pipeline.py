"""End-to-end reduction pipeline and its report files.

One run normalizes the features, builds and angle-filters the sparse feature
graph, then for every requested threshold mines redundancy groups, keeps one
representative per group, and scores spectral clustering on the reduced
matrix against the clustering on all features.  Optionally a sparse-
regression selection grid is evaluated on every reduced matrix.

Everything that influences numbers lives in :class:`PipelineConfig`, and all
randomness flows from its single seed, so a rerun of the same config on the
same data reproduces the report byte for byte (wall-clock timings aside).
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError, ParameterError, SfgraphError
from .evaluate import (
    acc,
    gaussian_similarity,
    mcfs_select,
    njw_cluster,
    nmi,
    spectral_embedding,
)
from .lcs import find_lcs
from .matrix import FeatureMatrix, normalize_features
from .omp import EPSILON, STOP_REASONS, STOP_SUPPORT_LIMIT, _check_epsilon
from .sfg import SparseFeatureGraph, angle_histogram, build_sfg, filter_failed

__all__ = ["PipelineConfig", "run_pipeline", "render_report"]

DEFAULT_THETAS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
# One sweep record per theta, keys in report order; a failed theta keeps None
# for every value it did not reach.
_SWEEP_RECORD = dict.fromkeys(
    ("theta", "retained", "subgraphs", "singletons", "nmi", "acc", "error")
)


@dataclass
class PipelineConfig:
    """All knobs of one pipeline run."""

    k_clusters: int
    epsilon: float = EPSILON
    max_angle_deg: float = 15.0
    thetas: tuple[float, ...] = DEFAULT_THETAS
    mcfs_counts: tuple[int, ...] = ()
    seed: int = 0
    restarts: int = 10
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.k_clusters < 1:
            raise ParameterError(f"k_clusters must be at least 1, got {self.k_clusters}")
        _check_epsilon(self.epsilon)
        if not 0.0 < self.max_angle_deg <= 90.0:
            raise ParameterError(
                f"max_angle_deg must lie in (0, 90], got {self.max_angle_deg}"
            )
        self.thetas = tuple(float(t) for t in self.thetas)
        if not self.thetas:
            raise ParameterError("theta list must not be empty")
        for t in self.thetas:
            if not 0.0 < t <= 1.0:
                raise ParameterError(f"theta must lie in (0, 1], got {t}")
        self.mcfs_counts = tuple(int(m) for m in self.mcfs_counts)
        for m in self.mcfs_counts:
            if m < 1:
                raise ParameterError(f"mcfs count must be at least 1, got {m}")
        if self.restarts < 1:
            raise ParameterError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")

    def as_dict(self) -> dict:
        """The report's config record: every field but ``n_jobs``, which does
        not change results, with tuples as lists."""
        record = asdict(self)
        del record["n_jobs"]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in record.items()}


@contextmanager
def _stage(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except SfgraphError as exc:
        raise type(exc)(f"stage {name!r}: {exc}") from exc
    finally:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start) * 1000.0


def cluster_scores(matrix: FeatureMatrix, labels, k: int, seed: int, restarts: int):
    """(embedding, sigma, nmi, acc) of spectral clustering on one matrix.

    ``sigma`` is the kernel width, the mean pairwise sample distance.
    Without ``labels`` only the embedding is computed and both scores are
    None.
    """
    sim = gaussian_similarity(matrix)
    emb = spectral_embedding(sim, k)
    if labels is None:
        return emb, sim.sigma, None, None
    pred = njw_cluster(emb, k, seed=seed, restarts=restarts)
    return emb, sim.sigma, float(nmi(labels, pred)), float(acc(labels, pred))


def mcfs_records(
    matrix: FeatureMatrix, embedding, counts, labels, k: int, seed: int, restarts: int
) -> list[dict]:
    """Clustering scores of the MCFS selection of each count of features.

    One record per count; its scores are None when the count exceeds the
    number of features in ``matrix`` or when the selection fails, and a
    failure's message is kept under ``error`` (None otherwise), as in the
    sweep records.
    """
    records = []
    for m in counts:
        record = {"input_features": matrix.n_features, "selected": m}
        record["nmi"] = record["acc"] = record["error"] = None
        if m <= matrix.n_features:
            try:
                chosen = mcfs_select(matrix, embedding, m)
                picked = matrix.subset(np.sort(chosen.selected))
                _, _, record["nmi"], record["acc"] = cluster_scores(
                    picked, labels, k, seed, restarts
                )
            except SfgraphError as exc:
                record["error"] = str(exc)
        records.append(record)
    return records


def _graph_record(graph: SparseFeatureGraph, filtered: SparseFeatureGraph) -> dict:
    """The report's graph block.

    Edge count, support sizes and stop reasons describe the fits of
    ``graph`` as built; the failed nodes and the largest absolute weight,
    with its ``[src, dst]`` edge, are those of ``filtered``, whose largest
    weight is the scale theta is measured against.  ``capped_rows`` counts
    the fits stopped by the support cap, the ``residual_*`` keys summarise
    the fits' final squared residuals, and ``max_abs_weight_row_support``
    is the support of the fit that holds the largest weight's edge.
    """
    row_sizes = np.diff(graph.weights.indptr)
    fitted = np.not_equal(graph.stop_reasons, None)
    support = row_sizes[fitted]
    residuals = graph.residuals[fitted]
    reasons = Counter(graph.stop_reasons[fitted])
    weights = filtered.weights.tocoo()
    top = int(np.argmax(np.abs(weights.data))) if weights.nnz else None
    return {
        "edges": int(graph.weights.nnz),
        "failed_nodes_after_filter": sorted(int(i) for i in filtered.failed_nodes),
        "support_p50": float(np.percentile(support, 50)),
        "support_p90": float(np.percentile(support, 90)),
        "support_max": int(support.max()),
        "stop_reasons": {r: reasons[r] for r in STOP_REASONS},
        "capped_rows": reasons[STOP_SUPPORT_LIMIT],
        "residual_p50": float(np.percentile(residuals, 50)),
        "residual_p90": float(np.percentile(residuals, 90)),
        "residual_max": float(residuals.max()),
        "max_abs_weight": filtered.max_abs_weight(),
        "max_abs_weight_edge": (
            None if top is None else [int(weights.row[top]), int(weights.col[top])]
        ),
        "max_abs_weight_row_support": (
            None if top is None else int(row_sizes[weights.row[top]])
        ),
    }


def run_pipeline(
    features: FeatureMatrix, labels, config: PipelineConfig
) -> dict:
    """Run the full reduction-and-evaluation pipeline; returns the report.

    ``labels`` may be None, in which case all agreement metrics are null and
    the selection grid is skipped.  Per-theta failures are recorded in that
    theta's sweep entry and the run continues; failures in the shared stages
    abort with the stage name attached.
    """
    if labels is not None:
        labels = np.asarray(labels).reshape(-1)
        if labels.shape[0] != features.n_samples:
            raise DimensionError(
                f"{labels.shape[0]} labels for {features.n_samples} samples"
            )
    if not 1 <= config.k_clusters < features.n_samples:
        raise ParameterError(
            f"k_clusters must lie in [1, {features.n_samples - 1}] for "
            f"{features.n_samples} samples, got {config.k_clusters}"
        )
    clustering = (config.k_clusters, config.seed, config.restarts)
    timings: dict[str, float] = {}
    total_start = time.perf_counter()

    with _stage("normalize", timings):
        normalized, zero_columns = normalize_features(features)

    with _stage("build_sfg", timings):
        graph = build_sfg(normalized, config.epsilon, config.n_jobs)

    with _stage("filter", timings):
        filtered = filter_failed(graph, normalized, np.deg2rad(config.max_angle_deg))

    counts = config.mcfs_counts if labels is not None else ()

    def score(matrix: FeatureMatrix) -> tuple:
        """(nmi, acc, selection grid records) of one matrix."""
        emb, _, nmi_score, acc_score = cluster_scores(matrix, labels, *clustering)
        if not counts:
            return nmi_score, acc_score, []
        with _stage("mcfs", timings):
            grid = mcfs_records(matrix, emb, counts, labels, *clustering)
        return nmi_score, acc_score, grid

    # Clustering is deterministic for a given matrix and seed, so each
    # distinct kept set is scored once, where the run first meets it, and a
    # theta that keeps the same features as the baseline or an earlier theta
    # reuses its scores.  A reduced matrix is released once it is scored.
    with _stage("baseline", timings):
        baseline_nmi, baseline_acc, grid = score(normalized)
    all_kept = np.arange(normalized.n_features, dtype=np.intp).tobytes()
    scored = {all_kept: (baseline_nmi, baseline_acc, grid)}
    mcfs = [{"theta": None, **rec} for rec in grid]

    sweep: list[dict] = []
    with _stage("sweep", timings):
        for theta in config.thetas:
            record = dict(_SWEEP_RECORD, theta=theta)
            try:
                partition = find_lcs(filtered, theta)
                record["retained"] = int(partition.kept.size)
                record["subgraphs"] = len(partition.subgraphs)
                record["singletons"] = len(partition.singletons)
                key = partition.kept.tobytes()
                if key not in scored:
                    scored[key] = score(normalized.subset(partition.kept))
                record["nmi"], record["acc"], grid = scored[key]
                mcfs.extend({"theta": theta, **rec} for rec in grid)
            except SfgraphError as exc:
                record["error"] = str(exc)
            sweep.append(record)

    timings["total"] = (time.perf_counter() - total_start) * 1000.0
    return {
        "config": config.as_dict(),
        "dataset": {
            "n_samples": features.n_samples,
            "n_features": features.n_features,
            "n_label_classes": int(np.unique(labels).size) if labels is not None else None,
            "zero_norm_features": [int(j) for j in zero_columns],
        },
        "graph": _graph_record(graph, filtered),
        "angles": angle_histogram(filtered.angles),
        "baseline": {
            "theta": None,
            "retained": normalized.n_features,
            "nmi": baseline_nmi,
            "acc": baseline_acc,
        },
        "sweep": sweep,
        "mcfs": mcfs,
        "timings_ms": timings,
    }


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_json(payload: dict, path=None) -> None:
    """Write ``payload`` as JSON indented by 2 with a trailing newline, to
    ``path`` or, without one, to stdout."""
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_angles_csv(path, bin_edges, counts, overflow) -> None:
    """Write an angle histogram as CSV: a ``bin_left,bin_right,count`` row per
    bin, then ``<last edge>,inf,<overflow>`` for the undefined angles."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(bin_edges[:-1], bin_edges[1:], counts):
            writer.writerow([repr(float(left)), repr(float(right)), int(count)])
        writer.writerow([repr(float(bin_edges[-1])), "inf", int(overflow)])


def render_report(report: dict, out_dir) -> list[str]:
    """Write report.json, sweep.csv, angles.csv (and mcfs_grid.csv when the
    selection grid ran) into ``out_dir``; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    path = os.path.join(out_dir, "report.json")
    write_json(report, path)
    written.append(path)

    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "retained", "nmi", "acc"])
        base = report["baseline"]
        writer.writerow(["NA", base["retained"], _fmt(base["nmi"]), _fmt(base["acc"])])
        for rec in report["sweep"]:
            writer.writerow(
                [
                    _fmt(rec["theta"]),
                    _fmt(rec["retained"]),
                    _fmt(rec["nmi"]),
                    _fmt(rec["acc"]),
                ]
            )
    written.append(path)

    path = os.path.join(out_dir, "angles.csv")
    write_angles_csv(path, **report["angles"])
    written.append(path)

    if report["mcfs"]:
        path = os.path.join(out_dir, "mcfs_grid.csv")
        columns: list[tuple] = []  # (theta, input_features) in first-seen order
        cells: dict[tuple, dict] = {}
        for rec in report["mcfs"]:
            key = (rec["theta"], rec["input_features"])
            if key not in columns:
                columns.append(key)
            cells[(rec["selected"], key)] = rec
        counts_m = list(dict.fromkeys(r["selected"] for r in report["mcfs"]))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["metric", "m"] + [
                f"input_{f}" if t is None else f"theta_{_fmt(t)}_{f}"
                for t, f in columns
            ]
            writer.writerow(header)
            for metric in ("nmi", "acc"):
                for m in counts_m:
                    row = [metric, m]
                    for key in columns:
                        rec = cells.get((m, key))
                        value = rec[metric] if rec is not None else None
                        row.append("-" if value is None else repr(value))
                    writer.writerow(row)
        written.append(path)
    return written
