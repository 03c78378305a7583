"""Tests for the end-to-end pipeline and its report files."""

import csv
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from sfgraph import (
    DataError,
    DimensionError,
    FeatureMatrix,
    ParameterError,
    PipelineConfig,
    SynthSpec,
    build_sfg,
    filter_failed,
    generate,
    find_lcs,
    kmeans,
    normalize_features,
    run_pipeline,
    render_report,
    select_representatives,
)
from sfgraph import pipeline, sfg


def _synth_dataset(seed=0):
    spec = SynthSpec(
        n_samples=60,
        base_features=6,
        clusters=3,
        separation=8.0,
        duplicate_pairs=3,
        mixture_features=2,
        noise_features=2,
        seed=seed,
    )
    return generate(spec)


def _config(**overrides):
    base = dict(k_clusters=3, seed=0, restarts=5)
    base.update(overrides)
    return PipelineConfig(**base)


def test_report_structure_and_sweep_length():
    matrix, labels, _ = _synth_dataset()
    report = run_pipeline(matrix, labels, _config())
    assert report["baseline"]["theta"] is None
    assert report["baseline"]["retained"] == matrix.n_features
    assert len(report["sweep"]) == 9
    thetas = [rec["theta"] for rec in report["sweep"]]
    assert thetas == [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
    for rec in report["sweep"]:
        assert rec["error"] is None
        assert 1 <= rec["retained"] <= matrix.n_features
        assert 0.0 <= rec["nmi"] <= 1.0
        assert 0.0 <= rec["acc"] <= 1.0
    assert report["dataset"]["n_samples"] == 60
    assert report["dataset"]["n_label_classes"] == 3
    assert int(np.sum(report["angles"]["counts"])) + report["angles"]["overflow"] == (
        matrix.n_features
    )
    assert "build_sfg" in report["timings_ms"]
    assert "total" in report["timings_ms"]


def _wide_dataset():
    # n < d, so some fits stop at the default cap of n // 2 atoms; with this
    # seed the largest weight before the filter is on a row the filter fails
    spec = SynthSpec(
        n_samples=30, base_features=30, clusters=3, separation=8.0,
        duplicate_pairs=15, mixture_features=10, noise_features=10, seed=12,
    )
    return generate(spec)


def test_graph_block_reports_the_solver_diagnostics():
    matrix, labels, _ = _wide_dataset()
    block = run_pipeline(matrix, labels, _config(thetas=(0.5,)))["graph"]
    normalized, _ = normalize_features(matrix)
    graph = build_sfg(normalized)
    filtered = filter_failed(graph, normalized, np.deg2rad(15.0))
    support = np.diff(graph.weights.indptr)
    assert list(block)[:2] == ["edges", "failed_nodes_after_filter"]
    assert block["edges"] == graph.weights.nnz
    assert block["support_p50"] == float(np.percentile(support, 50))
    assert block["support_p90"] == float(np.percentile(support, 90))
    assert block["support_max"] == int(support.max()) == 30 // 2
    reasons = block["stop_reasons"]
    assert set(reasons) == {"converged", "support_limit", "no_usable_atom"}
    assert sum(reasons.values()) == matrix.n_features
    capped = sum(graph.weights[i].nnz == 15 for i in range(matrix.n_features))
    assert block["capped_rows"] == reasons["support_limit"] == capped > 0
    dense = np.abs(filtered.weights.toarray())
    src, dst = np.unravel_index(np.argmax(dense), dense.shape)
    assert block["max_abs_weight"] == dense[src, dst] < graph.max_abs_weight()
    assert block["max_abs_weight_edge"] == [src, dst]


def test_graph_block_reports_the_final_residuals():
    matrix, labels, _ = _wide_dataset()
    block = run_pipeline(matrix, labels, _config(thetas=(0.5,)))["graph"]
    graph = build_sfg(normalize_features(matrix)[0])
    residuals = np.array(list(graph.residuals.values()))
    assert residuals.size == matrix.n_features
    keys = list(block)
    at = keys.index("capped_rows")
    assert keys[at + 1 : at + 4] == ["residual_p50", "residual_p90", "residual_max"]
    assert block["residual_p50"] == float(np.percentile(residuals, 50))
    assert block["residual_p90"] == float(np.percentile(residuals, 90))
    assert block["residual_max"] == float(residuals.max())
    # capped rows keep a residual, and an exact duplicate's fit leaves none
    assert 0.0 <= block["residual_p50"] <= block["residual_p90"] <= block["residual_max"] <= 1.0
    assert block["residual_max"] > 0.0 and min(residuals) <= 1e-24


def test_graph_block_reports_the_support_of_the_largest_weight_row():
    matrix, labels, _ = _wide_dataset()
    block = run_pipeline(matrix, labels, _config(thetas=(0.5,)))["graph"]
    normalized, _ = normalize_features(matrix)
    graph = build_sfg(normalized)
    src, _ = block["max_abs_weight_edge"]
    assert list(block)[-1] == "max_abs_weight_row_support"
    assert block["max_abs_weight_row_support"] == graph.weights[src].nnz > 1
    # orthonormal features: no edge, so no row to measure
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(24, 6)))
    labels = rng.integers(0, 2, size=24)
    empty = run_pipeline(FeatureMatrix(q), labels, _config(k_clusters=2))["graph"]
    assert empty["max_abs_weight_edge"] is None
    assert empty["max_abs_weight_row_support"] is None


def test_a_repeated_kept_set_is_clustered_once(monkeypatch):
    matrix, labels, _ = _synth_dataset(seed=1)
    config = _config()
    normalized, _ = normalize_features(matrix)
    filtered = filter_failed(build_sfg(normalized), normalized, np.deg2rad(15.0))
    kept = [select_representatives(find_lcs(filtered, t)) for t in config.thetas]
    distinct = {k.tobytes() for k in kept}
    assert len(distinct) < len(config.thetas)  # some thetas keep the same set
    assert np.arange(matrix.n_features).tobytes() not in distinct
    calls = []
    real = pipeline.cluster_scores

    def counting(reduced, *args):
        calls.append(reduced.n_features)
        return real(reduced, *args)

    monkeypatch.setattr(pipeline, "cluster_scores", counting)
    report = run_pipeline(matrix, labels, config)
    assert len(calls) == 1 + len(distinct)  # the baseline, then each new set
    for rec, k in zip(report["sweep"], kept):
        _, _, nmi_score, acc_score = real(normalized.subset(k), labels, 3, 0, 5)
        assert (rec["nmi"], rec["acc"]) == (nmi_score, acc_score)


def test_a_run_measures_each_angle_once(monkeypatch):
    matrix, labels, _ = _synth_dataset(seed=1)
    calls = []
    real = sfg.representation_angle

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sfg, "representation_angle", counting)
    run_pipeline(matrix, labels, _config())
    assert len(calls) == 1


def test_retained_counts_never_increase_as_theta_drops():
    matrix, labels, _ = _synth_dataset(seed=1)
    report = run_pipeline(matrix, labels, _config())
    retained = [rec["retained"] for rec in report["sweep"]]
    assert all(b <= a for a, b in zip(retained, retained[1:]))
    # duplicates guarantee at least one removal at high theta
    assert retained[0] < matrix.n_features


def test_noop_reduction_reproduces_baseline_bit_for_bit():
    # orthonormal features cannot represent one another: the graph has no
    # edges, theta=1.0 keeps every feature, and the slice must equal the
    # baseline exactly because both run the same clustering with one seed
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(24, 6)))
    matrix = FeatureMatrix(q)
    labels = rng.integers(0, 2, size=24)
    report = run_pipeline(matrix, labels, _config(k_clusters=2, thetas=(1.0,)))
    record = report["sweep"][0]
    base = report["baseline"]
    assert record["error"] is None
    assert record["retained"] == matrix.n_features
    assert record["nmi"] == base["nmi"]
    assert record["acc"] == base["acc"]


def test_pipeline_without_labels_has_null_metrics_and_no_grid():
    matrix, _, _ = _synth_dataset(seed=2)
    report = run_pipeline(matrix, None, _config(mcfs_counts=(2, 3)))
    assert report["baseline"]["nmi"] is None
    assert report["baseline"]["acc"] is None
    assert all(rec["nmi"] is None for rec in report["sweep"])
    assert report["mcfs"] == []
    assert report["dataset"]["n_label_classes"] is None


def test_per_theta_failure_is_recorded_and_the_run_continues():
    # the near-constant column joins the three constant ones in one group, so
    # after reduction only one constant feature remains: every sample row is
    # identical, the similarity width is undefined, and that theta slice
    # fails while the others still complete
    rng = np.random.default_rng(4)
    constant = np.ones(20)
    cols = np.column_stack(
        [constant, constant, constant, constant + 0.01 * rng.normal(size=20)]
    )
    matrix = FeatureMatrix(cols)
    labels = rng.integers(0, 2, size=20)
    config = _config(k_clusters=2, thetas=(0.5,))
    report = run_pipeline(matrix, labels, config)
    record = report["sweep"][0]
    assert record["error"] is not None
    assert record["retained"] == 1
    assert record["nmi"] is None and record["acc"] is None
    # the shared stages and the baseline still succeeded
    assert report["baseline"]["nmi"] is not None


def test_failed_mcfs_selection_is_recorded_and_the_run_continues():
    # three constant columns and a random one: a selection of constant
    # columns alone leaves every sample identical, so that count fails while
    # the others score
    rng = np.random.default_rng(4)
    constant = np.ones(20)
    cols = np.column_stack([constant, constant, constant, rng.normal(size=20)])
    labels = rng.integers(0, 2, size=20)
    config = _config(k_clusters=2, thetas=(0.5,), mcfs_counts=(1, 2))
    report = run_pipeline(FeatureMatrix(cols), labels, config)
    grid = report["mcfs"]
    assert grid
    for rec in grid:
        scored = rec["nmi"] is not None and rec["acc"] is not None
        failed = rec["error"] is not None and rec["nmi"] is None and rec["acc"] is None
        assert scored != failed, rec
    assert any(rec["error"] is not None for rec in grid)


def test_mcfs_grid_runs_on_baseline_and_reduced_inputs():
    matrix, labels, _ = _synth_dataset(seed=5)
    config = _config(thetas=(0.9, 0.5), mcfs_counts=(2, 4))
    report = run_pipeline(matrix, labels, config)
    grid = report["mcfs"]
    # one record per (input, m): inputs = baseline + 2 successful slices
    assert len(grid) == 3 * 2
    baseline_records = [rec for rec in grid if rec["theta"] is None]
    assert len(baseline_records) == 2
    for rec in grid:
        assert rec["selected"] in (2, 4)
        if rec["selected"] <= rec["input_features"]:
            assert rec["nmi"] is not None


@pytest.mark.parametrize("mcfs_counts", [(), (2,)])
def test_reduced_matrices_are_kept_only_for_the_selection_grid(monkeypatch, mcfs_counts):
    matrix, labels, _ = _synth_dataset(seed=5)
    reduced = []  # weak references to every theta's reduced values
    live = []  # how many of them are alive as each matrix is scored

    def tracked_reduce(features, kept):
        result = pipeline_reduce(features, kept)
        reduced.append(weakref.ref(result.values))
        return result

    def tracked_scores(features, *args):
        live.append(sum(ref() is not None for ref in reduced))
        return cluster_scores(features, *args)

    pipeline_reduce, cluster_scores = pipeline.reduce_matrix, pipeline.cluster_scores
    monkeypatch.setattr(pipeline, "reduce_matrix", tracked_reduce)
    monkeypatch.setattr(pipeline, "cluster_scores", tracked_scores)
    thetas = (0.9, 0.5, 0.3, 0.1)
    report = run_pipeline(matrix, labels, _config(thetas=thetas, mcfs_counts=mcfs_counts))
    # every theta keeps a set of its own, so the baseline and each theta
    # are scored in turn
    assert [rec["retained"] for rec in report["sweep"]] == [12, 11, 7, 6]
    assert len(reduced) == len(thetas)
    if mcfs_counts:
        # the grid reads every theta's reduced matrix after the sweep
        assert live[:5] == [0, 1, 2, 3, 4]
    else:
        # without it only the theta being scored holds its reduced matrix
        assert live == [0, 1, 1, 1, 1]
    assert all(ref() is None for ref in reduced)


def test_a_clustering_pass_holds_one_n_by_n_array():
    # the distances become the weights in place, and the eigensolver
    # applies the normalized matrix to them without forming it
    n = 1000
    features = FeatureMatrix(np.random.default_rng(23).normal(size=(n, 16)))
    labels = np.arange(n) % 10
    tracemalloc.start()
    try:
        pipeline.cluster_scores(features, labels, 10, 0, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8, peak


def test_oversized_selection_count_is_a_null_cell():
    matrix, labels, _ = _synth_dataset(seed=6)
    config = _config(thetas=(0.9,), mcfs_counts=(matrix.n_features + 5,))
    report = run_pipeline(matrix, labels, config)
    assert all(rec["nmi"] is None for rec in report["mcfs"])


def test_pipeline_is_deterministic_ignoring_timings():
    matrix, labels, _ = _synth_dataset(seed=7)
    config = _config(mcfs_counts=(3,))
    a = run_pipeline(matrix, labels, config)
    b = run_pipeline(matrix, labels, config)
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_label_length_mismatch_is_rejected():
    matrix, _, _ = _synth_dataset(seed=8)
    with pytest.raises(DimensionError):
        run_pipeline(matrix, np.zeros(3, dtype=int), _config())


def test_cluster_count_is_checked_before_any_stage(monkeypatch):
    matrix, labels, _ = _synth_dataset(seed=8)

    def explode(*args, **kwargs):
        raise AssertionError("a stage ran before the cluster-count check")

    monkeypatch.setattr("sfgraph.pipeline.normalize_features", explode)
    for k in (matrix.n_samples, matrix.n_samples + 1):
        with pytest.raises(ParameterError) as err:
            run_pipeline(matrix, labels, _config(k_clusters=k))
        assert "k_clusters" in str(err.value)


def test_stage_errors_carry_the_stage_name():
    # a single-feature matrix cannot form a graph; the failure names the stage
    matrix = FeatureMatrix(np.ones((10, 2)) * np.array([1.0, 2.0]))
    bad = FeatureMatrix(matrix.values[:, :1].reshape(10, 1))
    with pytest.raises(ParameterError) as err:
        run_pipeline(bad, None, _config())
    assert "build_sfg" in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_cells_fail_the_normalize_stage():
    # the Python API accepts any float cell; the first stage refuses them
    matrix, labels, _ = _synth_dataset()
    values = matrix.values.copy()
    values[4, 3] = np.nan
    with pytest.raises(DataError) as err:
        run_pipeline(FeatureMatrix(values), labels, _config())
    assert str(err.value) == "stage 'normalize': non-finite value in feature column 3"


def test_config_validation():
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=0)
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=2, epsilon=0.0)
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=2, max_angle_deg=0.0)
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=2, max_angle_deg=90.5)
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=2, thetas=())
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=2, thetas=(0.5, 1.2))
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=2, thetas=(0.0,))
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=2, mcfs_counts=(0,))
    with pytest.raises(ParameterError):
        PipelineConfig(k_clusters=2, restarts=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PipelineConfig(k_clusters=2, seed=-1),
        lambda: SynthSpec(n_samples=10, base_features=2, seed=-1),
        lambda: kmeans(np.eye(4), 2, seed=-1),
    ],
    ids=["PipelineConfig", "SynthSpec", "kmeans"],
)
def test_negative_seed_is_a_parameter_error(build):
    with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
        build()


# --------------------------------------------------------------------------
# rendered files


def test_report_json_round_trips(tmp_path):
    matrix, labels, _ = _synth_dataset(seed=9)
    report = run_pipeline(matrix, labels, _config(thetas=(0.9, 0.5)))
    written = render_report(report, tmp_path)
    with open(tmp_path / "report.json") as fh:
        parsed = json.load(fh)
    assert parsed == report
    assert str(tmp_path / "report.json") in written


def test_sweep_csv_has_baseline_row_first(tmp_path):
    matrix, labels, _ = _synth_dataset(seed=10)
    report = run_pipeline(matrix, labels, _config())
    render_report(report, tmp_path)
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "retained", "nmi", "acc"]
    assert len(rows) == 1 + 1 + 9  # header + baseline + one row per theta
    assert rows[1][0] == "NA"
    assert int(rows[1][1]) == matrix.n_features
    assert [row[0] for row in rows[2:]] == [
        "0.9", "0.8", "0.7", "0.6", "0.5", "0.4", "0.3", "0.2", "0.1",
    ]


def test_failed_slice_renders_na_metrics(tmp_path):
    rng = np.random.default_rng(11)
    constant = np.ones(20)
    cols = np.column_stack(
        [constant, constant, constant, constant + 0.01 * rng.normal(size=20)]
    )
    matrix = FeatureMatrix(cols)
    labels = rng.integers(0, 2, size=20)
    config = _config(k_clusters=2, thetas=(0.5,))
    report = run_pipeline(matrix, labels, config)
    render_report(report, tmp_path)
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[2][2] == "NA" and rows[2][3] == "NA"


def test_angles_csv_rows_and_overflow(tmp_path):
    matrix, labels, _ = _synth_dataset(seed=12)
    report = run_pipeline(matrix, labels, _config())
    render_report(report, tmp_path)
    with open(tmp_path / "angles.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_left", "bin_right", "count"]
    assert len(rows) == 1 + 18 + 1  # header + bins + overflow row
    assert rows[-1][1] == "inf"
    in_bins = sum(int(row[2]) for row in rows[1:-1])
    assert in_bins + int(rows[-1][2]) == matrix.n_features


def test_mcfs_grid_csv_only_when_grid_ran(tmp_path):
    matrix, labels, _ = _synth_dataset(seed=13)
    no_grid = run_pipeline(matrix, labels, _config(thetas=(0.9,)))
    out_a = tmp_path / "no_grid"
    written = render_report(no_grid, out_a)
    assert not (out_a / "mcfs_grid.csv").exists()
    assert len(written) == 3

    with_grid = run_pipeline(
        matrix, labels, _config(thetas=(0.9,), mcfs_counts=(2, 30))
    )
    out_b = tmp_path / "grid"
    render_report(with_grid, out_b)
    with open(out_b / "mcfs_grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:2] == ["metric", "m"]
    assert header[2].startswith("input_")
    assert header[3].startswith("theta_0.9_")
    # metric block ordering: all nmi rows, then all acc rows
    assert [row[0] for row in rows[1:]] == ["nmi", "nmi", "acc", "acc"]
    # m=30 exceeds the reduced width for at least one input -> "-" cells
    flat = [cell for row in rows[1:] for cell in row[2:]]
    assert "-" in flat


def test_rendered_reports_are_deterministic(tmp_path):
    matrix, labels, _ = _synth_dataset(seed=14)
    config = _config(thetas=(0.7, 0.3), mcfs_counts=(3,))
    for name in ("one", "two"):
        render_report(run_pipeline(matrix, labels, config), tmp_path / name)
    reports = []
    for name in ("one", "two"):
        with open(tmp_path / name / "report.json") as fh:
            data = json.load(fh)
        data.pop("timings_ms")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]
    for csv_name in ("sweep.csv", "angles.csv", "mcfs_grid.csv"):
        a = (tmp_path / "one" / csv_name).read_bytes()
        b = (tmp_path / "two" / csv_name).read_bytes()
        assert a == b, csv_name
