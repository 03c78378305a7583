"""The benchmark's workloads: inputs, measured passes, output checks, metrics.

A *pass* is one complete unit of user work on a workload: one
``run_pipeline`` call for the pipeline workloads, one theta exploration over
a saved graph (``lcs``, ``reduce`` and ``eval-sc`` at every default theta,
plus one ``eval-mcfs``) for ``cli-explore``.  A run repeats passes until its
time is used, checks every pass's outputs, and reports medians.  Inputs come
from ``sfgraph.synth`` with the run's seed; the shapes do not depend on it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import sfgraph.cli
import sfgraph.evaluate
import sfgraph.pipeline
import sfgraph.sfg
from sfgraph.matrix import normalize_features
from sfgraph.omp import omp
from sfgraph.pipeline import DEFAULT_THETAS, PipelineConfig, run_pipeline
from sfgraph.sfg import build_sfg, save_sfg
from sfgraph.synth import SynthSpec, generate

import checks
from tracing import PUBLIC, READS, WRITES, Recorder, self_seconds

# A fit whose support reaches this share of the sample count is "saturated":
# its weights are ill-conditioned and can set the graph's weight scale.
SATURATED_SHARE = 0.9
MAX_ANGLE_DEG = 15.0
LSTSQ_ROWS = 8  # graph rows checked against lstsq in every pass
OMP_ROWS = 24  # leave-one-out rows fitted through the public omp() when tracing
# Datasets per untraced run, all of the workload's shape: passes rotate over
# them, so one run's quality figures average over this many draws.
DATASETS = 3
MIN_PASSES = DATASETS
MCFS_COUNTS = (10, 20, 40)
PROBE_THETA = 0.5

# Call sites whose references to public functions get wrapped.
SITES = (
    (sfgraph.pipeline, None),
    (sfgraph.cli, None),
    (sfgraph.evaluate, ("kmeans", "pairwise_euclidean")),
    (sfgraph.sfg, ("representation_angle",)),
)
# Results the output checks need, kept in untraced runs too.
CAPTURED = ("build_sfg", "filter_failed", "find_lcs")
LAYERS = ("matrix", "omp", "sfg", "lcs", "evaluate", "pipeline", "cli")
STAGES = ("normalize", "build_sfg", "angle_histogram", "filter", "baseline", "sweep", "total")
CLI_COMMANDS = ("lcs", "reduce", "eval-sc", "eval-mcfs")

ORL_SHAPE = dict(
    n_samples=240,
    base_features=240,
    clusters=10,
    separation=8.0,
    duplicate_pairs=180,
    mixture_features=120,
    noise_features=74,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" or "cli"
    spec: dict
    k: int


# Why each workload exists is in BENCHMARK.json and DESIGN.md: orl-wide is
# solver-bound (n < d), tall evaluation-bound (n > d), cli-explore file-bound.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("orl-wide", "pipeline", ORL_SHAPE, 10),
        Workload(
            "tall",
            "pipeline",
            dict(
                n_samples=1000,
                base_features=64,
                clusters=10,
                separation=8.0,
                duplicate_pairs=32,
                mixture_features=16,
                noise_features=16,
            ),
            10,
        ),
        Workload("cli-explore", "cli", ORL_SHAPE, 10),
    )
}


@dataclass
class Inputs:
    seed: int  # the synth seed of this dataset
    features: object
    labels: np.ndarray
    truth: dict
    values: np.ndarray  # column-normalized with numpy alone, for the oracles
    files: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])


def _spec(workload: Workload, seed: int) -> SynthSpec:
    return SynthSpec(seed=seed, **workload.spec)


def dataset_seeds(seed: int, count: int) -> list[int]:
    """Synth seeds of a run's datasets, all derived from the run's seed."""
    return [int(np.random.SeedSequence([seed, j]).generate_state(1)[0]) for j in range(count)]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(rec: Recorder, argv: list[str]) -> int:
    """One in-process CLI call, as a ``cli.<command>`` span, stdout discarded."""
    with rec.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
        return sfgraph.cli.main(argv)


# ---------------------------------------------------------------------------
# set-up


def _synth_argv(spec: SynthSpec, out: str) -> list[str]:
    return [
        "synth", "--n", str(spec.n_samples), "--base", str(spec.base_features),
        "--clusters", str(spec.clusters), "--separation", repr(spec.separation),
        "--dup-pairs", str(spec.duplicate_pairs), "--mixtures", str(spec.mixture_features),
        "--noise", str(spec.noise_features), "--seed", str(spec.seed), "--out", out,
    ]


def setup(workload: Workload, seed: int, rec: Recorder, work: str, tag: str) -> Inputs:
    """Generate the inputs; for the CLI workload also write them and fit the
    saved graph with ``sfgraph synth`` and ``sfgraph sfg``."""
    spec = _spec(workload, seed)
    if workload.kind == "pipeline":
        features, labels, truth = generate(spec)
        values = features.values / np.linalg.norm(features.values, axis=0)
        return Inputs(seed, features, labels, truth, values)
    data = os.path.join(work, tag)
    code = _cli(rec, _synth_argv(spec, data))
    graph = os.path.join(data, "graph.tsv")
    code = code or _cli(
        rec,
        ["sfg", "--input", os.path.join(data, "data.csv"), "--out", graph,
         "--max-angle-deg", repr(MAX_ANGLE_DEG)],
    )
    if code != 0:
        raise RuntimeError(f"CLI set-up exited with code {code}")
    features, labels, truth = generate(spec)
    values = features.values / np.linalg.norm(features.values, axis=0)
    with open(os.path.join(data, "data.csv")) as fh:
        names = fh.readline().strip().split(",")
    files = {
        "data": os.path.join(data, "data.csv"),
        "labels": os.path.join(data, "labels.txt"),
        "graph": graph,
        "names": names,
    }
    return Inputs(seed, features, labels, truth, values, files)


# ---------------------------------------------------------------------------
# pipeline passes


def pipeline_config(workload: Workload) -> PipelineConfig:
    return PipelineConfig(k_clusters=workload.k, max_angle_deg=MAX_ANGLE_DEG, n_jobs=1)


def pipeline_pass(workload: Workload, inputs: Inputs, rec: Recorder):
    """(seconds, report) of one timed ``run_pipeline`` call."""
    config = pipeline_config(workload)
    start = time.perf_counter()
    with rec.span("pipeline.run_pipeline"):
        report = run_pipeline(inputs.features, inputs.labels, config)
    return time.perf_counter() - start, report


def check_pipeline(inputs: Inputs, report: dict, rec: Recorder, tally: Tally):
    """Check one pass; returns its quality record (per-theta numbers)."""
    graphs = rec.take("build_sfg")
    filtered = rec.take("filter_failed")
    partitions = rec.take("find_lcs")
    values = inputs.values
    d = values.shape[1]
    if len(graphs) != 1 or len(filtered) != 1:
        tally.op("graph", ["pipeline did not build and filter exactly one graph"])
        for _ in report["sweep"]:
            tally.op("theta", ["no graph to check against"])
        return None
    graph, filt = graphs[0], filtered[0]
    problems = checks.graph_rows(values, graph.weights, checks.sample_rows(d, LSTSQ_ROWS, inputs.seed, 1))
    problems += checks.surviving_angles(values, filt.weights, filt.failed_nodes, MAX_ANGLE_DEG)
    if report["graph"]["edges"] != graph.weights.nnz:
        problems.append("report edge count differs from the graph")
    if report["graph"]["failed_nodes_after_filter"] != sorted(filt.failed_nodes):
        problems.append("report failed nodes differ from the filtered graph")
    tally.op("graph", problems)

    by_theta = {p.theta: p for p in partitions}
    per_theta = []
    retained = {}
    for rec_theta in report["sweep"]:
        theta = rec_theta["theta"]
        problems = [rec_theta["error"]] if rec_theta["error"] else []
        oracle = checks.components(filt.weights, theta)
        sizes = np.bincount(oracle)
        if theta not in by_theta or not checks.same_partition(by_theta[theta].labels, oracle):
            problems.append(f"partition at theta {theta} differs from connected components")
        if rec_theta["retained"] != sizes.size or rec_theta["subgraphs"] != int((sizes > 1).sum()):
            problems.append(f"retained/subgraph counts at theta {theta} differ from the oracle")
        retained[theta] = rec_theta["retained"] if rec_theta["retained"] is not None else d
        recall = checks.planted_recall(oracle, inputs.truth["duplicates"])
        per_theta.append(
            {"theta": theta, "retained": rec_theta["retained"], "subgraphs": rec_theta["subgraphs"],
             "nmi": rec_theta["nmi"], "acc": rec_theta["acc"], "dup_recall": recall}
        )
        tally.op("theta", problems)
    tally.op("sweep", checks.monotone_retained(retained))
    stripped = {k: v for k, v in report.items() if k != "timings_ms"}
    return {"digest": _digest(stripped), "per_theta": per_theta, "graph": graph, "filtered": filt}


# ---------------------------------------------------------------------------
# CLI passes


def cli_pass(workload: Workload, inputs: Inputs, rec: Recorder, out: str):
    """(seconds, exit codes) of one timed theta exploration."""
    f = inputs.files
    codes = {}
    start = time.perf_counter()
    for theta in DEFAULT_THETAS:
        part, red, ev = (os.path.join(out, f"{s}-{theta}") for s in ("part", "reduced", "eval"))
        codes[("lcs", theta)] = _cli(
            rec, ["lcs", "--graph", f["graph"], "--theta", repr(theta), "--out", part])
        codes[("reduce", theta)] = _cli(
            rec, ["reduce", "--input", f["data"], "--graph", f["graph"],
                  "--theta", repr(theta), "--out", red])
        codes[("eval-sc", theta)] = _cli(
            rec, ["eval-sc", "--input", red, "--labels", f["labels"],
                  "--k", str(workload.k), "--out", ev])
    mcfs = ["eval-mcfs", "--input", f["data"], "--labels", f["labels"], "--k", str(workload.k)]
    for m in MCFS_COUNTS:
        mcfs += ["--m", str(m)]
    codes[("eval-mcfs", None)] = _cli(rec, mcfs + ["--out", os.path.join(out, "mcfs")])
    return time.perf_counter() - start, codes


def check_cli(inputs: Inputs, codes: dict, out: str, weights, tally: Tally):
    """Check one exploration's files against the independently parsed graph."""
    d = weights.shape[0]
    names = inputs.files["names"]
    sha = hashlib.sha256()
    per_theta = []
    retained = {}
    for theta in DEFAULT_THETAS:
        part, red, ev = (os.path.join(out, f"{s}-{theta}") for s in ("part", "reduced", "eval"))
        oracle = checks.components(weights, theta)
        kept = checks.expected_kept(weights, oracle)

        problems = [f"exit code {codes[('lcs', theta)]}"] if codes[("lcs", theta)] else []
        labels = None
        if not problems:
            labels, reps = checks.read_partition(part, d)
            if (labels < 0).any() or not checks.same_partition(labels, oracle):
                problems.append(f"partition at theta {theta} differs from connected components")
            elif not set(reps) <= set(kept.tolist()):
                problems.append(f"representative at theta {theta} is not the top in-degree member")
        tally.op("lcs", problems)

        problems = [f"exit code {codes[('reduce', theta)]}"] if codes[("reduce", theta)] else []
        width = None
        if not problems:
            with open(red) as fh:
                header = fh.readline().strip().split(",")
            width = len(header)
            if header != [names[j] for j in kept]:
                problems.append(f"reduced columns at theta {theta} do not match the partition")
        tally.op("reduce", problems)
        retained[theta] = width if width is not None else d

        code = codes[("eval-sc", theta)]
        scores = {}
        if width is not None and width < 2:
            # load_csv rejects a matrix of fewer than 2 features with a
            # DimensionError, which the CLI documents as exit code 2.
            problems = [] if code == 2 else [f"exit code {code} on {width} feature, expected 2"]
        else:
            problems = [f"exit code {code}"] if code else []
        if not problems and code == 0:
            with open(ev) as fh:
                scores = json.load(fh)
            if scores["n_features"] != width or not (0 <= scores["nmi"] <= 1 and 0 <= scores["acc"] <= 1):
                problems.append(f"eval-sc output at theta {theta} is inconsistent")
        tally.op("eval-sc", problems)

        for path in (part, red, ev):
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    sha.update(fh.read())
        per_theta.append(
            {"theta": theta, "retained": width, "subgraphs": len(reps) if labels is not None else None,
             "nmi": scores.get("nmi"), "acc": scores.get("acc"),
             "dup_recall": checks.planted_recall(labels, inputs.truth["duplicates"])
             if labels is not None else None}
        )
    tally.op("sweep", checks.monotone_retained(retained))

    code = codes[("eval-mcfs", None)]
    problems = [f"exit code {code}"] if code else []
    if not problems:
        with open(os.path.join(out, "mcfs"), "rb") as fh:
            raw = fh.read()
        sha.update(raw)
        records = json.loads(raw)["records"]
        if [r["selected"] for r in records] != list(MCFS_COUNTS) or any(
            r["nmi"] is None or not 0 <= r["nmi"] <= 1 for r in records
        ):
            problems.append("eval-mcfs records are incomplete or out of range")
    tally.op("eval-mcfs", problems)
    return {"digest": sha.hexdigest()[:16], "per_theta": per_theta}


# ---------------------------------------------------------------------------
# driving a run


def _quality(per_theta: list[dict], d: int) -> dict:
    def mean(key):
        vals = [r[key] for r in per_theta if r[key] is not None]
        return float(np.mean(vals)) if vals else 0.0

    return {
        "nmi_mean": mean("nmi"),
        "acc_mean": mean("acc"),
        "retained_frac": mean("retained") / d,
        "dup_recall": mean("dup_recall"),
    }


def _quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": q2, "p25": q1, "p75": q3, "samples": len(xs), "each": xs}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, out: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(out, "work")
        self.tally = Tally()
        self.fingerprints: dict[int, dict] = {}  # dataset index -> first pass's record
        spec = _spec(workload, seed)
        self.shape = {"n_samples": spec.n_samples, "n_features": spec.n_features}

    # -- one pass -------------------------------------------------------
    def one_pass(self, j: int, inputs: Inputs, rec: Recorder, weights):
        """Time one pass on dataset ``j`` and check it; returns (seconds,
        quality record), or (None, None) when the pass raised."""
        try:
            if self.workload.kind == "pipeline":
                seconds, report = pipeline_pass(self.workload, inputs, rec)
                quality = check_pipeline(inputs, report, rec, self.tally)
                if quality is not None:
                    quality["report"] = report
            else:
                out = os.path.join(self.work, "pass")
                shutil.rmtree(out, ignore_errors=True)  # no file may outlive its pass
                os.makedirs(out)
                seconds, codes = cli_pass(self.workload, inputs, rec, out)
                quality = check_cli(inputs, codes, out, weights, self.tally)
        except Exception:  # a pass that raises is a failed operation; keep running
            traceback.print_exc(file=sys.stderr)
            self.tally.op("pass", ["raised"])
            return None, None
        first = self.fingerprints.get(j)
        if quality is not None and first is None:
            self.fingerprints[j] = {
                "seed": inputs.seed, "digest": quality["digest"], "per_theta": quality["per_theta"]}
        elif quality is not None:
            same = first["digest"] == quality["digest"]
            self.tally.op("repeat", [] if same else ["outputs differ from this dataset's first pass"])
        return seconds, quality

    def passes(self, datasets, rec, min_passes, budget, name="pass"):
        """Repeat passes, rotating over ``datasets`` (pairs of inputs and
        checked graph), while the next one is expected to fit the budget.

        Returns the pass times, quality records and, per pass, the k-means
        iterations of the kept ``kmeans`` results (traced runs only)."""
        times, qualities, kmeans_iters = [], [], []
        start = time.perf_counter()
        count = 0
        while True:
            j = count % len(datasets)
            count += 1
            rec.run = f"{name}-{count}"
            inputs, weights = datasets[j]
            seconds, quality = self.one_pass(j, inputs, rec, weights)
            kmeans_iters.append(sum(r.n_iter for r in rec.take("kmeans")))
            if seconds is not None:
                times.append(seconds)
                qualities.append(quality)
            elapsed = time.perf_counter() - start
            if count >= min_passes and elapsed + (seconds or 0.0) > budget:
                return times, qualities, kmeans_iters

    def graph_ref(self, inputs: Inputs):
        """The CLI workload's saved graph, parsed and checked once per dataset."""
        if self.workload.kind != "cli":
            return None
        weights, failed = checks.read_graph_tsv(inputs.files["graph"])
        d = weights.shape[0]
        rows = checks.sample_rows(d, LSTSQ_ROWS, inputs.seed, 1)
        problems = checks.graph_rows(inputs.values, weights, rows)
        problems += checks.surviving_angles(inputs.values, weights, failed, MAX_ANGLE_DEG)
        self.tally.op("graph", problems)
        return weights

    # -- untraced run -----------------------------------------------------
    def measure(self, import_s: float) -> dict:
        rec = Recorder(timing=False, keep=CAPTURED)
        rec.install(SITES, names=CAPTURED)
        try:
            datasets, setup_times = [], []
            for j, seed in enumerate(dataset_seeds(self.seed, DATASETS)):
                start = time.perf_counter()
                inputs = setup(self.workload, seed, rec, self.work, f"data-{j}")
                setup_times.append(time.perf_counter() - start)
                datasets.append((inputs, self.graph_ref(inputs)))
            times, _, _ = self.passes(datasets, rec, MIN_PASSES, self.seconds)
        finally:
            rec.restore()
        d = self.shape["n_features"]
        per_dataset = [_quality(fp["per_theta"], d) for fp in self.fingerprints.values()]
        quality = {k: float(np.mean([q[k] for q in per_dataset])) for k in per_dataset[0]} if per_dataset else {}
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "run_s": statistics.median(times) if times else 0.0,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_mb,
            **{k: quality.get(k, 0.0) for k in ("nmi_mean", "acc_mean", "retained_frac")},
            "ok_frac": 1.0 - self.tally.failed / max(1, self.tally.attempted),
        }
        self.detail = {
            "run_s": _quartiles(times) if times else None,
            "setup_s": {"import_s": import_s, "each": setup_times},
            "fail_frac": self.tally.failed / max(1, self.tally.attempted),
            "dup_recall": quality.get("dup_recall"),
        }
        return metrics

    # -- traced run -------------------------------------------------------
    def trace(self) -> dict:
        """One untraced pass, then traced passes for the rest of the time, then
        a probe of the layers the passes do not reach."""
        w = self.workload
        start = time.perf_counter()
        rec = Recorder(timing=False, keep=CAPTURED)
        rec.install(SITES, names=CAPTURED)
        try:
            seed = dataset_seeds(self.seed, 1)[0]
            inputs = setup(w, seed, rec, self.work, "data-0")
            datasets = [(inputs, self.graph_ref(inputs))]
            untraced_s, _, _ = self.passes(datasets, rec, 1, 0.0, "untraced")
        finally:
            rec.restore()
        rec = Recorder(timing=True, keep=CAPTURED + ("kmeans",))
        rec.install(SITES)
        try:
            if w.kind == "cli":  # traced too: the set-up holds this workload's graph fit
                rec.run = "setup"
                inputs = setup(w, seed, rec, self.work, "data-traced")
                graph, filtered = rec.take("build_sfg")[0], rec.take("filter_failed")[0]
            budget = self.seconds - (time.perf_counter() - start)
            traced_s, qualities, kmeans_iters = self.passes(datasets, rec, 1, budget)
            rec.run = "probe"
            if w.kind == "pipeline":
                graph, filtered = qualities[0]["graph"], qualities[0]["filtered"]
                self.probe_cli(inputs, rec, filtered)
            else:
                with rec.span("pipeline.run_pipeline"):
                    report = run_pipeline(inputs.features, inputs.labels, pipeline_config(w))
                qualities.append({"report": report})
            normalized, _ = normalize_features(inputs.features)
            omp_fits = self.probe_omp(normalized.values, seed, rec, graph)
            jobs2_s = self.probe_jobs(normalized, rec, graph)
        finally:
            rec.restore()
        runs = [f"pass-{i + 1}" for i in range(len(traced_s))]
        metrics = layer_metrics(
            rec.spans, runs, graph, filtered, inputs, qualities, omp_fits, kmeans_iters, jobs2_s)
        metrics["trace.overhead_s"] = statistics.median(traced_s) - untraced_s[0]
        metrics["trace.spans"] = sum(s.run in runs for s in rec.spans) / len(runs)
        self.spans = rec.dump()
        self.detail = {
            "untraced_run_s": untraced_s[0],
            "traced_run_s": _quartiles(traced_s),
            "layer_share": layer_shares(rec.spans, runs),
            "fail_frac": self.tally.failed / max(1, self.tally.attempted),
        }
        return metrics

    def probe_cli(self, inputs: Inputs, rec: Recorder, filtered) -> None:
        """Exercise the file layers and the CLI once on a pipeline workload's data."""
        spec = _spec(self.workload, inputs.seed)
        data = os.path.join(self.work, "probe")
        code = _cli(rec, _synth_argv(spec, data))
        graph = os.path.join(data, "graph.tsv")
        with rec.span("sfg.save_sfg", graph):
            save_sfg(filtered, graph)
        csv, labels = os.path.join(data, "data.csv"), os.path.join(data, "labels.txt")
        theta = repr(PROBE_THETA)
        red = os.path.join(data, "reduced.csv")
        for argv in (
            ["lcs", "--graph", graph, "--theta", theta, "--out", os.path.join(data, "part")],
            ["reduce", "--input", csv, "--graph", graph, "--theta", theta, "--out", red],
            ["eval-sc", "--input", red, "--labels", labels, "--k", str(self.workload.k),
             "--out", os.path.join(data, "eval")],
            ["eval-mcfs", "--input", csv, "--labels", labels, "--k", str(self.workload.k),
             "--m", str(MCFS_COUNTS[0]), "--out", os.path.join(data, "mcfs")],
        ):
            code = code or _cli(rec, argv)
        self.tally.op("probe-cli", [f"exit code {code}"] if code else [])

    def probe_omp(self, values: np.ndarray, seed: int, rec: Recorder, graph) -> list[dict]:
        """Fit seeded leave-one-out rows through the public ``omp()``; the
        dictionary copy is made outside the span."""
        d = values.shape[1]
        w = graph.weights
        fits = []
        problems = []
        for i in checks.sample_rows(d, OMP_ROWS, seed, 2):
            dictionary = np.asfortranarray(np.delete(values, i, axis=1))
            with rec.span("omp.omp"):
                rep = omp(dictionary, values[:, i])
            support = np.where(rep.support < i, rep.support, rep.support + 1)
            order = np.argsort(support)
            lo, hi = w.indptr[i], w.indptr[i + 1]
            if not np.array_equal(support[order], w.indices[lo:hi]) or not np.allclose(
                rep.coefficients[order], w.data[lo:hi], rtol=0, atol=checks.LSTSQ_RTOL
                * max(1.0, float(np.max(np.abs(w.data[lo:hi]), initial=0.0)))
            ):
                problems.append(f"omp() on row {i} differs from the graph row")
            fits.append(
                {"seconds": rec.spans[-1].seconds, "iters": len(rep.residual_norms) - 1,
                 "stop": rep.stop_reason}
            )
        self.tally.op("probe-omp", problems)
        return fits

    def probe_jobs(self, normalized, rec: Recorder, graph) -> float:
        """Seconds of one ``build_sfg(n_jobs=2)``, whose graph must equal the
        one-job graph."""
        start = time.perf_counter()
        with rec.span("sfg.build_sfg_2jobs"):
            two = build_sfg(normalized, n_jobs=2)
        seconds = time.perf_counter() - start
        same = (two.weights != graph.weights).nnz == 0
        self.tally.op("probe-jobs", [] if same else ["n_jobs=2 graph differs from n_jobs=1"])
        return seconds


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced run


def _pick(spans, names, runs):
    """Spans with one of ``names``, from the traced passes when they have any
    (as a per-pass mean divisor), else from the set-up, else from the probe."""
    main = [s for s in spans if s.name in names and s.run in runs]
    if main:
        return main, len(runs)
    for run in ("setup", "probe"):
        other = [s for s in spans if s.name in names and s.run == run]
        if other:
            return other, 1
    return [], 1


def _names(attrs) -> tuple[str, ...]:
    return tuple(f"{PUBLIC[a][0]}.{a}" for a in attrs)


def layer_shares(spans, runs) -> dict:
    """Share of the traced passes' time per layer (self time), and the
    inclusive shares the workloads are meant to be bound by."""
    own = self_seconds(spans)
    main = [s for s in spans if s.run in runs]
    by_id = {s.id: s for s in main}
    total = sum(s.seconds for s in main if s.parent is None)
    shares = {}
    for s in main:
        layer = s.name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own[s.id] / total

    def inclusive(pred):
        # Spans matching pred whose parent does not match, so nothing counts twice.
        return sum(
            s.seconds for s in main
            if pred(s.name) and not (s.parent in by_id and pred(by_id[s.parent].name))
        ) / total

    shares["incl.sfg.build_sfg"] = inclusive(lambda n: n == "sfg.build_sfg")
    shares["incl.evaluate"] = inclusive(lambda n: n.startswith("evaluate."))
    shares["incl.file_io"] = inclusive(lambda n: n in _names(READS + WRITES))
    return {k: round(v, 4) for k, v in sorted(shares.items())}


def layer_metrics(spans, runs, graph, filtered, inputs, qualities, omp_fits, kmeans_iters, jobs2_s):
    """Every per-layer metric of a traced run, by name."""
    n, d = inputs.values.shape
    m = {}

    def seconds(*names):
        picked, div = _pick(spans, names, runs)
        return sum(s.seconds for s in picked) / div

    fit_ms = [f["seconds"] * 1e3 for f in omp_fits]
    iters = [f["iters"] for f in omp_fits]
    stops = [f["stop"] for f in omp_fits]
    support = np.diff(graph.weights.indptr)
    m["omp.fit_ms_p50"] = float(np.percentile(fit_ms, 50))
    m["omp.fit_ms_p90"] = float(np.percentile(fit_ms, 90))
    m["omp.iters_p50"] = float(np.percentile(iters, 50))
    m["omp.ms_per_iter"] = sum(fit_ms) / max(1, sum(iters))
    m["omp.support_p50"] = float(np.median(support))
    m["omp.support_max"] = float(support.max())
    m["omp.saturated_fits"] = float((support >= SATURATED_SHARE * n).sum())
    for reason in ("converged", "support_limit", "no_usable_atom"):
        key = "no_atom" if reason == "no_usable_atom" else reason
        m[f"omp.stop_{key}"] = float(stops.count(reason))

    build_s = seconds("sfg.build_sfg")
    m["sfg.build_s"] = build_s
    m["sfg.build_ms_per_feature"] = build_s * 1e3 / d
    m["sfg.build_speedup_2jobs"] = build_s / jobs2_s
    m["sfg.edges"] = float(graph.weights.nnz)
    m["sfg.max_abs_weight"] = graph.max_abs_weight()
    m["sfg.angle_s"] = seconds("sfg.representation_angle")
    m["sfg.filter_s"] = seconds("sfg.filter_failed")
    m["sfg.filter_pass_frac"] = 1.0 - len(filtered.failed_nodes) / d
    m["sfg.save_s"] = seconds("sfg.save_sfg")
    m["sfg.load_s"] = seconds("sfg.load_sfg")
    saved, _ = _pick(spans, ("sfg.save_sfg",), runs)
    m["sfg.tsv_mb"] = saved[0].bytes / 1e6 if saved else 0.0

    per_theta = next(q["per_theta"] for q in qualities if "per_theta" in q)
    m["lcs.find_s"] = seconds("lcs.find_lcs")
    m["lcs.select_s"] = seconds("lcs.select_representatives")
    m["lcs.reduce_s"] = seconds("lcs.reduce_matrix")
    m["lcs.subgraphs"] = float(sum(r["subgraphs"] or 0 for r in per_theta))
    m["lcs.dup_recall"] = _quality(per_theta, d)["dup_recall"]
    m["lcs.reducing_theta_frac"] = float(
        np.mean([r["retained"] is not None and r["retained"] < d for r in per_theta]))

    m["evaluate.similarity_s"] = seconds("evaluate.gaussian_similarity")
    m["evaluate.eigen_s"] = seconds("evaluate.spectral_embedding")
    m["evaluate.njw_s"] = seconds("evaluate.njw_cluster")
    m["evaluate.kmeans_s"] = seconds("evaluate.kmeans")
    m["evaluate.kmeans_iters"] = float(statistics.median(kmeans_iters))
    m["evaluate.score_s"] = seconds("evaluate.nmi", "evaluate.acc")
    m["evaluate.mcfs_s"] = seconds("evaluate.mcfs_select")
    picked, div = _pick(spans, ("evaluate.njw_cluster",), runs)
    m["evaluate.cluster_calls"] = len(picked) / div

    loads, _ = _pick(spans, ("matrix.load_csv",), runs)
    m["matrix.normalize_s"] = seconds("matrix.normalize_features")
    m["matrix.load_csv_s"] = seconds("matrix.load_csv")
    m["matrix.load_csv_mb_per_s"] = (
        sum(s.bytes for s in loads) / 1e6 / sum(s.seconds for s in loads) if loads else 0.0)
    m["matrix.save_csv_s"] = seconds("matrix.save_csv")

    reports = [q["report"] for q in qualities if "report" in q]
    for stage in STAGES:
        m[f"pipeline.{stage}_ms"] = float(
            statistics.median(r["timings_ms"].get(stage, 0.0) for r in reports))

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd.replace('-', '_')}_s"] = seconds(f"cli.{cmd}")
    for key, attrs in (("bytes_read", READS), ("bytes_written", WRITES)):
        picked, div = _pick(spans, _names(attrs), runs)
        m[f"cli.{key}"] = sum(s.bytes for s in picked) / div

    own = self_seconds(spans)
    for layer in LAYERS:
        picked, div = _pick(spans, tuple({s.name for s in spans if s.name.startswith(layer + ".")}), runs)
        m[f"{layer}.self_s"] = sum(own[s.id] for s in picked) / div
    return m
