"""Acceptance gate: the end-to-end guarantees this package ships with.

One test per guarantee, ordered a01..a10; ``pytest -v tests/test_acceptance.py``
prints one pass/fail line for each.  Every test builds its own inputs and,
where a reference answer is needed, computes it with an independent in-test
oracle (plain-Python counting, ``numpy.linalg.lstsq``, exhaustive search)
rather than reusing package code.
"""

import itertools
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sfgraph import (
    PipelineConfig,
    SparseFeatureGraph,
    SynthSpec,
    acc,
    build_sfg,
    filter_failed,
    find_lcs,
    gaussian_similarity,
    generate,
    load_csv,
    load_labels,
    mcfs_select,
    njw_cluster,
    nmi,
    normalize_features,
    omp,
    render_report,
    run_pipeline,
    spectral_embedding,
)
from sfgraph.cli import main
from sfgraph.omp import (
    CORRELATION_FLOOR,
    STOP_CONVERGED,
    STOP_NO_ATOM,
    STOP_SUPPORT_LIMIT,
)


def _unit_columns(arr: np.ndarray) -> np.ndarray:
    return arr / np.linalg.norm(arr, axis=0, keepdims=True)


# --------------------------------------------------------------------------
# a01 / a02 — greedy sparse solver


def test_a01_solver_recovers_planted_supports_and_ls_coefficients():
    start = time.perf_counter()
    recovered = 0
    for trial in range(100):
        rng = np.random.default_rng([101, trial])
        dictionary = _unit_columns(rng.normal(size=(20, 30)))
        planted = rng.choice(30, size=3, replace=False)
        target = dictionary[:, planted] @ rng.normal(size=3)
        target /= np.linalg.norm(target)
        rep = omp(dictionary, target, epsilon=1e-8)
        if set(rep.support.tolist()) == {int(i) for i in planted}:
            recovered += 1
        # whatever support was chosen, the coefficients must be the exact
        # least-squares solution on it
        oracle, *_ = np.linalg.lstsq(dictionary[:, rep.support], target, rcond=None)
        assert np.max(np.abs(rep.coefficients - oracle)) <= 1e-8, trial
    elapsed = time.perf_counter() - start
    assert recovered >= 95, f"planted support recovered in only {recovered}/100 runs"
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print(f"PASS a01: support {recovered}/100, coefficients within 1e-8 of "
          f"least squares, {elapsed:.2f}s")


def test_a02_solver_invariants_hold_across_random_instances(capped_fit):
    reasons = Counter()
    for trial in range(1000):
        rng = np.random.default_rng([102, trial])
        n = int(rng.integers(8, 25))
        p = int(rng.integers(4, 31))
        dictionary = _unit_columns(rng.normal(size=(n, p)))
        target = rng.normal(size=n)
        target /= np.linalg.norm(target)
        epsilon = float(10.0 ** rng.uniform(-10.0, -3.0))
        cap = int(rng.integers(1, p + 1))
        rep = capped_fit(dictionary, target, epsilon, cap)
        reasons[rep.stop_reason] += 1

        trace = rep.residual_norms
        assert trace.shape == (rep.support.size + 1,)
        assert np.all(np.diff(trace) <= 1e-12), trial  # residual never grows
        residual = target - dictionary[:, rep.support] @ rep.coefficients
        if rep.support.size:
            overlap = np.abs(dictionary[:, rep.support].T @ residual)
            assert float(overlap.max()) <= 1e-8, trial
        if rep.stop_reason == STOP_CONVERGED:
            assert trace.size >= 2
            # the residual stopped changing, or the fit is exact
            exact = trace[-1] <= CORRELATION_FLOOR**2
            assert abs(trace[-1] - trace[-2]) <= epsilon or exact, trial
        elif rep.stop_reason == STOP_SUPPORT_LIMIT:
            assert rep.support.size == min(cap, p), trial
        else:
            assert rep.stop_reason == STOP_NO_ATOM, trial
            assert rep.support.size <= cap
            assert trace[-1] > CORRELATION_FLOOR**2, trial
    # the sample must actually exercise the distinct stopping conditions
    assert reasons[STOP_CONVERGED] > 0 and reasons[STOP_SUPPORT_LIMIT] > 0
    print(f"PASS a02: 1000 instances, monotone traces, orthogonal residuals, "
          f"stop reasons {dict(reasons)}")


# --------------------------------------------------------------------------
# a03 — planted duplicates collapse to a single representative


def test_a03_planted_duplicate_pairs_collapse_to_one_kept_feature():
    start = time.perf_counter()
    for seed in range(5):
        spec = SynthSpec(
            n_samples=200,
            base_features=20,
            clusters=2,
            separation=6.0,
            duplicate_pairs=10,
            noise_features=10,
            seed=seed,
        )
        matrix, _, truth = generate(spec)
        normalized, _ = normalize_features(matrix)
        graph = build_sfg(normalized)
        graph = filter_failed(graph, normalized, math.radians(15.0))
        partition = find_lcs(graph, 0.5)
        kept = set(partition.kept.tolist())
        assert len(truth["duplicates"]) == 10
        for copy, source in truth["duplicates"]:
            in_one_group = any(
                copy in group and source in group for group in partition.subgraphs
            )
            assert in_one_group, (seed, copy, source)
            assert len({copy, source} & kept) == 1, (seed, copy, source)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS a03: 10/10 duplicate pairs grouped with exactly one member "
          f"kept on all 5 seeds, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# a04 — clustering quality is stable while the sweep shrinks the matrix


def test_a04_theta_sweep_keeps_nmi_stable_and_retained_monotone():
    start = time.perf_counter()
    thetas = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)
    good_seeds = 0
    for seed in range(5):
        spec = SynthSpec(
            n_samples=300,
            base_features=40,
            clusters=3,
            separation=6.0,
            duplicate_pairs=20,
            mixture_features=20,
            noise_features=20,
            seed=seed,
        )
        matrix, labels, _ = generate(spec)
        config = PipelineConfig(k_clusters=3, thetas=thetas, seed=seed)
        report = run_pipeline(matrix, labels, config)
        base_nmi = report["baseline"]["nmi"]
        retained = [report["baseline"]["retained"]]
        seed_ok = True
        for record in report["sweep"]:
            retained.append(record["retained"])
            if record["error"] is not None:
                seed_ok = False
            elif abs(record["nmi"] - base_nmi) > 0.10:
                seed_ok = False
        if any(b > a for a, b in zip(retained, retained[1:])):
            seed_ok = False
        good_seeds += seed_ok
    elapsed = time.perf_counter() - start
    assert good_seeds >= 3, f"stability held on only {good_seeds}/5 seeds"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"PASS a04: nmi within 0.10 of baseline and retained non-increasing "
          f"on {good_seeds}/5 seeds, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# a05 — agreement metrics against brute-force oracles


def _all_partitions(n: int, max_labels: int):
    """Every labeling of range(n) into at most max_labels blocks, one per
    partition (restricted-growth strings)."""
    def grow(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(min(used + 1, max_labels)):
            yield from grow(prefix + [v], max(used, v + 1))

    yield from grow([0], 1)


def _entropy_of(counts, n):
    return -sum(c / n * math.log(c / n) for c in counts if c)


def _nmi_oracle(a, b):
    n = len(a)
    ca, cb = Counter(a), Counter(b)
    joint = Counter(zip(a, b))
    mutual = 0.0
    for (va, vb), c in joint.items():
        mutual += c / n * math.log(n * c / (ca[va] * cb[vb]))
    denom = max(_entropy_of(ca.values(), n), _entropy_of(cb.values(), n))
    if denom == 0.0:
        return 1.0  # both partitions are the single-block partition
    return mutual / denom


def _acc_oracle(a, b):
    ids_a = {v: i for i, v in enumerate(dict.fromkeys(a))}
    ids_b = {v: i for i, v in enumerate(dict.fromkeys(b))}
    k = max(len(ids_a), len(ids_b))
    best = 0
    for perm in itertools.permutations(range(k)):
        best = max(
            best,
            sum(ids_a[x] == perm[ids_b[y]] for x, y in zip(a, b)),
        )
    return best / len(a)


def test_a05_agreement_metrics_match_exhaustive_oracles():
    start = time.perf_counter()
    pairs = 0
    for n in range(1, 7):
        partitions = list(_all_partitions(n, 3))
        for a in partitions:
            for b in partitions:
                got_nmi = nmi(a, b)
                got_acc = acc(a, b)
                assert abs(got_nmi - _nmi_oracle(a, b)) <= 1e-12, (a, b)
                assert got_acc == _acc_oracle(a, b), (a, b)
                pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"PASS a05: nmi within 1e-12 and acc exact on {pairs} partition "
          f"pairs (n<=6, <=3 labels), {elapsed:.2f}s")


# --------------------------------------------------------------------------
# a06 / a07 — evaluation stack sanity


def test_a06_spectral_clustering_separates_well_spaced_blobs():
    wins = 0
    for seed in range(5):
        spec = SynthSpec(
            n_samples=300, base_features=5, clusters=3, separation=10.0, seed=seed
        )
        matrix, labels, _ = generate(spec)
        embedding = spectral_embedding(gaussian_similarity(matrix), 3)
        predicted = njw_cluster(embedding, 3, seed=seed)
        wins += nmi(labels, predicted) >= 0.95
    assert wins >= 4, f"nmi >= 0.95 on only {wins}/5 seeds"
    print(f"PASS a06: spectral clustering nmi >= 0.95 on {wins}/5 seeds")


def test_a07_selection_scores_single_out_informative_features():
    wins = 0
    for seed in range(5):
        spec = SynthSpec(
            n_samples=150,
            base_features=5,
            clusters=3,
            separation=12.0,
            noise_features=95,
            seed=seed,
        )
        matrix, _, _ = generate(spec)
        # similarity on the raw sample geometry; the regression normalizes
        # feature columns on its own
        embedding = spectral_embedding(gaussian_similarity(matrix), 3)
        normalized, _ = normalize_features(matrix)
        picked = set(mcfs_select(normalized, embedding, [5])[0].selected.tolist())
        wins += len(picked & {0, 1, 2, 3, 4}) >= 4
    assert wins >= 3, f"4+ informative features found on only {wins}/5 seeds"
    print(f"PASS a07: >=4 of 5 informative features selected on {wins}/5 seeds")


# --------------------------------------------------------------------------
# a08 — subgraph mining against an exhaustive closure oracle


def _closure_oracle(graph: SparseFeatureGraph, theta: float):
    """Independent grouping: threshold on |weight|/max, BFS over undirected
    eligible edges, components seeded in (-in_degree, index) order."""
    d = graph.n_nodes
    coo = graph.weights.tocoo()
    max_w = max((abs(float(v)) for v in coo.data), default=0.0)
    undirected = {i: set() for i in range(d)}
    in_deg = [0] * d
    for i, j, v in zip(coo.row, coo.col, coo.data):
        in_deg[int(j)] += 1
        if max_w > 0.0 and abs(float(v)) / max_w >= theta:
            undirected[int(i)].add(int(j))
            undirected[int(j)].add(int(i))
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
                for v in sorted(undirected[u]):
                    if not labels[v]:
                        labels[v] = label
                        members.append(v)
                        nxt.append(v)
            frontier = nxt
        groups.append(sorted(members))
    return labels, groups


def test_a08_subgraph_mining_matches_exhaustive_oracle():
    for trial in range(200):
        rng = np.random.default_rng([108, trial])
        d = int(rng.integers(2, 13))
        mask = rng.random(size=(d, d)) < 0.3
        np.fill_diagonal(mask, False)
        dense = np.where(mask, rng.uniform(-1.0, 1.0, size=(d, d)), 0.0)
        graph = SparseFeatureGraph(sp.csr_matrix(dense), frozenset())
        for theta in (0.25, 0.5, 0.75):
            partition = find_lcs(graph, theta)
            labels, groups = _closure_oracle(graph, theta)
            assert partition.labels.tolist() == labels, (trial, theta)
            assert partition.subgraphs == [g for g in groups if len(g) > 1]
            assert partition.singletons == sorted(
                g[0] for g in groups if len(g) == 1
            )
    print("PASS a08: 200 random graphs x 3 thresholds match the closure "
          "oracle exactly")


# --------------------------------------------------------------------------
# a09 — end-to-end reproducibility through the command line


def test_a09_identical_pipeline_runs_produce_identical_reports(tmp_path):
    data_dir = tmp_path / "data"
    assert main(
        [
            "synth",
            "--n", "80",
            "--base", "8",
            "--clusters", "2",
            "--separation", "8.0",
            "--dup-pairs", "2",
            "--noise", "2",
            "--seed", "3",
            "--out", str(data_dir),
        ]
    ) == 0

    scrubbed, raw_csvs = [], []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            [
                "pipeline",
                "--input", str(data_dir / "data.csv"),
                "--labels", str(data_dir / "labels.txt"),
                "--k", "2",
                "--m", "3",
                "--m", "5",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        report.pop("timings_ms")
        scrubbed.append(json.dumps(report, sort_keys=True))
        raw_csvs.append(
            tuple(
                (out / f).read_bytes()
                for f in ("sweep.csv", "angles.csv", "mcfs_grid.csv")
            )
        )
    assert scrubbed[0] == scrubbed[1]
    assert raw_csvs[0] == raw_csvs[1]
    print("PASS a09: two identical runs agree byte for byte "
          "(report.json minus timings, all csv files)")


# --------------------------------------------------------------------------
# a10 — optional integration sweep on a user-supplied dataset


_ORL_DATA = Path(__file__).parent / "data" / "orl.csv"
_ORL_LABELS = Path(__file__).parent / "data" / "orl_labels.txt"


@pytest.mark.skipif(
    not (_ORL_DATA.exists() and _ORL_LABELS.exists()),
    reason="integration dataset not present under tests/data/",
)
def test_a10_full_sweep_on_provided_face_dataset(tmp_path):
    matrix = load_csv(_ORL_DATA)
    labels = load_labels(_ORL_LABELS)
    assert matrix.values.shape == (400, 1024)
    assert np.unique(labels).size == 40
    config = PipelineConfig(
        k_clusters=40, mcfs_counts=tuple(range(10, 61, 5)), seed=0
    )
    report = run_pipeline(matrix, labels, config)
    render_report(report, tmp_path)

    sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "theta,retained,nmi,acc"
    assert len(sweep_lines) == 1 + 1 + len(report["config"]["thetas"])
    assert sweep_lines[1].startswith("NA,")
    grid_lines = (tmp_path / "mcfs_grid.csv").read_text().splitlines()
    assert len(grid_lines) > 1
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "angles.csv").exists()
    print("PASS a10: full sweep and selection grid rendered for the "
          "400x1024/40-class dataset")
