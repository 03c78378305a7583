"""Fast self-test of the benchmark harness on a tiny shape.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on a 40x42 dataset, checks that each
run passes its own output checks and reports exactly the metrics that
``BENCHMARK.json`` declares, and checks that the oracles reject corrupted
outputs.  Takes a few seconds; exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from sfgraph import SynthSpec, build_sfg, filter_failed, find_lcs, generate  # noqa: E402
from sfgraph import normalize_features  # noqa: E402

TINY = dict(
    n_samples=40,
    base_features=20,
    clusters=3,
    separation=6.0,
    duplicate_pairs=10,
    mixture_features=6,
    noise_features=6,
)


def check_runs(declared: dict) -> None:
    out = run.ROOT / ".perfbench-out" / "selftest"
    for name, workload in workloads.WORKLOADS.items():
        tiny = dataclasses.replace(workload, spec=TINY, k=3)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            r = workloads.Run(tiny, seed=3, seconds=0.0, out=str(out))
            metrics = r.trace() if trace else r.measure(0.0)
            shutil.rmtree(out, ignore_errors=True)
            want = {m["name"] for m in declared[section]}
            assert set(metrics) == want, (name, trace, set(metrics) ^ want)
            assert all(math.isfinite(v) for v in metrics.values()), (name, trace, metrics)
            assert r.tally.attempted > 0 and r.tally.failed == 0, (name, trace, r.tally.problems)
            print(f"ok  {name} trace={trace}: {r.tally.attempted} checked operations")


def check_oracles() -> None:
    features, _, truth = generate(SynthSpec(seed=3, **TINY))
    normalized, _ = normalize_features(features)
    values = normalized.values
    graph = build_sfg(normalized)
    rows = np.arange(values.shape[1])
    assert checks.graph_rows(values, graph.weights, rows) == []

    bad = graph.weights.copy()
    bad.data[0] += 1e-3
    assert checks.graph_rows(values, bad, rows), "lstsq oracle missed a changed coefficient"

    filtered = filter_failed(graph, normalized, np.deg2rad(15.0))
    assert checks.surviving_angles(values, filtered.weights, filtered.failed_nodes, 15.0) == []
    assert checks.surviving_angles(values, graph.weights, frozenset(), 1e-6), (
        "angle oracle missed nodes above the bound")

    for theta in (0.9, 0.5, 0.1):
        oracle = checks.components(filtered.weights, theta)
        assert checks.same_partition(find_lcs(filtered, theta).labels, oracle)
    oracle = checks.components(filtered.weights, 0.1)
    assert not checks.same_partition(np.zeros_like(oracle), oracle), "partition check missed a merge"
    assert checks.monotone_retained({0.9: 5, 0.5: 6}), "monotonicity check missed a rise"

    other = generate(SynthSpec(seed=4, **TINY))[0]
    assert other.values.shape == features.values.shape, "a second seed changed the shape"
    print("ok  oracles reject corrupted outputs; seeds keep the shape")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_oracles()
    check_runs(declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
