"""Command line interface.

Subcommands cover the individual pipeline stages (``synth``, ``sfg``,
``lcs``, ``reduce``, ``eval-sc``, ``eval-mcfs``) plus the end-to-end
``pipeline`` run.  Every setting of a run is a flag of its subcommand.
``--k``, ``--m`` and ``--restarts`` take integers of at least 1,
``--seed`` one of at least 0, ``--max-angle-deg`` degrees in (0, 90],
``--theta`` a number in (0, 1] and ``--epsilon`` one above 0, NaN never,
so a bad count, seed, angle or threshold is a usage error before any file
is read.  Ground-truth labels come only from a ``--labels`` file, one integer
per line: ``eval-sc`` and ``eval-mcfs`` without it are a usage error before
any file is read, and ``pipeline`` without it reports null scores.
Exit codes: 0 success, 1 usage/parameter problems, 2 unusable input data
or memory, 3 numerical failure; an error's code is its class's ``exit_code``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import DimensionError, ParameterError, SfgraphError
from .lcs import find_lcs, save_partition
from .matrix import load_csv, load_labels, normalize_features, read_csv, save_csv, write_columns
from .pipeline import (
    DEFAULT_THETAS,
    PipelineConfig,
    cluster_scores,
    mcfs_records,
    render_report,
    run_pipeline,
    write_angles_csv,
    write_json,
)
from .sfg import angle_histogram, build_sfg, filter_failed, load_sfg, save_sfg
from .synth import SynthSpec, generate

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = low - 1
        if number < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {value!r}"
            )
        return number

    return parse


_count = _int_at_least(1)  # --k, --m and --restarts
_seed = _int_at_least(0)  # every --seed


def _float_in(low: float, high: float, expected: str):
    """An argparse type for floats in (``low``, ``high``], NaN rejected;
    ``expected`` names the range in the message."""

    def parse(value: str) -> float:
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not low < number <= high:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
        return number

    return parse


_max_angle_deg = _float_in(0.0, 90.0, "an angle in degrees in (0, 90]")
_theta = _float_in(0.0, 1.0, "a threshold in (0, 1]")  # every --theta
_epsilon = _float_in(0.0, math.inf, "a positive threshold")


def _load_dataset(args):
    """(features, labels or None): the --input CSV and the --labels file."""
    features = load_csv(args.input)
    if args.labels is None:
        return features, None
    labels = load_labels(args.labels)
    if labels.shape[0] != features.n_samples:
        raise DimensionError(
            f"{labels.shape[0]} labels for {features.n_samples} samples"
        )
    return features, labels


# --------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_samples=args.n,
        base_features=args.base,
        clusters=args.clusters,
        separation=args.separation,
        duplicate_pairs=args.dup_pairs,
        mixture_features=args.mixtures,
        noise_features=args.noise,
        seed=args.seed,
    )
    matrix, labels, truth = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    save_csv(os.path.join(args.out, "data.csv"), matrix)
    with open(os.path.join(args.out, "labels.txt"), "w") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)
    write_json(truth, os.path.join(args.out, "ground_truth.json"))
    print(
        f"wrote {matrix.n_samples}x{matrix.n_features} dataset "
        f"({spec.clusters} clusters) to {args.out}"
    )
    return 0


def cmd_sfg(args) -> int:
    features = load_csv(args.input)
    normalized, _ = normalize_features(features)
    graph = build_sfg(normalized, args.epsilon)
    filtered = filter_failed(graph, normalized, np.deg2rad(args.max_angle_deg))
    if args.angles:
        write_angles_csv(args.angles, **angle_histogram(filtered.angles))
    save_sfg(filtered, args.out)
    print(
        f"graph: {filtered.n_nodes} nodes, {filtered.weights.nnz} edges, "
        f"{len(filtered.failed_nodes)} failed -> {args.out}"
    )
    return 0


def cmd_lcs(args) -> int:
    graph = load_sfg(args.graph)
    partition = find_lcs(graph, args.theta)
    save_partition(partition, args.out)
    print(
        f"theta={args.theta}: {len(partition.subgraphs)} subgraphs, "
        f"{len(partition.singletons)} singletons, keep {partition.kept.size} "
        f"of {graph.n_nodes} -> {args.out}"
    )
    return 0


def cmd_reduce(args) -> int:
    """Write the --input columns that the --graph's partition at --theta
    keeps.  An --out naming the --input is refused, then the graph, the
    smaller file, is read; ``read_csv`` reads and checks the CSV once, and
    ``write_columns`` copies the kept cells' text, stripped, from that read."""
    if os.path.exists(args.out) and os.path.samefile(args.input, args.out):
        raise ParameterError(f"{args.out}: cannot overwrite the input file it projects")
    graph = load_sfg(args.graph)
    features, rows = read_csv(args.input)
    if graph.n_nodes != features.n_features:
        raise DimensionError(
            f"graph has {graph.n_nodes} nodes but dataset has "
            f"{features.n_features} features"
        )
    kept = find_lcs(graph, args.theta).kept
    write_columns(args.out, features, rows, kept)
    print(f"kept {kept.size} of {features.n_features} features -> {args.out}")
    return 0


def cmd_eval_sc(args) -> int:
    features, labels = _load_dataset(args)
    normalized, _ = normalize_features(features)
    _, sigma, nmi, acc = cluster_scores(
        normalized, labels, args.k, args.seed, args.restarts
    )
    write_json(
        {
            "n_samples": features.n_samples,
            "n_features": features.n_features,
            "k": args.k,
            "sigma": sigma,
            "nmi": nmi,
            "acc": acc,
        },
        args.out,
    )
    return 0


def cmd_eval_mcfs(args) -> int:
    features, labels = _load_dataset(args)
    normalized, _ = normalize_features(features)
    emb, _, _, _ = cluster_scores(normalized, None, args.k, args.seed, args.restarts)
    counts = args.m if args.m else list(range(10, 61, 5))
    records = mcfs_records(normalized, emb, counts, labels, args.k, args.seed, args.restarts)
    write_json({"k": args.k, "records": records}, args.out)
    return 0


def cmd_pipeline(args) -> int:
    features, labels = _load_dataset(args)
    config = PipelineConfig(
        k_clusters=args.k,
        epsilon=args.epsilon,
        max_angle_deg=args.max_angle_deg,
        thetas=tuple(args.theta) if args.theta else DEFAULT_THETAS,
        mcfs_counts=tuple(args.m) if args.m else (),
        seed=args.seed,
        restarts=args.restarts,
    )
    report = run_pipeline(features, labels, config)
    written = render_report(report, args.out)
    base = report["baseline"]
    print(f"baseline: retained={base['retained']} nmi={base['nmi']} acc={base['acc']}")
    for rec in report["sweep"]:
        if rec["error"]:
            print(f"theta={rec['theta']}: error: {rec['error']}")
        else:
            print(
                f"theta={rec['theta']}: retained={rec['retained']} "
                f"nmi={rec['nmi']} acc={rec['acc']}"
            )
    for path in written:
        print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------------
# parser assembly


def _add_input_flag(p) -> None:
    p.add_argument("--input", required=True, help="input CSV dataset")


def _add_labels_flag(p, required: bool) -> None:
    p.add_argument("--labels", required=required, help="label file, one integer per line")


def _add_cluster_flags(p) -> None:
    p.add_argument("--k", type=_count, required=True, help="number of clusters")
    p.add_argument(
        "--seed",
        type=_seed,
        default=PipelineConfig.seed,
        help="RNG seed (default %(default)s)",
    )
    p.add_argument(
        "--restarts",
        type=_count,
        default=PipelineConfig.restarts,
        help="k-means restarts (default %(default)s)",
    )


def _add_graph_flags(p) -> None:
    p.add_argument("--epsilon", type=_epsilon, default=PipelineConfig.epsilon)
    p.add_argument(
        "--max-angle-deg", type=_max_angle_deg, default=PipelineConfig.max_angle_deg
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="sfgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--base", type=int, required=True, help="number of base features")
    p.add_argument("--clusters", type=int, default=SynthSpec.clusters)
    p.add_argument("--separation", type=float, default=SynthSpec.separation)
    p.add_argument("--dup-pairs", type=int, default=SynthSpec.duplicate_pairs)
    p.add_argument("--mixtures", type=int, default=SynthSpec.mixture_features)
    p.add_argument("--noise", type=int, default=SynthSpec.noise_features)
    p.add_argument("--seed", type=_seed, default=SynthSpec.seed)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sfg", help="build and angle-filter the sparse feature graph")
    _add_input_flag(p)
    _add_graph_flags(p)
    p.add_argument("--angles", default=None, help="also write the angle histogram CSV")
    p.add_argument("--out", required=True, help="output graph TSV")
    p.set_defaults(func=cmd_sfg)

    p = sub.add_parser("lcs", help="mine redundancy groups from a graph file")
    p.add_argument("--graph", required=True, help="graph TSV from the sfg subcommand")
    p.add_argument("--theta", type=_theta, required=True)
    p.add_argument("--out", required=True, help="output partition file")
    p.set_defaults(func=cmd_lcs)

    p = sub.add_parser(
        "reduce",
        help="copy the kept features' columns of the dataset, cells as written",
    )
    _add_input_flag(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--theta", type=_theta, required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eval-sc", help="spectral clustering agreement with labels")
    _add_input_flag(p)
    _add_labels_flag(p, required=True)
    _add_cluster_flags(p)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_eval_sc)

    p = sub.add_parser("eval-mcfs", help="regression-based selection + clustering")
    _add_input_flag(p)
    _add_labels_flag(p, required=True)
    p.add_argument(
        "--m",
        type=_count,
        action="append",
        default=None,
        help="selected-feature count (repeatable; default 10..60 step 5)",
    )
    _add_cluster_flags(p)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_eval_mcfs)

    p = sub.add_parser("pipeline", help="full reduction + evaluation sweep")
    _add_input_flag(p)
    _add_labels_flag(p, required=False)
    _add_graph_flags(p)
    p.add_argument(
        "--theta",
        type=_theta,
        action="append",
        default=None,
        help="threshold (repeatable; default 0.9..0.1)",
    )
    p.add_argument(
        "--m", type=_count, action="append", default=None, help="selection grid size"
    )
    _add_cluster_flags(p)
    p.add_argument("--out", default="sfgraph-out", help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SfgraphError as exc:
        print(f"sfgraph: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"sfgraph: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"sfgraph: error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
