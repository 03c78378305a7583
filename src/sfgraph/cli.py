"""Command line interface.

Subcommands cover the individual pipeline stages (``synth``, ``sfg``,
``lcs``, ``reduce``, ``eval-sc``, ``eval-mcfs``) plus the end-to-end
``pipeline`` run.  Exit codes: 0 success, 1 usage/parameter problems,
2 unusable input data, 3 numerical failure; an error's code is its class's
``exit_code``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DimensionError, ParameterError, ParseError, SfgraphError
from .lcs import find_lcs, reduce_matrix, save_partition, select_representatives
from .matrix import _text_lines, load_csv, load_labels, normalize_features, save_csv
from .omp import OmpConfig
from .pipeline import (
    DEFAULT_THETAS,
    PipelineConfig,
    cluster_scores,
    mcfs_records,
    render_report,
    run_pipeline,
    write_angles_csv,
)
from .sfg import angle_histogram, build_sfg, filter_failed, load_sfg, save_sfg
from .synth import SynthSpec, generate

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _label_column(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _load_dataset(args):
    """(features, labels or None) honoring --labels / --label-column."""
    label_column = getattr(args, "label_column", None)
    labels_path = getattr(args, "labels", None)
    if labels_path and label_column is not None:
        raise ParameterError("give either --labels or --label-column, not both")
    features, labels = load_csv(args.input, label_column=label_column)
    if labels_path:
        labels = load_labels(labels_path)
        if labels.shape[0] != features.n_samples:
            raise DimensionError(
                f"{labels.shape[0]} labels for {features.n_samples} samples"
            )
    return features, labels


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        mixture_noise=args.mixture_noise,
        seed=args.seed,
    )
    matrix, labels, truth = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    save_csv(os.path.join(args.out, "data.csv"), matrix)
    with open(os.path.join(args.out, "labels.txt"), "w") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)
    with open(os.path.join(args.out, "ground_truth.json"), "w") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    print(
        f"wrote {matrix.n_samples}x{matrix.n_features} dataset "
        f"({spec.clusters} clusters) to {args.out}"
    )
    return 0


def cmd_sfg(args) -> int:
    features, _ = _load_dataset(args)
    normalized, _ = normalize_features(features)
    graph = build_sfg(normalized, OmpConfig(epsilon=args.epsilon))
    if args.angles:
        hist = angle_histogram(graph, normalized, bins=args.bins)
        write_angles_csv(args.angles, hist.bin_edges, hist.counts, hist.overflow)
    filtered = filter_failed(
        graph,
        normalized,
        np.deg2rad(args.max_angle_deg),
        invert=args.invert_angle_filter,
    )
    save_sfg(filtered, args.out)
    print(
        f"graph: {filtered.n_nodes} nodes, {filtered.weights.nnz} edges, "
        f"{len(filtered.failed_nodes)} failed -> {args.out}"
    )
    return 0


def cmd_lcs(args) -> int:
    graph = load_sfg(args.graph)
    partition = find_lcs(graph, args.theta)
    reduction = select_representatives(
        partition, graph, keep_singletons=not args.drop_singletons
    )
    save_partition(partition, reduction, args.out)
    print(
        f"theta={args.theta}: {len(partition.subgraphs)} subgraphs, "
        f"{len(partition.singletons)} singletons, keep {reduction.kept.size} "
        f"of {graph.n_nodes} -> {args.out}"
    )
    return 0


def cmd_reduce(args) -> int:
    features, _ = _load_dataset(args)
    graph = load_sfg(args.graph)
    if graph.n_nodes != features.n_features:
        raise DimensionError(
            f"graph has {graph.n_nodes} nodes but dataset has "
            f"{features.n_features} features"
        )
    partition = find_lcs(graph, args.theta)
    reduction = select_representatives(
        partition, graph, keep_singletons=not args.drop_singletons
    )
    reduced = reduce_matrix(features, reduction)
    save_csv(args.out, reduced)
    print(
        f"kept {reduced.n_features} of {features.n_features} features -> {args.out}"
    )
    return 0


def _require_labels(labels):
    if labels is None:
        raise ParameterError(
            "ground-truth labels are required: pass --labels or --label-column"
        )
    return labels


def cmd_eval_sc(args) -> int:
    features, labels = _load_dataset(args)
    labels = _require_labels(labels)
    normalized, _ = normalize_features(features)
    _, sigma, nmi, acc = cluster_scores(
        normalized, labels, args.k, args.seed, args.restarts, sigma=args.sigma
    )
    _write_json(
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
    labels = _require_labels(labels)
    normalized, _ = normalize_features(features)
    emb, _, _, _ = cluster_scores(normalized, None, args.k, args.seed, args.restarts)
    counts = args.m if args.m else list(range(10, 61, 5))
    records = mcfs_records(
        normalized, emb, counts, labels, args.k, args.seed, args.restarts
    )
    _write_json({"k": args.k, "records": records}, args.out)
    return 0


# --------------------------------------------------------------------------
# pipeline subcommand with optional flat key=value config file

def _config_bool(value: str) -> bool:
    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(value)
    return value.lower() in ("1", "true", "yes")


_CONFIG_KEYS = {
    "input": str,
    "labels": str,
    "label_column": _label_column,
    "out": str,
    "k": int,
    "epsilon": float,
    "max_angle_deg": float,
    "theta": lambda v: [float(x) for x in v.split(",") if x],
    "m": lambda v: [int(x) for x in v.split(",") if x],
    "seed": int,
    "restarts": int,
    "drop_singletons": _config_bool,
    "invert_angle_filter": _config_bool,
    "require_labels": _config_bool,
}


def _read_config_file(path) -> dict:
    values: dict = {}
    with open(path) as fh:
        for line_no, line in enumerate(_text_lines(fh, path), start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(f"{path}: line {line_no}: expected key = value")
            key, _, raw = text.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ParameterError(f"{path}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](raw.strip())
            except ValueError:
                raise ParameterError(
                    f"{path}: line {line_no}: bad value for {key!r}: {raw.strip()!r}"
                ) from None
    return values


def _merge_config(args, argv):
    """Parse the pipeline's flags again over the config file's values.

    argparse keeps a pre-set value unless a flag, in any spelling it accepts,
    sets it.  A flag would append to a pre-set ``theta`` or ``m`` list, so the
    file fills those only when no flag did.
    """
    values = _read_config_file(args.config)
    lists = {key: values.pop(key) for key in ("theta", "m") if key in values}
    parser = _Parser(prog="sfgraph pipeline")
    _add_pipeline_flags(parser)
    merged = parser.parse_args(argv[1:], argparse.Namespace(**values))
    for key, value in lists.items():
        if getattr(merged, key) is None:
            setattr(merged, key, value)
    return merged


def cmd_pipeline(args, argv) -> int:
    if args.config:
        args = _merge_config(args, argv)
    if args.input is None:
        raise ParameterError("--input is required (flag or config file)")
    if args.k is None:
        raise ParameterError("--k is required (flag or config file)")
    if args.require_labels and not args.labels and args.label_column is None:
        raise ParameterError(
            "--require-labels set but no --labels/--label-column given"
        )
    features, labels = _load_dataset(args)
    config = PipelineConfig(
        k_clusters=args.k,
        epsilon=args.epsilon,
        max_angle_deg=args.max_angle_deg,
        thetas=tuple(args.theta) if args.theta else DEFAULT_THETAS,
        mcfs_counts=tuple(args.m) if args.m else (),
        seed=args.seed,
        restarts=args.restarts,
        drop_singletons=args.drop_singletons,
        invert_angle_filter=args.invert_angle_filter,
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


def _add_dataset_flags(p, with_labels: bool = True) -> None:
    p.add_argument("--input", required=True, help="input CSV dataset")
    p.add_argument(
        "--label-column",
        type=_label_column,
        default=None,
        help="column (index or header name) holding class labels",
    )
    if with_labels:
        p.add_argument("--labels", default=None, help="label file, one integer per line")


def _add_cluster_flags(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--restarts", type=int, default=10, help="k-means restarts (default 10)"
    )


def _add_pipeline_flags(p) -> None:
    p.add_argument("--input", default=None, help="input CSV dataset")
    p.add_argument("--label-column", type=_label_column, default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--require-labels", action="store_true")
    p.add_argument("--k", type=int, default=None, help="number of clusters")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--max-angle-deg", type=float, default=15.0)
    p.add_argument(
        "--theta",
        type=float,
        action="append",
        default=None,
        help="threshold (repeatable; default 0.9..0.1)",
    )
    p.add_argument(
        "--m", type=int, action="append", default=None, help="selection grid size"
    )
    p.add_argument("--drop-singletons", action="store_true")
    p.add_argument("--invert-angle-filter", action="store_true")
    _add_cluster_flags(p)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--out", default="sfgraph-out", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="sfgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--base", type=int, required=True, help="number of base features")
    p.add_argument("--clusters", type=int, default=1)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--dup-pairs", type=int, default=0)
    p.add_argument("--mixtures", type=int, default=0)
    p.add_argument("--noise", type=int, default=0)
    p.add_argument("--mixture-noise", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sfg", help="build and angle-filter the sparse feature graph")
    _add_dataset_flags(p, with_labels=False)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--max-angle-deg", type=float, default=15.0)
    p.add_argument("--invert-angle-filter", action="store_true")
    p.add_argument("--angles", default=None, help="also write the angle histogram CSV")
    p.add_argument("--bins", type=int, default=18)
    p.add_argument("--out", required=True, help="output graph TSV")
    p.set_defaults(func=cmd_sfg)

    p = sub.add_parser("lcs", help="mine redundancy groups from a graph file")
    p.add_argument("--graph", required=True, help="graph TSV from the sfg subcommand")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--drop-singletons", action="store_true")
    p.add_argument("--out", required=True, help="output partition file")
    p.set_defaults(func=cmd_lcs)

    p = sub.add_parser("reduce", help="write the dataset restricted to kept features")
    _add_dataset_flags(p, with_labels=False)
    p.add_argument("--graph", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--drop-singletons", action="store_true")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eval-sc", help="spectral clustering agreement with labels")
    _add_dataset_flags(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--sigma", type=float, default=None, help="kernel width override")
    _add_cluster_flags(p)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_eval_sc)

    p = sub.add_parser("eval-mcfs", help="regression-based selection + clustering")
    _add_dataset_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--m",
        type=int,
        action="append",
        default=None,
        help="selected-feature count (repeatable; default 10..60 step 5)",
    )
    _add_cluster_flags(p)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_eval_mcfs)

    p = sub.add_parser("pipeline", help="full reduction + evaluation sweep")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is cmd_pipeline:
            return cmd_pipeline(args, argv)
        return args.func(args)
    except SfgraphError as exc:
        print(f"sfgraph: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"sfgraph: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
