"""Tests for the command line interface: subcommands, files, exit codes."""

import builtins
import errno
import json
import locale
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sfgraph.cli
import sfgraph.pipeline
from sfgraph import (
    NumericalError,
    SfgraphError,
    load_csv,
    load_sfg,
    save_csv,
    sfg,
)
from sfgraph.cli import main


def test_importing_the_package_loads_no_scipy_optimize():
    # scipy.optimize is 91 modules and about 17 MB; every CLI command runs
    # in its own process, so nothing in the package may pull it in
    src = str(Path(sfgraph.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, sfgraph, sfgraph.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"


def _make_dataset(tmp_path, **kwargs):
    out = tmp_path / "data"
    args = {
        "--n": "40",
        "--base": "6",
        "--clusters": "2",
        "--separation": "8.0",
        "--dup-pairs": "2",
        "--noise": "2",
        "--seed": "0",
    }
    args.update(kwargs)
    argv = ["synth"]
    for key, value in args.items():
        argv.extend([key, value])
    argv.extend(["--out", str(out)])
    assert main(argv) == 0
    return out / "data.csv", out / "labels.txt"


def test_synth_writes_dataset_labels_and_truth(tmp_path, capsys):
    data, labels = _make_dataset(tmp_path)
    assert data.exists() and labels.exists()
    truth = json.loads((data.parent / "ground_truth.json").read_text())
    assert truth["n_features"] == 10
    matrix = load_csv(data)
    assert matrix.n_features == 10
    assert matrix.n_samples == 40
    assert "40x10" in capsys.readouterr().out


@pytest.mark.parametrize(
    "settings", [["--separation", "inf"], ["--separation", "1e308", "--mixtures", "3"]]
)
def test_synth_refuses_settings_that_give_non_finite_data(tmp_path, capsys, settings):
    out = tmp_path / "never"
    argv = ["synth", "--n", "10", "--base", "3", "--clusters", "3", *settings]
    assert main([*argv, "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert "sfgraph: error: " in stderr and "Traceback" not in stderr
    assert not out.exists()


def test_sfg_builds_a_loadable_graph_and_angle_csv(tmp_path):
    data, _ = _make_dataset(tmp_path)
    graph_path = tmp_path / "graph.tsv"
    angles_path = tmp_path / "angles.csv"
    code = main(
        [
            "sfg",
            "--input", str(data),
            "--out", str(graph_path),
            "--angles", str(angles_path),
        ]
    )
    assert code == 0
    graph = load_sfg(graph_path)
    assert graph.n_nodes == 10
    assert graph.weights.nnz > 0  # the planted duplicates produce edges
    lines = angles_path.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 1 + 18 + 1
    assert lines[-1].split(",")[1] == "inf"


def test_sfg_takes_a_column_whose_squares_underflow(tmp_path, capsys):
    # cells near 1e-161 square to subnormals, so the plain norm of column 0
    # is off by about 4e-4; normalization rescales it first and the graph builds
    data, _ = _make_dataset(tmp_path)
    matrix = load_csv(data)
    matrix.values[:, 0] *= 1e-161
    tiny = tmp_path / "tiny.csv"
    save_csv(tiny, matrix)
    assert main(["sfg", "--input", str(tiny), "--out", str(tmp_path / "graph.tsv")]) == 0
    assert "error" not in capsys.readouterr().err


def test_sfg_angles_csv_matches_pipeline_angles_csv(tmp_path):
    data, labels = _make_dataset(tmp_path)
    angles_path = tmp_path / "angles.csv"
    code = main(
        [
            "sfg",
            "--input", str(data),
            "--out", str(tmp_path / "graph.tsv"),
            "--angles", str(angles_path),
        ]
    )
    assert code == 0
    out = tmp_path / "run"
    code = main(
        [
            "pipeline",
            "--input", str(data),
            "--labels", str(labels),
            "--k", "2",
            "--theta", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert angles_path.read_bytes() == (out / "angles.csv").read_bytes()


def test_sfg_measures_each_angle_once(tmp_path, monkeypatch):
    data, _ = _make_dataset(tmp_path)
    calls = []
    real = sfg.representation_angle

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sfg, "representation_angle", counting)
    argv = ["sfg", "--input", str(data), "--out", str(tmp_path / "graph.tsv")]
    assert main(argv + ["--angles", str(tmp_path / "angles.csv")]) == 0
    assert len(calls) == 1


def test_sfg_with_a_bad_angle_writes_no_histogram(tmp_path):
    data, _ = _make_dataset(tmp_path)
    angles = tmp_path / "angles.csv"
    argv = ["sfg", "--input", str(data), "--out", str(tmp_path / "graph.tsv")]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--max-angle-deg", "100", "--angles", str(angles)])
    assert err.value.code == 1
    assert not angles.exists()


@pytest.mark.parametrize("angle", ["100", "0", "-15", "nan", "inf", "wide"])
@pytest.mark.parametrize("command", ["sfg", "pipeline"])
def test_bad_max_angle_is_a_usage_error_before_the_graph(
    tmp_path, capsys, monkeypatch, command, angle
):
    data, labels = _make_dataset(tmp_path)
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("build_sfg must not run")

    monkeypatch.setattr(sfgraph.cli, "build_sfg", never)
    monkeypatch.setattr(sfgraph.pipeline, "build_sfg", never)
    out = tmp_path / "never"
    argv = [command, "--input", str(data), "--out", str(out)]
    if command == "pipeline":
        argv += ["--labels", str(labels), "--k", "2"]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--max-angle-deg", angle])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert f"expected an angle in degrees in (0, 90], got '{angle}'" in stderr
    assert "radians" not in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, "--theta", value)
        for command in ("lcs", "reduce", "pipeline")
        for value in ("0", "1.5", "-0.5", "nan", "inf", "half")
    ]
    + [
        (command, "--epsilon", value)
        for command in ("sfg", "pipeline")
        for value in ("0", "-1e-6", "nan", "-inf", "tiny")
    ],
)
def test_bad_theta_or_epsilon_is_a_usage_error_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    def never(*args, **kwargs):
        raise AssertionError("no file may be read")

    for reader in ("load_csv", "load_labels", "load_sfg"):
        monkeypatch.setattr(sfgraph.cli, reader, never)
    # none of these files exists: a check after reading would exit 2
    missing = tmp_path / "missing"
    out = tmp_path / "never"
    argv = [command, "--out", str(out)]
    if command != "lcs":
        argv += ["--input", str(missing / "data.csv")]
    if command in ("lcs", "reduce"):
        argv += ["--graph", str(missing / "graph.tsv")]
    if command == "pipeline":
        argv += ["--labels", str(missing / "labels.txt"), "--k", "2"]
    with pytest.raises(SystemExit) as err:
        main([*argv, f"{flag}={value}"])  # "-1e-6" alone would read as a flag
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    expected = "a threshold in (0, 1]" if flag == "--theta" else "a positive threshold"
    assert f"argument {flag}: expected {expected}, got '{value}'" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


def test_theta_of_one_is_accepted(tmp_path):
    data, _ = _make_dataset(tmp_path)
    graph = tmp_path / "graph.tsv"
    assert main(["sfg", "--input", str(data), "--out", str(graph)]) == 0
    argv = ["lcs", "--graph", str(graph), "--out", str(tmp_path / "part.txt")]
    assert main([*argv, "--theta", "1"]) == 0


def test_max_angle_of_ninety_degrees_is_accepted(tmp_path):
    data, _ = _make_dataset(tmp_path)
    argv = ["sfg", "--input", str(data), "--out", str(tmp_path / "graph.tsv")]
    assert main([*argv, "--max-angle-deg", "90"]) == 0


def test_lcs_and_reduce_agree_on_kept_features(tmp_path, capsys):
    data, _ = _make_dataset(tmp_path)
    graph_path = tmp_path / "graph.tsv"
    main(["sfg", "--input", str(data), "--out", str(graph_path)])
    part_path = tmp_path / "partition.txt"
    assert main(
        ["lcs", "--graph", str(graph_path), "--theta", "0.5", "--out", str(part_path)]
    ) == 0
    assert part_path.exists()
    out = capsys.readouterr().out
    assert "theta=0.5" in out

    reduced_path = tmp_path / "reduced.csv"
    assert main(
        [
            "reduce",
            "--input", str(data),
            "--graph", str(graph_path),
            "--theta", "0.5",
            "--out", str(reduced_path),
        ]
    ) == 0
    reduced = load_csv(reduced_path)
    # two exact duplicate pairs are planted, so at least two columns drop
    assert reduced.n_features <= 8
    group_lines = [l for l in part_path.read_text().splitlines() if ":" not in l]
    dropped = sum(len(line.split(",")) - 1 for line in group_lines)
    assert reduced.n_features == 10 - dropped


def _reduce_inputs(tmp_path):
    """A dataset, its saved graph and the argv of ``reduce`` on them at θ 0.5."""
    data, _ = _make_dataset(tmp_path)
    graph = tmp_path / "graph.tsv"
    assert main(["sfg", "--input", str(data), "--out", str(graph)]) == 0
    return data, ["reduce", "--input", str(data), "--graph", str(graph), "--theta", "0.5"]


def test_reduce_opens_its_input_once(tmp_path, monkeypatch):
    data, argv = _reduce_inputs(tmp_path)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == str(data):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main([*argv, "--out", str(tmp_path / "reduced.csv")]) == 0
    assert len(opened) == 1


class _FullDisk:
    """A file opened for writing whose writes after the first fail as on a
    full disk."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def close(self):
        self._fh.close()

    def write(self, text):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_reduce_that_cannot_write_its_output_leaves_no_file(tmp_path, monkeypatch, capsys):
    _, argv = _reduce_inputs(tmp_path)
    out = tmp_path / "reduced.csv"
    real_open = builtins.open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if file == str(out) else fh

    monkeypatch.setattr(builtins, "open", full_disk_open)
    assert main([*argv, "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


def test_reduce_refuses_to_overwrite_its_input(tmp_path, capsys):
    data, argv = _reduce_inputs(tmp_path)
    before = data.read_bytes()
    assert main([*argv, "--out", str(data.parent / "." / data.name)]) == 1
    assert "cannot overwrite the input file" in capsys.readouterr().err
    assert data.read_bytes() == before


@pytest.mark.parametrize("text", [None, "foo=bar\n"], ids=["missing", "malformed"])
def test_reduce_reads_the_graph_before_the_csv(tmp_path, monkeypatch, capsys, text):
    def never(path):
        raise AssertionError("the CSV may not be parsed before the graph")

    monkeypatch.setattr(sfgraph.cli, "read_csv", never)
    graph = tmp_path / "graph.tsv"
    if text is not None:
        graph.write_text(text)
    out = tmp_path / "reduced.csv"
    argv = ["reduce", "--input", str(tmp_path / "data.csv"), "--graph", str(graph)]
    assert main([*argv, "--theta", "0.5", "--out", str(out)]) == 2
    assert str(graph) in capsys.readouterr().err
    assert not out.exists()


def test_eval_sc_writes_scores(tmp_path):
    data, labels = _make_dataset(tmp_path)
    out = tmp_path / "scores.json"
    code = main(
        [
            "eval-sc",
            "--input", str(data),
            "--labels", str(labels),
            "--k", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["k"] == 2
    assert 0.0 <= payload["nmi"] <= 1.0
    assert 0.0 <= payload["acc"] <= 1.0
    assert payload["sigma"] > 0.0


def test_eval_sc_prints_to_stdout_without_out(tmp_path, capsys):
    data, labels = _make_dataset(tmp_path)
    capsys.readouterr()  # drain the synth status line
    assert main(
        ["eval-sc", "--input", str(data), "--labels", str(labels), "--k", "2"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_features"] == 10


def test_eval_mcfs_uses_default_count_grid(tmp_path):
    data, labels = _make_dataset(tmp_path)
    out = tmp_path / "grid.json"
    code = main(
        [
            "eval-mcfs",
            "--input", str(data),
            "--labels", str(labels),
            "--k", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    counts = [rec["selected"] for rec in payload["records"]]
    assert counts == list(range(10, 61, 5))
    # m = 10 fits the 10-feature dataset; every larger m is a null record
    # that says why
    assert payload["records"][0]["nmi"] is not None
    assert all(rec["nmi"] is None for rec in payload["records"][1:])
    for rec in payload["records"][1:]:
        assert rec["error"] == f"cannot select {rec['selected']} of 10 features"


def test_eval_mcfs_explicit_counts(tmp_path):
    data, labels = _make_dataset(tmp_path)
    out = tmp_path / "grid.json"
    code = main(
        [
            "eval-mcfs",
            "--input", str(data),
            "--labels", str(labels),
            "--k", "2",
            "--m", "2",
            "--m", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [rec["selected"] for rec in payload["records"]] == [2, 4]
    assert all(rec["nmi"] is not None for rec in payload["records"])
    assert all(rec["error"] is None for rec in payload["records"])


def test_pipeline_writes_all_report_files(tmp_path, capsys):
    data, labels = _make_dataset(tmp_path)
    out = tmp_path / "run"
    code = main(
        [
            "pipeline",
            "--input", str(data),
            "--labels", str(labels),
            "--k", "2",
            "--theta", "0.9",
            "--theta", "0.5",
            "--m", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in ("report.json", "sweep.csv", "angles.csv", "mcfs_grid.csv"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "baseline:" in stdout
    assert "theta=0.9" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["thetas"] == [0.9, 0.5]
    assert report["config"]["mcfs_counts"] == [3]


def test_removed_flags_are_usage_errors(tmp_path, capsys):
    # a theta keeps one feature per group, the angle histogram has one shape,
    # a pipeline run is set by its flags alone, the kernel width is always the
    # mean sample distance, synth's mixtures always carry the default noise
    # and labels come only from the --labels file: none has a flag any more
    data, labels = _make_dataset(tmp_path)
    graph = tmp_path / "graph.tsv"
    assert main(["sfg", "--input", str(data), "--out", str(graph)]) == 0
    out = tmp_path / "never"
    dataset = ["--input", str(data)]
    labelled = [*dataset, "--labels", str(labels), "--k", "2", "--out", str(out)]
    for argv, removed in (
        (["sfg", *dataset, "--out", str(out)], ["--bins", "18"]),
        (["lcs", "--graph", str(graph), "--theta", "0.5", "--out", str(out)],
         ["--drop-singletons"]),
        (["reduce", *dataset, "--graph", str(graph), "--theta", "0.5",
          "--out", str(out)], ["--drop-singletons"]),
        (["pipeline", *dataset, "--labels", str(labels), "--k", "2",
          "--theta", "0.5", "--out", str(out)], ["--drop-singletons"]),
        (["pipeline", *dataset, "--labels", str(labels), "--k", "2",
          "--out", str(out)], ["--config", "run.cfg"]),
        (["eval-sc", *dataset, "--labels", str(labels), "--k", "2",
          "--out", str(out)], ["--sigma", "0.5"]),
        (["synth", "--n", "40", "--base", "6", "--out", str(out)],
         ["--mixture-noise", "0.01"]),
        (["sfg", *dataset, "--out", str(out)], ["--label-column", "class"]),
        (["reduce", *dataset, "--graph", str(graph), "--theta", "0.5",
          "--out", str(out)], ["--label-column", "class"]),
        (["eval-sc", *labelled], ["--label-column", "class"]),
        (["eval-mcfs", *labelled], ["--label-column", "class"]),
        (["pipeline", *labelled], ["--label-column", "class"]),
        (["pipeline", *labelled], ["--require-labels"]),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv + removed)
        assert err.value.code == 1, argv
        err_text = capsys.readouterr().err
        assert "unrecognized arguments: " + " ".join(removed) in err_text
        assert not out.exists()


def test_pipeline_is_deterministic_across_runs(tmp_path):
    data, labels = _make_dataset(tmp_path)
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "pipeline",
                "--input", str(data),
                "--labels", str(labels),
                "--k", "2",
                "--theta", "0.7",
                "--out", str(out),
            ]
        )
        assert code == 0
        parsed = json.loads((out / "report.json").read_text())
        parsed.pop("timings_ms")
        reports.append(json.dumps(parsed, sort_keys=True))
    assert reports[0] == reports[1]


# --------------------------------------------------------------------------
# exit codes


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["sfg", "--out", "somewhere.tsv"])  # --input missing
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["unknown-command"])
    assert err.value.code == 1


@pytest.mark.parametrize(
    "command, count",
    [
        ("eval-mcfs", ["--k", "2", "--m", "0"]),
        ("eval-mcfs", ["--k", "2", "--m", "-2"]),
        ("eval-mcfs", ["--k", "2", "--restarts", "0"]),
        ("eval-sc", ["--k", "2", "--restarts", "0"]),
        ("pipeline", ["--k", "0"]),
    ],
    ids=["mcfs-m-0", "mcfs-m-negative", "mcfs-restarts-0", "sc-restarts-0", "pipeline-k-0"],
)
def test_counts_below_one_are_usage_errors(tmp_path, capsys, command, count):
    data, labels = _make_dataset(tmp_path)
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as err:
        main([command, "--input", str(data), "--labels", str(labels), *count,
              "--out", str(out)])
    assert err.value.code == 1
    assert "expected an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "eval-sc", "eval-mcfs", "pipeline"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    data, labels = _make_dataset(tmp_path)
    capsys.readouterr()
    out = tmp_path / "never"
    if command == "synth":
        argv = ["synth", "--n", "40", "--base", "6"]
    else:
        argv = [command, "--input", str(data), "--labels", str(labels), "--k", "2"]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seed", "-1", "--out", str(out)])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert "expected an integer >= 0, got '-1'" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


def test_parameter_conflicts_exit_one(tmp_path):
    data, _ = _make_dataset(tmp_path)
    graph_path = tmp_path / "graph.tsv"
    main(["sfg", "--input", str(data), "--out", str(graph_path)])
    # a bad theta is a usage error, caught while the flags are parsed
    with pytest.raises(SystemExit) as err:
        main(
            [
                "lcs",
                "--graph", str(graph_path),
                "--theta", "1.5",
                "--out", str(tmp_path / "part.txt"),
            ]
        )
    assert err.value.code == 1


@pytest.mark.parametrize("command", ["eval-sc", "eval-mcfs"])
def test_eval_without_labels_is_a_usage_error_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, command
):
    def never(*args, **kwargs):
        raise AssertionError("no file may be read")

    for reader in ("load_csv", "load_labels"):
        monkeypatch.setattr(sfgraph.cli, reader, never)
    out = tmp_path / "never"
    argv = [command, "--input", str(tmp_path / "missing.csv"), "--k", "3"]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(out)])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert "the following arguments are required: --labels" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


def test_missing_input_file_exits_two(tmp_path):
    assert main(
        ["sfg", "--input", str(tmp_path / "absent.csv"), "--out", "graph.tsv"]
    ) == 2


def test_unparseable_input_exits_two(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2\n")
    assert main(["sfg", "--input", str(bad), "--out", str(tmp_path / "g.tsv")]) == 2


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_csv_cell_exits_two(tmp_path, capsys, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1,2,3\n4,5,6\n7,{cell},9\n")
    graph_path = tmp_path / "g.tsv"
    assert main(["sfg", "--input", str(bad), "--out", str(graph_path)]) == 2
    assert "row 3, column 1" in capsys.readouterr().err
    assert not graph_path.exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        ("# sfg d=3 failed=\n0\t3\t0.5\n", "line 2"),
        ("# sfg d=3 failed=\n0\t1\t0.5\n1\t1\t0.5\n", "line 3"),
        ("# sfg d=3 failed=\n0\t1\t0.6\n0\t1\t0.6\n", "repeated edge"),
        ("# sfg d=3 failed=3\n0\t1\t0.5\n", "failed ids"),
        ("# sfg d=3 failed=\n0\t1\tnan\n", "finite weight"),
        ("# sfg d=3 failed=0, 1\n", "'# sfg d=3 failed=0, 1'"),
        ("# sfg d=3 d=5 failed=\n", "'# sfg d=3 d=5 failed='"),
        ("foo=bar\n", "'foo=bar'"),
        ("# sfg d=3\n0\t1\t0.5\n", "'# sfg d=3'"),
        ("# sfg d=3 failed=1,\n", "'# sfg d=3 failed=1,'"),
        ("# sfg d=3 failed=1 \n", "'# sfg d=3 failed=1 '"),
        ("0\t1\t0.5\n", "'0\\t1\\t0.5'"),
        ("", "bad graph header ''"),
        ("# sfg d=0 failed=\n", "graph has no nodes"),
        ("# sfg d=3 failed=\n0\t1\tinf\n", "finite weight"),
        ("# sfg d=12 failed=\n1_0\t+2\t 0.5\n", "bad edge '1_0\\t+2\\t 0.5'"),
        ("# sfg d=3 failed=\n 0\t1\t0.5\n", "bad edge ' 0\\t1\\t0.5'"),
        ("# sfg d=3 failed=\n0\t+1\t0.5\n", "bad edge '0\\t+1\\t0.5'"),
        ("# sfg d=3 failed=\n00\t1\t0.5\n", "bad edge '00\\t1\\t0.5'"),
        ("# sfg d=3 failed=\n0\t1\t0.50\n", "bad edge '0\\t1\\t0.50'"),
        ("# sfg d=3 failed=\n0\t1\t1e3\n", "bad edge '0\\t1\\t1e3'"),
        ("# sfg d=3 failed=\n0\t1\tNaN\n", "bad edge '0\\t1\\tNaN'"),
        ("# sfg d=3 failed=\n0\t1\t0.5 \n", "bad edge '0\\t1\\t0.5 '"),
        ("# sfg d=3 failed=\n0\t1\t0.5\n\n", "line 3: expected 3 tab-separated fields"),
    ],
    ids=[
        "index-out-of-range", "self-loop", "duplicate-edge", "failed-id", "nan-weight",
        "header-space-in-failed", "header-repeated-d", "header-foreign", "header-no-failed",
        "header-trailing-comma", "header-trailing-space", "header-missing", "empty-file",
        "no-nodes", "inf-weight", "edge-underscore-sign-space", "edge-leading-space",
        "edge-plus-sign", "edge-leading-zero", "edge-trailing-zero", "edge-exponent",
        "edge-capital-nan", "edge-trailing-space", "edge-blank-line",
    ],
)
def test_lcs_rejects_malformed_graph_file(tmp_path, capsys, text, problem):
    graph_path = tmp_path / "graph.tsv"
    graph_path.write_text(text)
    out = tmp_path / "part.txt"
    code = main(["lcs", "--graph", str(graph_path), "--theta", "0.5", "--out", str(out)])
    assert code == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
    reason="a Latin-1 byte is valid text in a non-UTF-8 locale",
)
@pytest.mark.parametrize(
    "name, content, argv",
    [
        ("data.csv", b"1,2\n3,\xe9\n", ["sfg", "--out", "g.tsv", "--input"]),
        (
            "labels.txt",
            b"0\n1\xe9\n0\n",
            ["eval-sc", "--k", "2", "--input", "ok.csv", "--labels"],
        ),
        (
            "graph.tsv",
            b"# sfg d=2 failed=\n0\t1\t0.5 \xe9\n",
            ["lcs", "--theta", "0.5", "--out", "p.txt", "--graph"],
        ),
    ],
    ids=["csv", "labels", "graph"],
)
def test_reader_rejects_latin1_bytes(tmp_path, monkeypatch, capsys, name, content, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.csv").write_text("1,2\n3,4\n5,7\n")
    (tmp_path / name).write_bytes(content)
    assert main(argv + [name]) == 2
    err = capsys.readouterr().err
    assert f"{name}: not valid utf-8 text" in err


def test_error_exit_codes_match_the_readme_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Exit codes", 1)[1].split("\n\n")[1]
    documented = {}
    for row in table.splitlines():
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        if cells[0].isdigit():
            for name in re.findall(r"`(\w+Error)`", cells[-1]):
                documented[name] = int(cells[0])
    classes = {cls.__name__: cls for cls in SfgraphError.__subclasses__()}
    assert set(documented) == set(classes) | {"OSError", "MemoryError"}
    for name, cls in classes.items():
        assert cls.exit_code == documented[name], name
    assert documented["OSError"] == documented["MemoryError"] == 2


def test_allocation_failure_exits_two_without_a_traceback(tmp_path, monkeypatch, capsys):
    # A graph header declaring 10^12 nodes makes the reader allocate arrays
    # of that length; the failure is simulated, never provoked, since an
    # overcommitting kernel may grant the real allocation.
    graph_path = tmp_path / "graph.tsv"
    graph_path.write_text("# sfg d=1000000000000 failed=\n")

    def out_of_memory(path):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(sfgraph.cli, "load_sfg", out_of_memory)
    out = tmp_path / "part.txt"
    code = main(["lcs", "--graph", str(graph_path), "--theta", "0.5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "sfgraph: error: not enough memory: Unable to allocate 7.28 TiB for an array\n"
    assert not out.exists()


def test_numerical_failure_exits_three(tmp_path, monkeypatch):
    data, labels = _make_dataset(tmp_path)

    def explode(*args, **kwargs):
        raise NumericalError("eigensolver did not converge")

    monkeypatch.setattr("sfgraph.cli.run_pipeline", explode)
    code = main(
        [
            "pipeline",
            "--input", str(data),
            "--labels", str(labels),
            "--k", "2",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 3
