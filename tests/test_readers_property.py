"""Property tests for the file readers: any file text gives either a result
that satisfies the reader's contract or an ``SfgraphError``, never another
exception.  The CSV reader and writer are also checked against per-cell
reference versions, value for value and byte for byte, and ``reduce``'s
projection of a CSV against the reader."""

import argparse
import csv
import dataclasses
import locale
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfgraph.cli
from sfgraph import (
    DataError,
    DimensionError,
    FeatureMatrix,
    ParseError,
    SfgraphError,
    load_csv,
    load_labels,
    load_sfg,
    save_csv,
)

SETTINGS = settings(max_examples=200, deadline=None)

# ASCII keeps the files readable under any locale's default encoding.
_junk = st.text(st.characters(max_codepoint=127), max_size=8)
_number = st.one_of(
    st.integers(-3, 9).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", " 2 ", "1_0", "+4", ""]),
)
_token = st.one_of(_number, _junk)


def _lines(line):
    return st.lists(line, max_size=8).map(lambda rows: "\n".join(rows) + "\n")


def _encodable(text):
    try:
        text.encode(locale.getpreferredencoding(False))
    except UnicodeEncodeError:
        return False
    return True


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _read(reader, path, text, *args):
    path.write_text(text)
    try:
        return reader(path, *args)
    except SfgraphError:
        return None


# Mostly rectangular numeric tables, so that many examples parse.
_table = st.integers(1, 4).flatmap(
    lambda width: _lines(
        st.lists(st.one_of(_number, _number, _token), min_size=width, max_size=width)
        .map(",".join)
    )
)


@SETTINGS
@given(text=_table)
def test_load_csv_returns_a_matrix_or_raises_sfgraph_error(scratch, text):
    matrix = _read(load_csv, scratch, text)
    if matrix is not None:
        assert isinstance(matrix, FeatureMatrix)
        assert matrix.n_samples >= 2 and matrix.n_features >= 2
        assert np.all(np.isfinite(matrix.values))


@SETTINGS
@given(text=_lines(_token))
@example(text="1_0\n")
@example(text="+1\n")
@example(text=" 1\n")
@example(text="01\n")
@example(text="-0\n")
@example(text="\u0661\n")
@example(text="9223372036854775808\n")
@example(text="1\r\n \n-9223372036854775808\r")
def test_load_labels_returns_integers_or_raises_sfgraph_error(scratch, text):
    if not _encodable(text):
        return  # U+0661 has no byte form in this locale's encoding
    labels = _read(load_labels, scratch, text)
    # Each non-blank line, split as universal newlines split it, is one
    # label's canonical rendering, or the file is refused.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [line for line in lines if line.strip()]
    canonical = all(
        re.fullmatch(r"0|-?[1-9][0-9]*", line) and -(2**63) <= int(line) < 2**63
        for line in lines
    )
    if labels is None:
        assert not lines or not canonical
    else:
        assert labels.dtype == np.int64
        assert [str(label) for label in labels.tolist()] == lines


_index = st.one_of(st.integers(-2, 7).map(str), _junk)
_header = st.one_of(
    st.builds(
        "# sfg d={} failed={}".format,
        _index,
        st.lists(_index, max_size=3).map(",".join),
    ),
    _junk,
)
_edge = st.one_of(st.lists(st.one_of(_index, _number), max_size=4).map("\t".join), _junk)


@SETTINGS
@given(header=_header, body=_lines(_edge))
def test_load_sfg_returns_a_valid_graph_or_raises_sfgraph_error(scratch, header, body):
    graph = _read(load_sfg, scratch, header + "\n" + body)
    if graph is not None:
        d = graph.n_nodes
        coo = graph.weights.tocoo()
        assert np.all((coo.row >= 0) & (coo.row < d) & (coo.col >= 0) & (coo.col < d))
        assert not np.any(coo.row == coo.col)
        assert np.all(np.isfinite(coo.data))
        assert all(0 <= i < d for i in graph.failed_nodes)


# --------------------------------------------------------------------------
# load_csv and save_csv against per-cell references


def _reference_text_lines(fh, path):
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid {exc.encoding} text ({exc.reason})") from None


def _reference_parse_cell(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _reference_load_csv(path):
    """``load_csv`` as a cell-by-cell loop: each cell is stripped, parsed
    with ``float`` and stored on its own, and the first fault stops it."""
    with open(path, newline="") as fh:
        reader = csv.reader(_reference_text_lines(fh, path))
        try:
            numbered = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not numbered:
        raise ParseError(f"{path}: empty file")
    line_nos, rows = zip(*numbered)

    header = None
    first = [_reference_parse_cell(c.strip()) for c in rows[0]]
    if any(v is None for v in first):
        header = [c.strip() for c in rows[0]]
        data_rows, line_nos = rows[1:], line_nos[1:]
    else:
        data_rows = rows
    if not data_rows:
        raise ParseError(f"{path}: no data rows")

    width = len(data_rows[0])
    if header is not None and len(header) != width:
        raise ParseError(
            f"{path}: header has {len(header)} cells, row {line_nos[0]} has {width}"
        )
    parsed = np.empty((len(data_rows), width), dtype=np.float64)
    for line_no, row, out in zip(line_nos, data_rows, parsed):
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row {line_no}: {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            v = _reference_parse_cell(cell.strip())
            if v is None:
                raise ParseError(
                    f"{path}: non-numeric cell at row {line_no}, column {c}: {cell!r}"
                )
            out[c] = v
    bad = np.argwhere(~np.isfinite(parsed))
    if bad.size:
        r, c = (int(x) for x in bad[0])
        raise DataError(
            f"{path}: non-finite cell at row {line_nos[r]}, column {c}: "
            f"{data_rows[r][c]!r}"
        )

    if parsed.shape[0] < 2 or parsed.shape[1] < 2:
        raise DimensionError(
            f"{path}: need at least 2 samples and 2 features, "
            f"got {parsed.shape[0]}x{parsed.shape[1]}"
        )
    return FeatureMatrix(parsed, tuple(header) if header is not None else None)


# Numbers whose parse hinges on the strip or on float's own grammar: padding,
# the separators U+001C-U+001F that only the strip removes, other whitespace
# (U+000B, U+000C, U+0085, U+2028) that a line splitter might break at, NUL,
# digit grouping, non-ASCII digits, quoted numbers and exponents.
_tricky = st.sampled_from(
    [" 2 ", "1_0", "  1.5", "\x1c1.5", "\x1f-3\x1d", '"3.25"', '" -7 "', "1e3", "-2.5E-4"]
    + ["\x0b2", "2\x0c", "\x1e-1", "\x005", "5\x00", "6\x007"]
    + [cell for cell in ["١٢", "\x858", "8\u2028"] if _encodable(cell)]
)
_cell = st.one_of(_number, _tricky, _tricky)
_line_end = st.sampled_from(["\n", "\r\n", "\r"])
_blank_line = st.sampled_from(["", " ", "\t", " \t "])
_header_name = st.text(st.sampled_from('ab1 ,\n\r"'), max_size=4)


@st.composite
def _split_table(draw):
    """Files where numpy's tokenizer and ``csv.reader`` can split apart:
    CRLF and lone CR line ends, blank, space-only and tab-only lines,
    trailing commas, quoted header names holding separators, and files
    that are a header alone."""
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        names = draw(st.lists(_header_name, min_size=width, max_size=width))
        lines.append(",".join('"' + name.replace('"', '""') + '"' for name in names))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(_blank_line))
            continue
        row = ",".join(draw(st.lists(_cell, min_size=width, max_size=width)))
        lines.append(row + "," if draw(st.integers(0, 7)) == 0 else row)
    return "".join(line + draw(_line_end) for line in lines)


_oracle_table = st.one_of(
    _table,
    # Rectangular, numeric and at least 2x2, so that many examples parse.
    st.integers(2, 4).flatmap(
        lambda width: st.lists(
            st.lists(_cell, min_size=width, max_size=width).map(",".join),
            min_size=2,
            max_size=8,
        ).map(lambda rows: "\n".join(rows) + "\n")
    ),
    # Rows of any width, with faults on any number of them.
    _lines(st.lists(st.one_of(_cell, _token), min_size=1, max_size=4).map(",".join)),
    _split_table(),
)


def _outcome(reader, path):
    try:
        matrix = reader(path)
    except SfgraphError as exc:
        return type(exc), str(exc)
    return matrix.values.shape, matrix.values.tobytes(), matrix.feature_names


@SETTINGS
@given(text=_oracle_table)
@example(text="\x1c1.5,2\n3,4\n")
@example(text="a,b\n1,2\n3,x,5\n6,y\n")
@example(text='1,"0x10"\n2,3\n4\n5,z\n')
@example(text="1,2\n \n3,4\n")
@example(text="1,2\r\n\t\r\n3,4\r\n")
@example(text="1\n \n2\n")
@example(text='"a\rb",c\r1,2\r3,4\r')
@example(text='"x,\r\ny",z\r\n1,2\r\n\r3,4\r\n')
@example(text="1,2\r3,4\r\r5,6\n")
@example(text="1,2,\n3,4,\n")
@example(text="1,\x0b2\n3\x0c,4\n\x1e5,6\n")
@example(text="1,2\x00\n3,4\n")
@example(text='"a","b"\r\n')
@example(text='"a","b"\r\n\r\n\r')
def test_load_csv_matches_the_per_cell_reference(scratch, text):
    scratch.write_text(text)
    assert _outcome(load_csv, scratch) == _outcome(_reference_load_csv, scratch)


def _reference_save_csv(path, matrix):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if matrix.feature_names is not None:
            writer.writerow(matrix.feature_names)
        writer.writerows(matrix.values.tolist())


_value = st.one_of(
    st.floats(),
    st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5]
    ),
)
_name = st.text(st.sampled_from('ab1 ,"\';\t'), max_size=5)


@st.composite
def _matrices(draw):
    n = draw(st.integers(0, 5))
    d = draw(st.integers(0, 4))
    values = np.array(
        draw(st.lists(_value, min_size=n * d, max_size=n * d)), dtype=np.float64
    ).reshape(n, d)
    names = draw(st.one_of(st.none(), st.lists(_name, min_size=d, max_size=d)))
    return FeatureMatrix(values, names)


@SETTINGS
@given(matrix=_matrices())
def test_save_csv_writes_what_csv_writer_writes(scratch, matrix):
    reference = scratch.with_name("reference.csv")
    save_csv(scratch, matrix)
    _reference_save_csv(reference, matrix)
    assert scratch.read_bytes() == reference.read_bytes()


# --------------------------------------------------------------------------
# reduce's column projection against the reader


def _reference_rows(path):
    """The non-blank rows of ``path`` as ``csv.reader`` splits them."""
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def _reduce(source, out, graph, kept):
    """Run ``reduce`` on ``source`` with a graph of no edges, whose
    partition's kept set is replaced by ``kept``."""
    args = argparse.Namespace(input=str(source), graph=str(graph), theta=1.0, out=str(out))
    find_lcs = sfgraph.cli.find_lcs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            sfgraph.cli,
            "find_lcs",
            lambda *a: dataclasses.replace(find_lcs(*a), kept=np.array(kept)),
        )
        sfgraph.cli.cmd_reduce(args)


@st.composite
def _canonical_table(draw):
    """Tables of at least 2x2 whose every body cell is ``repr`` of a finite
    float, as ``save_csv`` writes them, under any line ends and with
    optional quoted header names."""
    width = draw(st.integers(2, 4))
    lines = []
    if draw(st.booleans()):
        names = draw(st.lists(_header_name, min_size=width, max_size=width))
        lines.append(",".join('"' + name.replace('"', '""') + '"' for name in names))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    for _ in range(draw(st.integers(2, 5))):
        lines.append(",".join(draw(st.lists(finite, min_size=width, max_size=width))))
    return "".join(line + draw(_line_end) for line in lines)


@SETTINGS
@given(text=st.one_of(_oracle_table, _canonical_table()), data=st.data())
def test_reduce_projects_what_load_csv_reads(scratch, text, data):
    scratch.write_text(text)
    graph = scratch.with_name("graph.tsv")
    out = scratch.with_name("reduced.csv")
    out.unlink(missing_ok=True)
    try:
        matrix = load_csv(scratch)
    except SfgraphError as exc:
        graph.write_text("# sfg d=2 failed=\n")
        with pytest.raises(type(exc)) as raised:
            _reduce(scratch, out, graph, [0])
        assert str(raised.value) == str(exc)
        assert not out.exists()
        return
    d = matrix.n_features
    kept = data.draw(st.lists(st.integers(0, d - 1), min_size=1, unique=True), label="kept")
    graph.write_text(f"# sfg d={d} failed=\n")
    _reduce(scratch, out, graph, kept)

    # Each kept cell's text, stripped, read back as the same value.
    rows = _reference_rows(scratch)
    written = _reference_rows(out)
    if matrix.feature_names is not None:
        rows = rows[1:]
        assert written[0] == [matrix.feature_names[j] for j in kept]
        written = written[1:]
    assert written == [[row[j].strip() for j in kept] for row in rows]
    values = np.array([[float(cell) for cell in row] for row in written])
    assert values.tobytes() == np.ascontiguousarray(matrix.values[:, kept]).tobytes()

    if all(cell == repr(float(cell.strip())) for row in rows for cell in row):
        reference = scratch.with_name("reference.csv")
        save_csv(reference, matrix.subset(kept))
        assert out.read_bytes() == reference.read_bytes()
