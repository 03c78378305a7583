"""Property tests for the file readers: any file text gives either a result
that satisfies the reader's contract or an ``SfgraphError``, never another
exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgraph import FeatureMatrix, SfgraphError, load_csv, load_labels, load_sfg

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
@given(
    text=_table,
    label_column=st.one_of(st.none(), st.integers(-4, 4), _junk),
)
def test_load_csv_returns_a_matrix_or_raises_sfgraph_error(scratch, text, label_column):
    result = _read(load_csv, scratch, text, label_column)
    if result is not None:
        matrix, labels = result
        assert isinstance(matrix, FeatureMatrix)
        assert matrix.n_samples >= 2 and matrix.n_features >= 2
        assert np.all(np.isfinite(matrix.values))
        assert (labels is None) == (label_column is None)
        if labels is not None:
            assert labels.shape == (matrix.n_samples,)


@SETTINGS
@given(text=_lines(_token))
def test_load_labels_returns_integers_or_raises_sfgraph_error(scratch, text):
    labels = _read(load_labels, scratch, text)
    if labels is not None:
        assert labels.dtype == np.int64 and labels.size >= 1


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
