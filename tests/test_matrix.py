"""Tests for the feature-matrix container and its CSV I/O."""

import codecs
import csv
import locale
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from sfgraph import (
    DataError,
    DimensionError,
    FeatureMatrix,
    ParameterError,
    ParseError,
    SpectralEmbedding,
    build_sfg,
    load_csv,
    load_labels,
    mcfs_select,
    normalize_features,
    pairwise_euclidean,
    read_csv,
    save_csv,
    write_columns,
)
from sfgraph.matrix import BLOCK_BYTES, _read_buffer, _read_cells
from sfgraph.omp import UNIT_NORM_TOL


def test_matrix_coerces_to_fortran_float64():
    m = FeatureMatrix(np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int32))
    assert m.values.dtype == np.float64
    assert m.values.flags.f_contiguous
    assert m.n_samples == 3
    assert m.n_features == 2
    np.testing.assert_array_equal(m.values[:, 1], [2.0, 4.0, 6.0])


def test_matrix_rejects_wrong_dimensionality():
    with pytest.raises(DimensionError):
        FeatureMatrix(np.arange(4.0))
    with pytest.raises(DimensionError):
        FeatureMatrix(np.zeros((2, 2, 2)))


def test_matrix_validates_feature_names():
    with pytest.raises(DimensionError):
        FeatureMatrix(np.zeros((2, 3)), feature_names=("a", "b"))
    m = FeatureMatrix(np.zeros((2, 3)), feature_names=["a", "b", "c"])
    assert m.feature_names == ("a", "b", "c")


def test_subset_keeps_order_and_names():
    m = FeatureMatrix(np.arange(12.0).reshape(3, 4), feature_names=list("abcd"))
    s = m.subset([2, 0])
    assert s.feature_names == ("c", "a")
    np.testing.assert_array_equal(s.values, m.values[:, [2, 0]])


def test_subset_range_check():
    features = FeatureMatrix(np.random.default_rng(13).normal(size=(4, 3)))
    with pytest.raises(ParameterError, match="kept index 3 out of range for 3 features"):
        features.subset([0, 1, 3])


def test_subset_rejects_a_negative_index():
    # a negative index would otherwise count from the end
    features = FeatureMatrix(np.arange(12.0).reshape(3, 4))
    with pytest.raises(ParameterError, match="kept index -1 out of range for 4 features"):
        features.subset([-1])


def test_load_csv_without_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    m = load_csv(path)
    assert isinstance(m, FeatureMatrix)
    assert m.feature_names is None
    np.testing.assert_array_equal(m.values, [[1, 2, 3], [4, 5, 6]])


def test_load_csv_detects_header_row(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("x,y,z\n1,2,3\n4,5,6\n")
    m = load_csv(path)
    assert m.feature_names == ("x", "y", "z")
    assert m.n_samples == 2


def test_load_csv_ragged_row_names_its_row_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "row 2" in str(err.value)


def test_load_csv_non_numeric_cell_is_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    message = str(err.value)
    assert "row 2" in message and "oops" in message


@pytest.mark.parametrize(
    "text, error, where",
    [
        ("a,b\n\n1,2\n\n3\n", ParseError, "ragged row 5:"),
        ('a,b\n\n1,"2\n"\n\n3\n', ParseError, "ragged row 6:"),
        ('"a\nb",c\n\n1,2\n\n4,oops\n', ParseError, "row 6, column 1"),
        ("1,2\n\n\n3,nan\n", DataError, "row 4, column 1"),
        ('a,b\n\n"1\n",2,3\n', ParseError, "row 4 has 3"),
    ],
    ids=["ragged", "quoted-ragged", "quoted-header", "non-finite", "header-width"],
)
def test_load_csv_numbers_rows_by_file_line(tmp_path, text, error, where):
    # blank lines and newlines inside quoted cells still count as lines
    path = tmp_path / "gaps.csv"
    path.write_text(text)
    with pytest.raises(error) as err:
        load_csv(path)
    assert where in str(err.value)


def test_load_csv_minimum_shape(tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("1,2\n")  # a single sample
    with pytest.raises(DimensionError):
        load_csv(path)
    path.write_text("1\n2\n")  # a single feature
    with pytest.raises(DimensionError):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\r\n", "no data rows"),
        ("a,b\n\n\r\n\r", "no data rows"),
        ("\n\r\n\r\n", "empty file"),
    ],
    ids=["header-only", "header-and-blank-lines", "blank-lines"],
)
def test_load_csv_without_data_rows_raises_no_warning(tmp_path, text, message):
    # numpy's loadtxt warns on an empty body; load_csv must only raise.
    path = tmp_path / "nodata.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=message):
            load_csv(path)


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="the bytes below are invalid only in UTF-8",
)
@pytest.mark.parametrize("good_rows", [1, 3000], ids=["first-block", "later-block"])
def test_load_csv_names_bytes_that_are_not_text_after_the_header(tmp_path, good_rows):
    # Text is decoded in blocks of a few kB, so the bad byte is met either
    # while the header is read or while the body is converted.
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\r\n" + b"1,2\r\n" * good_rows + b"3,\xe9\r\n")
    with pytest.raises(ParseError, match=r": not valid utf-8 text \(invalid continuation byte\)$"):
        load_csv(path)


def test_load_csv_keeps_the_csv_field_size_limit(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("a,b\n1,2\n3," + "0" * 40 + "4\n")
    default = csv.field_size_limit(16)
    try:
        with pytest.raises(ParseError, match=r"field larger than field limit \(16\)"):
            load_csv(path)
    finally:
        csv.field_size_limit(default)
    np.testing.assert_array_equal(load_csv(path).values, [[1, 2], [3, 4]])


_UTF8 = pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="the files below are written as UTF-8",
)


def _read_both_routes(path):
    """``read_csv``'s matrix and rows, and the cell reader's own table."""
    matrix, rows = read_csv(path)
    return (matrix, list(rows)), _read_cells(path, path.read_bytes())


@pytest.mark.parametrize(
    "text, buffered",
    [
        (b"a,b\n1,2\n3,4\n", True),
        (b"a,b\r\n1,2\r\n3,4\r\n", True),
        (b"a,b\r1,2\r3,4\r", False),  # loadtxt rejects a lone CR in a buffer
        (b"\n1,2\n\n \t3 ,4\r\n\r\n5,6\n", True),
        (b'"x,\r\ny",z\r\n\r\n1,2\r\n3,4\r\n', True),
    ],
    ids=["lf", "crlf", "lone-cr", "blank-lines", "two-line-header"],
)
def test_both_routes_read_the_cell_readers_values_and_rows(tmp_path, text, buffered):
    path = tmp_path / "routes.csv"
    path.write_bytes(text)
    assert (_read_buffer(text) is not None) == buffered
    (matrix, rows), (header, values, cell_rows) = _read_both_routes(path)
    assert matrix.values.tobytes() == values.tobytes()
    assert matrix.feature_names == (tuple(header) if header is not None else None)
    assert rows == [list(row) for row in cell_rows]


@_UTF8
@pytest.mark.parametrize(
    "text", ["a,b\n1,\u00a02\u00a0\n3,4\n", "\u0661,2\n3,\u0664\n"], ids=["nbsp", "arabic-indic"]
)
def test_a_body_that_is_not_ascii_is_read_cell_by_cell(tmp_path, text):
    path = tmp_path / "unicode.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_buffer(path.read_bytes()) is None
    (matrix, rows), (_, values, cell_rows) = _read_both_routes(path)
    np.testing.assert_array_equal(matrix.values, [[1, 2], [3, 4]])
    assert matrix.values.tobytes() == values.tobytes()
    assert rows == [list(row) for row in cell_rows]


@_UTF8
def test_a_header_that_is_not_ascii_keeps_the_buffer_route(tmp_path):
    path = tmp_path / "names.csv"
    path.write_bytes("\u00e9t\u00e9,\u0628\n1,2\n3,4\n".encode("utf-8"))
    table = _read_buffer(path.read_bytes())
    assert table is not None and table[0] == ["\u00e9t\u00e9", "\u0628"]
    matrix, rows = read_csv(path)
    assert matrix.feature_names == ("\u00e9t\u00e9", "\u0628")
    assert list(rows) == [["1", "2"], ["3", "4"]]


@pytest.mark.parametrize("header", ["", "a,b\n"], ids=["no-header", "header"])
def test_a_cell_over_the_field_size_limit_is_the_cell_readers_error(tmp_path, header):
    path = tmp_path / "long.csv"
    path.write_text(header + "1,2\n3," + " " * 20 + "4\n")
    default = csv.field_size_limit(16)
    try:
        assert _read_buffer(path.read_bytes()) is None
        with pytest.raises(ParseError) as err:
            read_csv(path)
    finally:
        csv.field_size_limit(default)
    assert str(err.value) == f"{path}: field larger than field limit (16)"


def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    original = FeatureMatrix(rng.normal(size=(5, 4)), feature_names=list("wxyz"))
    path = tmp_path / "round.csv"
    save_csv(path, original)
    loaded = load_csv(path)
    assert loaded.feature_names == original.feature_names
    np.testing.assert_array_equal(loaded.values, original.values)


def test_save_csv_writes_shortest_round_trip_floats(tmp_path):
    values = np.array([[-0.0, 0.1], [1e22, 5e-324]])
    path = tmp_path / "named.csv"
    save_csv(path, FeatureMatrix(values, feature_names=["a", "b"]))
    assert path.read_bytes() == b"a,b\r\n-0.0,0.1\r\n1e+22,5e-324\r\n"
    path = tmp_path / "plain.csv"
    save_csv(path, FeatureMatrix(values))
    assert path.read_bytes() == b"-0.0,0.1\r\n1e+22,5e-324\r\n"


@pytest.mark.parametrize(
    "text, kept, expected",
    [
        # One column: itemgetter(j) gives the cell, not a 1-tuple.
        ('" a ","b,c",d\n1,+2, 3 \n4e0,5_0,6\n', [1], '"b,c"\r\n+2\r\n5_0\r\n'),
        ('" a ","b,c",d\n1,+2, 3 \n4e0,5_0,6\n', [0, 1, 2],
         'a,"b,c",d\r\n1,+2,3\r\n4e0,5_0,6\r\n'),
        ('" a ","b,c",d\n1,+2, 3 \n4e0,5_0,6\n', [2, 0], "d,a\r\n3,1\r\n6,4e0\r\n"),
        ("1,2\r\n\r\n \t3 ,4\r\r\n", [0], "1\r\n3\r\n"),
    ],
    ids=["one-column", "all-columns", "reordered", "no-header"],
)
def test_write_columns_copies_the_kept_cells_stripped(tmp_path, text, kept, expected):
    source, out = tmp_path / "in.csv", tmp_path / "out.csv"
    source.write_text(text)
    matrix, rows = read_csv(source)
    write_columns(out, matrix, rows, kept)
    assert out.read_bytes() == expected.encode()
    # A one-column file is below load_csv's 2 features: read it with csv.
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    if matrix.feature_names is not None:
        assert rows.pop(0) == [matrix.feature_names[j] for j in kept]
    values = np.array([[float(cell) for cell in row] for row in rows])
    np.testing.assert_array_equal(values, matrix.values[:, kept])


@pytest.mark.parametrize("kept", [[0, 3], [-1], [0, 1, 2, 3]])
def test_write_columns_rejects_an_index_out_of_range(tmp_path, kept):
    source, out = tmp_path / "in.csv", tmp_path / "out.csv"
    source.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ParameterError, match="out of range for 3 features"):
        write_columns(out, *read_csv(source), kept)
    assert not out.exists()


def test_load_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n\n \n2\n-9223372036854775808\n9223372036854775807\n")
    np.testing.assert_array_equal(load_labels(path), [0, 1, 2, -(2**63), 2**63 - 1])
    path.write_text("0\nnope\n")
    with pytest.raises(ParseError) as err:
        load_labels(path)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["1_0", "+1", " 1", "1 ", "\t1", "01", "-0", "\u0661", "9223372036854775808", "None"],
)
def test_load_labels_refuses_a_label_that_is_not_canonical(tmp_path, text):
    # int() reads most of these, which would merge two label texts into one
    # class ("1_0" with "10", "+1" and U+0661 with "1").  A locale that cannot
    # encode U+0661 writes "?", refused as well.
    path = tmp_path / "labels.txt"
    path.write_bytes(f"0\n{text}\n".encode(locale.getpreferredencoding(False), "replace"))
    with pytest.raises(ParseError, match=r": line 2 is not a 64-bit integer: "):
        load_labels(path)


def test_normalize_features_unit_columns():
    rng = np.random.default_rng(3)
    m = FeatureMatrix(rng.normal(size=(10, 6)) * 5.0)
    normalized, zero = normalize_features(m)
    assert zero.size == 0
    norms = np.linalg.norm(normalized.values, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_normalize_features_flags_zero_columns():
    values = np.ones((4, 3))
    values[:, 1] = 0.0
    normalized, zero = normalize_features(FeatureMatrix(values))
    np.testing.assert_array_equal(zero, [1])
    np.testing.assert_array_equal(normalized.values[:, 1], np.zeros(4))
    np.testing.assert_allclose(np.linalg.norm(normalized.values[:, 0]), 1.0)


def test_normalize_features_columns_whose_squares_overflow():
    # the norm of a finite column of cells near 1e200 overflows to inf; such
    # a column is rescaled first, and every other column keeps its bits
    rng = np.random.default_rng(4)
    ordinary = rng.normal(size=12) * 3.0
    direction = rng.normal(size=12)
    edge = np.array([1.5e308, -1.7e308, 1e308] + [0.0] * 9)  # |edge| > max float
    values = np.column_stack([ordinary, direction * 1e200, edge])
    normalized, zero = normalize_features(FeatureMatrix(values))
    assert zero.size == 0
    out = normalized.values
    assert out[:, 0].tobytes() == (ordinary / np.linalg.norm(ordinary)).tobytes()
    for col, parallel in ((1, direction), (2, edge / 1e308)):
        np.testing.assert_allclose(np.linalg.norm(out[:, col]), 1.0, rtol=1e-15)
        np.testing.assert_allclose(
            out[:, col], parallel / np.linalg.norm(parallel), rtol=1e-14, atol=1e-300
        )


@pytest.mark.parametrize("scale", [1e-150, 1e-161, 1e-162, 1e-200, 1e-310, 5e-324])
def test_normalize_features_columns_whose_squares_underflow(scale):
    # cells under about 1e-154 square to subnormals or to zero, so the plain
    # norm of such a column is off or 0; the column is rescaled first, comes
    # out unit-norm and is not reported as zero, and the solver takes it
    rng = np.random.default_rng(5)
    values = rng.normal(size=(20, 5))
    values[:, 0] *= scale
    values[:, 3] = 0.0
    normalized, zero = normalize_features(FeatureMatrix(values))
    np.testing.assert_array_equal(zero, [3])
    out = normalized.values
    assert abs(np.linalg.norm(out[:, 0]) - 1.0) <= UNIT_NORM_TOL
    np.testing.assert_array_equal(out[:, 3], np.zeros(20))
    for col in (1, 2, 4):
        expected = values[:, col] / np.linalg.norm(values[:, col])
        assert out[:, col].tobytes() == expected.tobytes()
    assert 0 not in build_sfg(normalized).failed_nodes
    emb = SpectralEmbedding(out[:, [1, 2]], np.zeros(2))
    assert mcfs_select(normalized, emb, [2])[0].selected.size == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalize_features_rejects_non_finite_cells():
    # a NaN or infinite cell is refused by name, before any division; a
    # column of finite cells whose norm overflows is still normalized above
    values = np.array([[1.0, np.inf, np.nan], [2.0, 1.0, 1.0]])
    with pytest.raises(DataError, match=r"non-finite value in feature column 1$"):
        normalize_features(FeatureMatrix(values))
    with pytest.raises(DataError, match=r"column 0$"):
        normalize_features(FeatureMatrix([[-np.inf], [np.inf]]))


def test_pairwise_euclidean_matches_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(20):
        x = rng.normal(size=(rng.integers(2, 9), rng.integers(1, 5)))
        dist = pairwise_euclidean(x)
        n = x.shape[0]
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                expected[i, j] = np.sqrt(np.sum((x[i] - x[j]) ** 2))
        np.testing.assert_allclose(dist, expected, atol=1e-12)
        np.testing.assert_allclose(dist, dist.T, atol=0)
        np.testing.assert_array_equal(np.diag(dist), np.zeros(n))



def test_pairwise_euclidean_is_exact_where_it_must_be_at_scale():
    rng = np.random.default_rng(13)
    x = 1e3 + rng.normal(size=(1000, 16))
    x[700] = x[3]
    dist = pairwise_euclidean(x)
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    assert dist[3, 700] == 0.0 and dist[700, 3] == 0.0
    np.testing.assert_allclose(dist, squareform(pdist(x)), rtol=0, atol=1e-12)


def test_pairwise_euclidean_is_layout_independent():
    rng = np.random.default_rng(12)
    matrix = FeatureMatrix(rng.normal(size=(30, 7)))
    assert matrix.values.flags.f_contiguous and not matrix.values.flags.c_contiguous
    from_f = pairwise_euclidean(matrix)
    from_c = pairwise_euclidean(np.ascontiguousarray(matrix.values))
    assert from_f.tobytes() == from_c.tobytes()
    subset = matrix.subset([5, 0, 3])
    assert (
        pairwise_euclidean(subset).tobytes()
        == pairwise_euclidean(np.ascontiguousarray(subset.values)).tobytes()
    )


def _pairwise_whole(x):
    """The distances as one whole-matrix pass forms them: the reference the
    blocked kernel must match bit for bit."""
    x = np.array(x, dtype=np.float64, order="C")
    x -= x.mean(axis=0)
    d2 = x @ x.T
    sq = d2.diagonal().copy()
    d2 *= -2.0
    d2 += np.add.outer(sq, sq)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


# n = 2; n within one block of rows; n = 300 and 1000, which end on a partial block
@pytest.mark.parametrize("n, d", [(2, 3), (100, 7), (300, 5), (1000, 16)])
def test_pairwise_euclidean_blocks_are_bitwise_the_whole_matrix_pass(n, d):
    rows = BLOCK_BYTES // (8 * n)  # rows per block
    assert n <= rows if n <= 100 else n % rows != 0
    rng = np.random.default_rng(n)
    # an offset for cancellation, and repeated rows whose d^2 is clipped at 0
    x = 1e3 + rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    x[n // 2 :: 7] = x[0]
    for layout in (np.asfortranarray(x), x):
        assert pairwise_euclidean(layout).tobytes() == _pairwise_whole(x).tobytes()


def test_pairwise_euclidean_holds_one_n_by_n_array():
    n = 1000
    x = np.random.default_rng(14).normal(size=(n, 16))
    tracemalloc.start()
    try:
        pairwise_euclidean(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8, peak
