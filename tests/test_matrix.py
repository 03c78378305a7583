"""Tests for the feature-matrix container and its CSV I/O."""

import numpy as np
import pytest

from sfgraph import (
    DimensionError,
    FeatureMatrix,
    ParameterError,
    ParseError,
    load_csv,
    load_labels,
    normalize_features,
    pairwise_euclidean,
    save_csv,
)


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


def test_load_csv_without_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    m, labels = load_csv(path)
    assert labels is None
    assert m.feature_names is None
    np.testing.assert_array_equal(m.values, [[1, 2, 3], [4, 5, 6]])


def test_load_csv_detects_header_row(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("x,y,z\n1,2,3\n4,5,6\n")
    m, _ = load_csv(path)
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


def test_load_csv_label_column_by_name(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("f0,f1,class\n0.5,1.5,0\n2.5,3.5,1\n")
    m, labels = load_csv(path, label_column="class")
    assert m.feature_names == ("f0", "f1")
    np.testing.assert_array_equal(labels, [0, 1])
    np.testing.assert_array_equal(m.values, [[0.5, 1.5], [2.5, 3.5]])


def test_load_csv_label_column_by_negative_index(tmp_path):
    path = tmp_path / "tail.csv"
    path.write_text("0.5,1.5,0\n2.5,3.5,1\n")
    m, labels = load_csv(path, label_column=-1)
    np.testing.assert_array_equal(labels, [0, 1])
    assert m.n_features == 2


def test_load_csv_rejects_fractional_labels(tmp_path):
    path = tmp_path / "frac.csv"
    path.write_text("1,2,0.5\n3,4,1.0\n")
    with pytest.raises(ParseError):
        load_csv(path, label_column=2)


def test_load_csv_unknown_label_name(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("x,y\n1,2\n3,4\n")
    with pytest.raises(ParameterError):
        load_csv(path, label_column="missing")


def test_load_csv_label_name_needs_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ParameterError):
        load_csv(path, label_column="x")


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


def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    original = FeatureMatrix(rng.normal(size=(5, 4)), feature_names=list("wxyz"))
    path = tmp_path / "round.csv"
    save_csv(path, original)
    loaded, _ = load_csv(path)
    assert loaded.feature_names == original.feature_names
    np.testing.assert_array_equal(loaded.values, original.values)


def test_load_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n\n2\n")
    np.testing.assert_array_equal(load_labels(path), [0, 1, 2])
    path.write_text("0\nnope\n")
    with pytest.raises(ParseError) as err:
        load_labels(path)
    assert "line 2" in str(err.value)


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

