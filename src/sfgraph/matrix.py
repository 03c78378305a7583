"""Feature-matrix container plus CSV I/O, normalization and pairwise geometry.

Everything downstream works on a ``FeatureMatrix``: an n-samples x d-features
float64 array stored column-major, because all heavy access patterns in this
package walk whole feature columns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import DataError, DimensionError, ParameterError, ParseError

__all__ = [
    "FeatureMatrix",
    "load_csv",
    "load_labels",
    "save_csv",
    "normalize_features",
    "pairwise_euclidean",
]


@dataclass
class FeatureMatrix:
    """A rectangular numeric dataset: rows are samples, columns are features.

    Parameters
    ----------
    values : ndarray of shape (n_samples, n_features)
        Stored as float64 in column-major (Fortran) order so that single
        feature columns are contiguous.
    feature_names : tuple of str, optional
        One name per column, e.g. from a CSV header row.
    """

    values: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        v = np.asfortranarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError(f"feature matrix must be 2-D, got {v.ndim}-D")
        self.values = v
        if self.feature_names is not None:
            self.feature_names = tuple(self.feature_names)
            if len(self.feature_names) != v.shape[1]:
                raise DimensionError(
                    f"{len(self.feature_names)} feature names for "
                    f"{v.shape[1]} columns"
                )

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def subset(self, indices) -> "FeatureMatrix":
        """Return a new matrix holding the given columns, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        names = None
        if self.feature_names is not None:
            names = tuple(self.feature_names[int(j)] for j in idx)
        return FeatureMatrix(self.values[:, idx], names)


def _text_lines(fh, path):
    """The lines of the text file ``fh``; bytes that are not valid in its
    encoding raise :class:`ParseError` naming ``path``."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid {exc.encoding} text ({exc.reason})") from None


def _parse_cell(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path, label_column=None) -> tuple[FeatureMatrix, np.ndarray | None]:
    """Load a rectangular numeric CSV file.

    An optional single header row is detected by the first row containing any
    cell that does not parse as a number.  ``label_column`` selects one column
    to split off as integer class labels; it may be a 0-based column index
    (negatives count from the right) or, when a header is present, a column
    name.

    Returns
    -------
    (FeatureMatrix, labels or None)

    Raises
    ------
    ParseError
        Ragged rows (reported with their 1-based row number), non-numeric
        cells outside the header, non-integer label values, or bytes that
        are not valid text.
    DataError
        A NaN or infinite cell, reported with its row and column.
    DimensionError
        Fewer than 2 samples or fewer than 2 feature columns after label
        extraction.
    """
    with open(path, newline="") as fh:
        try:
            rows = [row for row in csv.reader(_text_lines(fh, path)) if row]
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")

    header: list[str] | None = None
    first = [_parse_cell(c.strip()) for c in rows[0]]
    if any(v is None for v in first):
        header = [c.strip() for c in rows[0]]
        data_rows = rows[1:]
        first_data_line = 2
    else:
        data_rows = rows
        first_data_line = 1
    if not data_rows:
        raise ParseError(f"{path}: no data rows")

    width = len(data_rows[0])
    if header is not None and len(header) != width:
        raise ParseError(
            f"{path}: header has {len(header)} cells, row {first_data_line} has {width}"
        )
    parsed = np.empty((len(data_rows), width), dtype=np.float64)
    for r, row in enumerate(data_rows):
        line_no = first_data_line + r
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row {line_no}: {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            v = _parse_cell(cell.strip())
            if v is None:
                raise ParseError(
                    f"{path}: non-numeric cell at row {line_no}, column {c}: {cell!r}"
                )
            parsed[r, c] = v
    bad = np.argwhere(~np.isfinite(parsed))
    if bad.size:
        r, c = (int(x) for x in bad[0])
        raise DataError(
            f"{path}: non-finite cell at row {first_data_line + r}, column {c}: "
            f"{data_rows[r][c]!r}"
        )

    labels = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise ParameterError(
                    f"label column {label_column!r} given but file has no header row"
                )
            try:
                col = header.index(label_column)
            except ValueError:
                raise ParameterError(
                    f"label column {label_column!r} not in header {header}"
                ) from None
        else:
            col = int(label_column)
            if col < 0:
                col += width
            if not 0 <= col < width:
                raise ParameterError(
                    f"label column index {label_column} out of range for {width} columns"
                )
        raw = parsed[:, col]
        if not np.all((raw == np.round(raw)) & (np.abs(raw) < 2.0**63)):
            raise ParseError(
                f"{path}: label column holds values that are not 64-bit integers"
            )
        labels = raw.astype(np.int64)
        keep = [j for j in range(width) if j != col]
        parsed = parsed[:, keep]
        if header is not None:
            header = [header[j] for j in keep]

    if parsed.shape[0] < 2 or parsed.shape[1] < 2:
        raise DimensionError(
            f"{path}: need at least 2 samples and 2 features, "
            f"got {parsed.shape[0]}x{parsed.shape[1]}"
        )
    return FeatureMatrix(parsed, tuple(header) if header is not None else None), labels


def load_labels(path) -> np.ndarray:
    """Load class labels from a text file with one integer per line."""
    labels: list[int] = []
    with open(path) as fh:
        for line_no, line in enumerate(_text_lines(fh, path), start=1):
            text = line.strip()
            if not text:
                continue
            try:
                labels.append(int(np.int64(text)))
            except (ValueError, OverflowError):
                raise ParseError(
                    f"{path}: line {line_no} is not a 64-bit integer: {text!r}"
                ) from None
    if not labels:
        raise ParseError(f"{path}: no labels found")
    return np.asarray(labels, dtype=np.int64)


def save_csv(path, matrix: FeatureMatrix) -> None:
    """Write a feature matrix as CSV, with a header row when names exist."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if matrix.feature_names is not None:
            writer.writerow(matrix.feature_names)
        for row in matrix.values:
            writer.writerow([repr(float(v)) for v in row])


def normalize_features(matrix: FeatureMatrix) -> tuple[FeatureMatrix, np.ndarray]:
    """Scale every feature column to unit L2 norm.

    All-zero columns cannot be normalized; they are left as zeros and their
    indices returned as the second element, so callers can exclude them.

    Returns
    -------
    (FeatureMatrix, ndarray of int)
        The normalized matrix and the indices of zero-norm columns.
    """
    norms = np.linalg.norm(matrix.values, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    safe = np.where(norms == 0.0, 1.0, norms)
    return FeatureMatrix(matrix.values / safe, matrix.feature_names), zero


def pairwise_euclidean(samples) -> np.ndarray:
    """Dense symmetric matrix of Euclidean distances between rows."""
    x = samples.values if isinstance(samples, FeatureMatrix) else np.asarray(samples)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-D sample matrix, got {x.ndim}-D")
    return squareform(pdist(x, metric="euclidean"))
