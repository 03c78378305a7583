"""Feature-matrix container plus CSV I/O, normalization and pairwise geometry.

Everything downstream works on a ``FeatureMatrix``: an n-samples x d-features
float64 array stored column-major, because all heavy access patterns in this
package walk whole feature columns.

Dataset CSVs are written with shortest round-trip floats (``repr``) and CRLF
line endings, with header names quoted as the ``csv`` module quotes them.
Every cell is read as ``float()`` reads it after stripping surrounding
whitespace.  The header row is read with the ``csv`` module and the body is
converted in one pass by numpy's C tokenizer, which strips the same
whitespace and parses with the routine behind ``float()``.  A file it
rejects is read cell by cell with ``csv`` and ``float()``, so the files
accepted, their values and every message are those of the cell-by-cell
reader; only a file that fails there too is scanned row by row to name its
first faulty row or cell.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import DataError, DimensionError, ParameterError, ParseError

# Cache-sized budget of the block that ``pairwise_euclidean`` forms squared
# distances through: the distances are then the one n x n float64 array of a
# clustering pass (8 MB at n = 1000, 800 MB at n = 10^4).
BLOCK_BYTES = 1 << 18

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


def _raise_first_fault(path, line_nos, rows, width) -> NoReturn:
    """Raise the :class:`ParseError` of the first ragged row or non-numeric
    cell in file order; a row's width is checked before its cells."""
    for line_no, row in zip(line_nos, rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row {line_no}: {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            if _parse_cell(cell.strip()) is None:
                raise ParseError(
                    f"{path}: non-numeric cell at row {line_no}, column {c}: {cell!r}"
                )
    raise AssertionError(f"{path}: no faulty row or cell to report")


def _header(row: list[str]) -> list[str] | None:
    """The stripped cells of a first row that holds a non-number, else ``None``."""
    cells = [c.strip() for c in row]
    return cells if any(_parse_cell(c) is None for c in cells) else None


def _within_field_limit(lines):
    """``lines``, ending in ``ValueError`` at a line holding a cell longer
    than ``csv``'s field size limit, which the ``csv`` module rejects."""
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            raise ValueError("field larger than field limit")
        yield line


def _read_with_numpy(path) -> tuple[list[str] | None, np.ndarray] | None:
    """The header and values of ``path`` as numpy's tokenizer reads them, or
    ``None`` when the file needs the cell-by-cell reader: a cell that
    ``loadtxt`` rejects, a ragged row, an empty body, a non-finite value or
    a header of another width."""
    try:
        with open(path, newline="") as fh:
            first = next((row for row in csv.reader(fh) if row), None)
            if first is None:
                return None
            header = _header(first)
            if header is None:
                fh.seek(0)
            with warnings.catch_warnings():
                # An empty body warns "input contained no data" and falls back.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(
                    _within_field_limit(fh),
                    delimiter=",",
                    comments=None,
                    quotechar=None,
                    dtype=np.float64,
                    ndmin=2,
                )
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError.
        return None
    if (
        values.size == 0
        or not np.isfinite(values).all()
        or (header is not None and len(header) != values.shape[1])
    ):
        return None
    return header, values


def _read_cells(path) -> tuple[list[str] | None, np.ndarray]:
    """The header and values of ``path``, read cell by cell with ``csv``
    and ``float()``; the first fault raises."""
    with open(path, newline="") as fh:
        reader = csv.reader(_text_lines(fh, path))
        try:
            numbered = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not numbered:
        raise ParseError(f"{path}: empty file")
    line_nos, rows = zip(*numbered)

    header = _header(rows[0])
    if header is not None:
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
    if any(len(row) != width for row in data_rows):
        _raise_first_fault(path, line_nos, data_rows, width)
    try:
        parsed = np.fromiter(
            map(float, map(str.strip, itertools.chain.from_iterable(data_rows))),
            np.float64,
            count=len(data_rows) * width,
        ).reshape(len(data_rows), width)
    except ValueError:
        _raise_first_fault(path, line_nos, data_rows, width)
    bad = np.argwhere(~np.isfinite(parsed))
    if bad.size:
        r, c = (int(x) for x in bad[0])
        raise DataError(
            f"{path}: non-finite cell at row {line_nos[r]}, column {c}: "
            f"{data_rows[r][c]!r}"
        )
    return header, parsed


def load_csv(path, label_column=None) -> tuple[FeatureMatrix, np.ndarray | None]:
    """Load a rectangular numeric CSV file.

    An optional single header row is detected by the first row containing any
    cell that does not parse as a number.  ``label_column`` selects one column
    to split off as integer class labels; it may be a 0-based column index
    (negatives count from the right) or, when a header is present, a column
    name.

    The body is converted by numpy's C tokenizer in one pass; a file it
    rejects is read cell by cell with ``csv`` and ``float()``.  Either way
    the files accepted, the values and the messages are the same.

    Returns
    -------
    (FeatureMatrix, labels or None)

    Raises
    ------
    ParseError
        Ragged rows, non-numeric cells outside the header, non-integer
        label values, or bytes that are not valid text.  A row is reported
        by the 1-based file line it ends on, blank lines included.
    DataError
        A NaN or infinite cell, reported with its row and column.
    DimensionError
        Fewer than 2 samples or fewer than 2 feature columns after label
        extraction.
    """
    table = _read_with_numpy(path)
    header, parsed = table if table is not None else _read_cells(path)
    width = parsed.shape[1]

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
        if matrix.feature_names is not None:
            csv.writer(fh).writerow(matrix.feature_names)
        # What csv.writer writes for floats: repr, never quoted, CRLF.
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in matrix.values.tolist())


def normalize_features(matrix: FeatureMatrix) -> tuple[FeatureMatrix, np.ndarray]:
    """Scale every feature column to unit L2 norm.

    All-zero columns cannot be normalized; they are left as zeros and their
    indices returned as the second element, so callers can exclude them.
    A column whose norm overflows (finite cells of about 1e154 or more) is
    divided by its largest ``|value|`` before it is normalized.

    Returns
    -------
    (FeatureMatrix, ndarray of int)
        The normalized matrix and the indices of zero-norm columns.

    Raises
    ------
    DataError
        A NaN or infinite cell, reported with the first column holding one.
    """
    values = matrix.values
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(values, axis=0)
    # Only a NaN or infinite cell or an overflow gives a non-finite norm, so
    # the cells are checked in those columns alone.
    overflowed = np.flatnonzero(~np.isfinite(norms))
    bad = overflowed[~np.isfinite(values[:, overflowed]).all(axis=0)]
    if bad.size:
        raise DataError(f"non-finite value in feature column {bad[0]}")
    zero = np.flatnonzero(norms == 0.0)
    safe = np.where(norms == 0.0, 1.0, norms)
    out = values / safe
    if overflowed.size:
        scaled = values[:, overflowed]
        scaled /= np.abs(scaled).max(axis=0)
        out[:, overflowed] = scaled / np.linalg.norm(scaled, axis=0)
    return FeatureMatrix(out, matrix.feature_names), zero


def pairwise_euclidean(samples) -> np.ndarray:
    """Dense symmetric matrix of Euclidean distances between rows.

    Computed from one Gram product: the rows are copied to C order and
    their columns centred (distances do not change under translation, and
    centring limits cancellation), then ``d^2 = |x_i|^2 + |x_j|^2 - 2 x_i.x_j``
    is clipped at 0 and square-rooted in place, one block of rows at a time
    with ``|x_i|^2 + |x_j|^2`` formed in a buffer of ``BLOCK_BYTES``.  The
    result is the only n x n float64 array the call holds (8 MB at
    n = 1000, 800 MB at n = 10^4), and each entry goes through the same
    operations in the same order as in a whole-matrix pass, so blocking
    changes no bit of it.  ``x @ x.T`` is a symmetric
    rank-k update, so the result is exactly symmetric with an exact zero
    diagonal; identical rows come out at exactly 0 as well, since BLAS forms
    their three products alike.  A distance far below the rows' spread
    carries an absolute error of about sqrt(machine epsilon) times that
    spread.
    """
    x = samples.values if isinstance(samples, FeatureMatrix) else np.asarray(samples)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-D sample matrix, got {x.ndim}-D")
    # Centre after the C-order copy: a column mean of a Fortran array rounds
    # differently, and the result must not depend on the input's layout.
    x = np.array(x, dtype=np.float64, order="C")
    x -= x.mean(axis=0)
    d2 = x @ x.T
    sq = d2.diagonal().copy()
    n = d2.shape[0]
    rows = max(1, BLOCK_BYTES // (8 * max(n, 1)))
    outer = np.empty((min(rows, n), n))
    for start in range(0, n, rows):
        block = d2[start : start + rows]
        sums = np.add.outer(sq[start : start + rows], sq, out=outer[: len(block)])
        block *= -2.0
        block += sums
        np.maximum(block, 0.0, out=block)
        np.sqrt(block, out=block)
    return d2
