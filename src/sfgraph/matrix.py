"""Feature-matrix container plus CSV I/O, normalization and pairwise geometry.

Everything downstream works on a ``FeatureMatrix``: an n-samples x d-features
float64 array stored column-major, because all heavy access patterns in this
package walk whole feature columns.

``save_csv`` writes shortest round-trip floats (``repr``) and CRLF line
endings, with header names quoted as the ``csv`` module quotes them.
``read_csv`` reads a file's bytes once, for its matrix and its body rows'
cell text; ``write_columns`` copies a column subset of those rows,
stripped, in ``save_csv``'s layout, so a file ``save_csv`` wrote projects
to the bytes ``save_csv`` writes for the subset.  Every cell is read as
``float()`` reads it after stripping surrounding whitespace, the header
with the ``csv`` module.  An ASCII body with no cell over ``csv``'s field
size limit goes to numpy's C tokenizer as one buffer; it strips the same
whitespace and parses with the routine behind ``float()``.  Any other
file, and any the tokenizer rejects, is read cell by cell with ``csv`` and
``float()``, which decides the files accepted, their values and every
message; only a file that fails there too is scanned row by row to name
its first faulty row or cell.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
import os
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import DataError, DimensionError, ParameterError, ParseError

# Cache-sized budget of the block that ``pairwise_euclidean`` forms squared
# distances through: the distances are then the one n x n float64 array of a
# clustering pass (8 MB at n = 1000, 800 MB at n = 10^4).
BLOCK_BYTES = 1 << 18
# From this norm up, cells whose squares underflow are below eps * norm, so
# the bits their squares lose cannot move the norm.
NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps)

__all__ = [
    "FeatureMatrix",
    "read_csv",
    "load_csv",
    "load_labels",
    "save_csv",
    "write_columns",
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
        """Return a new matrix holding the given columns, in the given order.

        Every index must lie in ``[0, n_features)``; a negative one would
        otherwise count from the end.
        """
        idx = np.asarray(indices, dtype=np.intp)
        outside = (idx < 0) | (idx >= self.n_features)
        if outside.any():
            raise ParameterError(
                f"kept index {int(idx[outside][0])} out of range for "
                f"{self.n_features} features"
            )
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


def _read_buffer(raw: bytes):
    """The header, values and body rows of the file bytes ``raw`` as numpy's
    tokenizer reads the body in one buffer, or ``None`` for the cell reader:
    a body that is not ASCII or holds a cell over ``csv``'s field size
    limit, a cell that ``loadtxt`` rejects (a lone CR line end among them),
    a ragged row, an empty body, a non-finite value or a header of another
    width."""
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), newline=""))
        first = next(filter(None, reader), None)
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError.
        return None
    if first is None:
        return None
    header = _header(first)
    start = 0
    if header is not None:  # past the header's last line, as text mode splits lines
        ends = re.finditer(rb"\r\n?|\n|\Z", raw)
        start = next(itertools.islice(ends, reader.line_num - 1, None)).end()
    if not raw.isascii() and not raw[start:].isascii():
        return None
    body = io.BytesIO(raw)
    body.seek(start)
    limit = csv.field_size_limit()
    if any(len(line) > limit and max(map(len, line.split(b","))) > limit for line in body):
        return None
    body.seek(start)
    try:
        with warnings.catch_warnings():
            # An empty body warns "input contained no data" and falls back.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                body, delimiter=",", comments=None, quotechar=None, dtype=np.float64, ndmin=2
            )
    except ValueError:
        return None
    if (
        values.size == 0
        or not np.isfinite(values).all()
        or (header is not None and len(header) != values.shape[1])
    ):
        return None
    body.seek(start)  # csv's rows of an accepted body: its non-blank lines split at commas
    lines = (line.rstrip(b"\r\n") for line in body)
    return header, values, (line.decode("ascii").split(",") for line in lines if line)


def _read_cells(path, raw: bytes):
    """The header, values and body rows of the file bytes ``raw``, read
    cell by cell with ``csv`` and ``float()``, decoded as ``open`` decodes
    the file; the first fault raises."""
    reader = csv.reader(_text_lines(io.TextIOWrapper(io.BytesIO(raw), newline=""), path))
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
    return header, parsed, data_rows


def read_csv(path) -> tuple[FeatureMatrix, Iterator[list[str]]]:
    """The :func:`load_csv` matrix of a CSV file, read once, and a one-pass
    iterator over its body rows as ``csv`` splits them, for
    :func:`write_columns`; the iterator may hold the file's bytes.  Raises
    what :func:`load_csv` raises."""
    with open(path, "rb") as fh:
        raw = fh.read()
    table = _read_buffer(raw)
    header, parsed, rows = table if table is not None else _read_cells(path, raw)
    if parsed.shape[0] < 2 or parsed.shape[1] < 2:
        raise DimensionError(
            f"{path}: need at least 2 samples and 2 features, "
            f"got {parsed.shape[0]}x{parsed.shape[1]}"
        )
    return FeatureMatrix(parsed, tuple(header) if header is not None else None), iter(rows)


def load_csv(path) -> FeatureMatrix:
    """Load a rectangular numeric CSV file as a :class:`FeatureMatrix`.

    An optional single header row is detected by the first row containing any
    cell that does not parse as a number; its cells become the feature names.
    Every column is a feature: class labels come from a separate file, read
    by :func:`load_labels`.

    The file's bytes are read once.  An ASCII body with no cell over
    ``csv``'s field size limit goes to numpy's C tokenizer as one buffer;
    the cell-by-cell reader decides every other file and every message.

    Raises
    ------
    ParseError
        Ragged rows, non-numeric cells outside the header, or bytes that
        are not valid text.  A row is reported by the 1-based file line it
        ends on, blank lines included.
    DataError
        A NaN or infinite cell, reported with its row and column.
    DimensionError
        Fewer than 2 samples or fewer than 2 feature columns.
    """
    return read_csv(path)[0]


def load_labels(path) -> np.ndarray:
    """Load class labels from a text file with one int64 per line, each line
    as ``str(int(text))`` renders it; blank lines are skipped."""
    labels: list[int] = []
    with open(path) as fh:
        for line_no, line in enumerate(_text_lines(fh, path), start=1):
            text = line.rstrip("\n")
            if not text.strip():
                continue
            try:
                label = int(text)
                canonical = str(label) == text and -(2**63) <= label < 2**63
            except ValueError:
                canonical = False
            if not canonical:
                raise ParseError(
                    f"{path}: line {line_no} is not a 64-bit integer: {text!r}"
                )
            labels.append(label)
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


def write_columns(out, matrix: FeatureMatrix, rows, columns) -> None:
    """Write the ``columns`` of a CSV file to ``out``, in order, by copying
    their cells' text instead of formatting the values.

    ``matrix`` and ``rows`` are what :func:`read_csv` returned for the
    file, so every cell has been parsed and checked, and the file is not
    read again.  When ``matrix`` has names, the kept names are written with
    ``csv.writer``; each body row is written as its kept cells, stripped,
    joined by commas and ended by CRLF.  A cell that is
    ``repr(float(cell))`` is copied as it stands, so the output of a file
    that ``save_csv`` wrote is the bytes ``save_csv`` writes for the
    subset; any other cell keeps its own spelling (``1e3``, ``+0.5``,
    ``1_0``), which reads back as the same value.

    Raises
    ------
    ParameterError
        A column index outside ``[0, n_features)``, before ``out`` is
        opened.
    OSError
        ``out`` cannot be written; it is removed whenever the call fails
        after creating it.
    """
    d = matrix.n_features
    columns = [int(j) for j in columns]
    outside = [j for j in columns if not 0 <= j < d]
    if outside:
        raise ParameterError(f"kept index {outside[0]} out of range for {d} features")
    if len(columns) > 1:
        take = operator.itemgetter(*columns)
    else:  # one index would give the cell itself, not a sequence of one
        take = operator.itemgetter(slice(columns[0], columns[0] + 1))
    with open(out, "w", newline="") as dst:
        try:
            if matrix.feature_names is not None:
                csv.writer(dst).writerow([matrix.feature_names[j] for j in columns])
            dst.writelines(",".join(map(str.strip, take(row))) + "\r\n" for row in rows)
        except BaseException:
            dst.close()
            os.remove(out)
            raise


def normalize_features(matrix: FeatureMatrix) -> tuple[FeatureMatrix, np.ndarray]:
    """Scale every feature column to unit L2 norm.

    Every column comes out unit-norm or exactly zero, the solver's input.
    All-zero columns are left as zeros and their indices returned as the
    second element, so callers can exclude them.  A column whose norm is not
    in ``[NORM_FLOOR, inf)``, about 6.7e-139, because its squares overflow
    or underflow, is divided by its largest ``|value|`` first; it is zero
    only when that is 0.  Every other column is divided by its norm.

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
    ordinary = (NORM_FLOOR <= norms) & (norms < np.inf)  # False for NaN, too
    # Only a NaN or infinite cell or an overflow gives a non-finite norm, so
    # the cells are checked in the rescaled columns alone.
    rescaled = np.flatnonzero(~ordinary)
    scaled = values[:, rescaled]
    bad = rescaled[~np.isfinite(scaled).all(axis=0)]
    if bad.size:
        raise DataError(f"non-finite value in feature column {bad[0]}")
    out = values / np.where(ordinary, norms, 1.0)
    peak = np.abs(scaled).max(axis=0, initial=0.0)
    live = peak > 0.0
    scaled = scaled[:, live] / peak[live]
    out[:, rescaled[live]] = scaled / np.linalg.norm(scaled, axis=0)
    return FeatureMatrix(out, matrix.feature_names), rescaled[~live]


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
