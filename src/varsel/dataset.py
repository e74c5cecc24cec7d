"""Data-matrix substrate: preprocessing, deflation, CSV I/O.

A data matrix holds ``m`` observations (rows) of ``v`` variables (columns) as
float64.  All variable indices crossing the public boundary of this module,
and of the rest of the package, are 1-based; internal numpy work is 0-based.

Conventions
-----------
* Centering subtracts the column mean, and makes a constant column exactly
  zero; unit-normalization divides each column by its Euclidean norm.
* ``deflate_in_place(values, p0)`` removes, in place, the rank-one
  contribution of column ``p0`` of a residual matrix:
  ``R_next = R - (r r^T / r^T r) R``.  Repeated deflation by a selection
  equals one projection-based residual against that selection, up to
  round-off.
* A column is dependent on others when its residual against them keeps at
  most ``DEPENDENT_TOL`` of its own norm: the one, scale-free rank test of
  selector candidacy, selector commits and subset VE.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyFile, ParseError, RaggedRows, ZeroColumn

__all__ = [
    "Dataset", "center_columns", "normalize_unit", "dataset_from_gram", "load_csv",
    "save_csv",
]

#: Relative tolerance of the ``centered`` check and of ``unit_norm``.
FLAG_TOL = 1e-9

#: A column whose residual against the columns before it keeps at most this
#: fraction of its own norm is dependent on them: a scale-free test.
DEPENDENT_TOL = 1e-10

#: Entries of the one block ``deflate_in_place`` reuses instead of an m x v temporary.
DEFLATE_BLOCK = 1 << 14


def _unit(norms: np.ndarray) -> bool:
    return bool(np.all(np.abs(norms - 1.0) <= FLAG_TOL))


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C", copy=True)
    arr.setflags(write=False)
    return arr


# =========================================================================
# Core types
# =========================================================================


@dataclass(frozen=True)
class Dataset:
    """An immutable m x v data matrix with a centering flag.

    ``unit_norm`` is read from the column norms, not declared.

    Parameters
    ----------
    values : ndarray, shape (m, v)
        Finite float64 data, copied and marked read-only on construction.
    labels : tuple of str, optional
        One label per column.
    centered : bool
        Declares that every column has (numerically) zero mean; checked on
        construction.  Declared, not derived: at a small scale, centered
        and uncentered data can pass the same mean test.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None
    centered: bool = False

    def __post_init__(self):
        arr = _as_readonly(self.values)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
        m, v = arr.shape
        if m < 2:
            raise ValueError(f"need at least 2 observations, got {m}")
        if v < 1:
            raise ValueError("need at least 1 variable")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data contain non-finite entries")
        object.__setattr__(self, "values", arr)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != v:
                raise ValueError(
                    f"{len(labels)} labels for {v} columns"
                )
            object.__setattr__(self, "labels", labels)
        if self.centered:
            col_scale = np.maximum(np.abs(arr).max(axis=0), 1.0)
            means = arr.mean(axis=0)
            if np.any(np.abs(means) > FLAG_TOL * col_scale):
                raise ValueError("centered=True but column means are not zero")

    @cached_property
    def _root(self) -> np.ndarray:
        """``_gram_root(self)`` (read-only), computed on first read and kept:
        the one factorization of the data that the thin selectors' residuals,
        every VE and the ``ve`` scorer share.  A timer that must pay for it
        on every call times a fresh ``Dataset`` of the same values."""
        root = _gram_root(self)
        root.setflags(write=False)
        return root

    @cached_property
    def _energy(self) -> float:
        """``_total_energy(self)``, computed on first read and kept, as is
        :attr:`_root`; its no-variance ``ValueError`` recurs on every read."""
        return _total_energy(self)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def v(self) -> int:
        return self.values.shape[1]

    @property
    def unit_norm(self) -> bool:
        """Every column norm lies within ``FLAG_TOL`` of 1."""
        return _unit(np.linalg.norm(self.values, axis=0))

    def _position(self, index: int) -> int:
        """0-based position of a 1-based column index; ``ValueError``
        outside ``1..v``."""
        if not 1 <= index <= self.v:
            raise ValueError(f"column index {index} outside 1..{self.v}")
        return index - 1

    def column(self, index: int) -> np.ndarray:
        """Return the column with the given 1-based index."""
        return self.values[:, self._position(index)]

    def label_for(self, index: int) -> str:
        """Label of a 1-based column index, falling back to ``x<index>``."""
        position = self._position(index)
        return f"x{index}" if self.labels is None else self.labels[position]


# =========================================================================
# Preprocessing
# =========================================================================


def center_columns(data: Dataset) -> Dataset:
    """Subtract each column's mean; a constant column becomes exactly zero,
    not the round-off of its mean, which the rank test would count as an
    independent direction.  Idempotent on already-centered data."""
    if data.centered:
        return data
    raw = data.values
    values = raw - raw.mean(axis=0)
    # Only a column whose first and last entries agree can be constant; a
    # full pass over ``raw`` would cost more than the mean on small inputs.
    maybe = np.flatnonzero(raw[0] == raw[-1])
    values[:, maybe[np.all(raw[:, maybe] == raw[0, maybe], axis=0)]] = 0.0
    return Dataset(values, labels=data.labels, centered=True)


def normalize_unit(data: Dataset) -> Dataset:
    """Scale each column to unit Euclidean norm; ``data`` itself when it is
    already :attr:`Dataset.unit_norm`.

    Raises
    ------
    ZeroColumn
        If any column norm is zero (1-based index of the first offender),
        as is every constant column after centering: the only columns the
        per-column ``DEPENDENT_TOL`` test rejects before any selection.
    """
    norms = np.linalg.norm(data.values, axis=0)
    if _unit(norms):
        return data
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise ZeroColumn(int(bad[0]) + 1)
    return Dataset(data.values / norms, labels=data.labels, centered=data.centered)


# =========================================================================
# Selections, Gram roots and deflation
# =========================================================================


def index_tuple(indices, what: str) -> tuple[int, ...]:
    """``indices`` as a tuple of ints; ``ValueError`` naming ``what`` for a
    non-integer (``2.0``) or a bool, which ``operator.index`` reads as 0 or 1.
    An array is read through ``tolist``: Python scalars check faster than
    numpy ones."""
    try:
        items = tuple(indices.tolist() if isinstance(indices, np.ndarray) else indices)
        if bool not in map(type, items):
            return tuple(map(operator.index, items))
    except TypeError:
        pass
    raise ValueError(f"{what} {indices!r} must hold integer indices")


def selection_tuple(selected, v: int) -> tuple[int, ...]:
    """The 1-based index sequence ``selected`` as a tuple; ``ValueError``
    if an index is not an integer (even ``2.0`` or ``True``), repeats or
    lies outside ``1..v``."""
    sel = index_tuple(selected, "selection")
    if len(set(sel)) != len(sel) or not all(1 <= i <= v for i in sel):
        raise ValueError(f"selection {sel} must hold distinct indices in 1..{v}")
    return sel


def _gram_root(data: Dataset) -> np.ndarray:
    """``T`` of ``X = QT`` (v x v) when ``m > v``, else ``X``: the smaller
    matrix with Gram ``X^T X``, on which residual norms and the energy a
    subspace captures read as on ``X``, up to round-off."""
    return np.linalg.qr(data.values, mode="r") if data.m > data.v else data.values


def _total_energy(data: Dataset) -> float:
    """``||X||_F^2``, the denominator of every VE, which must not be zero."""
    energy = float(np.linalg.norm(data.values)) ** 2
    if energy == 0.0:
        raise ValueError("variance explained is undefined: the data has no variance")
    return energy


def deflate_in_place(values: np.ndarray, p0: int) -> tuple[float, np.ndarray]:
    """Deflate the writable matrix ``values`` by its column ``p0`` (0-based).

    Every column loses its component along the pivot column, and the pivot
    column itself is set to exactly zero.  Returns ``(r^T r, coeffs)``, so
    the energy the deflation captured is ``rr * coeffs @ coeffs``.  The
    caller guarantees a nonzero pivot.
    """
    r = values[:, p0].copy()
    rr = float(r @ r)
    coeffs = (r @ values) / rr
    rows = max(1, DEFLATE_BLOCK // values.shape[1])
    block = np.empty((min(rows, len(r)), values.shape[1]))
    for lo in range(0, len(r), rows):
        chunk = r[lo : lo + rows, None]
        values[lo : lo + rows] -= np.multiply(chunk, coeffs, out=block[: len(chunk)])
    values[:, p0] = 0.0
    return rr, coeffs


# =========================================================================
# Construction helpers
# =========================================================================


def _ones_orthogonal_basis(v: int) -> np.ndarray:
    """A (v + 1) x v matrix with orthonormal columns, each orthogonal to the
    all-ones vector (so any linear image of it is exactly centered)."""
    basis = np.zeros((v + 1, v))
    # Helmert-style columns: column j has j ones, then -j, then zeros.
    for j in range(1, v + 1):
        col = np.zeros(v + 1)
        col[:j] = 1.0
        col[j] = -float(j)
        basis[:, j - 1] = col / math.sqrt(j * (j + 1))
    return basis


def dataset_from_gram(gram: np.ndarray) -> Dataset:
    """Construct a centered dataset whose Gram matrix ``X^T X`` equals ``gram``.

    Useful for driving Gram-only analyses (variance explained, exhaustive
    search, information criteria) from a published correlation or covariance
    matrix.  Eigenvalues below zero are clipped, so a slightly indefinite
    input is repaired to its nearest factorizable neighbour.  The result has
    ``v + 1`` rows, the fewest that allow exactly centered columns.
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gram matrix must be square, got shape {g.shape}")
    if not np.allclose(g, g.T, atol=1e-8):
        raise ValueError("gram matrix must be symmetric")
    v = g.shape[0]
    try:
        factor = np.linalg.cholesky(g).T  # v x v, factor.T @ factor == g
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh((g + g.T) / 2.0)
        factor = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))).T
    return Dataset(_ones_orthogonal_basis(v) @ factor, centered=True)


# =========================================================================
# CSV I/O
# =========================================================================


#: A line holding any of these goes to the row-by-row reader: ``"`` starts
#: the csv module's quoting, and ``\x1c``-``\x1f`` are whitespace to
#: ``np.loadtxt`` but not to ``float``.
_READER_ONLY = '"\x1c\x1d\x1e\x1f'


def load_csv(path, has_header: bool = False) -> Dataset:
    r"""Load a comma-separated numeric matrix.

    Lines starting with ``#`` are treated as comments and skipped, so files
    produced by :func:`save_csv` (which records generation metadata in a
    comment line) round-trip.  Blank lines are ignored.  A cell is what
    ``float`` parses after the ``csv`` module's default (Excel) splitting.

    A seekable file whose lines are plain (no ``"``, no ``\x1c``-``\x1f``,
    none longer than ``csv.field_size_limit()``) is parsed by ``np.loadtxt``
    and accepted only when every value is finite and the header is as wide
    as the data.  Anything else, and every error, goes to the row-by-row
    reader, which re-reads the file: the accepted grammar is unchanged, and
    only the reader raises.

    Parameters
    ----------
    path : str or Path
        File to read (UTF-8; a leading byte-order mark is skipped).
    has_header : bool
        When true, the first non-comment row provides column labels.

    Raises
    ------
    EmptyFile
        No data rows present.
    RaggedRows
        A row's field count differs from the first row's (physical 1-based
        line number reported).
    ParseError
        A cell does not parse as a finite float (line and 1-based column),
        or the ``csv`` module cannot split a line, such as one holding a
        field over ``csv.field_size_limit()`` (line; ``col`` is None).
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        if handle.seekable():
            data = _load_plain(handle, has_header)
            if data is not None:
                return data
            handle.seek(0)
        return _read_rows(handle, has_header, path)


def _load_plain(handle, has_header: bool) -> Dataset | None:
    r"""The dataset by ``np.loadtxt`` when every line is plain and every
    value finite, else None.  The lines come from the file iterator,
    which splits at ``\n``, ``\r`` and ``\r\n`` as the csv module does."""
    limit = csv.field_size_limit()

    def kept_lines():
        for line in handle:
            if len(line) > limit or any(c in line for c in _READER_ONLY):
                raise ValueError("line needs the row-by-row reader")
            head = line.lstrip()
            if head and not head.startswith("#"):  # the reader's blank and comment rules
                yield line

    lines = kept_lines()
    try:
        header = next(lines, None) if has_header else None
        first = next(lines, None)
        if first is None:  # ``loadtxt`` warns on empty input
            return None
        values = np.loadtxt(
            itertools.chain((first,), lines), delimiter=",", comments=None, ndmin=2
        )
    # Whatever went wrong, the reader re-reads the file and raises what is real.
    except Exception:
        return None
    labels = None if header is None else tuple(cell.strip() for cell in header.split(","))
    if not np.isfinite(values).all() or (labels is not None and len(labels) != values.shape[1]):
        return None
    return Dataset(values, labels=labels)


def _skipped(row: list[str]) -> bool:
    """The reader's rule for a row that holds no data: blank, or a ``#``
    comment."""
    return not row or (len(row) == 1 and not row[0].strip()) or row[0].lstrip().startswith("#")


def _read_rows(handle, has_header: bool, path) -> Dataset:
    """The dataset row by row through ``csv.reader``: the only code that
    raises :func:`load_csv`'s errors."""
    rows: list[list[float]] = []
    labels: tuple[str, ...] | None = None
    expected = None
    header_pending = has_header
    reader = csv.reader(handle)
    try:
        for lineno, row in enumerate(reader, start=1):
            if _skipped(row):
                continue
            if header_pending:
                labels = tuple(cell.strip() for cell in row)
                expected = len(row)
                header_pending = False
                continue
            if expected is None:
                expected = len(row)
            elif len(row) != expected:
                raise RaggedRows(lineno)
            parsed = []
            for col, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(lineno, col, cell.strip()) from None
                if not math.isfinite(value):
                    raise ParseError(lineno, col, cell.strip())
                parsed.append(value)
            rows.append(parsed)
    except csv.Error as exc:
        raise ParseError(reader.line_num, message=str(exc)) from None
    if not rows:
        raise EmptyFile(path)
    return Dataset(np.array(rows, dtype=float), labels=labels)


def save_csv(data: Dataset, path, comment: str | None = None) -> None:
    """Write a dataset as CSV with an optional leading ``#`` comment line and
    a header row when the dataset carries labels.

    Raises ``ValueError``, before writing, for a comment holding a line
    break (its later lines would read back as rows) and for a header that
    :func:`load_csv` would skip as a comment or a blank row: a first label
    that starts with ``#`` after leading whitespace, or one blank label.
    Quoting would not help, since the reader's rule reads the parsed cells.
    """
    if comment and ("\n" in comment or "\r" in comment):
        raise ValueError(f"comment {comment!r} holds a line break")
    header = ""
    if data.labels is not None:
        buffer = io.StringIO(newline="")
        csv.writer(buffer).writerow(data.labels)
        header = buffer.getvalue()
        first = data.labels[0]
        if not comment and header.startswith("\ufeff"):  # load_csv drops it as a byte-order mark
            first = first[1:]
        if _skipped([first, *data.labels[1:]]):
            raise ValueError(
                f"label {data.labels[0]!r} would make the header read back as a "
                "comment or blank line"
            )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        handle.write(header)
        # A float's repr needs no quoting; "\r\n" ends a ``csv.writer`` row.
        for row in data.values:
            handle.write(",".join(map(repr, row.tolist())) + "\r\n")
