"""Exception types raised across the package.

All variable indices reported by these errors are 1-based, matching the
convention used by every public interface of the library.
"""

from __future__ import annotations

__all__ = [
    "SelectionError", "ZeroColumn", "RankDeficient", "ParseError", "RaggedRows", "EmptyFile",
    "LengthMismatch", "ThresholdNeverReached", "SingularCovariance", "TooLarge", "NotMonotone",
]


class SelectionError(Exception):
    """Base class for all library-specific errors."""


class ZeroColumn(SelectionError):
    """A column has (numerically) zero norm where a nonzero norm is required."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"column {index} has zero norm")


class RankDeficient(SelectionError):
    """A selected column set is numerically rank deficient."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(f"columns {self.indices} are numerically rank deficient")


class ParseError(SelectionError):
    """A CSV cell could not be parsed as a finite number, or a line could
    not be split into cells (``col`` is then None)."""

    def __init__(self, row: int, col: int | None = None, message: str = ""):
        self.row = row
        self.col = col
        where = f"line {row}" if col is None else f"cell at line {row}, column {col}"
        detail = f": {message}" if message else ""
        super().__init__(f"cannot parse {where}{detail}")


class RaggedRows(SelectionError):
    """A CSV row has a different number of fields than the first row."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"line {row} has a different number of fields than the first row")


class EmptyFile(SelectionError):
    """A CSV file contains no data rows."""

    def __init__(self, path=""):
        self.path = str(path)
        super().__init__(f"no data rows found{': ' + self.path if self.path else ''}")


class LengthMismatch(SelectionError):
    """Sequences that must have matching lengths do not."""


class ThresholdNeverReached(SelectionError):
    """A threshold stopping rule cannot be satisfied by any selection."""

    def __init__(self, threshold: float, best: float):
        self.threshold = threshold
        self.best = best
        super().__init__(
            f"threshold {threshold} never reached (best achievable value {best})"
        )


class SingularCovariance(SelectionError):
    """A regularized covariance failed Cholesky, with no jitter retry: its
    blocks' eigenvalues are at least ``s^2``, so ``s^2`` is zero or below round-off."""


class TooLarge(SelectionError):
    """An exhaustive enumeration would exceed the configured combination cap."""

    def __init__(self, n_combinations: int, cap: int):
        self.n_combinations = n_combinations
        self.cap = cap
        super().__init__(
            f"{n_combinations} combinations exceed the enumeration cap of {cap}"
        )


class NotMonotone(SelectionError):
    """A set function expected to be non-decreasing has a decreasing step."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"set function decreases at {witness}")
