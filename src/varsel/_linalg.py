"""Symmetric positive-definite solves, log-determinants and inverses.

All three go through one Cholesky factorization, :func:`_factor`, the one
place that decides what a failure means: :class:`SingularCovariance`, with
no jitter, so every value returned belongs to the matrix the caller passed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

from .errors import SingularCovariance


def _factor(matrix: np.ndarray):
    try:
        return cho_factor(np.asarray(matrix, dtype=float), lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"regularized covariance is singular: {exc}") from exc


def spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for symmetric positive-definite ``matrix``."""
    return cho_solve(_factor(matrix), np.asarray(rhs, dtype=float), check_finite=False)


def spd_logdet(matrix: np.ndarray) -> float:
    """Log-determinant of a symmetric positive-definite matrix."""
    factor, _ = _factor(matrix)
    return 2.0 * float(np.sum(np.log(np.diag(factor))))


def spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky: LAPACK
    ``potri`` overwrites the factor with the inverse's lower triangle, which
    is mirrored row by row into the upper one (no n x n temporary)."""
    factor, _ = _factor(matrix)
    inverse = dpotri(factor, lower=1, overwrite_c=1)[0]
    for j in range(inverse.shape[0] - 1):
        inverse[j, j + 1 :] = inverse[j + 1 :, j]
    return inverse
