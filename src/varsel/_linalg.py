"""Symmetric positive-definite solves, log-determinants and inverses.

All three go through one Cholesky factorization, :func:`_factor`, the one
place that decides what a failure means: :class:`SingularCovariance`, with
no jitter, so every value returned belongs to the matrix the caller passed.

scipy is imported on the first factorization, not with the package: only
ITFS, the MI metric and the oracle's ``mi`` metric come here, and importing
``scipy.linalg`` costs more than a whole L-FSCA run of ``varsel select``.
Each of the three scipy routines is a module global that starts as a
stand-in; the stand-in's first call imports the routine and binds it over
itself, so every later call reaches scipy with no wrapper in between.
``cho_factor`` is looked up at call time, so a test or a tracer can bind a
counting wrapper over it, before or after the import.
"""

from __future__ import annotations

from importlib import import_module

import numpy as np

from .errors import SingularCovariance


def _deferred(module: str, name: str):
    """A stand-in for ``module.name`` bound to this module's global ``name``."""

    def stand_in(*args, **kwargs):
        routine = getattr(import_module(module), name)
        if globals()[name] is stand_in:  # not while a wrapper is bound over it
            globals()[name] = routine
        return routine(*args, **kwargs)

    return stand_in


cho_factor = _deferred("scipy.linalg", "cho_factor")
cho_solve = _deferred("scipy.linalg", "cho_solve")
dpotri = _deferred("scipy.linalg.lapack", "dpotri")


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
    return 2.0 * float(np.log(factor.diagonal()).sum())


def spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky: LAPACK
    ``potri`` overwrites the factor with the inverse's lower triangle, which
    is mirrored row by row into the upper one (no n x n temporary)."""
    factor, _ = _factor(matrix)
    inverse = dpotri(factor, lower=1, overwrite_c=1)[0]
    for j in range(inverse.shape[0] - 1):
        inverse[j, j + 1 :] = inverse[j + 1 :, j]
    return inverse
