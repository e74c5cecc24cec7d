"""Symmetric positive-definite solves, log-determinants and inverses.

All three go through one Cholesky factorization, :func:`_factor`, the one
place that decides what a failure means: :class:`SingularCovariance`, with
no jitter, so every value returned belongs to the matrix the caller passed.

They call LAPACK ``potrf``, ``potrs`` and ``potri`` from
``scipy.linalg.lapack`` directly: on an MI block, scipy's ``cho_factor`` and
``cho_solve`` wrappers cost several times the factorization.  scipy is
imported on the first factorization, not with the package: only ITFS, the
MI metric and the oracle's ``mi`` metric come here.  Each LAPACK routine is
a module global that starts as a stand-in; its first call imports the
routine and binds it over itself.  :func:`cho_factor` is looked up at call
time, so a test or a tracer can bind a counting wrapper over it.
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


dpotrf = _deferred("scipy.linalg.lapack", "dpotrf")
dpotrs = _deferred("scipy.linalg.lapack", "dpotrs")
dpotri = _deferred("scipy.linalg.lapack", "dpotri")


def cho_factor(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor from one ``potrf`` of a copy; ``LinAlgError``
    with scipy's text if the matrix is not positive definite."""
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return factor


def _factor(matrix: np.ndarray) -> np.ndarray:
    try:
        return cho_factor(np.asarray(matrix, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"regularized covariance is singular: {exc}") from exc


def spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for symmetric positive-definite ``matrix``."""
    return dpotrs(_factor(matrix), np.asarray(rhs, dtype=float), lower=1)[0]


def spd_logdet(matrix: np.ndarray) -> float:
    """Log-determinant of a symmetric positive-definite matrix."""
    return 2.0 * float(np.log(_factor(matrix).diagonal()).sum())


def spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky: LAPACK
    ``potri`` overwrites the factor with the inverse's lower triangle, which
    is mirrored row by row into the upper one (no n x n temporary)."""
    inverse = dpotri(_factor(matrix), lower=1, overwrite_c=1)[0]
    for j in range(inverse.shape[0] - 1):
        inverse[j, j + 1 :] = inverse[j + 1 :, j]
    return inverse
