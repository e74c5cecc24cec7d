"""Reference values computed from the definitions in 60-digit arithmetic.

Each function restates a quantity that varsel computes, straight from its
definition and with none of the package's shortcuts (no precision matrix,
no factor reuse, no deflation), in mpmath at ``DIGITS`` significant
digits.  Float inputs are converted exactly and each result is rounded to
float64 once, at the end, so a test can measure the package's round-off
against it.
"""

from __future__ import annotations

import mpmath
import numpy as np

from varsel.dataset import Dataset, selection_tuple
from varsel.errors import RankDeficient

DIGITS = 60


def _projection(data: Dataset, selected):
    """``X`` and ``Xhat = X_S (X_S^T X_S)^{-1} X_S^T X`` as mpmath matrices
    (call inside ``workdps``); :class:`RankDeficient` when ``X_S^T X_S`` is
    singular at ``DIGITS`` digits."""
    sel = selection_tuple(selected, data.v)
    if not sel:
        raise ValueError("cannot project onto an empty selection")
    rows = data.values.tolist()
    x = mpmath.matrix(rows)
    x_s = mpmath.matrix([[row[i - 1] for i in sel] for row in rows])
    try:
        inverse = mpmath.inverse(x_s.T * x_s)
    except ZeroDivisionError as exc:
        raise RankDeficient(sel) from exc
    return x, x_s * (inverse * (x_s.T * x))


def project_onto(data: Dataset, selected) -> np.ndarray:
    """The least-squares reconstruction ``X_S (X_S^T X_S)^{-1} X_S^T X`` of
    every column from the 1-based ``selected`` columns, by the normal
    equations at ``DIGITS`` digits."""
    with mpmath.workdps(DIGITS):
        xhat = _projection(data, selected)[1]
        return np.array(xhat.tolist(), dtype=float)


def subset_ve(data: Dataset, selected) -> float:
    """Percentage of ``||X||_F^2`` that the projection onto the 1-based
    ``selected`` columns captures, ``100 <Xhat, X> / <X, X>``."""
    with mpmath.workdps(DIGITS):
        x, xhat = _projection(data, selected)
        captured = mpmath.fsum(a * b for a, b in zip(xhat, x))
        return float(100 * captured / mpmath.fsum(a * a for a in x))


def itfs_denominators(cov: np.ndarray, sigma: float, selected) -> np.ndarray:
    """ITFS denominators ``var(x_i | U \\ x_i) = 1 / ((A_UU)^{-1})_ii`` for
    every unselected column ``i``, in increasing order of ``i``.

    ``A = cov + sigma^2 I`` is the regularized covariance and ``U`` the
    complement of the 0-based ``selected``; ``A_UU`` is inverted by LU
    factorization.
    """
    chosen = {int(i) for i in selected}
    unsel = [i for i in range(cov.shape[0]) if i not in chosen]
    with mpmath.workdps(DIGITS):
        noise = mpmath.mpf(float(sigma)) ** 2
        block = mpmath.matrix(
            [[mpmath.mpf(float(cov[i, j])) + (noise if i == j else 0) for j in unsel] for i in unsel]
        )
        inverse = mpmath.inverse(block)
        return np.array([float(1 / inverse[t, t]) for t in range(len(unsel))])
