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

DIGITS = 60


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
