"""Symmetric positive-definite helpers: one Cholesky, no jitter."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import cho_factor

from varsel import SingularCovariance
from varsel._linalg import spd_inverse, spd_logdet, spd_solve


@pytest.mark.parametrize(
    "call",
    [lambda a: spd_solve(a, np.ones(2)), spd_inverse, spd_logdet],
    ids=["spd_solve", "spd_inverse", "spd_logdet"],
)
def test_indefinite_matrix_raises_after_one_attempt(monkeypatch, call):
    # Eigenvalues 3 and -1: no jitter of round-off size could make this
    # factorizable, and none is tried.
    attempts = []

    def counting(*args, **kwargs):
        attempts.append(args)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr("varsel._linalg.cho_factor", counting)
    with pytest.raises(SingularCovariance, match="regularized covariance is singular"):
        call(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert len(attempts) == 1


def test_inverse_is_symmetric_and_inverts():
    # potri fills one triangle of the inverse; the other is its mirror.
    rng = np.random.default_rng(3)
    g = rng.normal(size=(40, 30))
    matrix = g.T @ g + 0.1 * np.eye(30)
    inverse = spd_inverse(matrix)
    assert np.array_equal(inverse, inverse.T)
    np.testing.assert_allclose(inverse @ matrix, np.eye(30), rtol=0.0, atol=1e-12)
