"""Symmetric positive-definite helpers: one Cholesky, no jitter, and scipy
imported on the first call."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor

import varsel
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


#: In a new interpreter: a counting wrapper bound over ``cho_factor`` before
#: scipy is loaded sees every factorization and stays bound; once it is
#: unbound, the first call binds scipy's own routine in its place.
_DEFERRED_IMPORT = """
import sys
import numpy as np
import varsel._linalg as linalg

stand_in = linalg.cho_factor
calls = []

def counting(*args, **kwargs):
    calls.append(1)
    return stand_in(*args, **kwargs)

linalg.cho_factor = counting
assert "scipy" not in sys.modules
matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
values = [linalg.spd_logdet(matrix), linalg.spd_solve(matrix, np.ones(2))[0],
          linalg.spd_inverse(matrix)[0, 1]]
assert calls == [1, 1, 1] and linalg.cho_factor is counting
linalg.cho_factor = stand_in
assert [linalg.spd_logdet(matrix), linalg.spd_solve(matrix, np.ones(2))[0],
        linalg.spd_inverse(matrix)[0, 1]] == values

import scipy.linalg
import scipy.linalg.lapack
assert linalg.cho_factor is scipy.linalg.cho_factor
assert linalg.cho_solve is scipy.linalg.cho_solve
assert linalg.dpotri is scipy.linalg.lapack.dpotri
print(values)
"""


def test_scipy_routines_bind_on_first_call():
    env = {**os.environ, "PYTHONPATH": str(Path(varsel.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _DEFERRED_IMPORT], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert out.stdout.strip() == str(
        [spd_logdet(matrix), spd_solve(matrix, np.ones(2))[0], spd_inverse(matrix)[0, 1]]
    )
