"""Symmetric positive-definite helpers: one Cholesky, no jitter, LAPACK
called directly and scipy imported on the first call."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotri

import varsel
from varsel import CovarianceModel, SingularCovariance, center_columns, gen_sim2
from varsel._linalg import cho_factor, spd_inverse, spd_logdet, spd_solve
from varsel.metrics import _data_covariance, default_sigma

from conftest import make_rng


@pytest.mark.parametrize(
    "call",
    [lambda a: spd_solve(a, np.ones(2)), spd_inverse, spd_logdet],
    ids=["spd_solve", "spd_inverse", "spd_logdet"],
)
def test_indefinite_matrix_raises_after_one_attempt(monkeypatch, call):
    # Eigenvalues 3 and -1: no jitter of round-off size could make this
    # factorizable, and none is tried.  The failed leading minor is named as
    # scipy's cho_factor names it.
    matrix = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError) as scipy_error:
        scipy.linalg.cho_factor(matrix)
    attempts = []

    def counting(*args, **kwargs):
        attempts.append(args)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr("varsel._linalg.cho_factor", counting)
    with pytest.raises(SingularCovariance) as error:
        call(matrix)
    assert str(error.value) == f"regularized covariance is singular: {scipy_error.value}"
    assert "2-th leading minor" in str(error.value) and len(attempts) == 1


def test_inverse_is_symmetric_and_inverts():
    # potri fills one triangle of the inverse; the other is its mirror.
    rng = np.random.default_rng(3)
    g = rng.normal(size=(40, 30))
    matrix = g.T @ g + 0.1 * np.eye(30)
    inverse = spd_inverse(matrix)
    assert np.array_equal(inverse, inverse.T)
    np.testing.assert_allclose(inverse @ matrix, np.eye(30), rtol=0.0, atol=1e-12)


#: In a new interpreter: a counting wrapper bound over each LAPACK stand-in
#: before scipy is loaded sees every call and stays bound; once they are
#: unbound, each first call binds LAPACK's own routine in its place.
_DEFERRED_IMPORT = """
import sys
import numpy as np
import varsel._linalg as linalg

names = ("dpotrf", "dpotrs", "dpotri")
stand_ins = {name: getattr(linalg, name) for name in names}
calls = []

def counting(name):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return stand_ins[name](*args, **kwargs)
    return wrapper

wrappers = {name: counting(name) for name in names}
for name in names:
    setattr(linalg, name, wrappers[name])
assert "scipy" not in sys.modules
matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
values = [linalg.spd_logdet(matrix), linalg.spd_solve(matrix, np.ones(2))[0],
          linalg.spd_inverse(matrix)[0, 1]]
assert calls == ["dpotrf", "dpotrf", "dpotrs", "dpotrf", "dpotri"]
assert all(getattr(linalg, name) is wrappers[name] for name in names)
for name in names:
    setattr(linalg, name, stand_ins[name])
assert [linalg.spd_logdet(matrix), linalg.spd_solve(matrix, np.ones(2))[0],
        linalg.spd_inverse(matrix)[0, 1]] == values

import scipy.linalg.lapack
assert all(getattr(linalg, name) is getattr(scipy.linalg.lapack, name) for name in names)
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


def _scipy_path(matrix, rhs=None):
    """Log det, solve and inverse through scipy's ``cho_factor`` and
    ``cho_solve`` and LAPACK ``potri`` on that factor."""
    factor = scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
    logdet = 2.0 * float(np.log(factor[0].diagonal()).sum())
    solved = None if rhs is None else scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    inverse = dpotri(factor[0].copy(), lower=1)[0]
    return logdet, solved, np.where(np.tri(len(inverse), dtype=bool), inverse, inverse.T)


def _mi_pair():
    model = CovarianceModel.from_dataset(center_columns(gen_sim2(m=300, u=6, v=16, seed=1)))
    sel0 = np.array([1, 4, 7, 9, 12, 13])
    k = sel0.size
    pair = np.zeros((2 * k, 2 * k))
    pair[:k, :k] = model.block(sel0)
    pair[k:, k:] = model.precision[sel0[:, None], sel0]
    return pair, None


def _itfs_block(rhs_ndim):
    # ITFS solves A_GG x = A_GT for the selected G against the rest T.
    data = center_columns(gen_sim2(m=2000, u=10, v=150, seed=2))
    cov = _data_covariance(data)
    cov.flat[:: data.v + 1] += default_sigma(cov) ** 2
    given = np.sort(make_rng(5).choice(data.v, size=25, replace=False))
    targets = np.setdiff1d(np.arange(data.v), given)
    cross = cov[np.ix_(given, targets)]
    return cov[np.ix_(given, given)], cross[:, 0] if rhs_ndim == 1 else cross


def _large():
    g = make_rng(6).normal(size=(800, 600))
    return g.T @ g + 0.1 * np.eye(600), make_rng(7).normal(size=(600, 3))


@pytest.mark.parametrize(
    "build",
    [_mi_pair, lambda: _itfs_block(1), lambda: _itfs_block(2), _large],
    ids=["mi-pair", "itfs-block-1d", "itfs-block-kxv", "600x600"],
)
def test_lapack_path_equals_scipy_wrappers_bit_for_bit(build):
    matrix, rhs = build()
    logdet, solved, inverse = _scipy_path(matrix, rhs)
    assert spd_logdet(matrix) == logdet
    assert np.array_equal(spd_inverse(matrix), inverse)
    if rhs is not None:
        out = spd_solve(matrix, rhs)
        assert out.shape == rhs.shape and np.array_equal(out, solved)

