"""Selection-quality metrics.

Covers the compression view (percentage variance explained and its curve
summaries), the frame-theoretic view (frame potential), and the
information-theoretic view (Gaussian mutual information between a selection
and its complement); ``subset_scorer`` scores batches of subsets by each,
``ve`` by the same function as :func:`variance_explained`.

All selections are given as 1-based indices in any integer sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from ._linalg import spd_inverse, spd_logdet
from .dataset import DEPENDENT_TOL, Dataset, normalize_unit, selection_tuple
from .errors import LengthMismatch, ThresholdNeverReached

__all__ = [
    "VECurve", "CovarianceModel", "variance_explained", "frame_potential", "mutual_information",
    "default_sigma", "auc", "k_at_threshold", "relative_performance",
]

#: VE values of rank-1 ties closer than this (percentage points) count as equal.
RANK_TIE_TOL = 1e-9

#: Metrics :func:`subset_scorer` supports, mapped to their direction.
METRIC_MAXIMIZE = {"ve": True, "mi": True, "fp": False}

#: Float64 entries in one stacked QR of :func:`_subset_ve`: a subset of
#: ``k`` columns of an ``r x v`` matrix holds about ``k (3r + v)`` (the
#: gathered columns, LAPACK's copy of them, ``Q`` and ``Q^T x``).
_QR_ENTRIES = 1 << 19


# =========================================================================
# Types
# =========================================================================


@dataclass(frozen=True)
class VECurve:
    """Variance explained (percent) after each selection step.

    ``values[j]`` is the VE of the first ``j + 1`` selected variables.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(x) for x in self.values)
        for x in values:
            if not (-1e-9 <= x <= 100.0 + 1e-9):
                raise ValueError(f"VE value {x} outside [0, 100]")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, item):
        return self.values[item]


@dataclass(frozen=True)
class CovarianceModel:
    """A Gaussian model over the variables: covariance plus isotropic noise.

    Parameters
    ----------
    cov : ndarray, shape (v, v)
        Finite, symmetric positive semi-definite covariance ``X^T X / m``.
    sigma_noise : float
        Non-negative observation-noise standard deviation; its square is
        added to the diagonal wherever the model conditions or marginalizes.
    """

    cov: np.ndarray
    sigma_noise: float

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float, copy=True)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got {cov.shape}")
        if not np.isfinite(cov).all():
            raise ValueError("covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ValueError("covariance must be symmetric within 1e-10")
        eigvals = np.linalg.eigvalsh(cov)
        floor = -1e-8 * max(float(eigvals[-1]), 1e-300)
        if eigvals[0] < floor:
            raise ValueError(f"covariance not positive semi-definite (min eig {eigvals[0]})")
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        sigma = float(self.sigma_noise)
        if sigma < 0.0 or not math.isfinite(sigma):
            raise ValueError(f"sigma_noise must be a non-negative real, got {sigma}")
        object.__setattr__(self, "sigma_noise", sigma)

    @property
    def v(self) -> int:
        return self.cov.shape[0]

    @cached_property
    def _regularized(self) -> np.ndarray:
        """``A = cov + s^2 I`` (read-only), the regularized covariance that
        all conditioning uses, built once per model."""
        a = self.cov.copy()
        a.flat[:: self.v + 1] += self.sigma_noise**2
        a.setflags(write=False)
        return a

    def block(self, index) -> np.ndarray:
        """A new copy of ``A_II`` for 0-based ``index``."""
        index = np.asarray(index, dtype=int)
        return self._regularized[index[:, None], index]

    @cached_property
    def precision(self) -> np.ndarray:
        """The precision matrix ``P = A^{-1}`` (read-only), by the same
        Cholesky path as every block: a singular ``A`` makes every mutual
        information infinite, so it raises :class:`SingularCovariance`."""
        precision = spd_inverse(self._regularized)
        precision.setflags(write=False)
        return precision

    @classmethod
    def from_dataset(cls, data: Dataset, sigma: float | None = None) -> "CovarianceModel":
        """Build ``cov = X^T X / m`` from (typically centered) data.

        When ``sigma`` is omitted it defaults to 1% of the root-mean-square
        variable scale: ``0.01 * sqrt(mean(diag(cov)))``.
        """
        cov = _data_covariance(data)
        if sigma is None:
            sigma = default_sigma(cov)
        return cls(cov, sigma)


def _data_covariance(data: Dataset) -> np.ndarray:
    """A new ``X^T X / m``, symmetrized against round-off."""
    gram = data.values.T @ data.values
    return (gram + gram.T) / (2.0 * data.m)


def default_sigma(cov: np.ndarray) -> float:
    """Default noise scale: ``0.01 * sqrt(mean(diag(cov)))``."""
    return 0.01 * math.sqrt(float(np.mean(np.diag(cov))))


# =========================================================================
# Variance explained
# =========================================================================


def _captured_energy(root: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """``||Q_S^T root||^2`` for each row ``S`` of the ``(n, k)`` 0-based
    ``subsets``; with ``root^T root = X^T X`` it is the energy of ``X`` in
    the span of ``X_S``.

    ``Q_S R_S`` is a Householder QR of ``root[:, S]``.  Column ``j`` is
    dependent when ``|R_jj|``, its residual against the columns before it,
    is at most ``DEPENDENT_TOL ||root_j||``, or when ``j`` is past the row
    count; it adds nothing to the span, so ``S`` is scored without its
    first dependent column.
    """
    n, k = subsets.shape
    columns = root.T[subsets]
    q, r = np.linalg.qr(np.swapaxes(columns, 1, 2))
    diagonal = np.zeros((n, k))
    diagonal[:, : r.shape[1]] = np.abs(np.diagonal(r, axis1=1, axis2=2))
    dependent = diagonal <= DEPENDENT_TOL * np.linalg.norm(columns, axis=2)
    coords = np.matmul(np.swapaxes(q, 1, 2), root)
    captured = np.einsum("nkv,nkv->n", coords, coords)
    if dependent.any():
        redo = np.flatnonzero(dependent.any(axis=1))
        keep = np.arange(k) != dependent[redo].argmax(axis=1)[:, None]
        captured[redo] = _captured_energy(root, subsets[redo][keep].reshape(redo.size, k - 1))
    return captured


def _subset_ve(x: np.ndarray, energy: float, subsets: np.ndarray) -> np.ndarray:
    """VE (percent of ``energy = ||X||^2``) of each row of the ``(n, k)``
    0-based ``subsets`` of a Gram root ``x`` of ``X``, in chunks of at
    most ``_QR_ENTRIES`` entries; clamped to [0, 100] against round-off."""
    rows = max(1, _QR_ENTRIES // (max(1, subsets.shape[1]) * (3 * x.shape[0] + x.shape[1])))
    if len(subsets) > rows:
        parts = np.split(subsets, range(rows, len(subsets), rows))
        return np.concatenate([_subset_ve(x, energy, part) for part in parts])
    return np.minimum(np.maximum(100.0 * _captured_energy(x, subsets) / energy, 0.0), 100.0)


def variance_explained(data: Dataset, selected) -> float:
    """Percentage of total variance captured by projecting onto a selection.

    ``VE = 100 ||Q_S^T X||_F^2 / ||X||_F^2``, ``Q_S`` an orthonormal basis of
    the span of the selected columns: the energy of the least-squares
    reconstruction from them.  The QR is of the selected columns of the
    Gram root the dataset keeps (``T`` of ``X = QT`` when ``m > v``, else
    ``X``), and ``||X||_F^2`` is kept there too: the first read of each on
    a dataset pays for it, O(mv^2) for the root, and each call then costs
    O(min(m, v) k (k + v)).  Every call equals :func:`subset_scorer`'s
    ``ve`` bit for bit.  The empty selection scores 0.

    Requires centered data so that "variance" is the centered sum of squares.
    A selected column that keeps at most ``DEPENDENT_TOL`` of its norm
    against the columns before it lies in their span and adds nothing: a
    dependent selection scores the VE of its span.  Data with no variance
    raises ``ValueError``.
    """
    if not data.centered:
        raise ValueError("variance_explained requires centered data")
    sel = selection_tuple(selected, data.v)
    return float(_subset_ve(data._root, data._energy, np.array([sel], dtype=int) - 1)[0])


# =========================================================================
# Frame potential
# =========================================================================


def frame_potential(data: Dataset, selected) -> float:
    """Sum of squared pairwise inner products over the selected columns.

    ``FP(X_S) = sum_{i,j in S} <x_i, x_j>^2`` with both orders of each pair
    and the diagonal included; equivalently ``||X_S^T X_S||_F^2``.  Requires
    unit-norm columns so values are comparable across selections.
    """
    if not data.unit_norm:
        raise ValueError("frame_potential requires unit-norm columns")
    sel = selection_tuple(selected, data.v)
    if not sel:
        raise ValueError("frame_potential requires a non-empty selection")
    cols = np.array(sel, dtype=int) - 1
    x_s = data.values[:, cols]
    gram = x_s.T @ x_s
    return float(np.sum(gram * gram))


# =========================================================================
# Gaussian mutual information, and subset scoring by any metric
# =========================================================================


def mutual_information(model: CovarianceModel, selected) -> float:
    """Mutual information (nats) between the selection and its complement.

    For the Gaussian model with regularized covariance ``A = Sigma + s^2 I``,
    ``MI(S; U) = (log det A_SS + log det A_UU - log det A) / 2``.  Since
    ``det A = det A_UU / det P_SS`` for the precision matrix ``P = A^{-1}``
    (``(P_SS)^{-1}`` is the Schur complement of ``A_UU`` in ``A``), it is
    computed as ``(log det A_SS + log det P_SS) / 2``: the log det of the
    2k x 2k block-diagonal pair ``diag(A_SS, P_SS)``, two gathers and one
    LAPACK ``potrf`` per subset, with ``A`` built and inverted once per
    model.

    Raises
    ------
    SingularCovariance
        If ``A`` is singular (the mutual information is infinite).  Blocks
        of the positive-definite ``A`` and ``P`` are positive definite, so
        none is retried with jitter.
    """
    sel0 = np.array(selection_tuple(selected, model.v), dtype=int) - 1
    if not 0 < sel0.size < model.v:
        raise ValueError("mutual information requires a non-empty selection and complement")
    k = sel0.size
    pair = np.zeros((2 * k, 2 * k))
    pair[:k, :k] = model.block(sel0)
    pair[k:, k:] = model.precision[sel0[:, None], sel0]
    return 0.5 * spd_logdet(pair)


def subset_scorer(data: Dataset, metric: str, sigma: float | None = None):
    """The scoring function of a metric on ``data`` and its direction.

    Returns ``(score, maximize)``: ``score`` maps an ``(n, k)`` integer
    array of 0-based subsets to their ``n`` metric values.  ``"ve"`` is
    :func:`_subset_ve` on the dataset's kept Gram root (the empty subset
    scores 0), ``"fp"`` the frame potential of the unit-normalized columns
    and ``"mi"`` the Gaussian mutual information under noise scale
    ``sigma`` (default: 1% of the root-mean-square variable scale);
    ``sigma`` is rejected for the other metrics.
    """
    if metric not in METRIC_MAXIMIZE:
        raise ValueError(f"metric must be one of {sorted(METRIC_MAXIMIZE)}, got {metric!r}")
    if sigma is not None and metric != "mi":
        raise ValueError(f"sigma applies only to the mi metric, not {metric!r}")
    if not data.centered:
        raise ValueError("subset scoring requires centered data")
    if metric == "mi":
        model = CovarianceModel.from_dataset(data, sigma)

        def score(idx):
            return np.array([mutual_information(model, row + 1) for row in idx])
    elif metric == "fp":
        unit = normalize_unit(data)
        gram_sq = (unit.values.T @ unit.values) ** 2

        def score(idx):
            if idx.shape[1] == 0:
                raise ValueError("frame_potential requires a non-empty selection")
            return gram_sq[idx[:, :, None], idx[:, None, :]].sum(axis=(1, 2))
    else:
        score = partial(_subset_ve, data._root, data._energy)
    return score, METRIC_MAXIMIZE[metric]


# =========================================================================
# Curve summaries
# =========================================================================


def _curve_values(curve) -> tuple[float, ...]:
    return tuple(float(x) for x in curve)


def auc(curve, v: int) -> float:
    """Normalized area under a full VE curve.

    ``AUC = (0.01 / (v - 1)) * sum_{k=1}^{v-1} VE(k)``; the curve must have
    exactly ``v - 1`` entries, so ``v`` is at least 2.  A curve pinned at
    100 gives 1.0.
    """
    if v < 2:
        raise ValueError(f"AUC needs at least 2 variables, got v={v}")
    values = _curve_values(curve)
    if len(values) != v - 1:
        raise LengthMismatch(
            f"AUC needs a curve of length v-1 = {v - 1}, got {len(values)}"
        )
    return 0.01 / (v - 1) * float(sum(values))


def k_at_threshold(curve, threshold: float) -> int:
    """Smallest k whose VE meets or exceeds ``threshold`` percent."""
    values = _curve_values(curve)
    for idx, value in enumerate(values):
        if value >= threshold:
            return idx + 1
    raise ThresholdNeverReached(threshold, max(values, default=0.0))


def relative_performance(curves: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Percentage of steps on which each algorithm's VE curve is top-ranked.

    The comparison runs over ``k = 1 .. k*`` where ``k*`` is the smallest k
    at which every algorithm exceeds 99% VE.  At each k the best VE wins;
    curves within ``RANK_TIE_TOL`` percentage points of the best all receive
    credit.  Scores are ``100 * wins / k*``.

    Raises
    ------
    LengthMismatch
        If the curves differ in length.
    ThresholdNeverReached
        If some algorithm never exceeds 99% VE within the curves.
    """
    if not curves:
        raise ValueError("need at least one curve")
    names = list(curves)
    values = {name: _curve_values(curves[name]) for name in names}
    lengths = {len(vals) for vals in values.values()}
    if len(lengths) != 1:
        raise LengthMismatch(f"curves have differing lengths {sorted(lengths)}")
    length = lengths.pop()
    k_star = None
    for k in range(1, length + 1):
        if all(values[name][k - 1] > 99.0 for name in names):
            k_star = k
            break
    if k_star is None:
        worst = min(max(vals, default=0.0) for vals in values.values())
        raise ThresholdNeverReached(99.0, worst)
    wins = {name: 0 for name in names}
    for k in range(k_star):
        best = max(values[name][k] for name in names)
        for name in names:
            if values[name][k] >= best - RANK_TIE_TOL:
                wins[name] += 1
    return {name: 100.0 * wins[name] / k_star for name in names}
