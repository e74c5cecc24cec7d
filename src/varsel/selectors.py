"""The seven greedy unsupervised variable-selection algorithms.

Every selector is a gain function plus a preprocessing recipe wired into a
greedy engine:

====================  =======================================================
``fsca_select``       Forward selection component analysis: per step, pick
                      the residual column whose rank-one reconstruction
                      captures the most remaining variance, then deflate.
``lfsca_select``      The same gain driven through the lazy engine.
``fosmod_select``     Forward orthogonal search by maximal average squared
                      correlation between residual candidates and all
                      original columns; deflates like FSCA.
``pfs_select``        Principal-feature selection: per step, correlate the
                      residual columns with the residual's first principal
                      component (one dense eigensolve) and pick the
                      best-aligned one.
``itfs_select``       Information-theoretic selection under a Gaussian
                      model: maximize the posterior-variance ratio
                      ``var(x|S) / var(x|U\\x)``.
``fsfp_fsca_select``  Frame-potential minimization on unit-norm columns,
                      starting from FSCA's first pick.
``ufs_select``        Unsupervised forward selection: start from the least
                      correlated column pair and repeatedly add the column
                      with the smallest squared multiple correlation with
                      the current selection.
====================  =======================================================

Selectors require explicitly centered input (none of them center silently).
The frame-potential and UFS selectors additionally scale columns to unit
norm themselves when the input is not already unit-norm, since that
normalization is part of those algorithms.

Engines: L-FSCA alone runs the lazy engine.  The FSCA gain scores one
candidate at a time (one min(m, v)^2 product per evaluation), so the
evaluations that lazy selection skips are real work.
The other five gains score every column at once through ``step_scores``,
once per step, so they run the plain engine: skipping candidates would
save nothing.

Every gain owns one residual of the centered data, and committing a column
deflates it; the energy each deflation captures gives the VE curve, and the
residual's one rank test, rerun after each deflation, decides which columns
stay candidates and which commits capture nothing.  When ``m > v``, every
gain but UFS's keeps its residual and deflation on the v x v triangular
factor ``T`` of ``X = QT``: every quantity they read (column norms,
``X^T r`` for a residual column ``r``, and ``R^T p`` for PFS's first
component ``p``) is unchanged by the orthonormal ``Q``, so they select as
on ``X`` (up to round-off, which can decide an exact tie) at v x v cost.
``T`` is the Gram root the ``Dataset`` keeps: the first of these gains
to run on a ``Dataset`` factors it, and the others read it.
UFS stays on the m x v residual, because the round-off of ``T`` would
break its exact ties between orthogonal columns.

FSCA, L-FSCA and FOS-MOD share one gain, ``_VeGain``: FOS-MOD's average
squared correlation is FSCA's VE gain against the unit-norm columns.  It
reads ``X^T r`` through one min(m, v)-square form built per run and never
updated, on every shape.

PFS imports ``scipy.linalg.eigh`` in ``_first_component``, its one
caller, so that the other six selectors never pay for importing
``scipy.linalg``, which takes longer than an L-FSCA run of ``varsel
select`` (ITFS reaches scipy through ``_linalg``, which defers it too).
Once scipy is loaded, the statement costs about a microsecond per step.

All results report 1-based variable indices.  The VE curve attached to each
result is always computed against the centered (not normalized) data, so
curves are comparable across algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ._linalg import spd_inverse, spd_solve
from .dataset import DEPENDENT_TOL, Dataset, deflate_in_place
from .dataset import index_tuple, normalize_unit
from .engine import (
    EXCLUDED,
    Cardinality,
    GainFunction,
    StoppingRule,
    Threshold,
    greedy_select,
    lazy_greedy_select,
)
from .errors import RankDeficient
from .metrics import VECurve, _data_covariance, default_sigma

__all__ = [
    "SelectionResult",
    "OrthonormalBasis",
    "NipalsResult",
    "nipals_first_pc",
    "fsca_select",
    "lfsca_select",
    "fosmod_select",
    "pfs_select",
    "itfs_select",
    "fsfp_fsca_select",
    "ufs_select",
    "ALGORITHMS",
]


# =========================================================================
# Result types
# =========================================================================


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selector run.

    Attributes
    ----------
    algorithm : str
        Registry name of the selector.
    order : tuple of int
        Selected variables, 1-based, in selection order.
    ve_curve : VECurve
        Variance explained (percent, against the centered data) after each
        step.
    native_trace : tuple of float
        Per-step values of the algorithm's own criterion: the VE gain for
        FSCA variants, the average squared correlation for FOS-MOD, the
        absolute principal-component correlation for PFS, the
        posterior-variance ratio for ITFS, the frame potential of the
        selection for FSFP-FSCA, and the squared multiple correlation of
        the committed column for UFS (its first two entries hold the
        absolute inner product of the starting pair).
    eval_count : int
        Number of candidate scores computed: every remaining candidate at
        every step of the plain engine, and the first step's full scan plus
        each re-evaluation in the lazy engine.
    elapsed : float
        Wall-clock seconds for the selection (preprocessing done inside the
        selector, such as unit-normalization, included).  The ``Dataset``
        keeps its Gram root and ``||X||^2``, and only their first reader
        pays for them: a call on a fresh ``Dataset`` includes both (UFS
        reads ``||X||^2`` alone).
    warnings : tuple of str
        Non-fatal anomalies (early exhaustion, a pick that adds no
        variance, a PFS step whose first principal component is
        ill-defined).
    """

    algorithm: str
    order: tuple[int, ...]
    ve_curve: VECurve
    native_trace: tuple[float, ...]
    eval_count: int
    elapsed: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        order = index_tuple(self.order, "order")
        object.__setattr__(self, "order", order)
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate indices in order {order}")
        native = tuple(float(x) for x in self.native_trace)
        object.__setattr__(self, "native_trace", native)
        if not (len(order) == len(self.ve_curve) == len(native)):
            raise ValueError("order, ve_curve and native_trace lengths differ")
        object.__setattr__(self, "warnings", tuple(str(w) for w in self.warnings))


class OrthonormalBasis:
    """An orthonormal basis grown one column at a time.

    Uses modified Gram-Schmidt with a second orthogonalization pass for
    numerical stability.  ``extend`` returns the new unit direction and
    raises :class:`RankDeficient` when the added column is numerically
    dependent on the current basis.
    """

    def __init__(self, m: int, capacity: int):
        self._store = np.zeros((m, capacity))
        self._count = 0

    @property
    def columns(self) -> np.ndarray:
        """The current m x j orthonormal matrix (read-only view)."""
        view = self._store[:, : self._count]
        view.flags.writeable = False
        return view

    @property
    def count(self) -> int:
        return self._count

    def extend(self, column: np.ndarray) -> np.ndarray:
        x = np.asarray(column, dtype=float)
        norm_x = float(np.linalg.norm(x))
        if norm_x == 0.0:
            raise RankDeficient(())
        c = x.copy()
        for _ in range(2):
            if self._count:
                basis = self._store[:, : self._count]
                c -= basis @ (basis.T @ c)
        norm_c = float(np.linalg.norm(c))
        if norm_c <= DEPENDENT_TOL * norm_x:
            raise RankDeficient(())
        c /= norm_c
        if self._count >= self._store.shape[1]:
            raise ValueError("basis capacity exceeded")
        self._store[:, self._count] = c
        self._count += 1
        return c


@dataclass(frozen=True)
class NipalsResult:
    """First principal component scores via NIPALS.

    ``scores`` is the m-vector of first-component scores, with its sign
    fixed so the largest-magnitude loading is positive.  ``converged`` is
    False when the iteration cap was reached before the relative change of
    the score vector fell below tolerance.
    """

    scores: np.ndarray
    iterations: int
    converged: bool


# =========================================================================
# Shared internals
# =========================================================================


def _make_stop(k, tau) -> StoppingRule:
    if (k is None) == (tau is None):
        raise ValueError("provide exactly one of k and tau")
    return Threshold(tau) if k is None else Cardinality(k)


class _Residual:
    """The residual ``r`` of ``x`` against the selection, and the VE trace.

    ``x`` is the centered data ``X``, or, with ``thin``, the Gram root the
    dataset keeps (``data._root``): the v x v triangular factor ``T`` of
    ``X = QT`` when ``m > v``, else ``X`` (see the module docstring; UFS
    alone is not thin).  The root and ``energy = ||X||^2`` are kept on the
    ``Dataset`` by their first reader, so a fresh ``Dataset`` pays for them.
    Each commit deflates ``r``; the energy captured, in percent of
    ``||X||^2``, extends the VE trace, and ``spanned_sq`` sums per column
    the energy captured from it, ``||x_j||^2 - ||r_j||^2``.  Every gain builds
    its residual first: reading ``energy`` is the call's one no-variance
    test, whose ``ValueError`` recurs on every call.

    The one rank test runs at init and after each deflation: column ``j``
    lies in the selected span when ``sqnorms[j] = ||r_j||^2 <= floor_sq[j]
    = DEPENDENT_TOL^2 ||x_j||^2`` (the test of
    :func:`~varsel.metrics.variance_explained`), and is then ``excluded``
    for good, as is each selected column.  Gains read ``sqnorms`` and
    ``excluded``; a commit of an excluded column does not deflate.  Once
    every column is excluded the selection spans the data: VE is 100.
    """

    def __init__(self, data: Dataset, thin: bool):
        self.energy = data._energy
        self.x = data._root if thin else data.values
        self.r = self.x.copy()
        self.x_sqnorms = np.einsum("ij,ij->j", self.x, self.x)
        self.floor_sq = DEPENDENT_TOL**2 * self.x_sqnorms
        self.sqnorms = self.x_sqnorms
        self.excluded = self.sqnorms <= self.floor_sq
        self.captured = 0.0
        self.spanned_sq = np.zeros(data.v)
        self.trace: list[float] = []
        self.first_idle_pick: int | None = None

    def commit(self, candidate: int) -> None:
        """Deflate by column ``candidate`` and record the energy captured.

        A column already in the selected span captures nothing and leaves
        the residual as it is; the first such pick (1-based) is kept in
        ``first_idle_pick``.
        """
        if not self.excluded[candidate]:
            rr, coeffs = deflate_in_place(self.r, candidate)
            self.captured += rr * float(coeffs @ coeffs)
            self.spanned_sq += rr * (coeffs * coeffs)
            self.sqnorms = np.einsum("ij,ij->j", self.r, self.r)
            self.excluded |= self.sqnorms <= self.floor_sq
            self.excluded[candidate] = True
        elif self.first_idle_pick is None:
            self.first_idle_pick = len(self.trace) + 1
        ve = 100.0 * self.captured / self.energy
        self.trace.append(100.0 if self.excluded.all() else min(max(ve, 0.0), 100.0))


class _SelectorGain(GainFunction):
    """A selector's gain as :func:`_select` drives it.

    ``step_scores`` scores every column for the current step, and ``gain``
    and ``gain_all`` read it; the plain engine asks for it once per step.
    Every gain owns one :class:`_Residual` ``res``; committing a column
    deflates it, and its VE is the criterion for threshold stopping.
    ``initial`` is the warm start the gain has already committed.
    """

    res: _Residual
    initial: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()

    def step_scores(self, selected) -> np.ndarray:
        """Gains of all ``v`` columns given ``selected``: ``EXCLUDED`` where
        a column can never be committed; entries of selected columns are
        never read."""
        raise NotImplementedError

    def gain(self, selected, candidate: int) -> float:
        return float(self.step_scores(selected)[candidate])

    def gain_all(self, selected, candidates):
        return self.step_scores(selected)[list(candidates)]

    def commit(self, candidate: int) -> None:
        self.res.commit(candidate)

    def value(self) -> float:
        return self.res.trace[-1] if self.res.trace else 0.0

    def native_trace(self, gains: tuple[float, ...]) -> tuple[float, ...]:
        """Per-step values of the selector's own criterion."""
        return gains


# =========================================================================
# FSCA, lazy FSCA and FOS-MOD
# =========================================================================


class _VeGain(_SelectorGain):
    """Share of the variance of ``z`` that a residual column captures:
    ``s ||z^T r||^2 / (r^T r c)`` for residual column ``r``.

    FSCA and L-FSCA take ``z = x``, ``s = 100`` and ``c = ||X||^2``: the VE
    gain, in percent.  FOS-MOD (``unit``) takes the unit-norm columns of
    ``x`` (a zero column stays zero), ``s = 1`` and ``c = v``: the average
    squared correlation of ``r`` with the original columns, which is FSCA's
    gain on the unit-norm data divided by 100.

    The numerator is ``r^T F r`` for the min(m, v)-square form
    ``F = z z^T``, built once and never updated: with ``P`` the projection
    off the selected span, ``R = P x`` and ``P r = r``, so
    ``x^T r = x^T P r = R^T r``.  FSCA scores one candidate per
    evaluation, one min(m, v)^2 product, in both engines: keeping them on
    the same primitive is what makes their wall-clock ratio measure the
    evaluations that lazy selection skips rather than a batching artifact.
    FOS-MOD scores a whole step with one product, min(m, v)^2 v.
    """

    def __init__(self, data: Dataset, unit: bool = False):
        self.res = _Residual(data, thin=True)
        x = self.res.x
        if unit:
            norms = np.sqrt(self.res.x_sqnorms)
            x = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)
        self.form = x @ x.T
        self.unit = unit
        self.scale, self.total = (1.0, data.v) if unit else (100.0, self.res.energy)

    def gain(self, selected, candidate: int) -> float:
        res = self.res
        if res.excluded[candidate]:
            return EXCLUDED
        r = res.r[:, candidate]
        return self.scale * float(r @ (self.form @ r)) / (float(r @ r) * self.total)

    def step_scores(self, selected):
        res = self.res
        with np.errstate(divide="ignore", invalid="ignore"):
            captured = np.einsum("ij,ij->j", res.r, self.form @ res.r)
            scores = self.scale * captured / (res.sqnorms * self.total)
        scores[res.excluded] = EXCLUDED
        return scores

    def gain_all(self, selected, candidates):
        if self.unit:
            return super().gain_all(selected, candidates)
        return GainFunction.gain_all(self, selected, candidates)


# =========================================================================
# NIPALS and PFS
# =========================================================================


def nipals_first_pc(data, tol: float = 1e-9, max_iter: int = 500) -> NipalsResult:
    """First principal-component scores of a matrix by NIPALS iteration.

    Starts from the largest-norm column, alternates loading and score
    updates, and stops when successive score vectors differ by at most
    ``tol`` in relative norm.  When ``max_iter`` is reached first, the best
    iterate is returned with ``converged=False``.

    Parameters
    ----------
    data : Dataset or ndarray
        Matrix whose first principal component is sought.
    """
    matrix = data.values if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    sqnorms = np.einsum("ij,ij->j", matrix, matrix)
    start = int(np.argmax(sqnorms))
    if sqnorms[start] == 0.0:
        raise ValueError("matrix has no nonzero column")
    scores = matrix[:, start].copy()
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        loadings = matrix.T @ scores
        loadings /= float(np.linalg.norm(loadings))
        new_scores = matrix @ loadings
        delta = float(np.linalg.norm(new_scores - scores))
        scores = new_scores
        if delta <= tol * float(np.linalg.norm(new_scores)):
            converged = True
            break
    final_loadings = matrix.T @ scores
    peak = int(np.argmax(np.abs(final_loadings)))
    if final_loadings[peak] < 0.0:
        scores = -scores
    return NipalsResult(scores, iterations, converged)


#: A relative eigengap ``(l1 - l2) / l1`` at most this leaves the residual's
#: first principal component ill-defined: the computed vector's error bound
#: ``eps l1 / (l1 - l2)`` then exceeds ``sqrt(eps)``.
_ILL_DEFINED_GAP = math.sqrt(np.finfo(float).eps)


def _first_component(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Scores of the first principal component of ``r``, and its relative
    eigengap ``(l1 - l2) / l1``: the top two eigenpairs of ``r r^T``, the
    smaller Gram since PFS's residual is never taller than it is wide (the
    data when ``m <= v``, the v x v factor ``T`` otherwise).  With one row
    (``T`` of a single column), ``l2`` is 0."""
    from scipy.linalg import eigh  # deferred: see the module docstring

    gram = r @ r.T
    n = gram.shape[0]
    values, vectors = eigh(gram, subset_by_index=[max(n - 2, 0), n - 1], check_finite=False)
    second = values[0] if n > 1 else 0.0
    return vectors[:, -1], float((values[-1] - second) / values[-1])


class _PfsGain(_SelectorGain):
    """Absolute correlation of residual columns with the residual's first
    principal component, recomputed once per step; a step whose component
    is ill-defined adds a warning."""

    def __init__(self, data: Dataset):
        self.res = _Residual(data, thin=True)
        self.warnings: list[str] = []

    def step_scores(self, selected):
        res = self.res
        scores = np.full(res.r.shape[1], EXCLUDED)
        if not res.excluded.all():
            p1, gap = _first_component(res.r)
            if gap <= _ILL_DEFINED_GAP:
                self.warnings.append(
                    f"step {len(selected) + 1}: the residual's first principal component is "
                    f"ill-defined (relative eigengap {gap:.1e})"
                )
            pp = float(p1 @ p1)
            u = p1 @ res.r
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.abs(u) / np.sqrt(res.sqnorms * pp)
            scores[~res.excluded] = corr[~res.excluded]
        return scores


# =========================================================================
# ITFS
# =========================================================================


def _schur_diagonal(matrix: np.ndarray, given, targets) -> np.ndarray:
    """``diag(M_TT - M_TG M_GG^{-1} M_GT)`` for disjoint 0-based index
    sets, from one Cholesky of ``M_GG``, which raises
    :class:`SingularCovariance`, with no jitter retry, if it fails."""
    given = np.asarray(given, dtype=int)
    diagonal = np.diag(matrix)[targets]
    if given.size == 0:
        return diagonal
    cross = matrix[np.ix_(given, targets)]
    return diagonal - np.einsum("ij,ij->j", cross, spd_solve(matrix[np.ix_(given, given)], cross))


def _check_itfs_sigma(sigma: float | None) -> None:
    """Reject an ITFS noise scale that is given and not a positive finite number."""
    if sigma is not None and not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if sigma == math.inf:
        raise ValueError(f"sigma must be finite, got {sigma}")


class _ItfsGain(_SelectorGain):
    """Posterior-variance ratio ``var(x|S) / var(x|U\\x)`` under a Gaussian
    model with isotropic noise regularization.

    The gain builds the regularized covariance ``a``, ``A = cov + s^2 I``,
    and its precision matrix ``p``, ``P = A^{-1}``, once per run, as
    :class:`~varsel.metrics.CovarianceModel` does for mutual information.
    The posterior variance of ``x_i`` given the selection is the Schur
    complement ``A_ii - A_iS A_SS^{-1} A_Si``, and given the rest of the
    unselected block it is ``1 / ((A_UU)^{-1})_ii``; since
    ``(A_UU)^{-1} = P_UU - P_US P_SS^{-1} P_SU``, the ratio is the product
    of the Schur-complement diagonals of ``A`` and of ``P`` against ``S``,
    from one factorization each of ``A_SS`` and ``P_SS``: a step costs
    O(k^2 v), not the O(v^3) of inverting ``A_UU``.

    A zero column (a constant one, after centering) scores ``s^2 / s^2 = 1``
    but adds no variance, so ITFS keeps the columns that the residual's rank
    test excludes at init, the zero columns, out; it applies no other.
    """

    def __init__(self, data: Dataset, sigma: float | None):
        self.res = _Residual(data, thin=True)
        self.zero = self.res.excluded.copy()
        _check_itfs_sigma(sigma)
        cov = _data_covariance(data)
        sigma = default_sigma(cov) if sigma is None else float(sigma)
        cov.flat[:: data.v + 1] += sigma**2
        self.a, self.p = cov, spd_inverse(cov)

    def step_scores(self, selected):
        unsel = np.setdiff1d(np.arange(self.a.shape[0]), selected)
        scores = np.full(self.a.shape[0], EXCLUDED)
        scores[unsel] = _schur_diagonal(self.a, selected, unsel) * _schur_diagonal(self.p, selected, unsel)
        scores[self.zero] = EXCLUDED
        return scores


# =========================================================================
# FSFP-FSCA
# =========================================================================


class _FsfpGain(_SelectorGain):
    """Marginal frame-potential reduction of adding a unit-norm column.

    Adding ``x_i`` to the selection raises the frame potential by
    ``<x_i, x_i>^2 + 2 sum_{j in S} <x_i, x_j>^2``; the gain is the
    negative of that increment, and the per-candidate inner-product sums
    are maintained incrementally so each step's scores cost O(v).  The
    first step scores FSCA's first-step criterion on the unit columns
    instead, ``sum_j G_ij^2 / G_ii`` for their Gram ``G``, so the first pick
    is FSCA's pick on the normalized data.
    """

    def __init__(self, data: Dataset):
        self.res = _Residual(data, thin=True)
        normalized = normalize_unit(data)
        self.gram = normalized.values.T @ normalized.values
        self.diag_sq = np.diag(self.gram) ** 2
        self.pair_sums = np.zeros(normalized.v)
        self.fp = 0.0
        self.fp_trace: list[float] = []

    def step_scores(self, selected):
        if not selected:
            return np.einsum("ij,ij->j", self.gram, self.gram) / np.diag(self.gram)
        return -(self.diag_sq + 2.0 * self.pair_sums)

    def commit(self, candidate: int) -> None:
        self.fp += float(self.diag_sq[candidate]) + 2.0 * float(self.pair_sums[candidate])
        self.fp_trace.append(self.fp)
        self.pair_sums += self.gram[:, candidate] ** 2
        super().commit(candidate)

    def native_trace(self, gains):
        return tuple(self.fp_trace)


# =========================================================================
# UFS
# =========================================================================


class _UfsGain(_SelectorGain):
    """Negated squared multiple correlation with the selection.

    ``R^2(x_i, X_S)`` is the share of ``||x_i||^2`` that the deflations
    captured, ``spanned_sq[i] / ||x_i||^2``: a sum of positive terms, so a
    small ``R^2`` keeps the relative precision that
    ``1 - ||r_i||^2 / ||x_i||^2`` would lose.  A column that the residual's
    rank test puts in the selected span (``R^2`` of 1) is excluded, so the
    selection stops at the numerical rank.  The warm start is the least
    correlated column pair.
    """

    def __init__(self, data: Dataset):
        self.res = _Residual(data, thin=False)
        if data.v < 2:
            raise ValueError("ufs needs at least two variables")
        normalized = normalize_unit(data)
        gram = normalized.values.T @ normalized.values
        self.initial = _least_correlated_pair(gram)
        self.pair_value = abs(float(gram[self.initial]))
        for i in self.initial:
            self.commit(i)

    def step_scores(self, selected):
        res = self.res
        scores = -res.spanned_sq / res.x_sqnorms
        scores[res.excluded] = EXCLUDED
        return scores

    def native_trace(self, gains):
        return (self.pair_value, self.pair_value) + tuple(-g for g in gains[2:])


def _least_correlated_pair(gram: np.ndarray) -> tuple[int, int]:
    """0-based (i, j), i < j, minimizing |gram[i, j]|; lexicographic ties."""
    v = gram.shape[0]
    magnitude = np.abs(gram).astype(float)
    magnitude[np.tril_indices(v)] = np.inf
    flat = int(np.argmin(magnitude))
    return flat // v, flat % v


# =========================================================================
# Selector fronts
# =========================================================================


def _select(name: str, data: Dataset, k, tau, make_gain, lazy: bool = False) -> SelectionResult:
    """Run one selector: the front end every public ``*_select`` shares.

    ``make_gain()`` builds the gain, preprocessing and warm start included,
    inside the timed region.  ``k`` may not be below the warm start's size;
    when it equals it, the engine returns the warm start with no
    evaluation.  ``lazy`` picks the lazy engine over the plain one.  Data
    with no variance raises the ``ValueError`` of the gain's residual.
    """
    if not data.centered:
        raise ValueError(f"{name} requires centered data (apply center_columns first)")
    started = perf_counter()
    gain = make_gain()
    stop = _make_stop(k, tau)
    engine = lazy_greedy_select if lazy else greedy_select
    run = engine(gain, data.v, stop, initial=gain.initial)
    elapsed = perf_counter() - started
    warnings = list(gain.warnings)
    if (pick := gain.res.first_idle_pick) is not None:
        warnings.insert(0, f"pick {pick} adds no variance: it lies in the span of the earlier picks")
    if run.exhausted:
        warnings.insert(0, "selection stopped early: every remaining column lies in the selected span")
    return SelectionResult(
        algorithm=name,
        order=tuple(i + 1 for i in run.order),
        ve_curve=VECurve(tuple(gain.res.trace)),
        native_trace=gain.native_trace(run.gains),
        eval_count=run.eval_count,
        elapsed=elapsed,
        warnings=tuple(warnings),
    )


def fsca_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """Forward selection component analysis.

    Per step, every remaining residual column is scored by the variance its
    rank-one reconstruction captures, the best column (lowest index on
    ties) is selected, and the residual is deflated by it.  Stops after
    ``k`` selections, or, when ``tau`` is given instead, once the variance
    explained reaches ``tau`` percent.
    """
    return _select("fsca", data, k, tau, lambda: _VeGain(data))


def lfsca_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """FSCA driven through the lazy engine.

    Bounds from earlier steps stand in for exact scores until the top of
    the bound heap has been re-evaluated, which skips most evaluations per
    step; the VE gain is not exactly submodular, so sequences can deviate
    from plain FSCA, with VE differences that stay within a small fraction
    of a percentage point in practice.
    """
    return _select("lfsca", data, k, tau, lambda: _VeGain(data), lazy=True)


def fosmod_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """Forward orthogonal search by maximal average squared correlation.

    Per step, picks the residual column with the largest average squared
    correlation against all original columns, then deflates.  Threshold
    mode stops once variance explained reaches ``tau`` percent.
    """
    return _select("fosmod", data, k, tau, lambda: _VeGain(data, unit=True))


def pfs_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """Principal-feature selection.

    Per step, computes the first principal component of the residual from
    the top two eigenpairs of its smaller Gram and selects the residual
    column with the largest absolute correlation to it, then deflates.  A
    step whose relative eigengap ``(l1 - l2) / l1`` is at most
    ``sqrt(eps)`` has no well-defined component, and adds a warning naming
    the step and the gap.
    """
    return _select("pfs", data, k, tau, lambda: _PfsGain(data))


def itfs_select(
    data: Dataset,
    k: int | None = None,
    *,
    tau: float | None = None,
    sigma: float | None = None,
) -> SelectionResult:
    """Information-theoretic forward selection under a Gaussian model.

    Builds the covariance ``X^T X / m`` and inverts its regularized form
    once, then per step selects the candidate maximizing the ratio of its
    posterior variance given the selection to its posterior variance given
    the other unselected variables, both regularized by the noise variance
    ``sigma**2``.  Each step's scores cost O(k^2 v): the numerators are
    conditioned on the selected block, and the denominators are a Schur
    complement of the precision matrix on it.

    ``sigma`` defaults to 1% of the root-mean-square variable scale; a
    given one must be positive and finite (``ValueError``).  A
    ``sigma**2`` too small for the covariance or a block to pass Cholesky
    raises :class:`~varsel.errors.SingularCovariance`; no jitter stands in
    for it.
    """
    return _select("itfs", data, k, tau, lambda: _ItfsGain(data, sigma))


def fsfp_fsca_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """Frame-potential minimization from the first FSCA pick.

    Columns are scaled to unit norm (part of the algorithm; applied here
    when the input is not already unit-norm).  The first step scores
    FSCA's first-step criterion on the normalized data; each later step
    adds the candidate whose inclusion increases the frame potential of the
    selection least.
    """
    return _select("fsfp-fsca", data, k, tau, lambda: _FsfpGain(data))


def ufs_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """Unsupervised forward selection.

    Columns are scaled to unit norm (applied here when needed).  The first
    two variables are the least-correlated column pair; each later step
    adds the candidate with the smallest squared multiple correlation
    with the selected columns; a column in their span is never added, so
    the selection stops at the numerical rank.

    Requires ``k >= 2`` in cardinality mode.
    """
    return _select("ufs", data, k, tau, lambda: _UfsGain(data))


#: Registry of selector callables by their public names.
ALGORITHMS = {
    "fsca": fsca_select,
    "lfsca": lfsca_select,
    "fosmod": fosmod_select,
    "pfs": pfs_select,
    "itfs": itfs_select,
    "fsfp-fsca": fsfp_fsca_select,
    "ufs": ufs_select,
}
