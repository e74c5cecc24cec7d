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
                      component (NIPALS) and pick the best-aligned one.
``itfs_select``       Information-theoretic selection under a Gaussian
                      model: maximize the posterior-variance ratio
                      ``var(x|S) / var(x|U\\x)``.
``fsfp_fsca_select``  Frame-potential minimization on unit-norm columns,
                      seeded with the first FSCA pick.
``ufs_select``        Unsupervised forward selection: start from the least
                      correlated column pair and repeatedly add the column
                      with the smallest squared multiple correlation with
                      the current selection's orthonormal basis.
====================  =======================================================

Selectors require explicitly centered input (none of them center silently).
The frame-potential and UFS selectors additionally scale columns to unit
norm themselves when the input is not already unit-norm, since that
normalization is part of those algorithms.

Scoring: FSCA evaluates one candidate at a time (one matrix-vector product
against the residual per evaluation, in both engines).  The other five
gains score every column at once through ``step_scores``, which runs at
most once per step; per-candidate and batch queries read that step's
vector.

All results report 1-based variable indices.  The VE curve attached to each
result is always computed against the centered (not normalized) data, so
curves are comparable across algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np

from ._linalg import SpdFactorizationError, spd_inverse, spd_solve
from .dataset import DEGENERATE_REL_TOL, Dataset, deflate_in_place, normalize_unit
from .engine import (
    EXCLUDED,
    Cardinality,
    GainFunction,
    GreedyRun,
    StoppingRule,
    Threshold,
    greedy_select,
    lazy_greedy_select,
)
from .errors import RankDeficient, SingularCovariance
from .metrics import CovarianceModel, VECurve

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
        Number of candidate-gain evaluations performed.
    elapsed : float
        Wall-clock seconds for the selection (preprocessing done inside the
        selector, such as unit-normalization, included).
    warnings : tuple of str
        Non-fatal anomalies (early exhaustion, non-converged NIPALS).
    """

    algorithm: str
    order: tuple[int, ...]
    ve_curve: VECurve
    native_trace: tuple[float, ...]
    eval_count: int
    elapsed: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        object.__setattr__(self, "order", order)
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate indices in order {order}")
        native = tuple(float(x) for x in self.native_trace)
        object.__setattr__(self, "native_trace", native)
        if not (len(order) == len(self.ve_curve) == len(native)):
            raise ValueError("order, ve_curve and native_trace lengths differ")
        object.__setattr__(self, "warnings", tuple(str(w) for w in self.warnings))

    @property
    def k(self) -> int:
        return len(self.order)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "order": list(self.order),
            "ve_curve": list(self.ve_curve.values),
            "native_trace": list(self.native_trace),
            "eval_count": self.eval_count,
            "elapsed": self.elapsed,
            "warnings": list(self.warnings),
        }


class OrthonormalBasis:
    """An orthonormal basis grown one column at a time.

    Uses modified Gram-Schmidt with a second orthogonalization pass for
    numerical stability.  ``extend`` returns the new unit direction and
    raises :class:`RankDeficient` when the added column is numerically
    dependent on the current basis.
    """

    #: A candidate whose orthogonal part is below this fraction of its norm
    #: is considered dependent on the basis.
    DEPENDENT_TOL = 1e-10

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
        if norm_c <= self.DEPENDENT_TOL * norm_x:
            raise RankDeficient(())
        c /= norm_c
        if self._count >= self._store.shape[1]:
            raise ValueError("basis capacity exceeded")
        self._store[:, self._count] = c
        self._count += 1
        return c

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "OrthonormalBasis":
        """Build a basis from the columns of a matrix, left to right."""
        m, j = columns.shape
        basis = cls(m, j)
        for idx in range(j):
            basis.extend(columns[:, idx])
        return basis


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


def _make_stop(k, tau, v: int, min_k: int) -> StoppingRule:
    if (k is None) == (tau is None):
        raise ValueError("provide exactly one of k and tau")
    if k is not None:
        k = int(k)
        if not min_k <= k <= v:
            raise ValueError(f"k must be in {min_k}..{v}, got {k}")
        return Cardinality(k)
    return Threshold(float(tau))


class _VeTracker:
    """Variance explained after each step, in percent of the energy of the
    centered data matrix ``x``.

    Deflating selectors report the energy each deflation captures through
    :meth:`add`.  The others hand each selected column to
    :meth:`add_column`, which orthonormalizes it against the columns before
    and adds the energy its new direction captures.
    """

    def __init__(self, x: np.ndarray):
        self.x = x
        self.energy = float(np.linalg.norm(x)) ** 2
        self.captured = 0.0
        self.trace: list[float] = []

    @cached_property
    def basis(self) -> OrthonormalBasis:
        return OrthonormalBasis(*self.x.shape)

    @property
    def value(self) -> float:
        return self.trace[-1] if self.trace else 0.0

    def add(self, captured: float) -> None:
        self.captured += captured
        self.trace.append(min(max(100.0 * self.captured / self.energy, 0.0), 100.0))

    def add_column(self, column: np.ndarray) -> np.ndarray | None:
        """Track one more selected column and return its new unit direction.

        A column dependent on the earlier ones captures nothing and returns
        ``None``.
        """
        try:
            direction = self.basis.extend(column)
        except RankDeficient:
            self.add(0.0)
            return None
        t = direction @ self.x
        self.add(float(t @ t))
        return direction


class _SelectorGain(GainFunction):
    """A selector's gain as :func:`_select` drives it.

    ``step_scores`` scores every column for the current step; ``gain`` and
    ``gain_all`` read one cached vector per selection size, so scoring runs
    at most once per step.  The VE tracker's value is the criterion for
    threshold stopping.  ``initial`` is the warm start the gain has already
    committed, and ``setup_evals`` the evaluations spent choosing it.
    """

    ve: _VeTracker
    initial: tuple[int, ...] = ()
    setup_evals = 0
    warnings: tuple[str, ...] = ()
    _step: tuple[int, np.ndarray] | None = None

    def step_scores(self, selected) -> np.ndarray:
        """Gains of all ``v`` columns given ``selected``: ``EXCLUDED`` where
        a column can never be committed; entries of selected columns are
        never read."""
        raise NotImplementedError

    def _scores(self, selected) -> np.ndarray:
        if self._step is None or self._step[0] != len(selected):
            self._step = (len(selected), self.step_scores(selected))
        return self._step[1]

    def gain(self, selected, candidate: int) -> float:
        return float(self._scores(selected)[candidate])

    def gain_all(self, selected, candidates):
        return self._scores(selected)[list(candidates)]

    def value(self) -> float:
        return self.ve.value

    def native_trace(self, gains: tuple[float, ...]) -> tuple[float, ...]:
        """Per-step values of the selector's own criterion."""
        return gains


class _DeflatingGain(_SelectorGain):
    """A gain over the residual ``r`` of the data ``x``; committing a
    column deflates by it and feeds the VE tracker the energy captured."""

    def __init__(self, data: Dataset):
        self.x = data.values
        self.r = data.values.copy()
        self.ve = _VeTracker(self.x)
        self.degenerate_sq = (DEGENERATE_REL_TOL**2) * self.ve.energy
        self.excluded = np.zeros(data.v, dtype=bool)

    def residual_sqnorms(self) -> np.ndarray:
        return np.einsum("ij,ij->j", self.r, self.r)

    def mark_degenerate(self, sqnorms: np.ndarray) -> np.ndarray:
        """Permanently exclude columns whose residual energy is gone."""
        self.excluded |= sqnorms <= self.degenerate_sq
        return self.excluded

    def live_column(self, candidate: int) -> tuple[np.ndarray, float] | None:
        """Residual column ``candidate`` and its squared norm, or ``None``
        once the column is excluded (its energy being gone excludes it)."""
        if self.excluded[candidate]:
            return None
        r = self.r[:, candidate]
        rr = float(r @ r)
        if rr <= self.degenerate_sq:
            self.excluded[candidate] = True
            return None
        return r, rr

    def commit(self, candidate: int) -> None:
        rr, coeffs = deflate_in_place(self.r, candidate)
        self.excluded[candidate] = True
        self.ve.add(rr * float(coeffs @ coeffs))


# =========================================================================
# FSCA and lazy FSCA
# =========================================================================


class _FscaGain(_DeflatingGain):
    """VE gain of a residual column: ``100 ||R^T r||^2 / (r^T r ||X||^2)``.

    Every evaluation — full sweeps in the plain engine and head
    re-evaluations in the lazy engine — costs one matrix-vector product
    against the residual.  Keeping the two engines on the same evaluation
    primitive is what makes their wall-clock ratio measure the evaluation
    savings of lazy selection rather than a batching artifact.
    """

    def gain(self, selected, candidate: int) -> float:
        live = self.live_column(candidate)
        if live is None:
            return EXCLUDED
        r, rr = live
        t = r @ self.r
        return 100.0 * float(t @ t) / (rr * self.ve.energy)

    def gain_all(self, selected, candidates):
        return None


# =========================================================================
# FOS-MOD
# =========================================================================


class _FosModGain(_DeflatingGain):
    """Average squared correlation of a residual column with all original
    columns: ``(1/v) sum_j (x_j^T r)^2 / (||x_j||^2 ||r||^2)``.

    Columns already selected contribute zero because the residual is
    orthogonal to them; original columns with zero norm are left out of the
    average and excluded from candidacy.
    """

    def __init__(self, data: Dataset):
        super().__init__(data)
        sqnorms = np.einsum("ij,ij->j", self.x, self.x)
        self.inv_sqnorms = np.zeros_like(sqnorms)
        nonzero = sqnorms > 0.0
        self.inv_sqnorms[nonzero] = 1.0 / sqnorms[nonzero]
        self.excluded |= ~nonzero
        self.v = self.x.shape[1]

    def step_scores(self, selected):
        sqnorms = self.residual_sqnorms()
        excluded = self.mark_degenerate(sqnorms)
        cross = self.r.T @ self.x
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = (cross * cross) @ self.inv_sqnorms / (self.v * sqnorms)
        scores[excluded] = EXCLUDED
        return scores


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


class _PfsGain(_DeflatingGain):
    """Absolute correlation of residual columns with the residual's first
    principal component, which is recomputed once per step."""

    def __init__(self, data: Dataset):
        super().__init__(data)
        self.warnings: list[str] = []

    def step_scores(self, selected):
        sqnorms = self.residual_sqnorms()
        excluded = self.mark_degenerate(sqnorms)
        scores = np.full(self.r.shape[1], EXCLUDED)
        if not excluded.all():
            component = nipals_first_pc(self.r)
            if not component.converged:
                self.warnings.append(
                    f"NIPALS stopped at {component.iterations} iterations without converging"
                )
            p1 = component.scores
            pp = float(p1 @ p1)
            u = p1 @ self.r
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.abs(u) / np.sqrt(sqnorms * pp)
            scores[~excluded] = corr[~excluded]
        return scores


# =========================================================================
# ITFS
# =========================================================================


class _ItfsGain(_SelectorGain):
    """Posterior-variance ratio ``var(x|S) / var(x|U\\x)`` under a Gaussian
    model with isotropic noise regularization.

    Per step, one factorization of the selected block serves every
    numerator and one inversion of the unselected block serves every
    denominator (the posterior variance of ``x_i`` given the rest of the
    unselected block is the reciprocal of the corresponding diagonal entry
    of the inverse).
    """

    def __init__(self, data: Dataset, sigma: float | None):
        if sigma is not None and not sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        model = CovarianceModel.from_dataset(data, sigma)
        self.cov = model.cov
        self.s2 = model.sigma_noise**2
        self.v = model.v
        self.ve = _VeTracker(data.values)

    def step_scores(self, selected):
        cov = self.cov
        unsel = np.array(sorted(set(range(self.v)) - set(selected)), dtype=int)
        scores = np.full(self.v, EXCLUDED)
        try:
            block = cov[np.ix_(unsel, unsel)] + self.s2 * np.eye(unsel.size)
            inverse = spd_inverse(block)
            denominators = 1.0 / np.diag(inverse)
            numerators = np.diag(cov)[unsel] + self.s2
            if selected:
                sel = np.array(selected, dtype=int)
                sel_block = cov[np.ix_(sel, sel)] + self.s2 * np.eye(sel.size)
                cross = cov[np.ix_(sel, unsel)]
                solved = spd_solve(sel_block, cross)
                numerators = numerators - np.einsum("ij,ij->j", cross, solved)
        except SpdFactorizationError as exc:
            raise SingularCovariance(str(exc)) from exc
        scores[unsel] = numerators / denominators
        return scores

    def commit(self, candidate: int) -> None:
        self.ve.add_column(self.ve.x[:, candidate])


# =========================================================================
# FSFP-FSCA
# =========================================================================


class _FsfpGain(_SelectorGain):
    """Marginal frame-potential reduction of adding a unit-norm column.

    Adding ``x_i`` to the selection raises the frame potential by
    ``<x_i, x_i>^2 + 2 sum_{j in S} <x_i, x_j>^2``; the gain is the
    negative of that increment, and the per-candidate inner-product sums
    are maintained incrementally so each step's scores cost O(v).  The warm
    start is the FSCA pick on the normalized data.
    """

    def __init__(self, data: Dataset):
        normalized = normalize_unit(data)
        first = fsca_select(normalized, 1)
        self.gram = normalized.values.T @ normalized.values
        self.diag_sq = np.diag(self.gram) ** 2
        self.pair_sums = np.zeros(normalized.v)
        self.ve = _VeTracker(data.values)
        self.fp = 0.0
        self.fp_trace: list[float] = []
        self.initial = (first.order[0] - 1,)
        self.setup_evals = first.eval_count
        self.commit(self.initial[0])

    def step_scores(self, selected):
        return -(self.diag_sq + 2.0 * self.pair_sums)

    def commit(self, candidate: int) -> None:
        self.fp += float(self.diag_sq[candidate]) + 2.0 * float(self.pair_sums[candidate])
        self.fp_trace.append(self.fp)
        self.pair_sums += self.gram[:, candidate] ** 2
        self.ve.add_column(self.ve.x[:, candidate])

    def native_trace(self, gains):
        return tuple(self.fp_trace)


# =========================================================================
# UFS
# =========================================================================


class _UfsGain(_SelectorGain):
    """Negated squared multiple correlation with the selection's basis.

    ``R^2(x_i, C_S) = sum_j (c_j^T x_i)^2`` is maintained incrementally:
    committing a column appends one orthonormal direction and adds its
    squared inner products with every column.  The warm start is the least
    correlated column pair.
    """

    def __init__(self, data: Dataset):
        if data.v < 2:
            raise ValueError("ufs needs at least two variables")
        normalized = normalize_unit(data)
        gram = normalized.values.T @ normalized.values
        self.initial = _least_correlated_pair(gram)
        self.pair_value = abs(float(gram[self.initial]))
        self.normalized = normalized.values
        self.r_squared = np.zeros(normalized.v)
        self.ve = _VeTracker(data.values)
        self.committed: list[int] = []
        for i in self.initial:
            self.commit(i)

    def step_scores(self, selected):
        return -self.r_squared

    def commit(self, candidate: int) -> None:
        direction = self.ve.add_column(self.normalized[:, candidate])
        if direction is None:
            raise RankDeficient(tuple(i + 1 for i in self.committed) + (candidate + 1,))
        self.committed.append(candidate)
        self.r_squared += (direction @ self.normalized) ** 2

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


def _select(name: str, data: Dataset, k, tau, make_gain, engine: str = "greedy") -> SelectionResult:
    """Run one selector: the front end every public ``*_select`` shares.

    ``make_gain()`` builds the gain, preprocessing and warm start included,
    inside the timed region.  ``k`` may not be below the warm start's size;
    when it equals it, the warm start is the result and no engine runs.
    """
    if not data.centered:
        raise ValueError(f"{name} requires centered data (apply center_columns first)")
    started = perf_counter()
    engines = {"greedy": greedy_select, "lazy": lazy_greedy_select}
    if engine not in engines:
        raise ValueError(f"engine must be one of {sorted(engines)}, got {engine!r}")
    gain = make_gain()
    stop = _make_stop(k, tau, data.v, min_k=max(1, len(gain.initial)))
    if isinstance(stop, Cardinality) and stop.k == len(gain.initial):
        run = GreedyRun(gain.initial, (math.nan,) * stop.k, 0)
    else:
        run = engines[engine](gain, data.v, stop, initial=gain.initial)
    elapsed = perf_counter() - started
    warnings = list(gain.warnings)
    if run.exhausted:
        warnings.insert(0, "selection stopped early: every remaining column lies in the selected span")
    return SelectionResult(
        algorithm=name,
        order=tuple(i + 1 for i in run.order),
        ve_curve=VECurve(tuple(gain.ve.trace)),
        native_trace=gain.native_trace(run.gains),
        eval_count=gain.setup_evals + run.eval_count,
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
    return _select("fsca", data, k, tau, lambda: _FscaGain(data))


def lfsca_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """FSCA driven through the lazy engine.

    Bounds from earlier steps stand in for exact scores until the top of
    the bound heap has been re-evaluated, which skips most evaluations per
    step; the VE gain is not exactly submodular, so sequences can deviate
    from plain FSCA, with VE differences that stay within a small fraction
    of a percentage point in practice.
    """
    return _select("lfsca", data, k, tau, lambda: _FscaGain(data), engine="lazy")


def fosmod_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """Forward orthogonal search by maximal average squared correlation.

    Per step, picks the residual column with the largest average squared
    correlation against all original columns, then deflates.  Threshold
    mode stops once variance explained reaches ``tau`` percent.
    """
    return _select("fosmod", data, k, tau, lambda: _FosModGain(data))


def pfs_select(data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
    """Principal-feature selection.

    Per step, computes the first principal component of the residual by
    NIPALS and selects the residual column with the largest absolute
    correlation to it, then deflates.
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

    Builds the covariance ``X^T X / m`` once, then per step selects the
    candidate maximizing the ratio of its posterior variance given the
    selection to its posterior variance given the other unselected
    variables, both regularized by the noise variance ``sigma**2``.

    ``sigma`` defaults to 1% of the root-mean-square variable scale.
    """
    return _select("itfs", data, k, tau, lambda: _ItfsGain(data, sigma))


def fsfp_fsca_select(
    data: Dataset,
    k: int | None = None,
    *,
    tau: float | None = None,
    engine: str = "greedy",
) -> SelectionResult:
    """Frame-potential minimization seeded with the first FSCA pick.

    Columns are scaled to unit norm (part of the algorithm; applied here
    when the input is not already unit-norm).  The first variable is the
    FSCA choice on the normalized data; each later step adds the candidate
    whose inclusion increases the frame potential of the selection least.
    The frame-potential gain is submodular, so ``engine="lazy"`` reproduces
    the plain sequence exactly.
    """
    return _select("fsfp-fsca", data, k, tau, lambda: _FsfpGain(data), engine)


def ufs_select(
    data: Dataset,
    k: int | None = None,
    *,
    tau: float | None = None,
    engine: str = "greedy",
) -> SelectionResult:
    """Unsupervised forward selection.

    Columns are scaled to unit norm (applied here when needed).  The first
    two variables are the least-correlated column pair; each later step
    adds the candidate with the smallest squared multiple correlation
    against the orthonormal basis of the selection.  The underlying set
    function is submodular, so ``engine="lazy"`` reproduces the plain
    sequence exactly.

    Requires ``k >= 2`` in cardinality mode.
    """
    return _select("ufs", data, k, tau, lambda: _UfsGain(data), engine)


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
