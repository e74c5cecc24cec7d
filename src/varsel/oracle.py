"""Exhaustive-search baselines and greedy approximation diagnostics.

``exhaustive_optimal`` finds the best k-subset for a chosen metric by
enumerating every combination (guarded by a hard cap on the combination
count); ``subset_scorer`` is the one place a metric name becomes a
scoring function, for the search, ``compare_to_optimal`` and the
benchmark's metric values; its VE is ``metrics.variance_explained``'s
rule, batched, and a dependent subset scores the VE of its span.

``TabulatedSetFunction`` stores a set function's value for all 2^v
subsets of a small ground set, which makes the structural quantities
computable exactly:

* ``curvature``: total curvature ``alpha`` in [0, 1] (0 for modular
  functions, approaching 1 when late gains collapse),
* ``submodularity_ratio``: ``gamma``, 1 for submodular functions and
  smaller when the sum of individual gains can undershoot a joint gain,
* ``bound_values``: the classical ``1 - ((k-1)/k)**k`` guarantee and its
  curvature-aware refinement
  ``(1/alpha) * (1 - ((k - alpha*gamma)/k)**k)``,
* ``bound_report``: runs the greedy engine on the tabulated function and
  packages the measured greedy/optimal ratio with the bounds that should
  floor it.

Enumeration here is deliberately brute force; it exists to check the fast
selectors, not to compete with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .dataset import Dataset, _gram_root, normalize_unit, selection_tuple
from .engine import Cardinality, GainFunction, greedy_select
from .errors import NotMonotone, TooLarge
from .metrics import CovarianceModel, _captured_energy, mutual_information

__all__ = [
    "OptimalSubset",
    "OptimalComparison",
    "BoundReport",
    "TabulatedSetFunction",
    "exhaustive_optimal",
    "tabulated_optimal",
    "curvature",
    "submodularity_ratio",
    "bound_values",
    "bound_report",
    "compare_to_optimal",
]

#: Refuse exhaustive enumeration beyond this many combinations.
COMBINATION_CAP = 10_000_000

#: Ground sets above this size cannot be tabulated (2^v values).
TABULATION_LIMIT = 12

_CHUNK = 2048

#: Float64 entries in one stacked QR of the ``ve`` scorer: a subset of
#: ``k`` columns of the ``r x v`` Gram root holds about ``k (3r + v)`` (the
#: gathered columns, LAPACK's copy of them, ``Q`` and ``Q^T root``).
_QR_ENTRIES = 1 << 19

#: Pairs scored per array in one pass of :func:`submodularity_ratio`.
_GAMMA_ENTRIES = 1 << 15

#: Subset values within this fraction of each other tie: round-off cannot order them.
_TIE_REL_TOL = 1e-12

#: Metrics supported by exhaustive search, mapped to their direction.
METRIC_MAXIMIZE = {"ve": True, "mi": True, "fp": False}


# =========================================================================
# Result types
# =========================================================================


@dataclass(frozen=True)
class OptimalSubset:
    """Best k-subset found by exhaustive enumeration.

    ``indices`` is a frozenset of 1-based variable indices; ``value`` is
    the metric value it achieves.  Among subsets tied within round-off
    (``_TIE_REL_TOL``) the lexicographically smallest index tuple is
    reported.
    """

    indices: frozenset[int]
    value: float
    metric: str

    @property
    def ordered(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    @property
    def k(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class OptimalComparison:
    """A greedy selection head measured against an exhaustive optimum.

    ``n_common`` counts shared variables.  ``achieved`` is the greedy
    head's metric value (None when the optimum is tabulated) and ``ratio``
    expresses it as a fraction of optimal, oriented so 1.0 means parity
    for both maximized and minimized metrics.
    """

    n_common: int
    achieved: float | None
    optimal: float
    ratio: float | None


@dataclass(frozen=True)
class BoundReport:
    """Greedy performance on a tabulated function next to its guarantees.

    ``greedy_ratio`` is ``f(greedy k-set) / f(optimal k-set)``;
    ``b_n`` is the classical submodular guarantee and
    ``b_alpha_gamma`` the curvature-and-submodularity-ratio refinement.
    """

    k: int
    alpha: float
    gamma: float
    b_n: float
    b_alpha_gamma: float
    greedy_value: float
    optimal_value: float
    greedy_ratio: float


# =========================================================================
# Tabulated set functions
# =========================================================================


class _TabulatedGain(GainFunction):
    """Engine adapter: marginal gains read straight from the table."""

    def __init__(self, table: "TabulatedSetFunction"):
        self.table = table
        self.mask = 0

    def gain(self, selected, candidate: int) -> float:
        values = self.table.values
        return float(values[self.mask | (1 << candidate)] - values[self.mask])

    def commit(self, candidate: int) -> None:
        self.mask |= 1 << candidate

    def value(self) -> float:
        return float(self.table.values[self.mask])


class TabulatedSetFunction:
    """A set function on up to 12 variables stored as a 2^v value array.

    Index ``mask`` holds the value of the subset whose bits are set
    (bit ``i`` is variable ``i + 1``).  Construction checks monotone
    nondecrease, which curvature and the submodularity ratio assume, and
    raises :class:`NotMonotone` with a witness ``(subset, added_index)``
    when adding a variable decreases the value.
    """

    def __init__(self, v: int, values):
        v = int(v)
        if not 1 <= v <= TABULATION_LIMIT:
            raise TooLarge(2**v if v >= 1 else 0, 2**TABULATION_LIMIT)
        table = np.asarray(values, dtype=float).copy()
        if table.shape != (2**v,):
            raise ValueError(f"expected {2**v} values for v={v}, got shape {table.shape}")
        if not np.isfinite(table).all():
            raise ValueError("set-function values must be finite")
        table.flags.writeable = False
        self.v = v
        self.values = table
        self._check_monotone()

    @classmethod
    def from_callable(cls, v: int, fn) -> "TabulatedSetFunction":
        """Tabulate ``fn(subset_tuple)`` over all subsets.

        ``fn`` receives a sorted tuple of 1-based indices (empty for the
        empty set).
        """
        if not 1 <= v <= TABULATION_LIMIT:
            raise TooLarge(2**v if v >= 1 else 0, 2**TABULATION_LIMIT)
        table = np.empty(2**v)
        for mask in range(2**v):
            subset = tuple(i + 1 for i in range(v) if mask & (1 << i))
            table[mask] = fn(subset)
        return cls(v, table)

    def _check_monotone(self) -> None:
        scale = max(1.0, float(np.max(np.abs(self.values))))
        tol = 1e-9 * scale
        all_masks = np.arange(2**self.v)
        for i in range(self.v):
            bit = 1 << i
            without = all_masks[(all_masks & bit) == 0]
            drops = self.values[without] - self.values[without | bit]
            worst = int(np.argmax(drops))
            if drops[worst] > tol:
                mask = int(without[worst])
                subset = tuple(j + 1 for j in range(self.v) if mask & (1 << j))
                raise NotMonotone((subset, i + 1))

    def value_of(self, indices) -> float:
        """Value of a subset given as 1-based indices."""
        mask = 0
        for i in selection_tuple(indices, self.v):
            mask |= 1 << (i - 1)
        return float(self.values[mask])

    def gain_function(self) -> GainFunction:
        """Fresh engine adapter positioned at the empty set."""
        return _TabulatedGain(self)


# =========================================================================
# Exhaustive search
# =========================================================================


def subset_scorer(data: Dataset, metric: str, sigma: float | None = None):
    """The scoring function of a metric on ``data`` and its direction.

    Returns ``(score, maximize)``: ``score`` maps an ``(n, k)`` integer
    array of 0-based subsets to their ``n`` metric values.  ``"ve"`` is
    variance explained by the rule of ``metrics.variance_explained``, on
    the Gram root of ``X`` (a dependent subset scores its span's), ``"fp"``
    the frame potential of the unit-normalized columns and ``"mi"`` the
    Gaussian mutual information under noise scale ``sigma`` (default: 1%
    of the root-mean-square variable scale); ``sigma`` is rejected for the
    other metrics.  The exhaustive search, :func:`compare_to_optimal` and
    the benchmark's metric values all score through this one function.
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
            return gram_sq[idx[:, :, None], idx[:, None, :]].sum(axis=(1, 2))
    else:
        root = _gram_root(data)
        energy = float(np.linalg.norm(data.values)) ** 2

        def score(idx):
            rows = max(1, _QR_ENTRIES // (idx.shape[1] * (3 * root.shape[0] + root.shape[1])))
            parts = np.split(idx, range(rows, len(idx), rows))
            return 100.0 * np.concatenate([_captured_energy(root, p) for p in parts]) / energy
    return score, METRIC_MAXIMIZE[metric]


def _best_subset(v: int, k: int, score, maximize: bool, metric: str) -> OptimalSubset:
    """Best k-subset of ``range(v)`` under ``score``, scored in chunks of
    combinations in lexicographic order.  A subset displaces the best so
    far only by beating it by more than ``_TIE_REL_TOL``, so the first of
    subsets tied within round-off wins."""
    if k > v:
        raise ValueError(f"k={k} exceeds the {v} candidates")
    sign = 1.0 if maximize else -1.0
    best_value = -math.inf
    best_combo: tuple[int, ...] | None = None
    combos = combinations(range(v), k)
    while chunk := list(islice(combos, _CHUNK)):
        idx = np.asarray(chunk, dtype=int)
        values = sign * score(idx)
        top = float(values.max())
        if best_combo is None or top > best_value + _TIE_REL_TOL * abs(best_value):
            pick = int(np.argmax(values >= top - _TIE_REL_TOL * abs(top)))
            best_value = float(values[pick])
            best_combo = tuple(int(i) + 1 for i in idx[pick])
    return OptimalSubset(frozenset(best_combo), sign * best_value, metric)


def exhaustive_optimal(
    data: Dataset,
    k: int,
    metric: str = "ve",
    *,
    sigma: float | None = None,
) -> OptimalSubset:
    """Best k-subset of columns by brute-force enumeration, refused with
    :class:`TooLarge` when ``C(v, k)`` exceeds ``COMBINATION_CAP``.

    Parameters
    ----------
    data : Dataset
        Centered data.  For the frame-potential metric the columns are
        additionally scaled to unit norm internally when needed.
    k : int
        Subset size.
    metric : {"ve", "fp", "mi"}
        Variance explained (maximized), frame potential (minimized) or
        Gaussian mutual information (maximized).
    sigma : float, optional
        Noise scale for the mutual-information metric (an error for the
        others); defaults to 1% of the root-mean-square variable scale.
    """
    v = data.v
    k = Cardinality(k).k
    n_comb = math.comb(v, k)
    if n_comb > COMBINATION_CAP:
        raise TooLarge(n_comb, COMBINATION_CAP)
    score, maximize = subset_scorer(data, metric, sigma)
    return _best_subset(v, k, score, maximize, metric)


def tabulated_optimal(table: TabulatedSetFunction, k: int) -> OptimalSubset:
    """Best k-subset of a tabulated set function (maximization)."""
    k = Cardinality(k).k
    return _best_subset(
        table.v, k, lambda idx: table.values[(1 << idx).sum(axis=1)], True, "tabulated"
    )


# =========================================================================
# Structural diagnostics
# =========================================================================


def curvature(table: TabulatedSetFunction) -> float:
    """Curvature ``alpha`` of a monotone tabulated function.

    ``alpha = max_{i, A subseteq B, i notin B} 1 - (f(B + i) - f(B)) / (f(A + i) - f(A))``

    evaluated exactly over the full lattice: for each variable the minimum
    marginal gain over all supersets of each ``A`` comes from a superset-min
    transform, so every (A, B) pair is covered in O(v^2 2^v).  Pairs whose
    denominator gain is numerically zero are skipped; the result is clamped
    to [0, 1].
    """
    values = table.values
    v = table.v
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = 1e-12 * scale
    all_masks = np.arange(2**v)
    worst = math.inf
    for i in range(v):
        bit = 1 << i
        without = (all_masks & bit) == 0
        gains = np.full(2**v, math.inf)
        gains[without] = values[all_masks[without] | bit] - values[all_masks[without]]
        superset_min = gains.copy()
        for b in range(v):
            if b == i:
                continue
            other = 1 << b
            low_idx = all_masks[(all_masks & other) == 0]
            superset_min[low_idx] = np.minimum(
                superset_min[low_idx], superset_min[low_idx | other]
            )
        usable = without & (gains > tol)
        if not np.any(usable):
            continue
        worst = min(worst, float(np.min(superset_min[usable] / gains[usable])))
    if worst is math.inf:
        return 0.0
    return float(min(1.0, max(0.0, 1.0 - worst)))


def submodularity_ratio(table: TabulatedSetFunction) -> float:
    """Submodularity ratio ``gamma`` of a monotone tabulated function.

    The minimum over disjoint pairs (L, S), S nonempty, of
    ``sum_{x in S} (f(L + x) - f(L))  /  (f(L + S) - f(L))``.
    Pairs whose joint gain is numerically zero are vacuous and skipped;
    submodular functions give 1, and the singleton pairs keep the ratio
    from exceeding 1 whenever any informative pair exists.

    The bases ``L`` with ``c`` free variables are scored together, in
    chunks of at most ``_GAMMA_ENTRIES`` pairs: every subset ``S`` of the
    free variables and its numerator are built by doubling over the free
    variables in increasing order, so each numerator is summed in that
    order whatever the chunking.
    """
    values = table.values
    v = table.v
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = 1e-12 * scale
    masks = np.arange(2**v)
    free = ((masks[:, None] >> np.arange(v)) & 1) == 0
    n_free = free.sum(axis=1)
    worst = math.inf
    for c in range(1, v + 1):
        width = 1 << c
        rows = n_free == c
        bases = masks[rows]
        free_bits = 1 << np.nonzero(free[rows])[1].reshape(-1, c)
        step = _GAMMA_ENTRIES // width
        for start in range(0, bases.size, step):
            base = bases[start : start + step]
            bits = free_bits[start : start + step]
            base_value = values[base][:, None]
            sub_masks = np.zeros((base.size, width), dtype=np.int64)
            numerators = np.zeros((base.size, width))
            for j in range(c):
                half = 1 << j
                single_gain = values[base | bits[:, j]][:, None] - base_value
                sub_masks[:, half : 2 * half] = sub_masks[:, :half] | bits[:, j : j + 1]
                numerators[:, half : 2 * half] = numerators[:, :half] + single_gain
            joint = values[base[:, None] | sub_masks] - base_value
            usable = joint > tol
            usable[:, 0] = False
            if usable.any():
                worst = min(worst, float((numerators[usable] / joint[usable]).min()))
    if worst is math.inf:
        return 1.0
    return float(max(0.0, worst))


def bound_values(alpha: float, gamma: float, k: int) -> tuple[float, float]:
    """Greedy guarantees for a k-step run.

    Returns ``(b_n, b_alpha_gamma)``: the classical submodular bound
    ``1 - ((k-1)/k)**k`` and the refinement
    ``(1/alpha) * (1 - ((k - alpha*gamma)/k)**k)``, which approaches
    ``gamma`` as the curvature vanishes.
    """
    k = Cardinality(k).k
    b_n = 1.0 - ((k - 1) / k) ** k
    if alpha < 1e-12:
        b_ag = float(gamma)
    else:
        b_ag = (1.0 / alpha) * (1.0 - ((k - alpha * gamma) / k) ** k)
    return float(b_n), float(b_ag)


def bound_report(table: TabulatedSetFunction, k: int) -> BoundReport:
    """Run greedy on a tabulated function and report value versus bounds.

    The greedy k-set comes from the same engine the selectors use; the
    optimum from full enumeration.  For a monotone function the measured
    ``greedy_ratio`` should sit at or above ``b_alpha_gamma`` (and above
    ``b_n`` whenever the function is submodular).
    """
    stop = Cardinality(k)
    optimal = tabulated_optimal(table, stop.k)
    run = greedy_select(table.gain_function(), table.v, stop)
    greedy_value = table.value_of(tuple(i + 1 for i in run.order))
    alpha = curvature(table)
    gamma = submodularity_ratio(table)
    b_n, b_ag = bound_values(alpha, gamma, stop.k)
    if optimal.value > 0.0:
        ratio = greedy_value / optimal.value
    else:
        ratio = 1.0
    return BoundReport(
        k=stop.k,
        alpha=alpha,
        gamma=gamma,
        b_n=b_n,
        b_alpha_gamma=b_ag,
        greedy_value=float(greedy_value),
        optimal_value=float(optimal.value),
        greedy_ratio=float(ratio),
    )


def compare_to_optimal(
    order,
    optimal: OptimalSubset,
    *,
    data: Dataset,
    sigma: float | None = None,
) -> OptimalComparison:
    """Measure the head of a greedy order against an exhaustive optimum.

    The first ``optimal.k`` entries of ``order`` are compared.  For a
    ``"ve"``, ``"fp"`` or ``"mi"`` optimum the head is scored on ``data``
    by the same :func:`subset_scorer` as the search (``sigma`` as passed to
    :func:`exhaustive_optimal`), and the ratio is oriented so 1.0 is parity
    for minimized metrics too; a tabulated optimum gets neither.

    A head shorter than ``optimal.k`` is scored as it is.  A selector
    returns one when it stopped at the numerical rank, so the head spans
    every column: under ``"ve"`` it reaches the optimum, while under
    ``"fp"`` and ``"mi"`` the ratio compares subsets of different sizes.
    """
    head = tuple(int(i) for i in order)[: optimal.k]
    n_common = len(set(head) & optimal.indices)
    achieved: float | None = None
    ratio: float | None = None
    if optimal.metric in METRIC_MAXIMIZE:
        score, maximize = subset_scorer(data, optimal.metric, sigma)
        achieved = float(score(np.array([selection_tuple(head, data.v)]) - 1)[0])
        num, den = (achieved, optimal.value) if maximize else (optimal.value, achieved)
        ratio = num / den if den > 0.0 else 1.0
    return OptimalComparison(
        n_common=n_common,
        achieved=achieved,
        optimal=float(optimal.value),
        ratio=ratio,
    )
