"""Greedy and lazy-greedy selection engines.

Both engines maximize a user-supplied gain function one candidate at a time.
The plain engine re-evaluates every remaining candidate each step.  The lazy
engine keeps every candidate's most recent gain as an upper bound in a heap,
re-evaluates only the top of the heap until its bound is from the current
step, and commits it; for submodular gains this reproduces the plain
sequence exactly with far fewer evaluations, since gains can only shrink as
the selection grows (Minoux's accelerated greedy).

Candidates are identified by 0-based ids ``0 .. v-1`` at this layer; the
selector layer converts to the 1-based indices used everywhere else.

Tie-breaking: comparisons are exact float comparisons, and equal gains go to
the lowest candidate id, in both engines (the plain engine takes the first
maximum over ascending ids; the heap orders equal bounds by ascending id).

A gain of ``-inf`` marks a candidate as permanently excluded (for example, a
column that has fallen inside the span of the selection), and both engines
score a NaN gain as ``-inf``; neither engine will commit such a candidate.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ThresholdNeverReached

__all__ = [
    "GainFunction", "GreedyRun", "Cardinality", "Threshold", "greedy_select", "lazy_greedy_select",
]

EXCLUDED = float("-inf")


# =========================================================================
# Stopping rules
# =========================================================================


@dataclass(frozen=True)
class Cardinality:
    """Stop when the selection (warm start included) reaches ``k`` items."""

    k: int

    def __post_init__(self):
        if isinstance(self.k, (bool, np.bool_)) or int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class Threshold:
    """Stop once the tracked criterion value reaches ``tau``."""

    tau: float

    def __post_init__(self):
        tau = float(self.tau)
        if not math.isfinite(tau):
            raise ValueError(f"tau must be finite, got {tau}")
        object.__setattr__(self, "tau", tau)


StoppingRule = Cardinality | Threshold


# =========================================================================
# Gain functions
# =========================================================================


class GainFunction(ABC):
    """Evaluator of candidate gains against the current selection.

    ``gain`` must be a pure function of ``(selected, candidate)``;
    ``commit`` notifies the function that a candidate was selected so it can
    update internal state (residuals, running sums, caches).
    """

    @abstractmethod
    def gain(self, selected: Sequence[int], candidate: int) -> float:
        """Gain of adding ``candidate`` (0-based) to ``selected``."""

    def gain_all(self, selected: Sequence[int], candidates: Sequence[int]):
        """Optional batch evaluation for full scans; return an array aligned
        with ``candidates`` or ``None`` to fall back to per-candidate calls."""
        return None

    def commit(self, candidate: int) -> None:
        """Accept ``candidate`` into the selection."""

    def value(self) -> float | None:
        """Current value of the criterion tracked for threshold stopping, or
        ``None`` to use the running sum of committed gains."""
        return None


# =========================================================================
# Engine result
# =========================================================================


@dataclass(frozen=True)
class GreedyRun:
    """Outcome of one engine run.

    ``order`` includes any warm-start ids first; ``gains`` aligns with
    ``order`` and holds NaN for warm-start positions (the engine did not
    evaluate them).  ``exhausted`` is set when the engine stopped early
    because every remaining candidate was excluded.
    """

    order: tuple[int, ...]
    gains: tuple[float, ...]
    eval_count: int
    exhausted: bool = False


# =========================================================================
# Engines
# =========================================================================


def _warm_start(v: int, stop: StoppingRule, initial: Sequence[int]) -> list[int]:
    if v < 1:
        raise ValueError("need at least one candidate")
    init = [int(i) for i in initial]
    if len(set(init)) != len(init):
        raise ValueError(f"duplicate ids in warm start {init}")
    for i in init:
        if not 0 <= i < v:
            raise ValueError(f"warm-start id {i} outside 0..{v - 1}")
    if isinstance(stop, Cardinality):
        if stop.k > v:
            raise ValueError(f"k={stop.k} exceeds the {v} candidates")
        if stop.k < len(init):
            raise ValueError(f"k={stop.k} is below the warm start size {len(init)}")
    return init


def _current_value(gain_fn: GainFunction, committed_sum: float) -> float:
    value = gain_fn.value()
    return committed_sum if value is None else value


def _stop_met(stop: StoppingRule, selected: list[int], gain_fn: GainFunction, committed: float) -> bool:
    if isinstance(stop, Cardinality):
        return len(selected) >= stop.k
    return _current_value(gain_fn, committed) >= stop.tau


def _finalize(stop, selected, gains, evals, exhausted, gain_fn, committed) -> GreedyRun:
    if isinstance(stop, Threshold) and _current_value(gain_fn, committed) < stop.tau:
        raise ThresholdNeverReached(stop.tau, _current_value(gain_fn, committed))
    return GreedyRun(tuple(selected), tuple(gains), evals, exhausted)


def _scan(gain_fn: GainFunction, selected: list[int], remaining: list[int]) -> np.ndarray:
    """Evaluate every remaining candidate, batched when supported."""
    batch = gain_fn.gain_all(selected, remaining)
    if batch is not None:
        return np.asarray(batch, dtype=float)
    return np.array([gain_fn.gain(selected, i) for i in remaining], dtype=float)


def greedy_select(
    gain_fn: GainFunction,
    v: int,
    stop: StoppingRule,
    initial: Sequence[int] = (),
) -> GreedyRun:
    """Forward greedy selection: per step, evaluate all remaining candidates
    and commit the best (lowest id on exact ties)."""
    selected = _warm_start(v, stop, initial)
    remaining = [i for i in range(v) if i not in set(selected)]
    gains: list[float] = [math.nan] * len(selected)
    evals = 0
    committed = 0.0
    exhausted = False
    while not _stop_met(stop, selected, gain_fn, committed) and remaining:
        scores = _scan(gain_fn, selected, remaining)
        evals += len(remaining)
        # A new array, so an array the gain keeps is never written; the
        # first maximum is the lowest id.
        scores = np.where(np.isnan(scores), EXCLUDED, scores)
        best_pos = int(np.argmax(scores))
        best_gain = float(scores[best_pos])
        if best_gain == EXCLUDED:
            exhausted = True
            break
        chosen = remaining.pop(best_pos)
        gain_fn.commit(chosen)
        selected.append(chosen)
        gains.append(best_gain)
        committed += best_gain
    return _finalize(stop, selected, gains, evals, exhausted, gain_fn, committed)


def lazy_greedy_select(
    gain_fn: GainFunction,
    v: int,
    stop: StoppingRule,
    initial: Sequence[int] = (),
) -> GreedyRun:
    """Lazy greedy selection over a heap of upper bounds.

    The first step scores every candidate.  The heap holds
    ``(-bound, id, step)`` for each remaining candidate, where ``step`` is
    the selection size at which the bound was evaluated.  Each step pops
    the top: a bound from the current step is exact and is committed (an
    excluded one means every candidate is exhausted); a stale one is
    re-evaluated and pushed back.  For submodular gains the stale bounds
    are valid upper bounds, so the committed candidate is the true argmax;
    for non-submodular gains this is the usual lazy heuristic, applied
    exactly as stated with no safeguard re-scan.
    """
    selected = _warm_start(v, stop, initial)
    remaining = [i for i in range(v) if i not in set(selected)]
    gains: list[float] = [math.nan] * len(selected)
    evals = 0
    committed = 0.0
    exhausted = False
    heap: list[tuple[float, int, int]] = []
    if not _stop_met(stop, selected, gain_fn, committed) and remaining:
        bounds = _scan(gain_fn, selected, remaining)
        evals += len(remaining)
        bounds = np.where(np.isnan(bounds), EXCLUDED, bounds)
        heap = [(-float(b), i, len(selected)) for i, b in zip(remaining, bounds)]
        heapq.heapify(heap)
    while heap and not _stop_met(stop, selected, gain_fn, committed):
        while heap[0][2] != len(selected):
            index = heap[0][1]
            fresh = float(gain_fn.gain(selected, index))
            fresh = EXCLUDED if math.isnan(fresh) else fresh
            evals += 1
            heapq.heapreplace(heap, (-fresh, index, len(selected)))
        neg_bound, index, _ = heapq.heappop(heap)
        bound = -neg_bound
        if bound == EXCLUDED:
            exhausted = True
            break
        gain_fn.commit(index)
        selected.append(index)
        gains.append(bound)
        committed += bound
    return _finalize(stop, selected, gains, evals, exhausted, gain_fn, committed)
