"""Greedy and lazy-greedy engines over abstract gain functions."""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from varsel import (
    BenchConfig,
    Cardinality,
    GainFunction,
    GreedyRun,
    TabulatedSetFunction,
    Threshold,
    ThresholdNeverReached,
    bound_report,
    bound_values,
    center_columns,
    exhaustive_optimal,
    fsca_select,
    gen_sim2,
    greedy_select,
    lazy_greedy_select,
    tabulated_optimal,
    ufs_select,
    variance_explained,
)
from varsel.engine import EXCLUDED

from conftest import make_rng


class ModularGain(GainFunction):
    """Fixed per-candidate weights; gains independent of the selection, and
    the value the sum of the committed weights."""

    def __init__(self, weights):
        self.weights = [float(w) for w in weights]
        self.calls = 0
        self.total = 0.0

    def gain(self, selected, candidate):
        self.calls += 1
        return self.weights[candidate]

    def commit(self, candidate):
        self.total += self.weights[candidate]

    def value(self):
        return self.total


class CoverageGain(GainFunction):
    """Weighted set coverage: monotone submodular by construction.  The
    value is the weight the committed candidates cover."""

    def __init__(self, covers, weights):
        self.covers = [frozenset(c) for c in covers]
        self.weights = dict(weights)
        self.covered = set()

    def gain(self, selected, candidate):
        already = set().union(*(self.covers[s] for s in selected)) if selected else set()
        return sum(self.weights[e] for e in self.covers[candidate] - already)

    def commit(self, candidate):
        self.covered |= self.covers[candidate]

    def value(self):
        return sum(self.weights[e] for e in self.covered)


class ScheduledGain(GainFunction):
    """Gains read from a per-step table: ``schedule[len(selected)][candidate]``.

    Arbitrary tables are neither modular nor submodular, so stale bounds
    need not be upper bounds; the lazy engine must still follow its rule.
    """

    def __init__(self, schedule):
        self.schedule = [[float(w) for w in row] for row in schedule]

    def gain(self, selected, candidate):
        return self.schedule[len(selected)][candidate]


class ExcludingGain(GainFunction):
    """Modular gains with some candidates permanently excluded."""

    def __init__(self, weights, excluded):
        self.weights = list(weights)
        self.excluded = set(excluded)

    def gain(self, selected, candidate):
        if candidate in self.excluded:
            return EXCLUDED
        return float(self.weights[candidate])


class StoredBatchGain(GainFunction):
    """Batch gains handed out as the arrays the gain keeps: one row per
    step, aligned with the remaining candidates."""

    def __init__(self, rows):
        self.rows = [np.array(row, dtype=float) for row in rows]

    def gain(self, selected, candidate):
        raise AssertionError("the plain engine scores through gain_all")

    def gain_all(self, selected, candidates):
        return self.rows[len(selected)]


def random_coverage(rng, v=8, n_elements=12):
    weights = {e: float(rng.uniform(0.1, 2.0)) for e in range(n_elements)}
    covers = []
    for _ in range(v):
        size = int(rng.integers(1, n_elements))
        covers.append(set(int(e) for e in rng.permutation(n_elements)[:size]))
    return CoverageGain(covers, weights)


def reference_greedy(gain_fn, v, k):
    """Independent plain transcription: ascending scan, strict improvement."""
    selected = []
    for _ in range(k):
        best_id, best_gain = None, -math.inf
        for i in range(v):
            if i in selected:
                continue
            g = gain_fn.gain(selected, i)
            if g > best_gain:
                best_id, best_gain = i, g
        selected.append(best_id)
        gain_fn.commit(best_id)
    return selected


def reference_lazy(gain_fn, v, k):
    """Independent lazy transcription: per pop, the best (bound, lowest id)
    over every remaining candidate, found by a full sort, is committed when
    its bound is from the current step and re-evaluated otherwise."""
    bounds = {i: gain_fn.gain([], i) for i in range(v)}
    stamps = dict.fromkeys(range(v), 0)
    evals = v
    selected, gains = [], []
    while len(selected) < k:
        head = sorted(bounds, key=lambda i: (-bounds[i], i))[0]
        if stamps[head] == len(selected):
            selected.append(head)
            gains.append(bounds.pop(head))
            gain_fn.commit(head)
        else:
            bounds[head] = gain_fn.gain(selected, head)
            stamps[head] = len(selected)
            evals += 1
    return tuple(selected), tuple(gains), evals


# =========================================================================
# Stopping rules
# =========================================================================


class TestStoppingRules:
    def test_cardinality_validation(self):
        assert Cardinality(3).k == 3
        with pytest.raises(ValueError):
            Cardinality(0)
        with pytest.raises(ValueError):
            Cardinality(2.5)

    def test_threshold_validation(self):
        assert Threshold(99.0).tau == 99.0
        with pytest.raises(ValueError):
            Threshold(math.nan)

    @pytest.mark.parametrize("tau", [True, np.bool_(False), "95", b"95"], ids=repr)
    def test_threshold_rejects_bools_and_strings(self, tau):
        # float() would read True as 1 and "95" as 95.
        with pytest.raises(ValueError, match="tau must be a real number"):
            Threshold(tau)
        with pytest.raises(ValueError, match="tau must be a real number"):
            fsca_select(_SIZE_DATA, tau=tau)
        assert Threshold(np.float32(95.0)).tau == 95.0

    @pytest.mark.parametrize("select", [greedy_select, lazy_greedy_select])
    def test_threshold_needs_a_tracked_value(self, select):
        # A gain without ``value`` has nothing to stop on: the engines read
        # no running sum of gains in its place.
        with pytest.raises(NotImplementedError, match="ScheduledGain tracks no value"):
            select(ScheduledGain([[5.0, 4.0], [0.0, 4.0]]), 2, Threshold(8.0))
        assert select(ScheduledGain([[5.0, 4.0], [0.0, 4.0]]), 2, Cardinality(2)).order == (0, 1)


_SIZE_DATA = center_columns(gen_sim2(100, 3, 8, seed=0))
_SIZE_TABLE = TabulatedSetFunction.from_callable(
    5, lambda subset: variance_explained(_SIZE_DATA, subset)
)

#: Every public entry point that takes a selection size, as ``k -> result``.
SIZED_ENTRY_POINTS = {
    "fsca_select": lambda k: fsca_select(_SIZE_DATA, k).order,
    "ufs_select": lambda k: ufs_select(_SIZE_DATA, k).order,
    "exhaustive_optimal": lambda k: exhaustive_optimal(_SIZE_DATA, k).indices,
    "tabulated_optimal": lambda k: tabulated_optimal(_SIZE_TABLE, k).indices,
    "bound_values": lambda k: bound_values(0.5, 0.9, k),
    "bound_report": lambda k: bound_report(_SIZE_TABLE, k),
    # The JSON echo, so a size stored as a float or a NumPy integer shows.
    "BenchConfig.k_max": lambda k: json.dumps(asdict(BenchConfig((), (), k_max=k))),
    "BenchConfig.metric_ks": lambda k: json.dumps(
        asdict(BenchConfig((), (), k_max=3, metric_ks=(k,)))
    ),
}


class TestSelectionSize:
    """One rule for a selection size: ``Cardinality`` accepts exactly the
    positive integers, whatever their numeric type, rejects a boolean, and
    nothing truncates."""

    @pytest.mark.parametrize("entry", sorted(SIZED_ENTRY_POINTS))
    @pytest.mark.parametrize("k", [2.5, 2.9, 0, -1, True, math.inf, -math.inf, math.nan])
    def test_rejects_what_is_no_positive_integer(self, entry, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            SIZED_ENTRY_POINTS[entry](k)

    @pytest.mark.parametrize("entry", sorted(SIZED_ENTRY_POINTS))
    def test_integral_values_agree(self, entry):
        call = SIZED_ENTRY_POINTS[entry]
        expected = call(2)
        assert call(2.0) == expected
        assert call(np.int64(2)) == expected

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fsca_select(_SIZE_DATA, 9),
            lambda: exhaustive_optimal(_SIZE_DATA, 9),
            lambda: tabulated_optimal(_SIZE_TABLE, 6),
            lambda: bound_report(_SIZE_TABLE, 6),
        ],
        ids=["fsca_select", "exhaustive_optimal", "tabulated_optimal", "bound_report"],
    )
    def test_k_above_column_count(self, call):
        with pytest.raises(ValueError, match="exceeds the"):
            call()


# =========================================================================
# Plain greedy
# =========================================================================


class TestGreedySelect:
    def test_modular_takes_top_k(self):
        run = greedy_select(ModularGain([3.0, 9.0, 1.0, 7.0, 5.0]), 5, Cardinality(3))
        assert run.order == (1, 3, 4)
        assert run.gains == (9.0, 7.0, 5.0)
        assert not run.exhausted

    def test_single_step_is_argmax(self):
        run = greedy_select(ModularGain([0.2, 0.9, 0.4]), 3, Cardinality(1))
        assert run.order == (1,)

    def test_matches_reference_transcription(self):
        # [DERIVED] same orders as an independently written plain greedy.
        for seed in range(20):
            rng = make_rng(seed)
            covers = random_coverage(rng).covers
            weights = random_coverage(make_rng(seed)).weights
            run = greedy_select(CoverageGain(covers, weights), 8, Cardinality(5))
            expected = reference_greedy(CoverageGain(covers, weights), 8, 5)
            assert list(run.order) == expected

    def test_exact_tie_takes_lowest_id(self):
        run = greedy_select(ModularGain([1.0, 5.0, 5.0, 5.0]), 4, Cardinality(2))
        assert run.order == (1, 2)

    def test_nan_ties_and_stored_batch(self):
        # NaN is never committed, the lowest id wins a tie, and the engine
        # leaves the arrays the gain returned as they were.
        rows = [
            [math.nan, 2.0, 7.0, 7.0, math.nan],
            [math.nan, 3.0, 3.0, math.nan],
            [math.nan, math.nan, math.nan],
        ]
        gain = StoredBatchGain(rows)
        run = greedy_select(gain, 5, Cardinality(4))
        assert run.order == (2, 1)
        assert run.gains == (7.0, 3.0)
        assert run.exhausted
        for kept, row in zip(gain.rows, rows):
            np.testing.assert_array_equal(kept, row)

    def test_eval_count_full_rescans(self):
        run = greedy_select(ModularGain([4.0, 3.0, 2.0, 1.0]), 4, Cardinality(3))
        assert run.eval_count == 4 + 3 + 2

    def test_threshold_stops_at_crossing(self):
        run = greedy_select(ModularGain([5.0, 4.0, 3.0, 2.0]), 4, Threshold(8.5))
        assert run.order == (0, 1)

    def test_threshold_exact_touch_stops(self):
        run = greedy_select(ModularGain([5.0, 4.0]), 2, Threshold(5.0))
        assert run.order == (0,)

    def test_threshold_never_reached(self):
        with pytest.raises(ThresholdNeverReached) as info:
            greedy_select(ModularGain([1.0, 1.0]), 2, Threshold(10.0))
        assert info.value.threshold == 10.0
        assert info.value.best == pytest.approx(2.0)

    def test_warm_start(self):
        run = greedy_select(ModularGain([9.0, 1.0, 5.0]), 3, Cardinality(2), initial=(1,))
        assert run.order == (1, 0)
        assert math.isnan(run.gains[0]) and run.gains[1] == 9.0

    def test_warm_start_validation(self):
        gain = ModularGain([1.0, 2.0])
        with pytest.raises(ValueError):
            greedy_select(gain, 2, Cardinality(1), initial=(0, 1))
        for select in (greedy_select, lazy_greedy_select):
            run = select(gain, 2, Cardinality(1), initial=(1,))
            assert run.order == (1,) and run.eval_count == 0 and not run.exhausted
        with pytest.raises(ValueError):
            greedy_select(gain, 2, Cardinality(2), initial=(5,))
        with pytest.raises(ValueError):
            greedy_select(gain, 3, Cardinality(3), initial=(0, 0))

    @pytest.mark.parametrize("select", [greedy_select, lazy_greedy_select])
    def test_warm_start_ids_are_not_truncated(self, select):
        # int() would start from id 1 for 1.5 and accept "2" as id 2.
        for initial in ([1.5], ["2"], [np.float64(1.0)]):
            with pytest.raises(ValueError, match="warm start .* must hold integer indices"):
                select(ModularGain([1.0, 2.0, 3.0, 4.0]), 4, Cardinality(2), initial=initial)
        run = select(ModularGain([1.0, 2.0, 3.0, 4.0]), 4, Cardinality(2), initial=[np.int64(1)])
        assert run.order == (1, 3) and type(run.order[0]) is int

    @pytest.mark.parametrize("select", [greedy_select, lazy_greedy_select])
    def test_warm_start_rejects_bools(self, select):
        # operator.index would start from id 1 for True.
        for initial in ([True], [0, False]):
            with pytest.raises(ValueError, match="warm start .* must hold integer indices"):
                select(ModularGain([1.0, 2.0, 3.0, 4.0]), 4, Cardinality(2), initial=initial)

    def test_k_exceeding_candidates_rejected(self):
        with pytest.raises(ValueError):
            greedy_select(ModularGain([1.0]), 1, Cardinality(2))

    def test_exclusions_respected(self):
        run = greedy_select(ExcludingGain([9.0, 8.0, 7.0], {0}), 3, Cardinality(2))
        assert run.order == (1, 2)

    def test_all_excluded_exhausts(self):
        run = greedy_select(ExcludingGain([1.0, 1.0], {0, 1}), 2, Cardinality(2))
        assert run.order == ()
        assert run.exhausted

    def test_determinism(self):
        rng = make_rng(42)
        gain = random_coverage(rng)
        first = greedy_select(gain, 8, Cardinality(6))
        second = greedy_select(random_coverage(make_rng(42)), 8, Cardinality(6))
        assert first == second


# =========================================================================
# Lazy greedy
# =========================================================================


class TestLazyGreedySelect:
    def test_matches_plain_on_submodular(self):
        # Stale bounds are valid upper bounds for submodular gains, so the
        # two engines must agree step for step.
        for seed in range(30):
            plain = greedy_select(random_coverage(make_rng(seed)), 8, Cardinality(6))
            lazy = lazy_greedy_select(random_coverage(make_rng(seed)), 8, Cardinality(6))
            assert lazy.order == plain.order
            assert lazy.gains == pytest.approx(plain.gains)

    def test_never_more_evaluations(self):
        for seed in range(30):
            plain = greedy_select(random_coverage(make_rng(seed)), 8, Cardinality(6))
            lazy = lazy_greedy_select(random_coverage(make_rng(seed)), 8, Cardinality(6))
            assert lazy.eval_count <= plain.eval_count

    def test_matches_plain_on_random_modular(self):
        # Modular gains are exact after the first scan, so each later step
        # re-evaluates only the head; integer weights make ties common.
        for seed in range(30):
            weights = make_rng(seed).integers(0, 8, size=20)
            plain = greedy_select(ModularGain(weights), 20, Cardinality(10))
            lazy = lazy_greedy_select(ModularGain(weights), 20, Cardinality(10))
            assert lazy.order == plain.order
            assert lazy.gains == plain.gains
            assert lazy.eval_count == 20 + 9

    def test_matches_plain_with_nan_and_excluded_gains(self):
        # Both engines score NaN as excluded, so a NaN bound in the heap
        # neither ends the run early nor blocks a live candidate.
        rng = make_rng(31)
        tables = [[0.0, -math.inf, math.nan]] + [
            rng.choice([0.0, 1.0, 2.0, -math.inf, math.nan], size=rng.integers(1, 10))
            for _ in range(500)
        ]
        for weights in tables:
            k = Cardinality(int(rng.integers(1, len(weights) + 1)))
            plain = greedy_select(ModularGain(weights), len(weights), k)
            lazy = lazy_greedy_select(ModularGain(weights), len(weights), k)
            assert (lazy.order, lazy.gains, lazy.exhausted) == (
                plain.order, plain.gains, plain.exhausted
            ), list(weights)

    def test_modular_needs_one_refresh_per_step(self):
        # After the first full scan every bound is already exact in value;
        # each later step re-evaluates just the head.
        lazy = lazy_greedy_select(ModularGain([5.0, 4.0, 3.0, 2.0]), 4, Cardinality(3))
        assert lazy.order == (0, 1, 2)
        assert lazy.eval_count == 4 + 1 + 1

    def test_exact_tie_takes_lowest_id(self):
        lazy = lazy_greedy_select(ModularGain([1.0, 5.0, 5.0, 5.0]), 4, Cardinality(2))
        assert lazy.order == (1, 2)

    def test_threshold_modes_agree(self):
        plain = greedy_select(random_coverage(make_rng(3)), 8, Threshold(6.0))
        lazy = lazy_greedy_select(random_coverage(make_rng(3)), 8, Threshold(6.0))
        assert lazy.order == plain.order

    def test_threshold_never_reached(self):
        with pytest.raises(ThresholdNeverReached):
            lazy_greedy_select(ModularGain([1.0, 1.0]), 2, Threshold(10.0))

    def test_warm_start(self):
        lazy = lazy_greedy_select(ModularGain([9.0, 1.0, 5.0]), 3, Cardinality(2), initial=(1,))
        assert lazy.order == (1, 0)
        assert math.isnan(lazy.gains[0])

    def test_all_excluded_exhausts(self):
        lazy = lazy_greedy_select(ExcludingGain([1.0, 1.0], {0, 1}), 2, Cardinality(2))
        assert lazy.order == ()
        assert lazy.exhausted

    def test_exclusion_mid_run_exhausts(self):
        lazy = lazy_greedy_select(ExcludingGain([5.0, 1.0], {1}), 2, Cardinality(2))
        assert lazy.order == (0,)
        assert lazy.exhausted


# =========================================================================
# Re-ordering of re-evaluated bounds
# =========================================================================


class TestReorder:
    """A re-evaluated head goes back among the bounds at its new place."""

    def test_head_stays_when_still_best(self):
        gain = ScheduledGain([[9.0, 5.0, 1.0], [0.0, 4.0, 1.0]])
        lazy = lazy_greedy_select(gain, 3, Cardinality(2))
        assert lazy.order == (0, 1)
        assert lazy.gains == (9.0, 4.0)
        assert lazy.eval_count == 3 + 1

    def test_head_moves_to_tail(self):
        schedule = [[9.0, 5.0, 4.0, 1.0], [0.0, 0.5, 3.0, 1.0]]
        schedule += [[0.0, 0.5, 0.0, 1.0], [0.0, 0.5, 0.0, 0.0]]
        lazy = lazy_greedy_select(ScheduledGain(schedule), 4, Cardinality(4))
        assert lazy.order == (0, 2, 3, 1)
        assert lazy.eval_count == 4 + 2 + 1 + 1

    def test_tie_inserts_after_lower_ids(self):
        # Step 2 re-evaluates id 2 to 4.0 first, then id 1 to the same 4.0:
        # both are exact, and the lower id is committed first.
        schedule = [[10.0, 5.0, 9.0, 1.0], [0.0, 4.0, 4.0, 1.0], [0.0, 0.0, 4.0, 1.0]]
        lazy = lazy_greedy_select(ScheduledGain(schedule), 4, Cardinality(3))
        assert lazy.order == (0, 1, 2)
        assert lazy.eval_count == 4 + 2 + 1

    def test_random_stress_matches_full_sort(self):
        # [DERIVED] the heap against re-sorting every bound on each pop, on
        # arbitrary integer-valued tables full of ties.
        for seed in range(200):
            rng = make_rng(seed)
            schedule = rng.integers(0, 6, size=(8, 12)).astype(float)
            lazy = lazy_greedy_select(ScheduledGain(schedule), 12, Cardinality(8))
            order, gains, evals = reference_lazy(ScheduledGain(schedule), 12, 8)
            assert lazy.order == order
            assert lazy.gains == gains
            assert lazy.eval_count == evals


# =========================================================================
# Result type
# =========================================================================


class TestGreedyRun:
    def test_fields(self):
        run = GreedyRun(order=(2, 0), gains=(1.5, 0.5), eval_count=7)
        assert run.order == (2, 0)
        assert not run.exhausted
