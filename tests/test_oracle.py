"""Exhaustive search, curvature and submodularity diagnostics, greedy bounds."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from varsel import (
    CovarianceModel,
    Dataset,
    NotMonotone,
    SingularCovariance,
    TooLarge,
    center_columns,
    fsca_select,
    frame_potential,
    gen_sim2,
    itfs_select,
    mutual_information,
    normalize_unit,
    variance_explained,
)
from varsel import oracle
from varsel.dataset import dataset_from_gram
from varsel.oracle import (
    COMBINATION_CAP,
    BoundReport,
    TABULATION_LIMIT,
    TabulatedSetFunction,
    bound_report,
    bound_values,
    compare_to_optimal,
    curvature,
    exhaustive_optimal,
    submodularity_ratio,
    subset_scorer,
    tabulated_optimal,
)

from conftest import make_rng, orthogonal_dataset, random_dataset
from reference import subset_ve


# =========================================================================
# Shared set-function generators
# =========================================================================


def coverage_function(seed, v=6, n_elements=10):
    """Random weighted-coverage function: monotone submodular, f(empty)=0."""
    rng = make_rng(seed)
    weights = rng.uniform(0.1, 2.0, size=n_elements)
    covers = []
    for _ in range(v):
        size = int(rng.integers(1, n_elements))
        covers.append(frozenset(int(e) for e in rng.permutation(n_elements)[:size]))

    def fn(selected):
        covered = frozenset().union(*(covers[i - 1] for i in selected)) if selected else frozenset()
        return float(sum(weights[e] for e in covered))

    return fn


def dyadic_modular_function(v=6):
    """Additive weights that are exact powers of two, so every subset sum
    and every marginal gain is exact in float arithmetic."""
    weights = [2.0**i for i in range(v)]

    def fn(selected):
        return float(sum(weights[i - 1] for i in selected))

    return fn


# =========================================================================
# Tabulated set functions
# =========================================================================


class TestTabulatedSetFunction:
    def test_matches_independent_enumeration(self):
        # [DERIVED] every subset value against a direct dict enumeration.
        fn = coverage_function(0)
        table = TabulatedSetFunction.from_callable(6, fn)
        for subset_size in range(7):
            for combo in itertools.combinations(range(1, 7), subset_size):
                assert table.value_of(combo) == pytest.approx(fn(combo), abs=1e-12)

    def test_monotone_validation(self):
        with pytest.raises(NotMonotone) as info:
            TabulatedSetFunction(2, [0.0, 1.0, 0.5, 0.8])
        subset, added = info.value.witness
        assert subset == (1,) and added == 2

    def test_tabulation_limit(self):
        with pytest.raises(TooLarge):
            TabulatedSetFunction.from_callable(
                TABULATION_LIMIT + 1, lambda s: float(len(s))
            )

    def test_gain_function_drives_engine(self):
        fn = coverage_function(1)
        table = TabulatedSetFunction.from_callable(6, fn)
        gain = table.gain_function()
        empty_gain = gain.gain([], 2)
        assert empty_gain == pytest.approx(fn((3,)), abs=1e-12)


class TestTabulatedOptimal:
    def test_small_instance(self):
        fn = coverage_function(2)
        table = TabulatedSetFunction.from_callable(6, fn)
        best = tabulated_optimal(table, 2)
        brute = max(
            itertools.combinations(range(1, 7), 2), key=lambda c: (fn(c), [-i for i in c])
        )
        assert fn(tuple(best.ordered)) == pytest.approx(
            max(fn(c) for c in itertools.combinations(range(1, 7), 2)), abs=1e-12
        )
        assert best.value == pytest.approx(fn(brute), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_with_exact_ties(self, seed):
        # Few distinct integer values give many exact ties; the reference
        # loop keeps the first strict maximum in lexicographic order.  Each
        # subset takes the maximum of random integers over its own subsets,
        # so the table is monotone.
        rng = make_rng(seed)
        v = 7
        values = rng.integers(0, 4, size=2**v)
        masks = np.arange(2**v)
        for i in range(v):
            with_bit = masks[(masks & (1 << i)) != 0]
            values[with_bit] = np.maximum(values[with_bit], values[with_bit ^ (1 << i)])
        table = TabulatedSetFunction(v, values)
        for k in range(1, v + 1):
            best_value, best_combo = -math.inf, None
            for combo in itertools.combinations(range(v), k):
                value = float(table.values[sum(1 << i for i in combo)])
                if value > best_value:
                    best_value, best_combo = value, tuple(i + 1 for i in combo)
            best = tabulated_optimal(table, k)
            assert (best.ordered, best.value, best.metric) == (best_combo, best_value, "tabulated")


# =========================================================================
# Exhaustive optimal subsets on data
# =========================================================================


class TestExhaustiveOptimal:
    def test_orthogonal_takes_top_norms(self):
        scales = (0.9, 0.4, 1.3, 0.2, 0.7, 1.1, 0.3)
        data = orthogonal_dataset(8, scales=scales)
        best = exhaustive_optimal(data, 3, "ve")
        assert best.indices == {3, 6, 1}
        assert best.ordered == (1, 3, 6)

    def test_full_set_is_hundred(self):
        data = random_dataset(20, 6, seed=3)
        best = exhaustive_optimal(data, 6, "ve")
        assert best.indices == set(range(1, 7))
        assert best.value == pytest.approx(100.0, abs=1e-6)

    def test_dominates_greedy(self):
        data = random_dataset(200, 10, seed=4)
        best = exhaustive_optimal(data, 3, "ve")
        greedy = fsca_select(data, 3)
        assert best.value >= greedy.ve_curve[-1] - 1e-9

    def test_ve_matches_brute_force(self):
        # [DERIVED] plain loop over combinations with the public metric.
        data = random_dataset(30, 8, seed=5)
        best = exhaustive_optimal(data, 3, "ve")
        values = {
            combo: variance_explained(data, combo)
            for combo in itertools.combinations(range(1, 9), 3)
        }
        brute_best = max(values.values())
        assert best.value == pytest.approx(brute_best, abs=1e-9)
        assert values[best.ordered] == pytest.approx(brute_best, abs=1e-9)

    def test_noise_free_subsets_score_their_span(self):
        # Noise-free sim2 has rank 3, so every 4-subset is dependent and
        # scores the variance its span explains.
        data = center_columns(gen_sim2(100, 3, 8, seed=0, noise_sd=0.0))
        combos = list(itertools.combinations(range(1, 9), 4))
        scored = subset_scorer(data, "ve")[0](np.array(combos) - 1)
        expected = [subset_ve(data, combo) for combo in combos]
        np.testing.assert_allclose(scored, expected, rtol=0, atol=1e-12)

    def test_dependent_column_inside_subset_scores_span(self):
        # Past a dependent column, the Householder Q holds a direction
        # outside the span, so the columns after it must be scored anew.
        x = make_rng(5).normal(size=(30, 3))
        data = center_columns(Dataset(np.column_stack([x[:, 0], x[:, 0], x[:, 1], x[:, 2]])))
        scored = subset_scorer(data, "ve")[0](np.array([[0, 1, 2], [1, 0, 3]]))
        expected = [subset_ve(data, (1, 3)), subset_ve(data, (2, 4))]
        np.testing.assert_allclose(scored, expected, rtol=1e-12)

    def test_fp_matches_brute_force(self):
        data = normalize_unit(random_dataset(30, 8, seed=6))
        best = exhaustive_optimal(data, 3, "fp")
        values = {
            combo: frame_potential(data, combo)
            for combo in itertools.combinations(range(1, 9), 3)
        }
        brute_best = min(values.values())
        assert best.value == pytest.approx(brute_best, abs=1e-10)
        assert values[best.ordered] == pytest.approx(brute_best, abs=1e-10)

    def test_mi_matches_brute_force(self):
        data = random_dataset(40, 7, seed=7)
        best = exhaustive_optimal(data, 2, "mi", sigma=0.1)
        model = CovarianceModel.from_dataset(data, sigma=0.1)
        values = {
            combo: mutual_information(model, combo)
            for combo in itertools.combinations(range(1, 8), 2)
        }
        brute_best = max(values.values())
        assert best.value == pytest.approx(brute_best, abs=1e-9)
        assert values[best.ordered] == pytest.approx(brute_best, abs=1e-9)

    def test_mi_matches_brute_force_across_chunks(self):
        data = random_dataset(40, 15, seed=21)
        assert math.comb(15, 5) > 2048
        best = exhaustive_optimal(data, 5, "mi", sigma=0.1)
        model = CovarianceModel.from_dataset(data, sigma=0.1)
        values = {
            combo: mutual_information(model, combo)
            for combo in itertools.combinations(range(1, 16), 5)
        }
        brute_best = max(values.values())
        assert best.value == pytest.approx(brute_best, abs=1e-9)
        assert values[best.ordered] == pytest.approx(brute_best, abs=1e-9)

    def test_mi_tie_takes_lexicographically_first(self):
        # Two mirrored, mutually orthogonal integer blocks: the covariance
        # blocks of {1,3}, {1,4}, {2,3} and {2,4} and of their complements are
        # bitwise equal, so these four subsets tie exactly for the maximum.
        a, b, z = [2.0, 1.0, -2.0, -1.0], [2.0, -1.0, -2.0, 1.0], [0.0] * 4
        data = center_columns(Dataset(np.column_stack([a + z, b + z, z + a, z + b])))
        assert exhaustive_optimal(data, 2, "mi", sigma=0.1).ordered == (1, 3)

    def test_mi_singular_covariance_raises(self):
        # Noise-free sim2 has rank 3 over 8 columns: with sigma 0 the
        # regularized covariance is singular and every subset's MI is infinite.
        data = center_columns(gen_sim2(100, 3, 8, seed=0, noise_sd=0.0))
        with pytest.raises(SingularCovariance):
            exhaustive_optimal(data, 3, "mi", sigma=0.0)

    def test_tie_takes_lexicographically_first(self):
        rng = make_rng(8)
        col = rng.normal(size=20)
        other = rng.normal(size=20)
        x = np.column_stack([col, col, other])
        x -= x.mean(axis=0)
        data = dataset_from_gram(x.T @ x)
        best = exhaustive_optimal(data, 1, "ve")
        assert best.indices == {1}

    @pytest.mark.parametrize("metric", ["ve", "fp"])
    def test_sigma_rejected_without_mi(self, metric):
        data = random_dataset(30, 5, seed=18)
        with pytest.raises(ValueError, match="sigma applies only to the mi metric"):
            exhaustive_optimal(data, 2, metric, sigma=0.1)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(oracle, "COMBINATION_CAP", 10)
        data = random_dataset(20, 10, seed=9)
        with pytest.raises(TooLarge) as info:
            exhaustive_optimal(data, 3, "ve")
        assert info.value.n_combinations == math.comb(10, 3)
        assert info.value.cap == 10

    def test_default_cap_large_instance(self):
        data = random_dataset(10, 50, seed=10)
        with pytest.raises(TooLarge) as info:
            exhaustive_optimal(data, 10, "ve")
        assert info.value.n_combinations == math.comb(50, 10)
        assert info.value.cap == COMBINATION_CAP

    def test_column_reordering_equivariance(self):
        data = random_dataset(30, 7, seed=11)
        best = exhaustive_optimal(data, 3, "ve")
        from varsel import Dataset

        reversed_data = Dataset(data.values[:, ::-1], centered=True)
        best_rev = exhaustive_optimal(reversed_data, 3, "ve")
        assert {8 - i for i in best_rev.indices} == best.indices
        assert best_rev.value == pytest.approx(best.value, abs=1e-9)


# =========================================================================
# Curvature
# =========================================================================


def independent_curvature(table):
    """Literal pair enumeration of the curvature definition."""
    v = table.v
    values = table.values
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = 1e-12 * scale
    worst = math.inf
    for i in range(v):
        bit = 1 << i
        for mask_a in range(2**v):
            if mask_a & bit:
                continue
            denom = values[mask_a | bit] - values[mask_a]
            if denom <= tol:
                continue
            for mask_b in range(2**v):
                if mask_b & bit or (mask_b & mask_a) != mask_a:
                    continue
                numer = values[mask_b | bit] - values[mask_b]
                worst = min(worst, numer / denom)
    if worst is math.inf:
        return 0.0
    return min(1.0, max(0.0, 1.0 - worst))


class TestCurvature:
    def test_modular_is_zero(self):
        table = TabulatedSetFunction.from_callable(6, dyadic_modular_function())
        assert curvature(table) == 0.0

    def test_saturating_coverage_is_one(self):
        table = TabulatedSetFunction.from_callable(5, lambda s: float(min(len(s), 1)))
        assert curvature(table) == 1.0

    def test_matches_independent_enumeration(self):
        # [DERIVED] literal (i, A, B superset of A) triple loop.
        for seed in range(6):
            table = TabulatedSetFunction.from_callable(6, coverage_function(seed))
            assert curvature(table) == pytest.approx(independent_curvature(table), abs=1e-12)

    def test_constant_function_is_zero(self):
        table = TabulatedSetFunction.from_callable(4, lambda s: 0.0)
        assert curvature(table) == 0.0


# =========================================================================
# Submodularity ratio
# =========================================================================


def independent_submodularity_ratio(table):
    """Literal disjoint-pair enumeration of the ratio definition."""
    v = table.v
    values = table.values
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = 1e-12 * scale
    worst = math.inf
    for base in range(2**v):
        for sub in range(1, 2**v):
            if sub & base:
                continue
            denom = values[base | sub] - values[base]
            if denom <= tol:
                continue
            numer = sum(
                values[base | (1 << b)] - values[base] for b in range(v) if sub & (1 << b)
            )
            worst = min(worst, numer / denom)
    if worst is math.inf:
        return 1.0
    return max(0.0, worst)


def random_monotone_table(v, seed):
    """Uniform random values made monotone by a subset-max transform: each
    subset takes the largest value of its subsets, so most are not
    submodular."""
    values = make_rng(seed).random(2**v)
    masks = np.arange(2**v)
    for b in range(v):
        with_bit = masks[(masks >> b) & 1 == 1]
        values[with_bit] = np.maximum(values[with_bit], values[with_bit ^ (1 << b)])
    return TabulatedSetFunction(v, values)


class TestSubmodularityRatio:
    def test_submodular_reaches_one(self):
        for seed in range(6):
            table = TabulatedSetFunction.from_callable(6, coverage_function(seed))
            assert submodularity_ratio(table) >= 1.0 - 1e-12
            assert submodularity_ratio(table) <= 1.0 + 1e-12

    def test_modular_pins_both_diagnostics(self):
        table = TabulatedSetFunction.from_callable(6, dyadic_modular_function())
        assert submodularity_ratio(table) == 1.0
        assert curvature(table) == 0.0

    def test_suppressor_free_ve_is_submodular(self):
        # [DERIVED] equicorrelated positive structure has no suppressor
        # variables, so VE behaves submodularly on the full lattice.
        v = 5
        gram = np.full((v, v), 0.3) + 0.7 * np.eye(v)
        data = dataset_from_gram(gram)
        table = TabulatedSetFunction.from_callable(v, lambda s: variance_explained(data, s))
        assert submodularity_ratio(table) == pytest.approx(1.0, abs=1e-9)

    def test_negative_correlation_breaks_submodularity(self):
        gram = np.array([[1.0, 0.6, -0.5], [0.6, 1.0, 0.2], [-0.5, 0.2, 1.0]])
        data = dataset_from_gram(gram)
        table = TabulatedSetFunction.from_callable(3, lambda s: variance_explained(data, s))
        assert submodularity_ratio(table) < 1.0 - 1e-3

    def test_matches_independent_enumeration(self):
        # [DERIVED] literal disjoint-pair double loop.  Both sum each
        # numerator over S in increasing variable order, so they agree exactly.
        tables = [TabulatedSetFunction.from_callable(5, coverage_function(seed, v=5)) for seed in range(4)]
        gram = np.array([[1.0, 0.6, -0.5], [0.6, 1.0, 0.2], [-0.5, 0.2, 1.0]])
        data = dataset_from_gram(gram)
        tables.append(TabulatedSetFunction.from_callable(3, lambda s: variance_explained(data, s)))
        tables += [random_monotone_table(v, seed=v) for v in range(1, 9)]
        for table in tables:
            assert submodularity_ratio(table) == independent_submodularity_ratio(table)

    def test_fp_difference_function_is_submodular(self):
        # The complement-set view of the frame-potential difference grows
        # monotonically from zero and stays submodular.
        for seed in range(3):
            data = normalize_unit(random_dataset(30, 6, seed=seed))
            full = frame_potential(data, tuple(range(1, 7)))

            def fn(unselected):
                selected = tuple(i for i in range(1, 7) if i not in unselected)
                fp = frame_potential(data, selected) if selected else 0.0
                return full - fp

            table = TabulatedSetFunction.from_callable(6, fn)
            assert submodularity_ratio(table) >= 1.0 - 1e-9


# =========================================================================
# Bounds
# =========================================================================


class TestBoundValues:
    def test_single_step(self):
        b_n, b_ag = bound_values(1.0, 1.0, 1)
        assert b_n == 1.0
        assert b_ag == 1.0

    def test_large_k_approaches_one_minus_inverse_e(self):
        b_n, b_ag = bound_values(1.0, 1.0, 10_000)
        assert b_ag == pytest.approx(1.0 - 1.0 / math.e, abs=1e-4)
        assert b_n == pytest.approx(1.0 - 1.0 / math.e, abs=1e-4)

    def test_k_four_closed_form(self):
        b_n, _ = bound_values(1.0, 1.0, 4)
        assert b_n == 0.68359375

    def test_zero_curvature_limit(self):
        _, b_ag = bound_values(0.0, 0.7, 5)
        assert b_ag == 0.7
        _, b_ag = bound_values(1e-13, 0.7, 5)
        assert b_ag == 0.7

    def test_full_curvature_matches_plain_bound(self):
        for k in (1, 2, 5, 17):
            b_n, b_ag = bound_values(1.0, 1.0, k)
            assert b_ag == pytest.approx(b_n, abs=1e-12)

    def test_b_n_range(self):
        for k in (1, 2, 3, 10, 100, 10_000):
            b_n, _ = bound_values(1.0, 1.0, k)
            assert 0.63 < b_n <= 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            bound_values(1.0, 1.0, 0)


class TestBoundReport:
    def test_greedy_respects_refined_bound(self):
        for seed in range(10):
            table = TabulatedSetFunction.from_callable(7, coverage_function(seed, v=7))
            for k in (2, 3, 5):
                report = bound_report(table, k)
                assert isinstance(report, BoundReport)
                assert report.greedy_ratio >= report.b_alpha_gamma - 1e-9
                assert report.greedy_ratio <= 1.0 + 1e-9

    def test_modular_greedy_is_optimal(self):
        rng = make_rng(12)
        weights = rng.uniform(0.5, 3.0, size=6)

        def fn(selected):
            return float(sum(weights[i - 1] for i in selected))

        table = TabulatedSetFunction.from_callable(6, fn)
        report = bound_report(table, 3)
        assert report.greedy_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.alpha == pytest.approx(0.0, abs=1e-9)
        assert report.gamma == pytest.approx(1.0, abs=1e-9)


# =========================================================================
# Comparisons against the optimum
# =========================================================================


class TestCompareToOptimal:
    def test_optimal_set_any_order(self):
        data = random_dataset(40, 7, seed=13)
        best = exhaustive_optimal(data, 3, "ve")
        shuffled = tuple(reversed(best.ordered))
        comparison = compare_to_optimal(shuffled, best, data=data)
        assert comparison.n_common == 3
        assert comparison.ratio == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_sets(self):
        scales = (0.9, 0.4, 1.3, 0.2, 0.7, 1.1, 0.3)
        data = orthogonal_dataset(8, scales=scales)
        best = exhaustive_optimal(data, 3, "ve")
        worst_indices = tuple(i for i in range(1, 8) if i not in best.indices)[:3]
        comparison = compare_to_optimal(worst_indices, best, data=data)
        assert comparison.n_common == 0
        assert comparison.ratio < 1.0

    def test_fp_ratio_orientation(self):
        data = normalize_unit(random_dataset(40, 8, seed=14))
        best = exhaustive_optimal(data, 3, "fp")
        greedy_order = tuple(range(1, 4))
        comparison = compare_to_optimal(greedy_order, best, data=data)
        assert comparison.ratio is not None
        assert comparison.ratio <= 1.0 + 1e-9

    def test_longer_order_uses_head(self):
        data = random_dataset(30, 6, seed=15)
        best = exhaustive_optimal(data, 2, "ve")
        result = fsca_select(data, 5)
        comparison = compare_to_optimal(result.order, best, data=data)
        head = set(result.order[:2])
        assert comparison.n_common == len(head & best.indices)

    def test_short_order_scored_as_is(self):
        data = random_dataset(30, 6, seed=16)
        best = exhaustive_optimal(data, 4, "ve")
        comparison = compare_to_optimal((1, 2), best, data=data)
        assert comparison.n_common == len({1, 2} & best.indices)
        assert comparison.achieved == pytest.approx(variance_explained(data, (1, 2)), rel=1e-9)
        assert comparison.ratio == pytest.approx(comparison.achieved / best.value)

    def test_order_stopped_at_rank_reaches_ve_optimum(self):
        # Noise-free sim2 has rank 3: FSCA stops after 3 picks, which span
        # every column, so they explain what the best 5-subset does.
        data = center_columns(gen_sim2(300, 3, 8, seed=0, noise_sd=0.0))
        best = exhaustive_optimal(data, 5, "ve")
        order = fsca_select(data, 5).order
        assert len(order) == 3
        comparison = compare_to_optimal(order, best, data=data)
        assert comparison.ratio == pytest.approx(1.0, abs=1e-9)

    def test_rank_deficient_head_scored(self):
        # Noise-free sim2 has rank 4 over 8 columns, so ITFS's 6-variable
        # head is rank deficient; it is scored by the search's own scorer.
        data = center_columns(gen_sim2(100, 4, 8, seed=0, noise_sd=0.0))
        best = exhaustive_optimal(data, 6, "ve")
        comparison = compare_to_optimal(itfs_select(data, 6).order, best, data=data)
        assert np.isfinite(comparison.achieved)
        assert comparison.ratio == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("metric", ["ve", "fp"])
    def test_sigma_rejected_without_mi(self, metric):
        data = random_dataset(30, 5, seed=19)
        best = exhaustive_optimal(data, 2, metric)
        with pytest.raises(ValueError, match="sigma applies only to the mi metric"):
            compare_to_optimal((1, 2), best, data=data, sigma=0.1)

    def test_mi_achieved_uses_sigma(self):
        data = random_dataset(30, 6, seed=20)
        best = exhaustive_optimal(data, 3, "mi", sigma=0.3)
        head = (2, 4, 5)
        comparison = compare_to_optimal(head + (1,), best, data=data, sigma=0.3)
        expected = mutual_information(CovarianceModel.from_dataset(data, 0.3), head)
        assert comparison.achieved == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert comparison.ratio == comparison.achieved / best.value

    def test_head_indices_checked(self):
        data = random_dataset(30, 6, seed=21)
        best = exhaustive_optimal(data, 2, "ve")
        with pytest.raises(ValueError):
            compare_to_optimal((1, 7), best, data=data)

    def test_tabulated_optimum_no_ratio(self):
        data = random_dataset(30, 6, seed=17)
        table = TabulatedSetFunction.from_callable(6, lambda s: variance_explained(data, s))
        best = tabulated_optimal(table, 2)
        comparison = compare_to_optimal((1, 2), best, data=data)
        assert comparison.n_common == len({1, 2} & best.indices)
        assert comparison.achieved is None
        assert comparison.ratio is None
        with pytest.raises(TypeError):
            compare_to_optimal((1, 2), best)
