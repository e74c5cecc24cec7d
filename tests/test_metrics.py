"""Scalar metrics: VE, FP, Gaussian MI, AUC, relative performance, k at threshold."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsel import (
    CovarianceModel,
    Dataset,
    LengthMismatch,
    SingularCovariance,
    ThresholdNeverReached,
    VECurve,
    auc,
    center_columns,
    frame_potential,
    gen_sim2,
    k_at_threshold,
    mutual_information,
    normalize_unit,
    relative_performance,
    variance_explained,
)
from varsel.metrics import conditional_variances
from varsel.oracle import TabulatedSetFunction, subset_scorer
from varsel.selectors import _ItfsGain

from conftest import make_rng, orthogonal_dataset, random_dataset
from reference import mutual_information as reference_mi
from reference import project_onto, subset_ve


# =========================================================================
# VECurve / CovarianceModel types
# =========================================================================


class TestVECurve:
    def test_accepts_valid(self):
        curve = VECurve((10.0, 50.0, 100.0))
        assert len(curve) == 3
        assert curve[1] == 50.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VECurve((-0.5,))

    def test_rejects_above_hundred(self):
        with pytest.raises(ValueError):
            VECurve((100.1,))

    def test_tolerates_roundoff(self):
        VECurve((100.0 + 5e-10, -5e-10))


class TestCovarianceModel:
    def test_from_dataset(self):
        data = random_dataset(50, 4, seed=1)
        model = CovarianceModel.from_dataset(data, sigma=0.1)
        expected = data.values.T @ data.values / data.m
        np.testing.assert_allclose(model.cov, expected, atol=1e-12)
        assert model.sigma_noise == 0.1 and model.v == 4

    def test_default_sigma(self):
        data = random_dataset(50, 4, seed=2)
        model = CovarianceModel.from_dataset(data)
        expected = 0.01 * math.sqrt(float(np.mean(np.diag(model.cov))))
        assert model.sigma_noise == pytest.approx(expected, rel=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CovarianceModel(np.array([[1.0, 0.5], [0.2, 1.0]]), 0.1)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            CovarianceModel(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.1)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            CovarianceModel(np.eye(2), -0.1)


# =========================================================================
# Variance explained
# =========================================================================


class TestVarianceExplained:
    def test_full_rank_selection_reaches_hundred(self):
        data = random_dataset(20, 5, seed=3)
        ve = variance_explained(data, (1, 2, 3, 4, 5))
        assert ve == pytest.approx(100.0, abs=1e-6)

    def test_empty_selection_is_zero(self):
        assert variance_explained(random_dataset(10, 3, seed=4), ()) == 0.0

    def test_requires_centered(self):
        raw = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
        with pytest.raises(ValueError):
            variance_explained(raw, (1,))

    def test_monotone_in_selection(self):
        data = random_dataset(30, 6, seed=5)
        previous = 0.0
        for k in range(1, 7):
            ve = variance_explained(data, tuple(range(1, k + 1)))
            assert ve >= previous - 1e-9
            previous = ve

    def test_basis_invariance(self):
        data = random_dataset(25, 6, seed=6)
        a = variance_explained(data, (2, 5, 3))
        b = variance_explained(data, (3, 2, 5))
        assert a == pytest.approx(b, abs=1e-10)

    def test_scale_invariance(self):
        data = random_dataset(25, 6, seed=7)
        scaled = Dataset(data.values * 3.7, centered=True)
        a = variance_explained(data, (1, 4))
        b = variance_explained(scaled, (1, 4))
        assert a == pytest.approx(b, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_appending_never_decreases(self, seed):
        data = random_dataset(12, 5, seed=seed)
        rng = make_rng(seed + 13)
        subset = sorted(rng.permutation(5)[:2] + 1)
        extra = next(i for i in range(1, 6) if i not in subset)
        base = variance_explained(data, tuple(int(i) for i in subset))
        bigger = variance_explained(data, tuple(int(i) for i in subset) + (extra,))
        assert bigger >= base - 1e-9

    def test_ill_conditioned_pair_matches_reference(self):
        # sigma_min / sigma_max of columns 1, 2 is 5.9e-9, so their Gram
        # matrix fails plain Cholesky; a QR of the columns does not need it.
        x1 = np.random.default_rng(2).standard_normal(50)
        x2 = x1 + 1e-8 * np.random.default_rng(102).standard_normal(50)
        x3 = np.random.default_rng(3).standard_normal(50)
        data = center_columns(Dataset(np.column_stack([x1, x2, x3])))
        expected = subset_ve(data, (1, 2))
        assert variance_explained(data, (1, 2)) == pytest.approx(expected, rel=1e-9)
        scored = subset_scorer(data, "ve")[0](np.array([[0, 1]]))[0]
        assert scored == pytest.approx(expected, rel=1e-9)

    def test_exact_duplicate_adds_nothing(self):
        # Column 3 equals column 1, so it lies in the span of (1, 2).
        x = make_rng(8).normal(size=(10, 2))
        data = center_columns(Dataset(np.column_stack([x[:, 0], x[:, 1], x[:, 0]])))
        assert variance_explained(data, (1, 2, 3)) == variance_explained(data, (1, 2))

    def test_tiny_column_scale_is_not_dependence(self):
        # The dependence test is per column, so a column's scale cannot
        # make it dependent.
        data = random_dataset(20, 4, seed=9)
        values = data.values.copy()
        values[:, 1] *= 1e-12
        scaled = Dataset(values, centered=True)
        expected = subset_ve(scaled, (2, 3))
        assert variance_explained(scaled, (2, 3)) == pytest.approx(expected, rel=1e-12)

    def test_more_columns_than_rows_spans_everything(self):
        # Centred data with 5 rows has rank 4, which 6 generic columns span.
        data = random_dataset(5, 8, seed=10)
        assert variance_explained(data, (1, 2, 3, 4, 5, 6)) == pytest.approx(100.0, abs=1e-9)

    def test_rank_deficient_subsets_score_their_span(self):
        # Noise-free sim2 has rank 3 over 8 columns, so every subset of
        # more than three columns is dependent.  Each scores the VE of its
        # span, as the oracle's scorer does, and adding a column never
        # lowers it, so the table is monotone.
        data = center_columns(gen_sim2(300, 3, 8, seed=0, noise_sd=0.0))
        table = TabulatedSetFunction.from_callable(8, lambda s: variance_explained(data, s))
        score = subset_scorer(data, "ve")[0]
        for k in range(1, 9):
            subsets = np.array(list(itertools.combinations(range(8), k)))
            masks = (1 << subsets).sum(axis=1)
            np.testing.assert_allclose(table.values[masks], score(subsets), rtol=1e-9, atol=0)
        for i in range(8):
            without = np.arange(256)[(np.arange(256) & (1 << i)) == 0]
            assert np.all(table.values[without | (1 << i)] >= table.values[without] - 1e-9)


# =========================================================================
# Frame potential
# =========================================================================


class TestFramePotential:
    def test_orthonormal_equals_k(self):
        q, _ = np.linalg.qr(make_rng(8).normal(size=(20, 5)))
        data = Dataset(q)
        assert frame_potential(data, (1, 2, 3, 4, 5)) == pytest.approx(5.0, abs=1e-12)

    def test_duplicate_columns_equal_four(self):
        col = make_rng(9).normal(size=10)
        col /= np.linalg.norm(col)
        data = Dataset(np.column_stack([col, col]))
        assert frame_potential(data, (1, 2)) == pytest.approx(4.0, abs=1e-12)

    def test_matches_double_loop(self):
        # [DERIVED] naive double-loop oracle over every ordered pair.
        data = normalize_unit(random_dataset(50, 8, seed=10))
        selected = (1, 2, 3, 4, 5, 6, 7, 8)
        expected = 0.0
        for i in selected:
            for j in selected:
                expected += float(data.column(i) @ data.column(j)) ** 2
        assert frame_potential(data, selected) == pytest.approx(expected, abs=1e-10)

    def test_lower_bound_strict_when_not_orthonormal(self):
        data = normalize_unit(random_dataset(30, 4, seed=11))
        assert frame_potential(data, (1, 2, 3)) > 3.0

    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            frame_potential(random_dataset(10, 3, seed=12), (1,))

    def test_requires_nonempty(self):
        data = normalize_unit(random_dataset(10, 3, seed=13))
        with pytest.raises(ValueError):
            frame_potential(data, ())


# =========================================================================
# Mutual information
# =========================================================================


class TestMutualInformation:
    def test_diagonal_covariance_gives_zero(self):
        model = CovarianceModel(np.diag([1.0, 2.0, 3.0, 4.0]), 0.1)
        for selected in [(1,), (2, 4), (1, 2, 3)]:
            assert mutual_information(model, selected) == pytest.approx(0.0, abs=1e-9)

    def test_bivariate_closed_form(self):
        # [DERIVED] bivariate Gaussian: MI = -0.5 ln(1 - rho^2).
        rho = 0.8
        model = CovarianceModel(np.array([[1.0, rho], [rho, 1.0]]), 0.0)
        expected = -0.5 * math.log(1.0 - rho**2)
        assert mutual_information(model, (1,)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5108256238, abs=1e-9)

    def test_non_negative(self):
        rng = make_rng(14)
        for _ in range(10):
            raw = rng.normal(size=(12, 5))
            cov = raw.T @ raw / 12
            model = CovarianceModel(cov, 0.05)
            assert mutual_information(model, (1, 3)) >= -1e-9

    def test_gram_equivalence(self):
        # Same X^T X / m through different row counts -> identical MI.
        data = random_dataset(40, 5, seed=15)
        cov = data.values.T @ data.values / data.m
        rotation, _ = np.linalg.qr(make_rng(16).normal(size=(40, 40)))
        rotated = Dataset(rotation @ data.values)
        cov2 = rotated.values.T @ rotated.values / rotated.m
        a = mutual_information(CovarianceModel(cov, 0.1), (2, 4))
        b = mutual_information(CovarianceModel((cov2 + cov2.T) / 2, 0.1), (2, 4))
        assert a == pytest.approx(b, abs=1e-10)

    def test_rejects_empty_or_full(self):
        model = CovarianceModel(np.eye(3), 0.1)
        with pytest.raises(ValueError):
            mutual_information(model, ())
        with pytest.raises(ValueError):
            mutual_information(model, (1, 2, 3))

    def test_singular_covariance_raises(self):
        # Two identical variables without noise: the MI is infinite.
        with pytest.raises(SingularCovariance):
            mutual_information(CovarianceModel(np.ones((2, 2)), 0.0), (1,))
        assert math.isfinite(mutual_information(CovarianceModel(np.ones((2, 2)), 0.1), (1,)))

    def test_matches_prior_posterior_formula(self):
        # Reference: MI = (log det A_UU - log det(A_UU - A_US A_SS^-1 A_SU)) / 2
        # with A = Sigma + s^2 I, the conditioning form of the same quantity.
        rng = make_rng(20)
        v, s2 = 7, 0.05**2
        for _ in range(5):
            raw = rng.normal(size=(30, v))
            model = CovarianceModel(raw.T @ raw / 30, 0.05)
            a = model.cov + s2 * np.eye(v)
            for k in range(1, v):
                sel0 = np.sort(rng.choice(v, size=k, replace=False))
                rest0 = np.setdiff1d(np.arange(v), sel0)
                prior = a[np.ix_(rest0, rest0)]
                cross = a[np.ix_(sel0, rest0)]
                posterior = prior - cross.T @ np.linalg.solve(a[np.ix_(sel0, sel0)], cross)
                expected = 0.5 * (np.linalg.slogdet(prior)[1] - np.linalg.slogdet(posterior)[1])
                got = mutual_information(model, tuple(sel0 + 1))
                assert got == pytest.approx(expected, abs=1e-10)

    @staticmethod
    def max_relative_error(model, seed):
        """Largest relative error of 20 random subsets against 60 digits."""
        rng = make_rng(seed)
        errors = []
        for _ in range(20):
            sel0 = np.sort(rng.choice(model.v, size=int(rng.integers(1, model.v)), replace=False))
            expected = reference_mi(model.cov, model.sigma_noise, sel0)
            errors.append(abs(mutual_information(model, tuple(sel0 + 1)) - expected) / expected)
        return max(errors)

    def test_matches_reference_at_default_sigma(self):
        data = center_columns(gen_sim2(m=300, u=6, v=16, seed=1))
        assert self.max_relative_error(CovarianceModel.from_dataset(data), seed=21) <= 1e-12

    @pytest.mark.parametrize("ratio, bound", [(1e-4, 1e-8), (1e-6, 1e-4)])
    def test_envelope_on_rank_four_covariance(self, ratio, bound):
        # sigma at 1e-4 and 1e-6 of the variable scale on a rank-4 covariance
        # (README "Numerical envelope" gives the measured errors).
        data = center_columns(gen_sim2(m=300, u=4, v=16, seed=1, noise_sd=0.0))
        cov = CovarianceModel.from_dataset(data).cov
        model = CovarianceModel(cov, ratio * math.sqrt(float(np.mean(np.diag(cov)))))
        assert self.max_relative_error(model, seed=22) <= bound


class TestDeltaMi:
    """ITFS's greedy information gain, the posterior-variance ratio
    ``var(x_i | S) / var(x_i | U \\ x_i)``, as ``_ItfsGain`` scores it."""

    def test_uncorrelated_candidate_ratio_one(self):
        # Exactly orthogonal columns: every conditional variance is the
        # column's own variance plus s^2.
        data = orthogonal_dataset(4, scales=(1.0, 1.5, 2.0))
        scores = _ItfsGain(data, 0.1).step_scores([])
        np.testing.assert_allclose(scores, 1.0, rtol=0.0, atol=1e-12)

    def test_central_variable_preferred(self):
        # [DERIVED] x3 ~ (x1 + x2) + tiny noise: explaining x3 explains more.
        rng = make_rng(17)
        x = rng.normal(size=(500, 2))
        x3 = x[:, 0] + x[:, 1]
        x3 = x3 / np.linalg.norm(x3) * np.linalg.norm(x[:, 0])
        x3 = x3 + 0.001 * rng.normal(size=500)
        data = center_columns(Dataset(np.column_stack([x, x3])))
        scores = _ItfsGain(data, 0.01).step_scores([])
        assert scores[2] > scores[0]

    def test_matches_entropy_difference_oracle(self):
        # [DERIVED] ratio = exp(2 * (H(x_i|S) - H(x_i|U \ i))) for Gaussians.
        data = random_dataset(80, 6, seed=18)
        model = CovarianceModel.from_dataset(data, sigma=0.05)
        s2 = model.sigma_noise**2
        cov = model.cov

        def cond_var(i0, given0):
            if len(given0) == 0:
                return cov[i0, i0] + s2
            block = cov[np.ix_(given0, given0)] + s2 * np.eye(len(given0))
            cross = cov[given0, i0]
            return cov[i0, i0] + s2 - float(cross @ np.linalg.solve(block, cross))

        gain = _ItfsGain(data, 0.05)
        for selected in [(), (2,), (1, 5)]:
            sel0 = [s - 1 for s in selected]
            scores = gain.step_scores(sel0)
            for i0 in sorted(set(range(6)) - set(sel0)):
                rest0 = sorted(set(range(6)) - set(sel0) - {i0})
                h_given_s = 0.5 * math.log(2 * math.pi * math.e * cond_var(i0, sel0))
                h_given_rest = 0.5 * math.log(2 * math.pi * math.e * cond_var(i0, rest0))
                expected = math.exp(2.0 * (h_given_s - h_given_rest))
                assert scores[i0] == pytest.approx(expected, abs=1e-8)

    def test_singular_covariance_raises(self):
        # Noise-free sim2 with u = 3 has rank 3 over 8 variables; at
        # sigma = 0 conditioning on four or more of them is singular.
        data = center_columns(gen_sim2(100, 3, 8, seed=0, noise_sd=0.0))
        model = CovarianceModel(data.values.T @ data.values / data.m, 0.0)
        with pytest.raises(SingularCovariance, match="regularized covariance is singular"):
            conditional_variances(model, np.arange(1, 8), [0])


class TestSelectionValidation:
    @pytest.mark.parametrize("selected", [(0,), (5,), (1, 1)], ids=["zero", "above_v", "repeat"])
    @pytest.mark.parametrize("metric", ["ve", "fp", "mi", "project_onto"])
    def test_rejects_out_of_range_and_duplicates(self, metric, selected):
        data = normalize_unit(random_dataset(20, 4, seed=19))
        call = {
            "ve": variance_explained,
            "fp": frame_potential,
            "mi": lambda d, s: mutual_information(CovarianceModel.from_dataset(d, 0.1), s),
            "project_onto": project_onto,  # the reference coerces selections alike
        }[metric]
        with pytest.raises(ValueError, match="distinct indices in 1..4"):
            call(data, selected)


# =========================================================================
# Curve summaries
# =========================================================================


class TestAuc:
    def test_constant_hundred(self):
        assert auc(VECurve((100.0, 100.0, 100.0)), 4) == pytest.approx(1.0, abs=1e-12)

    def test_direct_summation(self):
        assert auc(VECurve((50.0, 100.0, 100.0)), 4) == pytest.approx(250.0 / 300.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            auc(VECurve((50.0, 60.0)), 4)

    @pytest.mark.parametrize("v", [1, 0, -1])
    def test_needs_two_variables(self, v):
        with pytest.raises(ValueError, match=f"v={v}"):
            auc(VECurve(()), v)

    def test_pointwise_max_dominates(self):
        rng = make_rng(19)
        for _ in range(5):
            a = np.sort(rng.uniform(0, 100, size=6))
            b = np.sort(rng.uniform(0, 100, size=6))
            top = np.maximum(a, b)
            auc_top = auc(VECurve(tuple(top)), 7)
            assert auc_top >= auc(VECurve(tuple(a)), 7) - 1e-12
            assert auc_top >= auc(VECurve(tuple(b)), 7) - 1e-12


class TestKAtThreshold:
    def test_first_crossing(self):
        assert k_at_threshold(VECurve((50.0, 96.0, 99.5)), 95.0) == 2

    def test_exact_touch_counts(self):
        assert k_at_threshold(VECurve((95.0, 99.0)), 95.0) == 1

    def test_never_reached(self):
        with pytest.raises(ThresholdNeverReached):
            k_at_threshold(VECurve((50.0, 60.0)), 95.0)


class TestRelativePerformance:
    def test_single_algorithm(self):
        result = relative_performance({"only": VECurve((50.0, 99.5))})
        assert result == {"only": pytest.approx(100.0)}

    def test_identical_curves_both_hundred(self):
        curve = VECurve((80.0, 99.2, 99.9))
        result = relative_performance({"a": curve, "b": curve})
        assert result["a"] == pytest.approx(100.0)
        assert result["b"] == pytest.approx(100.0)

    def test_strict_dominance(self):
        result = relative_performance(
            {"a": VECurve((60.0, 99.5)), "b": VECurve((50.0, 99.2))}
        )
        assert result["a"] == pytest.approx(100.0)
        assert result["b"] == pytest.approx(0.0)

    def test_window_cut_at_joint_threshold(self):
        # b leads at k=1, a leads at k=2; both cross 99 at k=2 -> each tops
        # one of the two ranks in the window.
        result = relative_performance(
            {"a": VECurve((40.0, 99.6, 99.7)), "b": VECurve((60.0, 99.4, 99.9))}
        )
        assert result["a"] == pytest.approx(50.0)
        assert result["b"] == pytest.approx(50.0)

    def test_threshold_never_reached(self):
        with pytest.raises(ThresholdNeverReached):
            relative_performance({"a": VECurve((50.0,)), "b": VECurve((99.9,))})

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            relative_performance({"a": VECurve((99.5,)), "b": VECurve((99.5, 99.9))})
