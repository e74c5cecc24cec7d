"""The seven selection algorithms and their shared result type."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from varsel import (
    Dataset,
    RankDeficient,
    SelectionResult,
    SingularCovariance,
    ThresholdNeverReached,
    ZeroColumn,
    center_columns,
    frame_potential,
    fosmod_select,
    fsca_select,
    fsfp_fsca_select,
    gen_sim1,
    gen_sim2,
    itfs_select,
    lfsca_select,
    normalize_unit,
    pfs_select,
    ufs_select,
    variance_explained,
)
from varsel._linalg import spd_inverse
from varsel.dataset import dataset_from_gram, deflate_in_place
from varsel.engine import EXCLUDED
from varsel.metrics import conditional_variances
from varsel.selectors import ALGORITHMS, OrthonormalBasis, _ItfsGain, _select, nipals_first_pc

from conftest import lazy_select, make_rng, orthogonal_dataset, orthonormal_dataset, random_dataset
from reference import fosmod_select as fosmod_reference
from reference import fsca_select as fsca_reference
from reference import itfs_select as itfs_reference
from reference import pfs_select as pfs_reference


def centered_sim1(seed):
    return center_columns(gen_sim1(m=1000, seed=seed))


def centered_sim2(seed):
    return center_columns(gen_sim2(m=1000, u=25, v=50, seed=seed))


def rescaled(data: Dataset, column: int, scale: float) -> Dataset:
    """``data`` with its 1-based ``column`` multiplied by ``scale``."""
    values = data.values.copy()
    values[:, column - 1] *= scale
    return Dataset(values, centered=True)


#: Columns on which a candidacy floor relative to ``||X||``, instead of to
#: the column's own norm, changes the FSCA, L-FSCA, FOS-MOD or PFS order
#: once the column's scale is 1e-9 of the data or below.
RESCALED_COLUMNS = [
    pytest.param(center_columns(gen_sim1(m=500, seed=0)), 13, id="sim1-500-col13"),
    pytest.param(center_columns(gen_sim1(m=500, seed=0)), 1, id="sim1-500-col1"),
    pytest.param(center_columns(gen_sim2(m=300, u=10, v=30, seed=1)), 15, id="sim2-300x30-col15"),
    pytest.param(center_columns(gen_sim2(m=300, u=10, v=30, seed=1)), 2, id="sim2-300x30-col2"),
]

#: The sim1 and sim2 inputs on which orders are checked against the
#: references, at k = 12.
REFERENCE_SHAPES = [
    pytest.param(center_columns(gen_sim1(m=200, seed=0)), id="sim1-200-seed0"),
    pytest.param(center_columns(gen_sim1(m=200, seed=1)), id="sim1-200-seed1"),
    pytest.param(center_columns(gen_sim2(m=200, u=8, v=30, seed=0)), id="sim2-200x30-seed0"),
    pytest.param(center_columns(gen_sim2(m=200, u=8, v=30, seed=2)), id="sim2-200x30-seed2"),
    pytest.param(center_columns(gen_sim2(m=40, u=8, v=60, seed=3)), id="sim2-40x60-seed3"),
]

#: Selectors whose candidacy is the residual's rank test.
EXCLUDING = ("fsca", "lfsca", "fosmod", "pfs")

EXHAUSTED = "selection stopped early: every remaining column lies in the selected span"


def idle_pick(n: int) -> str:
    return f"pick {n} adds no variance: it lies in the span of the earlier picks"


def basis_of(columns: np.ndarray) -> OrthonormalBasis:
    """A basis grown with ``extend`` from the columns, left to right."""
    basis = OrthonormalBasis(*columns.shape)
    for column in columns.T:
        basis.extend(column)
    return basis


# =========================================================================
# SelectionResult
# =========================================================================


class TestSelectionResult:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            SelectionResult(
                algorithm="fsca",
                order=(1, 1),
                ve_curve=(10.0, 20.0),
                native_trace=(1.0, 2.0),
                eval_count=3,
                elapsed=0.0,
            )
        with pytest.raises(ValueError):
            SelectionResult(
                algorithm="fsca",
                order=(1, 2),
                ve_curve=(10.0,),
                native_trace=(1.0, 2.0),
                eval_count=3,
                elapsed=0.0,
            )

    def test_invariants_across_algorithms(self):
        data = random_dataset(40, 6, seed=0)
        for name, select in ALGORITHMS.items():
            result = select(data, 4)
            assert result.algorithm == name
            assert len(result.order) == 4
            assert len(set(result.order)) == 4
            assert all(1 <= i <= 6 for i in result.order)
            assert len(result.ve_curve) == 4
            assert len(result.native_trace) == 4
            curve = list(result.ve_curve)
            assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))
            assert result.eval_count >= 0
            assert result.elapsed >= 0.0

    @pytest.mark.parametrize("shape", ["tall", "wide"])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_ve_curve_matches_independent_projection(self, name, shape):
        # Tall (m > v) runs every selector but UFS on the triangular
        # factor; wide (m < v) runs every selector on the data.
        if shape == "tall":
            data, k = random_dataset(30, 8, seed=9), 8
        else:
            data, k = random_dataset(12, 20, seed=24), 6
        result = ALGORITHMS[name](data, k)
        assert len(result.ve_curve) == k
        for j in range(1, k + 1):
            expected = variance_explained(data, result.order[:j])
            assert result.ve_curve[j - 1] == pytest.approx(expected, abs=1e-9)


# =========================================================================
# Orthonormal basis maintenance
# =========================================================================


class TestOrthonormalBasis:
    def test_extend_orthonormal(self):
        rng = make_rng(2)
        basis = OrthonormalBasis(12, 4)
        for _ in range(4):
            basis.extend(rng.normal(size=12))
        prod = basis.columns.T @ basis.columns
        np.testing.assert_allclose(prod, np.eye(4), atol=1e-8)

    def test_dependent_column_rejected(self):
        rng = make_rng(3)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        basis = OrthonormalBasis(10, 3)
        basis.extend(a)
        basis.extend(b)
        with pytest.raises(RankDeficient):
            basis.extend(2.0 * a - 0.5 * b)

    def test_extend_columns_orthonormal_same_span(self):
        rng = make_rng(4)
        cols = rng.normal(size=(15, 3))
        basis = basis_of(cols)
        prod = basis.columns.T @ basis.columns
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-8)
        # Same span: projecting the originals onto the basis loses nothing.
        proj = basis.columns @ (basis.columns.T @ cols)
        np.testing.assert_allclose(proj, cols, atol=1e-8)


# =========================================================================
# NIPALS first principal component
# =========================================================================


def near_degenerate_spectrum(second_sv):
    rng = make_rng(7)
    g = rng.normal(size=(100, 5))
    g -= g.mean(axis=0)
    u, _ = np.linalg.qr(g)
    vmat, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    s = np.array([1.0, second_sv, 0.5, 0.3, 0.1])
    return center_columns(Dataset(u @ np.diag(s) @ vmat.T))


class TestNipals:
    def test_single_nonzero_column(self):
        matrix = np.zeros((10, 3))
        matrix[:, 1] = make_rng(5).normal(size=10)
        result = nipals_first_pc(matrix)
        assert result.converged
        np.testing.assert_allclose(result.scores, matrix[:, 1], atol=1e-8)

    def test_orthogonal_columns_pick_dominant(self):
        data = orthogonal_dataset(8, scales=(0.5, 1.9, 0.2, 0.8, 0.3, 0.6, 0.4))
        result = nipals_first_pc(data)
        dominant = data.values[:, 1]
        cosine = abs(result.scores @ dominant) / (
            np.linalg.norm(result.scores) * np.linalg.norm(dominant)
        )
        assert cosine >= 1.0 - 1e-6

    def test_matches_power_iteration(self):
        # [DERIVED] independent power iteration on the covariance matrix.
        data = random_dataset(100, 12, seed=6)
        result = nipals_first_pc(data)
        cov = data.values.T @ data.values
        w = np.ones(12)
        for _ in range(500):
            w = cov @ w
            w /= np.linalg.norm(w)
        reference = data.values @ w
        cosine = abs(result.scores @ reference) / (
            np.linalg.norm(result.scores) * np.linalg.norm(reference)
        )
        assert cosine >= 1.0 - 1e-6

    def test_sign_convention(self):
        data = random_dataset(50, 6, seed=7)
        result = nipals_first_pc(data)
        loadings = data.values.T @ result.scores
        assert loadings[int(np.argmax(np.abs(loadings)))] > 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            nipals_first_pc(np.zeros((5, 2)))

    def test_non_convergence_flagged(self):
        result = nipals_first_pc(near_degenerate_spectrum(0.99))
        assert not result.converged
        assert result.iterations == 500

    def test_max_iter_respected(self):
        result = nipals_first_pc(random_dataset(30, 5, seed=8), max_iter=1)
        assert result.iterations == 1


# =========================================================================
# FSCA / L-FSCA
# =========================================================================


class TestFsca:
    def test_orthogonal_descending_norms(self):
        scales = (0.9, 0.4, 1.3, 0.2, 0.7, 1.1, 0.3)
        result = fsca_select(orthogonal_dataset(8, scales=scales), 7)
        expected = tuple(int(i) + 1 for i in np.argsort(-np.asarray(scales), kind="stable"))
        assert result.order == expected

    def test_full_selection_reaches_hundred(self):
        result = fsca_select(random_dataset(25, 6, seed=10), 6)
        assert result.ve_curve[-1] == pytest.approx(100.0, abs=1e-6)

    def test_global_scaling_invariance(self):
        data = random_dataset(40, 7, seed=11)
        scaled = Dataset(data.values * 17.0, centered=True)
        assert fsca_select(data, 5).order == fsca_select(scaled, 5).order

    def test_row_permutation_invariance(self):
        data = random_dataset(40, 7, seed=12)
        perm = make_rng(13).permutation(40)
        shuffled = Dataset(data.values[perm], centered=True)
        assert fsca_select(data, 5).order == fsca_select(shuffled, 5).order

    def test_duplicate_column_excluded(self):
        rng = make_rng(14)
        x = rng.normal(size=(30, 4))
        x[:, 2] = x[:, 0]
        data = center_columns(Dataset(x))
        result = fsca_select(data, 4)
        assert len(result.order) == 3
        assert len(set(result.order)) == 3
        assert result.warnings

    def test_requires_centered(self):
        with pytest.raises(ValueError):
            fsca_select(random_dataset(10, 3, seed=15, centered=False), 2)

    def test_k_and_tau_exclusive(self):
        data = random_dataset(10, 3, seed=16)
        with pytest.raises(ValueError):
            fsca_select(data)
        with pytest.raises(ValueError):
            fsca_select(data, 2, tau=99.0)

    def test_threshold_mode_stops_at_crossing(self):
        data = random_dataset(50, 10, seed=17)
        result = fsca_select(data, tau=90.0)
        assert result.ve_curve[-1] >= 90.0
        if len(result.order) > 1:
            assert result.ve_curve[-2] < 90.0

    def test_threshold_unreachable(self):
        # VE is capped at 100, so a target above it exhausts the candidates.
        with pytest.raises(ThresholdNeverReached) as info:
            fsca_select(random_dataset(30, 5, seed=19), tau=101.0)
        assert info.value.best == pytest.approx(100.0, abs=1e-6)

    def test_sim1_first_two_are_the_sums(self):
        # The two engineered sum variables carry the most variance; their
        # within-pair order is seed-dependent.
        hits = 0
        for seed in range(10):
            result = fsca_select(centered_sim1(seed), 2)
            hits += set(result.order) == {25, 26}
        assert hits >= 9

    @pytest.mark.parametrize("data", REFERENCE_SHAPES)
    def test_order_matches_reference(self, data):
        result = fsca_select(data, 12)
        order, curve = fsca_reference(data, 12)
        assert result.order == order
        np.testing.assert_allclose(result.ve_curve.values, curve, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("data, column", RESCALED_COLUMNS)
    def test_rescaled_column_matches_reference(self, data, column):
        for scale in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            scaled = rescaled(data, column, scale)
            assert fsca_select(scaled, 8).order == fsca_reference(scaled, 8)[0], scale

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(center_columns(gen_sim2(m=200, u=8, v=30, seed=0)), id="sim2-200x30-seed0"),
            pytest.param(center_columns(gen_sim1(m=200, seed=1)), id="sim1-200-seed1"),
            pytest.param(center_columns(gen_sim2(m=300, u=10, v=40, seed=2)), id="sim2-300x40-seed2"),
        ],
    )
    def test_near_duplicate_matches_reference(self, data):
        # Column 6 becomes column 3 plus eps times standard-normal noise,
        # about eps of column 3's norm away from it.  At eps = 1e-13 the two
        # are duplicates within round-off, and on sim2 200x30 FSCA picks
        # column 6 where the reference picks column 3, on the data as on
        # the triangular factor (README "Numerical envelope").
        noise = make_rng(0).normal(size=data.m)
        for exponent in range(1, 12):
            eps = 10.0**-exponent
            values = data.values.copy()
            values[:, 5] = values[:, 2] + eps * noise
            near = center_columns(Dataset(values))
            assert fsca_select(near, 12).order == fsca_reference(near, 12)[0], eps


class TestLfsca:
    def test_full_selection_matches_fsca(self):
        data = random_dataset(25, 6, seed=20)
        lazy = lfsca_select(data, 6)
        plain = fsca_select(data, 6)
        assert lazy.ve_curve[-1] == pytest.approx(100.0, abs=1e-6)
        assert plain.ve_curve[-1] == pytest.approx(100.0, abs=1e-6)

    def test_sim2_ve_within_tenth_point(self):
        data = centered_sim2(0)
        lazy = lfsca_select(data, 10)
        plain = fsca_select(data, 10)
        for j in range(10):
            assert lazy.ve_curve[j] == pytest.approx(plain.ve_curve[j], abs=0.1)

    def test_fewer_evaluations_than_full_rescan(self):
        data = random_dataset(500, 100, seed=21)
        k = 10
        lazy = lfsca_select(data, k)
        full_scan = sum(100 - j for j in range(k))
        assert lazy.eval_count < full_scan

    def test_orthogonal_identical_to_plain(self):
        scales = (0.9, 0.4, 1.3, 0.2, 0.7, 1.1, 0.3)
        data = orthogonal_dataset(8, scales=scales)
        assert lfsca_select(data, 7).order == fsca_select(data, 7).order


# =========================================================================
# FOS-MOD
# =========================================================================


class TestFosMod:
    def test_single_variable(self):
        data = random_dataset(20, 1, seed=22)
        assert fosmod_select(data, 1).order == (1,)

    def test_duplicated_direction_wins(self):
        # [DERIVED] a direction present twice has the highest average
        # squared correlation with the full variable set.
        rng = make_rng(23)
        x = rng.normal(size=(200, 5))
        x[:, 3] = x[:, 2] + 0.01 * rng.normal(size=200)
        data = center_columns(Dataset(x))
        result = fosmod_select(data, 1)
        assert result.order[0] in (3, 4)

    def test_sim1_first_pick_is_a_sum_variable(self):
        # The two engineered sum variables are symmetric by construction,
        # so which of the pair wins is a per-seed coin flip; the first pick
        # must always be one of them.
        firsts = [fosmod_select(centered_sim1(seed), 1).order[0] for seed in range(10)]
        assert all(first in (25, 26) for first in firsts)
        assert 25 in firsts

    def test_native_trace_matches_direct_average(self):
        # [DERIVED] step-1 score recomputed directly from the definition.
        data = random_dataset(40, 6, seed=25)
        result = fosmod_select(data, 1)
        chosen = result.order[0]
        r = data.column(chosen)
        total = 0.0
        for j in range(1, 7):
            x_j = data.column(j)
            total += float(x_j @ r) ** 2 / (float(x_j @ x_j) * float(r @ r))
        assert result.native_trace[0] == pytest.approx(total / 6.0, abs=1e-10)

    @pytest.mark.parametrize("data", REFERENCE_SHAPES)
    def test_order_matches_reference(self, data):
        result = fosmod_select(data, 12)
        order, trace = fosmod_reference(data, 12)
        assert result.order == order
        np.testing.assert_allclose(result.native_trace, trace, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("data, column", RESCALED_COLUMNS)
    def test_rescaled_column_matches_reference(self, data, column):
        for scale in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            scaled = rescaled(data, column, scale)
            assert fosmod_select(scaled, 8).order == fosmod_reference(scaled, 8)[0], scale


# =========================================================================
# PFS
# =========================================================================


class TestPfs:
    def test_orthogonal_matches_fsca(self):
        data = orthogonal_dataset(8, scales=(0.9, 0.4, 1.3, 0.2, 0.7, 1.1, 0.3))
        assert pfs_select(data, 7).order == fsca_select(data, 7).order

    def test_first_pick_correlates_with_svd_component(self):
        # [DERIVED] step 1 must agree with an SVD-based argmax.
        data = random_dataset(60, 9, seed=26)
        result = pfs_select(data, 1)
        u, s, _ = np.linalg.svd(data.values, full_matrices=False)
        p1 = u[:, 0] * s[0]
        corr = [
            abs(float(data.column(i) @ p1))
            / (np.linalg.norm(data.column(i)) * np.linalg.norm(p1))
            for i in range(1, 10)
        ]
        assert result.order[0] == int(np.argmax(corr)) + 1

    def test_sim2_ve_close_to_fsca(self):
        gaps = []
        for seed in range(10):
            data = centered_sim2(seed)
            gaps.append(
                fsca_select(data, 10).ve_curve[-1] - pfs_select(data, 10).ve_curve[-1]
            )
        assert abs(float(np.median(gaps))) <= 3.0

    def test_degenerate_top_eigenvalue_warns(self):
        # Orthogonal columns of equal norm: every direction in their span is
        # a first principal component, so no step's component is defined.
        result = pfs_select(orthogonal_dataset(8), 3)
        assert len(result.warnings) == 3
        for step, warning in enumerate(result.warnings, start=1):
            assert warning.startswith(
                f"step {step}: the residual's first principal component is ill-defined"
            )

    def test_close_singular_values_do_not_warn(self):
        # A singular-value ratio of 0.99 stopped NIPALS at its cap; the
        # relative eigengap 1 - 0.99^2 is far above sqrt(eps).
        data = near_degenerate_spectrum(0.99)
        result = pfs_select(data, 2)
        assert result.warnings == ()
        assert result.order == pfs_reference(data, 2)[0]

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(center_columns(gen_sim1(m=200, seed=0)), id="sim1-200-seed0"),
            pytest.param(center_columns(gen_sim1(m=200, seed=1)), id="sim1-200-seed1"),
            pytest.param(center_columns(gen_sim2(m=200, u=8, v=30, seed=0)), id="sim2-200x30-seed0"),
            pytest.param(center_columns(gen_sim2(m=200, u=8, v=30, seed=2)), id="sim2-200x30-seed2"),
            pytest.param(center_columns(gen_sim2(m=40, u=8, v=60, seed=3)), id="sim2-40x60-seed3"),
            # NIPALS stopped at its cap twice here, and its order left the
            # exact one at step 10.
            pytest.param(center_columns(gen_sim2(m=100, u=25, v=300, seed=2)), id="sim2-100x300-seed2"),
        ],
    )
    def test_order_matches_reference(self, data):
        result = pfs_select(data, 12)
        order, trace = pfs_reference(data, 12)
        assert result.order == order
        assert result.warnings == ()
        np.testing.assert_allclose(result.native_trace, trace, rtol=1e-12, atol=0.0)

    def test_one_column(self):
        # The residual is the 1 x 1 factor T, whose Gram has one eigenvalue.
        result = pfs_select(random_dataset(6, 1, seed=3), 1)
        assert (result.order, result.warnings) == ((1,), ())
        assert result.native_trace[0] == pytest.approx(1.0, abs=1e-15)


# =========================================================================
# FSCA, PFS and FOS-MOD on the triangular factor
# =========================================================================


def pfs_scores(x, r, warnings):
    # The top eigenvector of the smaller Gram: r r^T, as PFS takes it, or
    # r^T r with p = r w for a data-space residual taller than it is wide.
    tall = r.shape[0] > r.shape[1]
    gram = r.T @ r if tall else r @ r.T
    n = gram.shape[0]
    top = scipy.linalg.eigh(gram, subset_by_index=[n - 2, n - 1], check_finite=False)[1][:, -1]
    return component_correlations(r, r @ top if tall else top)


def nipals_pfs_scores(x, r, warnings):
    component = nipals_first_pc(r)
    if not component.converged:
        warnings.append(
            f"NIPALS stopped at {component.iterations} iterations without converging"
        )
    return component_correlations(r, component.scores)


def component_correlations(r, p1):
    sqnorms = np.einsum("ij,ij->j", r, r)
    return np.abs(p1 @ r) / np.sqrt(sqnorms * float(p1 @ p1))


def fosmod_scores(x, r, warnings):
    sqnorms = np.einsum("ij,ij->j", r, r)
    cross = r.T @ x
    inv_sqnorms = 1.0 / np.einsum("ij,ij->j", x, x)
    return (cross * cross) @ inv_sqnorms / (x.shape[1] * sqnorms)


def fsca_scores(x, r, warnings):
    # One product against the residual per column, as the FSCA gain
    # evaluates a candidate; the selected columns are zero and score NaN.
    energy = float(np.linalg.norm(x)) ** 2
    scores = np.full(r.shape[1], np.nan)
    for j in range(r.shape[1]):
        rr = float(r[:, j] @ r[:, j])
        if rr > 0.0:
            t = r[:, j] @ r
            scores[j] = 100.0 * float(t @ t) / (rr * energy)
    return scores


def data_space_run(data, k, scores):
    """A plain greedy loop over the m x v residual: ``scores`` of every
    column, the first best unselected one, a deflation by it.  Returns the
    order, evaluation count, warnings, native trace and VE curve."""
    x = data.values
    r = x.copy()
    energy = float(np.linalg.norm(x)) ** 2
    order, trace, ve, warnings = [], [], [], []
    captured = 0.0
    for _ in range(k):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = scores(x, r, warnings)
        step[[i - 1 for i in order]] = -np.inf
        pick = int(np.argmax(step))
        order.append(pick + 1)
        trace.append(float(step[pick]))
        rr, coeffs = deflate_in_place(r, pick)
        captured += rr * float(coeffs @ coeffs)
        ve.append(min(max(100.0 * captured / energy, 0.0), 100.0))
    evals = sum(data.v - step for step in range(k))
    return tuple(order), evals, tuple(warnings), trace, ve


DATA_SPACE = [
    pytest.param(fsca_select, fsca_scores, id="fsca"),
    pytest.param(pfs_select, pfs_scores, id="pfs"),
    pytest.param(fosmod_select, fosmod_scores, id="fosmod"),
]


class TestTriangularFactor:
    """With m > v, FSCA, PFS and FOS-MOD run on the v x v triangular factor
    of the data; their results equal the data-space computation's."""

    @pytest.mark.parametrize("select, scores", DATA_SPACE)
    @pytest.mark.parametrize(
        "m, u, v, k, seed",
        [(200, 8, 30, 20, s) for s in range(4)] + [(300, 10, 40, 20, 2), (1000, 25, 50, 30, 0)],
    )
    def test_matches_data_space(self, select, scores, m, u, v, k, seed):
        data = center_columns(gen_sim2(m=m, u=u, v=v, seed=seed))
        order, evals, warnings, trace, ve = data_space_run(data, k, scores)
        result = select(data, k)
        assert result.order == order
        assert result.eval_count == evals
        assert result.warnings == warnings
        np.testing.assert_allclose(result.native_trace, trace, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.ve_curve.values, ve, rtol=1e-12, atol=0.0)

    def test_nipals_cap_reached(self):
        # Seed 0 of the 200 x 30 shape above: NIPALS stops at its cap twice.
        data = center_columns(gen_sim2(m=200, u=8, v=30, seed=0))
        warnings = data_space_run(data, 20, nipals_pfs_scores)[2]
        assert warnings.count("NIPALS stopped at 500 iterations without converging") == 2

    @pytest.mark.parametrize("select, scores", DATA_SPACE)
    def test_wide_path_unchanged(self, select, scores):
        data = center_columns(gen_sim2(m=40, u=8, v=60, seed=3))
        order, evals, warnings, trace, ve = data_space_run(data, 15, scores)
        result = select(data, 15)
        assert (result.order, result.eval_count, result.warnings) == (order, evals, warnings)
        assert result.native_trace == tuple(trace)
        assert result.ve_curve.values == tuple(ve)


# =========================================================================
# The shared rank test: candidacy is per column
# =========================================================================


class TestRankTest:
    @pytest.mark.parametrize("name", EXCLUDING)
    def test_tiny_independent_column_is_selected(self, name):
        # Column 4 at 1e-12 of the others is independent by the per-column
        # test that variance_explained applies, so it is a candidate.
        values = np.random.default_rng(0).normal(size=(50, 4))
        values -= values.mean(axis=0)
        values[:, 3] *= 1e-12
        data = Dataset(values, centered=True)
        assert variance_explained(data, (1, 2, 3, 4)) == pytest.approx(100.0)
        result = ALGORITHMS[name](data, 4)
        assert sorted(result.order) == [1, 2, 3, 4]
        assert result.warnings == ()

    @pytest.mark.parametrize("name", EXCLUDING + ("fsfp-fsca", "ufs"))
    @pytest.mark.parametrize("data, column", RESCALED_COLUMNS)
    def test_order_invariant_to_one_column_scale(self, name, data, column):
        select = ALGORITHMS[name]
        expected = select(rescaled(data, column, 1e-6), 8).order
        for scale in (1e-8, 1e-9, 1e-10, 1e-12, 1e-14):
            assert select(rescaled(data, column, scale), 8).order == expected, scale

    def test_fosmod_never_picks_a_zero_column(self):
        values = random_dataset(30, 5, seed=39).values.copy()
        values[:, 2] = 0.0
        result = fosmod_select(Dataset(values, centered=True), 5)
        assert sorted(result.order) == [1, 2, 4, 5]
        assert result.warnings == (EXHAUSTED,)

    @pytest.mark.parametrize("constant", [1000.1, 0.1])
    def test_constant_column(self, constant):
        # A constant column centres to exact zeros: the unit-norm selectors
        # reject it by name, and the others never pick it (ITFS would score
        # it s^2 / s^2 = 1, above every column once sim1's factors are in).
        values = gen_sim1(m=1000, seed=0).values.copy()
        values[:, 5] = constant
        data = center_columns(Dataset(values))
        for select in (fsfp_fsca_select, ufs_select):
            with pytest.raises(ZeroColumn) as info:
                select(data, 5)
            assert info.value.index == 6
        for name in EXCLUDING + ("itfs",):
            result = ALGORITHMS[name](data, 26)
            assert 6 not in result.order and len(result.order) == 25

    def test_idle_pick_reported_with_early_stop(self):
        # Noise-free sim2 has rank 3, and the constant ninth column is never
        # a candidate: ITFS makes the same 8 picks at k=9 as at k=8, picks
        # 4-8 add nothing, and at k=9 it also runs out of candidates.
        x = gen_sim2(100, 3, 8, seed=0, noise_sd=0.0).values
        data = center_columns(Dataset(np.column_stack([x, np.full(100, 2.5)])))
        full = itfs_select(data, 8)
        stopped = itfs_select(data, 9)
        assert stopped.order == full.order and len(full.order) == 8
        assert full.warnings == (idle_pick(4),)
        assert stopped.warnings == (EXHAUSTED, idle_pick(4))


# =========================================================================
# ITFS
# =========================================================================


def mirrored_blocks_dataset():
    """Six variables in two disjoint blocks with bitwise-identical structure.

    Columns use antisymmetric row pairs so they are exactly mean-zero, and
    the blocks live on disjoint row ranges so all cross-block inner products
    are exactly zero: the resulting covariance is exactly block-diagonal
    with bitwise-equal blocks, forcing exact score ties between variable i
    and variable i+3.
    """
    q = np.array(
        [
            [0.3, -0.7],
            [-0.3, 0.7],
            [0.9, 0.2],
            [-0.9, -0.2],
        ]
    )
    hub = q[:, 0] + q[:, 1] + np.array([0.05, -0.05, -0.02, 0.02])
    block = np.column_stack([hub, q])
    x = np.zeros((8, 6))
    x[:4, :3] = block
    x[4:, 3:] = block
    return Dataset(x, centered=True)


class TestItfs:
    def test_mirrored_tie_takes_lowest_index(self):
        result = itfs_select(mirrored_blocks_dataset(), 4, sigma=0.1)
        assert result.order[0] == 1
        assert result.order[1] == 4
        # The step-2 refresh of the mirror twin reproduces the step-1 score
        # up to factorization round-off.
        assert result.native_trace[0] == pytest.approx(result.native_trace[1], rel=1e-9)

    def test_matches_naive_per_step_argmax(self):
        # [DERIVED] the greedy loop over the ratio restated from its definition.
        data = random_dataset(50, 6, seed=27)
        assert itfs_select(data, 3, sigma=0.05).order == itfs_reference(data, 3, 0.05)[0]

    def test_native_trace_matches_public_metric(self):
        data = random_dataset(60, 7, seed=28)
        result = itfs_select(data, 5, sigma=0.1)
        order, scores = itfs_reference(data, 5, 0.1)
        assert result.order == order
        picked = scores[np.arange(len(order)), np.subtract(order, 1)]
        np.testing.assert_allclose(result.native_trace, picked, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("sigma", [None, 0.05], ids=["default-sigma", "sigma-0.05"])
    @pytest.mark.parametrize(
        "data, k",
        [
            *(
                pytest.param(random_dataset(60, 6, seed=seed), 5, id=f"random-60x6-seed{seed}")
                for seed in range(4)
            ),
            *(
                pytest.param(center_columns(gen_sim1(m=200, seed=seed)), 12, id=f"sim1-200-seed{seed}")
                for seed in range(2)
            ),
            *(
                pytest.param(
                    center_columns(gen_sim2(m=300, u=10, v=40, seed=seed)), 12,
                    id=f"sim2-300x40-seed{seed}",
                )
                for seed in range(2)
            ),
            # Rank 4: picks past the rank add no variance, and sigma alone
            # keeps every block positive definite.
            *(
                pytest.param(
                    center_columns(gen_sim2(m=300, u=4, v=16, seed=seed, noise_sd=0.0)), 10,
                    id=f"noise-free-sim2-u4-v16-seed{seed}",
                )
                for seed in range(2)
            ),
            *(
                pytest.param(
                    center_columns(gen_sim2(m=80, u=10, v=120, seed=seed)), 12,
                    id=f"sim2-80x120-seed{seed}",
                )
                for seed in range(2)
            ),
        ],
    )
    def test_order_matches_reference(self, data, k, sigma):
        result = itfs_select(data, k, sigma=sigma)
        order, scores = itfs_reference(data, k, sigma)
        assert result.order == order
        picked = scores[np.arange(len(order)), np.subtract(order, 1)]
        np.testing.assert_allclose(result.native_trace, picked, rtol=1e-10, atol=0.0)

    def test_row_permutation_invariance(self):
        data = random_dataset(40, 6, seed=29)
        perm = make_rng(30).permutation(40)
        shuffled = Dataset(data.values[perm], centered=True)
        assert itfs_select(data, 4, sigma=0.1).order == itfs_select(shuffled, 4, sigma=0.1).order

    def test_sigma_must_be_positive(self):
        data = random_dataset(20, 4, seed=31)
        with pytest.raises(ValueError):
            itfs_select(data, 2, sigma=0.0)
        with pytest.raises(ValueError):
            itfs_select(data, 2, sigma=-0.5)

    def test_default_sigma_used(self):
        data = random_dataset(30, 5, seed=32)
        explicit = 0.01 * math.sqrt(float(np.mean(np.diag(data.values.T @ data.values / 30))))
        assert itfs_select(data, 3).order == itfs_select(data, 3, sigma=explicit).order

    @pytest.mark.parametrize("m, v", [(40, 60), (200, 30)], ids=["wide", "tall"])
    @pytest.mark.parametrize("k, tau", [(12, None), (None, 99.0)], ids=["cardinality", "tau"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_unselected_block_inverse(self, m, v, k, tau, seed):
        # The denominators from the precision matrix against the route they
        # replaced: one Cholesky inverse of the unselected block A_UU per step.
        class UnselectedBlockInverse(_ItfsGain):
            def step_scores(self, selected):
                model = self.model
                unsel = np.setdiff1d(np.arange(model.v), selected)
                denominators = 1.0 / np.diag(spd_inverse(model.block(unsel)))
                scores = np.full(model.v, EXCLUDED)
                scores[unsel] = conditional_variances(model, selected, unsel) / denominators
                return scores

        data = center_columns(gen_sim2(m=m, u=10, v=v, seed=seed))
        result = itfs_select(data, k, tau=tau)
        expected = _select("itfs", data, k, tau, lambda: UnselectedBlockInverse(data, None))
        assert result.order == expected.order
        assert result.eval_count == expected.eval_count
        assert result.warnings == expected.warnings
        np.testing.assert_allclose(result.native_trace, expected.native_trace, rtol=1e-10)

    def test_sigma_below_round_off_raises(self):
        # Noise-free sim2 has rank 10; at sigma = 1e-7 the unselected block
        # fails Cholesky, and no jitter may replace the requested sigma.
        data = center_columns(gen_sim2(m=300, u=10, v=40, seed=7, noise_sd=0.0))
        with pytest.raises(SingularCovariance, match="regularized covariance is singular"):
            itfs_select(data, 12, sigma=1e-7)


# =========================================================================
# FSFP-FSCA
# =========================================================================


class TestFsfpFsca:
    def test_first_pick_equals_fsca_first(self):
        for seed in range(5):
            data = random_dataset(40, 8, seed=seed)
            unit = normalize_unit(data)
            assert fsfp_fsca_select(data, 4).order[0] == fsca_select(unit, 1).order[0]

    def test_nonpositive_threshold_selects_nothing(self):
        # As for the other threshold-mode selectors: the empty selection
        # already explains 0%.
        data = random_dataset(30, 5, seed=38)
        for tau in (0.0, -1.0):
            result = fsfp_fsca_select(data, tau=tau)
            assert (result.order, result.native_trace, result.eval_count) == ((), (), 0)

    def test_orthonormal_ascends_after_first(self):
        data = orthonormal_dataset(7)
        result = fsfp_fsca_select(data, 7)
        assert result.order == (1, 2, 3, 4, 5, 6, 7)

    def test_matches_naive_fp_argmin(self):
        # [DERIVED] steps 2..k against a per-candidate frame-potential scan.
        data = random_dataset(50, 7, seed=33)
        result = fsfp_fsca_select(data, 5)
        unit = normalize_unit(data)
        selected = [result.order[0]]
        for _ in range(4):
            best, best_fp = None, math.inf
            for cand in range(1, 8):
                if cand in selected:
                    continue
                fp = frame_potential(unit, tuple(selected) + (cand,))
                if fp < best_fp:
                    best, best_fp = cand, fp
            selected.append(best)
        assert result.order == tuple(selected)

    def test_native_trace_is_frame_potential(self):
        data = random_dataset(40, 6, seed=34)
        result = fsfp_fsca_select(data, 4)
        unit = normalize_unit(data)
        for j in range(1, 5):
            expected = frame_potential(unit, result.order[:j])
            assert result.native_trace[j - 1] == pytest.approx(expected, abs=1e-10)

    def test_lazy_engine_identical(self):
        for seed in range(10):
            data = random_dataset(60, 10, seed=seed)
            greedy = fsfp_fsca_select(data, 6)
            lazy = lazy_select("fsfp-fsca", data, 6)
            assert greedy.order == lazy.order

    def test_column_scaling_invariance(self):
        data = random_dataset(40, 6, seed=35)
        scales = make_rng(36).uniform(0.5, 3.0, size=6)
        scaled = Dataset(data.values * scales, centered=True)
        assert fsfp_fsca_select(data, 4).order == fsfp_fsca_select(scaled, 4).order

    def test_sim2_fp_near_reference(self):
        values = []
        for seed in range(10):
            result = fsfp_fsca_select(centered_sim2(seed), 5)
            values.append(result.native_trace[-1])
        median = float(np.median(values))
        assert median == pytest.approx(5.02, rel=0.10)


# =========================================================================
# UFS
# =========================================================================


def naive_ufs(data, k):
    """Literal re-derivation: pair by min |gram|, then min projection R^2."""
    unit = normalize_unit(data)
    gram = unit.values.T @ unit.values
    v = data.v
    best = None
    for i in range(v):
        for j in range(i + 1, v):
            if best is None or abs(gram[i, j]) < best[0]:
                best = (abs(gram[i, j]), i + 1, j + 1)
    selected = [best[1], best[2]]
    for _ in range(k - 2):
        basis = unit.values[:, [s - 1 for s in selected]]
        q, _ = np.linalg.qr(basis)
        best_cand, best_r2 = None, math.inf
        for cand in range(1, v + 1):
            if cand in selected:
                continue
            r2 = float(np.sum((q.T @ unit.column(cand)) ** 2))
            if r2 < best_r2:
                best_cand, best_r2 = cand, r2
        selected.append(best_cand)
    return tuple(selected)


class TestUfs:
    def test_dependent_warm_start_pair(self):
        # Rank-one data: every pair is dependent, so the warm start's second
        # column adds nothing and no third column is a candidate.
        a = make_rng(36).normal(size=30)
        a -= a.mean()
        data = Dataset(np.column_stack([a, -2.0 * a, 3.0 * a]), centered=True)
        pair = ufs_select(data, 2)
        assert len(pair.order) == 2 and pair.eval_count == 0
        assert pair.warnings == (idle_pick(2),)
        stopped = ufs_select(data, 3)
        assert stopped.order == pair.order
        assert stopped.warnings == (EXHAUSTED, idle_pick(2))

    def test_hand_gram_first_pair(self):
        # [DERIVED] |Q| off-diagonals 0.9, 0.1, 0.5: the 0.1 entry wins.
        gram = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.5], [0.1, 0.5, 1.0]])
        data = dataset_from_gram(gram)
        result = ufs_select(data, 3)
        assert result.order[:2] == (1, 3)

    def test_orthonormal_ascends_after_pair(self):
        data = orthonormal_dataset(7)
        result = ufs_select(data, 7)
        assert result.order == (1, 2, 3, 4, 5, 6, 7)
        assert all(value == 0.0 for value in result.native_trace)

    def test_matches_naive_rederivation(self):
        for seed in range(8):
            data = random_dataset(40, 8, seed=seed)
            assert ufs_select(data, 6).order == naive_ufs(data, 6)

    def test_rebuild_basis_agrees(self):
        # The incremental R^2 against a basis rebuilt from scratch each step.
        for seed in range(5):
            data = random_dataset(50, 10, seed=seed)
            fast = ufs_select(data, 7)
            unit = normalize_unit(data).values
            selected = [i - 1 for i in fast.order[:2]]
            native = list(fast.native_trace[:2])
            for _ in range(5):
                basis = basis_of(unit[:, selected])
                projections = basis.columns.T @ unit
                r_squared = np.einsum("ij,ij->j", projections, projections)
                r_squared[selected] = np.inf
                best = int(np.argmin(r_squared))
                selected.append(best)
                native.append(float(r_squared[best]))
            assert fast.order == tuple(i + 1 for i in selected)
            np.testing.assert_allclose(fast.native_trace, native, atol=1e-8)

    def test_lazy_engine_identical(self):
        for seed in range(10):
            data = random_dataset(60, 10, seed=seed)
            greedy = ufs_select(data, 6)
            lazy = lazy_select("ufs", data, 6)
            assert greedy.order == lazy.order

    def test_dependent_column_stops_at_rank(self):
        rng = make_rng(37)
        x = rng.normal(size=(30, 4))
        x[:, 2] = x[:, 0] + x[:, 1]
        x -= x.mean(axis=0)
        data = Dataset(x, centered=True)
        for result in (ufs_select(data, 4), lazy_select("ufs", data, 4)):
            assert len(result.order) == 3
            assert result.warnings == (EXHAUSTED,)
            assert result.ve_curve[-1] == pytest.approx(100.0, abs=1e-9)

    def test_column_scaling_invariance(self):
        # The second input scales UFS's first pick, column 16, by 1e-10: the
        # rank test must compare each residual column with its own norm.
        sim2 = center_columns(gen_sim2(m=300, u=10, v=40, seed=7))
        cases = [
            (random_dataset(40, 7, seed=38), make_rng(39).uniform(0.5, 3.0, size=7), 5),
            (sim2, np.where(np.arange(40) == 15, 1e-10, 1.0), 12),
        ]
        for data, scales, k in cases:
            scaled = Dataset(data.values * scales, centered=True)
            assert ufs_select(data, k).order == ufs_select(scaled, k).order

    def test_requires_at_least_two(self):
        with pytest.raises(ValueError):
            ufs_select(random_dataset(20, 5, seed=40), 1)
        with pytest.raises(ValueError):
            ufs_select(random_dataset(20, 1, seed=41), 2)

    def test_native_trace_pair_then_r2(self):
        data = random_dataset(40, 6, seed=42)
        unit = normalize_unit(data)
        result = ufs_select(data, 4)
        i, j = result.order[0] - 1, result.order[1] - 1
        gram = unit.values.T @ unit.values
        assert result.native_trace[0] == pytest.approx(abs(gram[i, j]), abs=1e-12)
        assert result.native_trace[0] == result.native_trace[1]
        basis = unit.values[:, [i, j]]
        q, _ = np.linalg.qr(basis)
        expected_r2 = float(np.sum((q.T @ unit.column(result.order[2])) ** 2))
        assert result.native_trace[2] == pytest.approx(expected_r2, abs=1e-8)
