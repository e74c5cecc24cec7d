"""Seeded synthetic dataset generators."""

from __future__ import annotations

import numpy as np
import pytest

from varsel import (
    SimSpec,
    center_columns,
    dataset_from_spec,
    gen_sim1,
    gen_sim2,
    variance_explained,
)
from varsel.simgen import _uniform_rng, standard_normals

import reference


# =========================================================================
# Normal sampling
# =========================================================================


class TestStandardNormals:
    def test_deterministic(self):
        a = standard_normals(_uniform_rng(7), (50, 3))
        b = standard_normals(_uniform_rng(7), (50, 3))
        np.testing.assert_array_equal(a, b)

    def test_shapes(self):
        assert standard_normals(_uniform_rng(0), (10, 4)).shape == (10, 4)
        assert standard_normals(_uniform_rng(0), (7,)).shape == (7,)
        assert standard_normals(_uniform_rng(0), (5, 3, 2)).shape == (5, 3, 2)

    def test_odd_element_count(self):
        assert standard_normals(_uniform_rng(1), (9,)).shape == (9,)

    def test_moments(self):
        draws = standard_normals(_uniform_rng(2), (200_000,))
        assert float(draws.mean()) == pytest.approx(0.0, abs=0.02)
        assert float(draws.std()) == pytest.approx(1.0, abs=0.02)
        # Tail sanity: ~2.3% beyond two standard deviations each side.
        frac = float(np.mean(np.abs(draws) > 2.0))
        assert frac == pytest.approx(0.0455, abs=0.005)

    def test_finite(self):
        draws = standard_normals(_uniform_rng(3), (100_000,))
        assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("shape", [(), (1,), (9,), (10, 4), (5, 3, 2), (5000, 7)])
    def test_stream_matches_reference(self, shape):
        # Bit for bit, and the generator is left at the same point.
        rng, ref_rng = _uniform_rng(11), _uniform_rng(11)
        expected = reference.standard_normals(ref_rng, shape)
        assert np.array_equal(standard_normals(rng, shape), expected)
        assert rng.random() == ref_rng.random()


# =========================================================================
# Simulated dataset 1: four correlated blocks plus two sums
# =========================================================================


class TestSim1:
    def test_shape_and_labels(self):
        data = gen_sim1(m=500, seed=0)
        assert (data.m, data.v) == (500, 26)
        assert data.labels[:7] == ("w", "w1", "w2", "w3", "w4", "w5", "x")
        assert data.labels[24:] == ("h1", "h2")
        assert not data.centered

    def test_same_seed_identical(self):
        np.testing.assert_array_equal(gen_sim1(seed=5).values, gen_sim1(seed=5).values)

    def test_different_seeds_differ(self):
        assert not np.array_equal(gen_sim1(seed=1).values, gen_sim1(seed=2).values)

    def test_child_parent_correlation(self):
        # [DERIVED] child = parent + N(0, 0.1): corr = 1/sqrt(1.01) ~ 0.995.
        expected = 1.0 / np.sqrt(1.01)
        for seed in range(3):
            data = gen_sim1(m=1000, seed=seed)
            w = data.column(1)
            for child_index in range(2, 7):
                child = data.column(child_index)
                corr = float(np.corrcoef(w, child)[0, 1])
                assert corr == pytest.approx(expected, abs=0.01)

    def test_sum_variable_construction(self):
        # h1 = w + x + N(0, 0.4): corr(h1, w + x) = sqrt(2/2.16) ~ 0.962.
        data = gen_sim1(m=1000, seed=3)
        w, x = data.column(1), data.column(7)
        h1 = data.column(25)
        corr = float(np.corrcoef(w + x, h1)[0, 1])
        assert corr == pytest.approx(np.sqrt(2.0 / 2.16), abs=0.02)
        h2 = data.column(26)
        y, z = data.column(13), data.column(19)
        corr2 = float(np.corrcoef(y + z, h2)[0, 1])
        assert corr2 == pytest.approx(np.sqrt(2.0 / 2.16), abs=0.02)

    def test_blocks_mutually_independent(self):
        data = gen_sim1(m=1000, seed=4)
        w, y = data.column(1), data.column(13)
        assert abs(float(np.corrcoef(w, y)[0, 1])) < 0.1

    def test_m_validation(self):
        with pytest.raises(ValueError):
            gen_sim1(m=1)

    @pytest.mark.parametrize("m, seed", [(2, 0), (3, 1), (1000, 2), (5000, 3)])
    def test_values_match_reference_stream(self, monkeypatch, m, seed):
        expected = gen_sim1(m=m, seed=seed).values
        monkeypatch.setattr("varsel.simgen.standard_normals", reference.standard_normals)
        assert np.array_equal(gen_sim1(m=m, seed=seed).values, expected)


# =========================================================================
# Simulated dataset 2: independent block mixed into dependent block
# =========================================================================


class TestSim2:
    def test_shape_and_labels(self):
        data = gen_sim2(m=300, u=10, v=25, seed=0)
        assert (data.m, data.v) == (300, 25)
        assert data.labels[0] == "I1"
        assert data.labels[9] == "I10"
        assert data.labels[10] == "D1"
        assert data.labels[24] == "D15"

    def test_same_seed_identical(self):
        a = gen_sim2(m=200, u=5, v=12, seed=9)
        b = gen_sim2(m=200, u=5, v=12, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_independent_block_explains_everything(self):
        # [DERIVED] dependent columns are mixtures of the first u plus noise.
        data = center_columns(gen_sim2(m=500, u=8, v=20, seed=1))
        ve = variance_explained(data, tuple(range(1, 9)))
        assert ve >= 99.0

    def test_zero_noise_exact_dependence(self):
        data = center_columns(gen_sim2(m=400, u=6, v=15, seed=2, noise_sd=0.0))
        ve = variance_explained(data, tuple(range(1, 7)))
        assert ve == pytest.approx(100.0, abs=1e-6)

    @pytest.mark.parametrize(
        "m, u, v, seed, noise_sd",
        [
            (2000, 25, 150, 0, 0.1),   # the tall, wide, csv and oracle benchmark shapes
            (250, 50, 600, 1, 0.1),
            (5000, 25, 200, 2, 0.1),
            (500, 6, 16, 3, 0.1),
            (500, 4, 12, 35, 0.1),
            (7, 2, 5, 4, 0.3),         # odd element counts
            (9, 3, 4, 5, 0.0),
        ],
    )
    def test_values_match_reference(self, m, u, v, seed, noise_sd):
        data = gen_sim2(m=m, u=u, v=v, seed=seed, noise_sd=noise_sd)
        assert np.array_equal(data.values, reference.gen_sim2_values(m, u, v, seed, noise_sd))

    def test_u_v_validation(self):
        with pytest.raises(ValueError):
            gen_sim2(u=10, v=10)
        with pytest.raises(ValueError):
            gen_sim2(u=0, v=10)


# =========================================================================
# Declarative specs
# =========================================================================


class TestSimSpec:
    def test_sim1_default(self):
        spec = SimSpec(family="sim1", m=400, seed=11)
        data = dataset_from_spec(spec)
        np.testing.assert_array_equal(data.values, gen_sim1(m=400, seed=11).values)

    def test_sim2_params(self):
        spec = SimSpec(family="sim2", m=200, seed=3, params={"u": 6, "v": 14, "noise_sd": 0.2})
        data = dataset_from_spec(spec)
        expected = gen_sim2(m=200, u=6, v=14, seed=3, noise_sd=0.2)
        np.testing.assert_array_equal(data.values, expected.values)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            SimSpec(family="sim9")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            SimSpec(family="sim1", params={"u": 3})
        with pytest.raises(ValueError):
            SimSpec(family="sim2", params={"width": 3})
