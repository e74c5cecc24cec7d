"""Data substrate: preprocessing, deflation against the reference projection, CSV I/O."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsel import (
    Dataset,
    EmptyFile,
    IndexSets,
    ParseError,
    RaggedRows,
    RankDeficient,
    ZeroColumn,
    center_columns,
    load_csv,
    normalize_unit,
    save_csv,
)
from varsel.dataset import dataset_from_gram

from conftest import deflated, make_rng, random_dataset
from reference import project_onto


# =========================================================================
# Dataset construction
# =========================================================================


class TestDataset:
    def test_shape_and_access(self):
        data = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert (data.m, data.v) == (3, 2)
        np.testing.assert_array_equal(data.column(2), [2.0, 4.0, 6.0])

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            Dataset([[1.0, 2.0]])

    def test_requires_one_column(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((3, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset([[1.0, np.nan], [2.0, 3.0]])

    def test_rejects_false_centered_flag(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], centered=True)

    def test_rejects_false_unit_norm_flag(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], unit_norm=True)

    def test_values_read_only(self):
        data = Dataset([[1.0], [2.0]])
        with pytest.raises(ValueError):
            data.values[0, 0] = 9.0

    def test_input_copy_detached(self):
        raw = np.array([[1.0], [2.0]])
        data = Dataset(raw)
        raw[0, 0] = 77.0
        assert data.values[0, 0] == 1.0

    def test_labels(self):
        data = Dataset([[1.0, 2.0], [3.0, 4.0]], labels=("a", "b"))
        assert data.label_for(2) == "b"

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([[1.0, 2.0], [3.0, 4.0]], labels=("a",))


class TestIndexSets:
    def test_partition(self):
        sets = IndexSets.from_selected((3, 1), 4)
        assert sets.selected == (3, 1)
        assert sets.unselected == frozenset({2, 4})
        assert sets.k == 2 and sets.v == 4

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            IndexSets.from_selected((1, 1), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IndexSets.from_selected((5,), 3)


# =========================================================================
# Preprocessing
# =========================================================================


class TestCenterColumns:
    def test_small_example(self):
        data = center_columns(Dataset([[1.0, 3.0], [3.0, 5.0]]))
        np.testing.assert_allclose(data.values, [[-1.0, -1.0], [1.0, 1.0]])
        assert data.centered

    def test_idempotent(self):
        once = center_columns(random_dataset(10, 3, seed=1, centered=False))
        twice = center_columns(once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_constant_column_becomes_zero(self):
        data = center_columns(Dataset([[7.0], [7.0], [7.0]]))
        np.testing.assert_array_equal(data.values, np.zeros((3, 1)))
        # Beside other columns the mean's round-off grows with the rows; a
        # constant column must still centre to exact zeros, not to a
        # constant vector (nor fail the centred-flag check).
        for constant, m in ((12345.678, 5000), (100000.7, 1000), (100000.7, 5000),
                            (1e6 + 0.1, 100), (1e6 + 0.1, 1000), (0.1, 1000)):
            values = make_rng(m).normal(size=(m, 3))
            values[:, 1] = constant
            values[-1, 2] = values[0, 2]
            data = center_columns(Dataset(values))
            np.testing.assert_array_equal(data.values[:, 1], np.zeros(m))
            assert np.ptp(data.values[:, 2]) > 0.0

    def test_original_unmodified(self):
        raw = Dataset([[1.0, 3.0], [3.0, 5.0]])
        center_columns(raw)
        np.testing.assert_array_equal(raw.values, [[1.0, 3.0], [3.0, 5.0]])


class TestNormalizeUnit:
    def test_small_example(self):
        data = normalize_unit(Dataset([[3.0], [4.0]]))
        np.testing.assert_allclose(data.values, [[0.6], [0.8]])
        assert data.unit_norm

    def test_idempotent(self):
        once = normalize_unit(random_dataset(8, 4, seed=2, centered=False))
        twice = normalize_unit(once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_zero_column_raises(self):
        with pytest.raises(ZeroColumn) as info:
            normalize_unit(Dataset([[1.0, 0.0], [2.0, 0.0]]))
        assert "2" in str(info.value)

    def test_preserves_centered_flag(self):
        data = normalize_unit(center_columns(random_dataset(8, 3, seed=3, centered=False)))
        assert data.centered and data.unit_norm


# =========================================================================
# Projection
# =========================================================================


class TestProjectOnto:
    """The reference projection that deflation is checked against (60-digit
    normal equations, ``tests/reference.py``)."""

    def test_full_span_returns_data(self):
        data = random_dataset(12, 4, seed=4)
        xhat = project_onto(data, (1, 2, 3, 4))
        np.testing.assert_allclose(xhat, data.values, atol=1e-8)

    def test_orthogonal_single_column(self):
        rng = make_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(10, 3)))
        data = Dataset(q)
        xhat = project_onto(data, (1,))
        np.testing.assert_allclose(xhat[:, 0], q[:, 0], atol=1e-10)
        np.testing.assert_allclose(xhat[:, 1:], 0.0, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        # [DERIVED] column-wise least squares through an independent solve.
        data = random_dataset(6, 4, seed=6)
        xhat = project_onto(data, (1, 3))
        basis = data.values[:, [0, 2]]
        coeffs, *_ = np.linalg.lstsq(basis, data.values, rcond=None)
        np.testing.assert_allclose(xhat, basis @ coeffs, atol=1e-8)

    def test_residual_orthogonal_to_selection(self):
        data = random_dataset(20, 6, seed=7)
        sel = (2, 5)
        xhat = project_onto(data, sel)
        residual = data.values - xhat
        basis = data.values[:, [1, 4]]
        assert np.abs(residual.T @ basis).max() <= 1e-8 * np.linalg.norm(data.values) ** 2

    def test_rank_deficient(self):
        x = make_rng(8).normal(size=(10, 2))
        dup = np.column_stack([x[:, 0], x[:, 0], x[:, 1]])
        data = center_columns(Dataset(dup))
        with pytest.raises(RankDeficient):
            project_onto(data, (1, 2))

    def test_idempotence(self):
        data = random_dataset(15, 5, seed=9)
        xhat = project_onto(data, (1, 4))
        again = project_onto(Dataset(xhat), (1, 4))
        np.testing.assert_allclose(again, xhat, atol=1e-8)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            project_onto(random_dataset(5, 3, seed=10), ())


# =========================================================================
# Deflation
# =========================================================================


class TestDeflate:
    def test_pivot_column_zeroed(self):
        out = deflated(random_dataset(10, 4, seed=11), (3,))
        np.testing.assert_array_equal(out[:, 2], 0.0)

    def test_orthogonal_columns_untouched(self):
        q, _ = np.linalg.qr(make_rng(12).normal(size=(10, 4)))
        out = deflated(Dataset(q), (2,))
        np.testing.assert_allclose(out[:, [0, 2, 3]], q[:, [0, 2, 3]], atol=1e-12)

    def test_sequence_matches_projection(self):
        # [DERIVED] sequential deflation equals one-shot projection residual.
        data = random_dataset(12, 6, seed=13)
        residual = deflated(data, (2, 5))
        expected = data.values - project_onto(data, (2, 5))
        np.testing.assert_allclose(residual, expected, atol=1e-8)

    def test_final_residual_order_independent(self):
        data = random_dataset(15, 7, seed=16)
        orders = [(1, 4, 6), (6, 1, 4), (4, 6, 1)]
        finals = [deflated(data, order) for order in orders]
        expected = data.values - project_onto(data, (1, 4, 6))
        for final in finals:
            np.testing.assert_allclose(final, expected, atol=1e-7)

    def test_residual_orthogonal_to_deflated(self):
        data = random_dataset(20, 5, seed=17)
        residual = deflated(data, (2, 4))
        tol = 1e-8 * np.linalg.norm(data.values) ** 2
        for j in (2, 4):
            assert np.abs(residual.T @ data.values[:, j - 1]).max() <= tol


# =========================================================================
# Gram-based construction
# =========================================================================


class TestDatasetFromGram:
    def test_reproduces_gram(self):
        gram = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.5], [0.1, 0.5, 1.0]])
        data = dataset_from_gram(gram)
        np.testing.assert_allclose(data.values.T @ data.values, gram, atol=1e-10)
        assert data.centered and data.unit_norm

    def test_non_unit_diagonal(self):
        gram = np.array([[4.0, 1.0], [1.0, 2.0]])
        data = dataset_from_gram(gram)
        np.testing.assert_allclose(data.values.T @ data.values, gram, atol=1e-10)
        assert not data.unit_norm

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_gram(np.array([[1.0, 0.5], [0.2, 1.0]]))


# =========================================================================
# CSV round trip
# =========================================================================


class TestCsv:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5,2\n3,4.25\n")
        data = load_csv(path)
        np.testing.assert_allclose(data.values, [[1.5, 2.0], [3.0, 4.25]])
        assert not data.centered

    def test_header_labels(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        data = load_csv(path, has_header=True)
        assert data.labels == ("a", "b")

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_text("1.0,2\n3,4\n", encoding="utf-8-sig")
        np.testing.assert_allclose(load_csv(path).values, [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("a,b\n1,2\n3,4\n", encoding="utf-8-sig")
        assert load_csv(path, has_header=True).labels == ("a", "b")

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nNaN,4\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 2 and info.value.col == 1

    def test_unparseable_cell(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("1,2\n3,spam\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 2 and info.value.col == 2

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(RaggedRows):
            load_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text("# provenance note\na,b\n1,2\n3,4\n")
        data = load_csv(path, has_header=True)
        assert data.labels == ("a", "b")
        assert data.m == 2

    def test_round_trip(self, tmp_path):
        data = Dataset(make_rng(18).normal(size=(5, 3)), labels=("p", "q", "r"))
        path = tmp_path / "roundtrip.csv"
        save_csv(data, path, comment="round trip")
        back = load_csv(path, has_header=True)
        np.testing.assert_array_equal(back.values, data.values)
        assert back.labels == data.labels


# =========================================================================
# Property tests
# =========================================================================


matrix_strategy = st.integers(min_value=0, max_value=2**31 - 1)


class TestProperties:
    @given(seed=matrix_strategy)
    @settings(max_examples=25, deadline=None)
    def test_center_idempotent(self, seed):
        data = center_columns(random_dataset(7, 4, seed=seed, centered=False))
        np.testing.assert_array_equal(center_columns(data).values, data.values)

    @given(seed=matrix_strategy)
    @settings(max_examples=25, deadline=None)
    def test_normalize_idempotent(self, seed):
        data = normalize_unit(random_dataset(7, 4, seed=seed, centered=False))
        np.testing.assert_array_equal(normalize_unit(data).values, data.values)

    @given(seed=matrix_strategy)
    @settings(max_examples=20, deadline=None)
    def test_deflation_projection_equivalence(self, seed):
        data = random_dataset(10, 5, seed=seed)
        rng = make_rng(seed + 1)
        pivots = list(rng.permutation(5)[:3] + 1)
        residual = deflated(data, pivots)
        expected = data.values - project_onto(data, tuple(int(p) for p in pivots))
        np.testing.assert_allclose(residual, expected, atol=1e-7)
