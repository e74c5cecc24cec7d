"""Data substrate: preprocessing, deflation against the reference projection, CSV I/O."""

from __future__ import annotations

import csv
import io
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsel import (
    Dataset,
    EmptyFile,
    ParseError,
    RaggedRows,
    RankDeficient,
    ZeroColumn,
    center_columns,
    exhaustive_optimal,
    fsca_select,
    load_csv,
    normalize_unit,
    gen_sim2,
    pfs_select,
    save_csv,
    ufs_select,
    variance_explained,
)
from varsel import dataset
from varsel.dataset import FLAG_TOL, dataset_from_gram, deflate_in_place, selection_tuple
from varsel.oracle import TabulatedSetFunction
from varsel.selectors import ALGORITHMS

from conftest import deflated, make_rng, random_dataset
from reference import load_csv_rows, project_onto


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

    def test_unit_norm_read_from_column_norms(self):
        # Every column norm within FLAG_TOL of 1, and nothing to declare.
        assert Dataset([[0.6, 1.0], [0.8, 0.0]]).unit_norm
        assert Dataset([[1.0 + 0.5 * FLAG_TOL], [0.0]]).unit_norm
        assert not Dataset([[1.0 + 2.0 * FLAG_TOL], [0.0]]).unit_norm
        assert not Dataset([[0.6, 1.0], [0.8, 0.5]]).unit_norm
        with pytest.raises(TypeError):
            Dataset([[1.0], [0.0]], unit_norm=True)

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

    @pytest.mark.parametrize("labelled", [True, False])
    def test_label_index_checked_like_column(self, labelled):
        data = gen_sim2(100, 3, 8, seed=0)
        if not labelled:
            data = Dataset(data.values)
        assert data.label_for(8) == ("D5" if labelled else "x8")
        for index in (0, -1, 9):
            with pytest.raises(ValueError, match=f"column index {index} outside 1..8"):
                data.column(index)
            with pytest.raises(ValueError, match=f"column index {index} outside 1..8"):
                data.label_for(index)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([[1.0, 2.0], [3.0, 4.0]], labels=("a",))


class TestKeptRoot:
    def test_gram_root_once_per_dataset(self, monkeypatch):
        # The six thin selectors, every VE and the search's ``ve`` scorer
        # read one root kept on the dataset; UFS reads X, and a fresh
        # Dataset of the same values factors again.
        calls = []

        def counting(data):
            calls.append(data)
            return root(data)

        root = dataset._gram_root
        monkeypatch.setattr(dataset, "_gram_root", counting)
        data = center_columns(gen_sim2(500, 4, 12, seed=1))
        ufs_select(data, 3)
        assert calls == [] and "_root" not in vars(data)
        for select in ALGORITHMS.values():
            select(data, 3)
            select(data, 3)
        table = TabulatedSetFunction.from_callable(12, lambda s: variance_explained(data, s))
        exhaustive_optimal(data, 3, "ve")
        assert len(calls) == 1 and calls[0] is data
        fresh = Dataset(data.values, centered=True)
        fsca_select(fresh, 3)
        variance_explained(fresh, [1, 2])
        assert len(calls) == 2 and calls[1] is fresh
        assert table.value_of(range(1, 13)) == pytest.approx(100.0, abs=1e-9)
        # On tall data too the VEs factor the dataset once, and a later thin
        # selector reads the root they kept.
        tall = center_columns(gen_sim2(2000, 6, 150, seed=1))
        for k in range(1, 11):
            variance_explained(tall, range(1, k + 1))
        assert len(calls) == 3 and calls[2] is tall
        pfs_select(tall, 3)
        assert len(calls) == 3


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
# Selections
# =========================================================================


class TestSelectionTuple:
    @pytest.mark.parametrize(
        "selected", [[True], [1, False], (np.int64(2), True), np.array([True])], ids=repr
    )
    def test_bools_rejected(self, selected):
        # operator.index reads True as 1.
        with pytest.raises(ValueError, match="selection .* must hold integer indices"):
            selection_tuple(selected, 5)


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

    @pytest.mark.parametrize("m, v", [(2000, 150), (250, 600), (333, 64), (50, 40)])
    def test_blocks_equal_outer_product_bit_for_bit(self, m, v):
        # The rows are updated in blocks of DEFLATE_BLOCK // v rows: 333 is
        # not a multiple of 256, and 50 rows fit in one block.
        assert m % (dataset.DEFLATE_BLOCK // v) != 0
        values = make_rng(m + v).normal(size=(m, v))
        p0 = v // 3
        r = values[:, p0].copy()
        rr = float(r @ r)
        coeffs = (r @ values) / rr
        expected = values - np.outer(r, coeffs)
        expected[:, p0] = 0.0
        out = deflate_in_place(values, p0)
        assert out[0] == rr and np.array_equal(out[1], coeffs)
        assert np.array_equal(values, expected)
        assert not values[:, p0].any()


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

    def test_round_trip_bit_identical_500x200(self, tmp_path):
        values = make_rng(19).normal(size=(500, 200)) * np.logspace(-300, 300, 200)
        data = Dataset(values, labels=tuple(f"c{j}" for j in range(200)))
        path = tmp_path / "wide.csv"
        save_csv(data, path, comment="wide")
        back = load_csv(path, has_header=True)
        assert back.values.tobytes() == data.values.tobytes()
        assert back.labels == data.labels

    def test_save_csv_bytes_match_csv_writer(self, tmp_path):
        labels = ("plain", "with,comma", 'with"quote', " padded ")
        values = np.array([[-0.0, 5e-324, 1.7976931348623157e308, 0.1],
                           [2.2250738585072014e-308, -1e300, 3.0, -123456.789]])
        path = tmp_path / "pinned.csv"
        save_csv(Dataset(values, labels=labels), path, comment="pinned bytes")
        expected = io.StringIO()
        expected.write("# pinned bytes\n")
        writer = csv.writer(expected)
        writer.writerow(labels)
        for row in values:
            writer.writerow([repr(float(value)) for value in row])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        assert path.read_bytes().startswith(
            b'# pinned bytes\nplain,"with,comma","with""quote", padded \r\n-0.0,5e-324,'
        )

    @pytest.mark.parametrize(
        "labels, comment",
        [
            (("#x", "y"), None),
            (("  #x", "y"), "note"),
            (("\t# x",), None),
            (("",), "note"),
            (("   ",), None),
            (("\x1c",), None),
            (("\ufeff#x", "y"), None),  # the file's first character: read as a byte-order mark
            (("\ufeff",), None),
        ],
        ids=["hash", "indented-hash", "tab-hash", "empty", "spaces", "separator-char",
             "bom-hash", "bom"],
    )
    def test_header_read_as_comment_or_blank_rejected(self, tmp_path, labels, comment):
        # The loader would skip such a header and take the first data row
        # for the labels, losing it without an error.
        path = tmp_path / "lost.csv"
        data = Dataset(np.arange(2.0 * len(labels)).reshape(2, -1), labels=labels)
        with pytest.raises(ValueError, match=re.escape(f"label {labels[0]!r} would make the header")):
            save_csv(data, path, comment=comment)
        assert not path.exists()

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_comment_with_line_break_rejected(self, tmp_path, newline):
        # The comment's later lines would read back as data rows.
        path = tmp_path / "broken.csv"
        comment = f"run 1{newline}7.0,8.0"
        with pytest.raises(ValueError, match=re.escape(f"comment {comment!r} holds a line break")):
            save_csv(Dataset(np.arange(6.0).reshape(3, 2)), path, comment=comment)
        assert not path.exists()

    def test_byte_order_mark_after_comment_kept(self, tmp_path):
        path = tmp_path / "bom_label.csv"
        data = Dataset(np.eye(2), labels=("\ufeff#x", "y"))
        save_csv(data, path, comment="note")
        back = load_csv(path, has_header=True)
        assert back.labels == data.labels
        np.testing.assert_array_equal(back.values, data.values)

    @given(labels=st.lists(st.text(max_size=4), min_size=1, max_size=3), comment=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_written_header_reads_back(self, tmp_path_factory, labels, comment):
        values = np.arange(3.0 * len(labels)).reshape(3, -1)
        path = tmp_path_factory.mktemp("header") / "labels.csv"
        try:
            save_csv(Dataset(values, labels=tuple(labels)), path, comment="c" if comment else None)
        except ValueError:
            assert not path.exists()
            return
        for load in (load_csv, load_csv_rows):
            back = load(path, has_header=True)
            assert back.labels is not None and len(back.labels) == len(labels)
            np.testing.assert_array_equal(back.values, values)

    def test_one_row_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="need at least 2 observations, got 1"):
            load_csv(path, has_header=True)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("# note\na,b\n\n")
        with pytest.raises(EmptyFile):
            load_csv(path, has_header=True)

    def test_underscore_and_non_ascii_digits_load(self, tmp_path):
        # ``float`` reads these; ``np.loadtxt`` does not.
        path = tmp_path / "digits.csv"
        path.write_text("1_000,\uff12\n\u0663,4.5\n", encoding="utf-8")
        np.testing.assert_array_equal(load_csv(path).values, [[1000.0, 2.0], [3.0, 4.5]])

    def test_quoted_file_loads(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"a","b,c"\n"1",2\n3,"4e0"\n')
        data = load_csv(path, has_header=True)
        assert data.labels == ("a", "b,c")
        np.testing.assert_array_equal(data.values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, has_header, error, row, col", [
        # A quote opening a field swallows the lines after it.
        ('#,"\n1,2\n3,4\n', False, EmptyFile, None, None),
        ('a,"b\n1,2\n3,4\n', True, EmptyFile, None, None),
        # ``\x0c`` and ``\x1c`` end no line, and ``float`` does not strip ``\x1c``.
        ("1\x0c2\n3\n", False, ParseError, 1, 1),
        ("1,2\x1c\n3,4\n", False, ParseError, 1, 2),
        ("a,b,c\n1,2\n3,4\n", True, RaggedRows, 2, None),
    ])
    def test_reader_decides(self, tmp_path, text, has_header, error, row, col):
        path = tmp_path / "odd.csv"
        path.write_text(text, newline="")
        with pytest.raises(error) as info:
            load_csv(path, has_header=has_header)
        assert getattr(info.value, "row", None) == row
        assert getattr(info.value, "col", None) == col

    def test_oversize_field_is_parse_error(self, tmp_path):
        # The field reads as 1.0, so only the csv module's limit rejects it.
        path = tmp_path / "huge.csv"
        path.write_text("1,2\n\n3," + "0" * csv.field_size_limit() + "1\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 3 and info.value.col is None
        assert "field larger than field limit" in str(info.value)

    def test_unseekable_input_read_once(self, tmp_path):
        # A pipe cannot be re-read, so it goes straight to the row reader.
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=('"a",b\n1,2\n3,4\n',))
        writer.start()
        try:
            data = load_csv(path, has_header=True)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert data.labels == ("a", "b")
        np.testing.assert_array_equal(data.values, [[1.0, 2.0], [3.0, 4.0]])


# =========================================================================
# The loader against the row-by-row reference
# =========================================================================

_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)
_ODD_CELLS = st.sampled_from([
    "1_000", "\u0663", "\uff11\uff12", "inf", "-inf", "nan", "1e400", "-1e400", "1e-400",
    "  2.5 ", "\t3", "\x0c4", "5\x0c", "\x1c6", "7\x1c", "8\x1f", "\x0b9", "\xa01", "1\u3000",
    "1\x0c2", "3\x1c4", "5\x0b6", "7\x858", "8\u20289",
    '"9"', '"1,5"', '""', '"', '2"', "spam", "", " ", "2 # note", "#3", "0x10", "+.5", "5.",
    "-0", "1E5", "\ufeff1",
])
_LABELS = st.sampled_from(["a", " b ", "c d", "e"])
_ODD_LABELS = st.sampled_from(['"f,g"', '"', "", "#h", "i\x1c", 'j"', "k\x0c"])
_ODD_LINES = st.sampled_from([
    "", "  ", "\t", "\x0c", "\x1c", ",", " , ", "# note", "  # x", '# "q', "#", "#,", '#,"', '"', ' "',
    '"#x"',
])
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """A small CSV text and whether to read a header: a numeric table with
    a few odd cells, labels, lines or row widths put in, mixed line
    endings, maybe no final line ending, and maybe a byte-order mark."""
    width = draw(st.integers(1, 3))
    has_header = draw(st.booleans())
    lines = [[draw(_LABELS) for _ in range(width)]] if has_header else []
    lines += [[draw(_NUMBERS) for _ in range(width)] for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["cell", "width", "line"]))
        i = draw(st.integers(0, len(lines)))
        if kind == "line" or i == len(lines):
            lines.insert(i, [draw(_ODD_LINES)])
        elif kind == "cell":
            odd = _ODD_LABELS if has_header and i == 0 else _ODD_CELLS
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(odd)
        elif draw(st.booleans()) or len(lines[i]) == 1:
            lines[i].append(draw(_NUMBERS))
        else:
            lines[i].pop()
    text = "".join(",".join(cells) + draw(_ENDINGS) for cells in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + text, has_header


def _outcome(load, path, has_header):
    """What ``load`` returns or raises, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = load(path, has_header)
        except Exception as exc:
            result = (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None))
        else:
            result = (data.values.shape, data.values.tobytes(), data.labels)
    return result, [str(w.message) for w in caught]


class TestCsvDifferential:
    @given(case=csv_texts())
    @settings(max_examples=500, deadline=None)
    def test_matches_row_reader(self, tmp_path_factory, case):
        text, has_header = case
        path = tmp_path_factory.mktemp("differential") / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        expected, expected_warnings = _outcome(load_csv_rows, path, has_header)
        got, got_warnings = _outcome(load_csv, path, has_header)
        assert got == expected
        if not expected_warnings:
            assert got_warnings == []


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
