"""Benchmark grid runner, aggregation rules, and report serialization."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from varsel import (
    AlgoConfig,
    BenchCell,
    BenchConfig,
    CovarianceModel,
    Dataset,
    DatasetSource,
    SimSpec,
    center_columns,
    emit_report,
    frame_potential,
    mutual_information,
    normalize_unit,
    run_benchmark,
    save_csv,
    variance_explained,
)

from conftest import make_rng, random_dataset


def sim2_source(name="sim2", m=200, u=5, v=12, seed=0):
    return DatasetSource(
        name=name,
        sim=SimSpec(family="sim2", m=m, seed=seed, params={"u": u, "v": v}),
    )


def as_json(obj):
    """``obj`` as the report's JSON reads it back: ``asdict`` through ``json``."""
    return json.loads(json.dumps(asdict(obj)))


def small_config(**overrides):
    defaults = dict(
        datasets=(sim2_source(),),
        algorithms=(AlgoConfig("fsca"),),
        k_max=5,
        thresholds=(95.0, 99.0),
        repeats=1,
        seed_base=0,
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


# =========================================================================
# Configuration types
# =========================================================================


class TestDatasetSource:
    def test_exactly_one_input(self):
        with pytest.raises(ValueError):
            DatasetSource(name="x")
        with pytest.raises(ValueError):
            DatasetSource(name="x", csv_path="a.csv", sim=SimSpec(family="sim1"))

    def test_seeded_flag(self):
        assert sim2_source().seeded
        assert not DatasetSource(name="f", csv_path="a.csv").seeded

    def test_sim_load_reseeds(self):
        source = sim2_source()
        a = source.load(seed=3)
        b = source.load(seed=3)
        c = source.load(seed=4)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_round_trip(self):
        source = sim2_source()
        assert DatasetSource.from_dict(as_json(source)) == source
        file_source = DatasetSource(name="f", csv_path="a.csv", has_header=True)
        assert DatasetSource.from_dict(as_json(file_source)) == file_source


class TestAlgoConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            AlgoConfig("pca")

    def test_sigma_only_for_itfs(self):
        AlgoConfig("itfs", sigma=0.1)
        with pytest.raises(ValueError):
            AlgoConfig("fsca", sigma=0.1)

    def test_round_trip(self):
        config = AlgoConfig("itfs", sigma=0.05)
        assert AlgoConfig.from_dict(as_json(config)) == config


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(k_max=0)
        with pytest.raises(ValueError):
            small_config(repeats=0)
        with pytest.raises(ValueError):
            small_config(thresholds=(0.0,))
        with pytest.raises(ValueError):
            small_config(thresholds=(100.0,))
        with pytest.raises(ValueError):
            small_config(metric_ks=(9,))
        with pytest.raises(ValueError):
            small_config(datasets=(sim2_source(), sim2_source()))
        # A repeat would write one CSV column, or one metric value, twice.
        with pytest.raises(ValueError, match="threshold 95.0000001 repeats the CSV column k95pct"):
            small_config(thresholds=(95.0, 95.0000001))
        with pytest.raises(ValueError, match="metric_ks repeats 2"):
            small_config(metric_ks=(2, 2))

    def test_empty_grid_is_valid(self):
        config = BenchConfig(datasets=(), algorithms=(), k_max=3)
        report = run_benchmark(config)
        assert report.cells == ()
        assert not report.has_errors

    def test_round_trip(self):
        config = small_config(
            algorithms=(AlgoConfig("fsca"), AlgoConfig("itfs", sigma=0.1)),
            metric_ks=(2, 4),
            repeats=3,
        )
        assert BenchConfig.from_dict(as_json(config)) == config


# =========================================================================
# Grid execution
# =========================================================================


class TestRunBenchmark:
    def test_single_cell_r_is_hundred(self):
        report = run_benchmark(small_config(k_max=11))
        cell = report.cell("sim2", "fsca")
        assert cell.r == pytest.approx(100.0)
        assert cell.error is None

    def test_seeds_recorded_and_repeats_materialized(self):
        report = run_benchmark(small_config(repeats=3, seed_base=7))
        cell = report.cell("sim2", "fsca")
        assert cell.seeds == (7, 8, 9)
        assert len(cell.orders) == 3
        assert len(cell.ve_curves) == 3
        # Different seeds genuinely produce different draws.
        assert len({tuple(o) for o in cell.orders}) >= 1
        curves = {tuple(c) for c in cell.ve_curves}
        assert len(curves) == 3

    def test_csv_source_fixed_across_repeats(self, tmp_path):
        data = random_dataset(60, 8, seed=1, centered=False)
        path = tmp_path / "fixed.csv"
        save_csv(data, path)
        config = small_config(
            datasets=(DatasetSource(name="fixed", csv_path=str(path)),),
            repeats=3,
            k_max=4,
        )
        report = run_benchmark(config)
        cell = report.cell("fixed", "fsca")
        assert len(set(cell.orders)) == 1
        assert len({tuple(c) for c in cell.ve_curves}) == 1

    def test_auc_only_when_curve_complete(self):
        complete = run_benchmark(small_config(k_max=11))
        assert complete.cell("sim2", "fsca").auc is not None
        partial = run_benchmark(small_config(k_max=5))
        assert partial.cell("sim2", "fsca").auc is None

    def test_fsca_and_lazy_auc_agree(self):
        config = small_config(
            algorithms=(AlgoConfig("fsca"), AlgoConfig("lfsca")),
            k_max=11,
            repeats=3,
        )
        report = run_benchmark(config)
        auc_plain = report.cell("sim2", "fsca").auc
        auc_lazy = report.cell("sim2", "lfsca").auc
        assert abs(auc_plain - auc_lazy) <= 0.005

    def test_threshold_k_monotone(self):
        report = run_benchmark(small_config(k_max=11, repeats=3))
        cell = report.cell("sim2", "fsca")
        k95 = cell.k_for(95.0)
        k99 = cell.k_for(99.0)
        assert k95 is not None and k99 is not None
        assert k95 <= k99

    def test_unreached_threshold_is_none(self):
        report = run_benchmark(small_config(k_max=2))
        cell = report.cell("sim2", "fsca")
        assert cell.k_for(99.0) is None
        with pytest.raises(KeyError):
            cell.k_for(42.0)

    def test_metric_values(self):
        config = small_config(
            algorithms=(AlgoConfig("fsca"), AlgoConfig("itfs", sigma=0.1)),
            metric_ks=(2, 5),
        )
        report = run_benchmark(config)
        for algo in ("fsca", "itfs"):
            cell = report.cell("sim2", algo)
            recorded = {(m, k) for m, k, _ in cell.metric_values}
            assert recorded == {(m, k) for m in ("ve", "fp", "mi") for k in (2, 5)}
            for metric in ("ve", "fp", "mi"):
                value = cell.metric_value(metric, 2)
                assert value is not None and np.isfinite(value)
            assert cell.metric_value("ve", 2.0) == cell.metric_value("ve", np.int64(2))
            with pytest.raises(KeyError):
                cell.metric_value("ve", 2.5)
        assert report.cell("sim2", "fsca").metric_value("ve", 5) >= report.cell(
            "sim2", "fsca"
        ).metric_value("ve", 2)

    def test_metric_values_match_public_functions(self):
        config = small_config(
            algorithms=(AlgoConfig("fsca"), AlgoConfig("ufs")), metric_ks=(2, 5), repeats=3
        )
        report = run_benchmark(config)
        datasets = [center_columns(sim2_source().load(seed)) for seed in (0, 1, 2)]
        public = {
            "ve": lambda data, head: variance_explained(data, head),
            "fp": lambda data, head: frame_potential(normalize_unit(data), head),
            "mi": lambda data, head: mutual_information(CovarianceModel.from_dataset(data), head),
        }
        for algo in ("fsca", "ufs"):
            cell = report.cell("sim2", algo)
            for metric, fn in public.items():
                for k in (2, 5):
                    expected = np.median(
                        [fn(data, order[:k]) for data, order in zip(datasets, cell.orders)]
                    )
                    assert cell.metric_value(metric, k) == pytest.approx(
                        expected, rel=1e-12, abs=0.0
                    )

    def test_mi_at_column_count_is_none(self):
        config = small_config(
            datasets=(sim2_source(m=100, u=3, v=6),),
            algorithms=(AlgoConfig("fsca"), AlgoConfig("itfs")),
            k_max=6,
            metric_ks=(6,),
        )
        report = run_benchmark(config)
        data = center_columns(sim2_source(m=100, u=3, v=6).load(0))
        for algo in ("fsca", "itfs"):
            cell = report.cell("sim2", algo)
            assert cell.error is None
            assert cell.metric_value("mi", 6) is None
            assert cell.metric_value("ve", 6) == pytest.approx(100.0, rel=1e-12)
            assert cell.metric_value("fp", 6) == pytest.approx(
                frame_potential(normalize_unit(data), cell.orders[0]), rel=1e-12
            )

    def test_speedup_baseline_is_one(self):
        config = small_config(algorithms=(AlgoConfig("fsca"), AlgoConfig("lfsca")))
        report = run_benchmark(config)
        fsca, lfsca = report.cell("sim2", "fsca"), report.cell("sim2", "lfsca")
        assert fsca.speedup_vs_fsca == 1.0
        assert lfsca.speedup_vs_fsca == fsca.elapsed_median_s / lfsca.elapsed_median_s
        alone = run_benchmark(small_config(algorithms=(AlgoConfig("lfsca"),)))
        assert alone.cell("sim2", "lfsca").speedup_vs_fsca is None

    def test_relative_performance_ranks(self):
        config = small_config(
            algorithms=(AlgoConfig("fsca"), AlgoConfig("ufs")),
            k_max=11,
        )
        report = run_benchmark(config)
        r_fsca = report.cell("sim2", "fsca").r
        r_ufs = report.cell("sim2", "ufs").r
        assert r_fsca is not None and r_ufs is not None
        assert 0.0 <= r_ufs <= 100.0
        assert r_fsca >= 50.0

    def test_k_max_exceeding_width_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(small_config(k_max=13))

    def test_cell_error_captured(self, tmp_path):
        # A constant column has no unit-norm version, so ufs raises
        # ZeroColumn; fsca never picks it.
        rng = make_rng(5)
        x = rng.normal(size=(40, 4))
        x[:, 3] = 1.0
        path = tmp_path / "constant.csv"
        save_csv(Dataset(x), path)
        config = small_config(
            datasets=(DatasetSource(name="constant", csv_path=str(path)),),
            algorithms=(AlgoConfig("fsca"), AlgoConfig("ufs")),
            k_max=4,
        )
        report = run_benchmark(config)
        assert report.has_errors
        bad = report.cell("constant", "ufs")
        assert bad.error is not None and "seed" in bad.error
        assert bad.auc is None
        good = report.cell("constant", "fsca")
        assert good.error is None

    def test_determinism(self):
        config = small_config(
            algorithms=(AlgoConfig("fsca"), AlgoConfig("ufs")),
            repeats=2,
            metric_ks=(3,),
        )
        first = as_json(run_benchmark(config))
        second = as_json(run_benchmark(config))
        for payload in (first, second):
            payload.pop("generated_at")
            for cell in payload["cells"]:
                cell.pop("elapsed_median_s")
                cell.pop("speedup_vs_fsca")
        assert first == second


# =========================================================================
# Serialization
# =========================================================================


class TestReports:
    def test_json_round_trip(self, tmp_path):
        config = small_config(
            algorithms=(AlgoConfig("fsca"), AlgoConfig("itfs", sigma=0.1)),
            metric_ks=(2,),
            repeats=2,
        )
        report = run_benchmark(config)
        path = tmp_path / "report.json"
        emit_report(report, path)
        loaded = json.loads(path.read_text())
        assert loaded == as_json(report)
        assert loaded["schema_version"] == report.schema_version

    def test_csv_layout(self, tmp_path):
        config = small_config(
            algorithms=(AlgoConfig("fsca"), AlgoConfig("ufs")),
            thresholds=(90.0, 95.0, 99.0),
            k_max=11,
        )
        report = run_benchmark(config)
        path = tmp_path / "report.csv"
        emit_report(report, path, format="csv")
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        header, *body = rows
        assert header == [
            "dataset",
            "algorithm",
            "auc",
            "r",
            "elapsed_median_s",
            "speedup_vs_fsca",
            "k90pct",
            "k95pct",
            "k99pct",
        ]
        assert len(header) == 6 + 3
        assert len(body) == 2
        assert body[0][0] == "sim2" and body[0][1] == "fsca"
        # Numeric fields parse back as floats.
        float(body[0][2])
        float(body[0][3])

    def test_csv_error_cell_blank_fields(self, tmp_path):
        rng = make_rng(6)
        x = rng.normal(size=(30, 4))
        x[:, 3] = 1.0
        data_path = tmp_path / "constant.csv"
        save_csv(Dataset(x), data_path)
        config = small_config(
            datasets=(DatasetSource(name="constant", csv_path=str(data_path)),),
            algorithms=(AlgoConfig("ufs"),),
            k_max=4,
        )
        report = run_benchmark(config)
        out = tmp_path / "report.csv"
        emit_report(report, out, format="csv")
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][2] == ""  # no AUC for the failed cell

    def test_cell_lookup(self):
        report = run_benchmark(small_config())
        assert isinstance(report.cell("sim2", "fsca"), BenchCell)
        with pytest.raises(KeyError):
            report.cell("sim2", "ufs")
