"""Command-line interface: subcommands, exit codes, and output formats."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from varsel import (
    ALGORITHMS,
    Dataset,
    center_columns,
    exhaustive_optimal,
    fsca_select,
    gen_sim1,
    gen_sim2,
    lfsca_select,
    load_csv,
    save_csv,
)
from varsel.cli import main

from conftest import random_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_csv(tmp_path):
    data = random_dataset(50, 6, seed=11, centered=False)
    path = tmp_path / "small.csv"
    save_csv(data, path)
    return str(path)


# =========================================================================
# select
# =========================================================================


class TestSelect:
    def test_json_stdout(self, capsys, small_csv):
        code, out, err = run_cli(
            capsys, "select", "--algo", "fsca", "--k", "3", "--input", small_csv
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "fsca"
        assert len(payload["order"]) == 3
        assert len(payload["ve_curve"]) == 3
        assert len(payload["labels"]) == 3
        assert payload["ve_curve"] == sorted(payload["ve_curve"])

    def test_matches_library_call(self, capsys, small_csv):
        code, out, _ = run_cli(
            capsys, "select", "--algo", "fsca", "--k", "4", "--input", small_csv
        )
        assert code == 0
        payload = json.loads(out)
        data = center_columns(load_csv(small_csv))
        result = fsca_select(data, 4)
        assert tuple(payload["order"]) == result.order
        np.testing.assert_allclose(payload["ve_curve"], result.ve_curve.values)

    def test_json_payload(self, capsys, small_csv):
        # Every field of the result, the VE curve as a flat list, and the
        # labels of the picks.
        code, out, _ = run_cli(
            capsys, "select", "--algo", "lfsca", "--k", "4", "--input", small_csv
        )
        assert code == 0
        payload = json.loads(out)
        result = lfsca_select(center_columns(load_csv(small_csv)), 4)
        assert isinstance(payload.pop("elapsed"), float)
        assert payload == {
            "algorithm": "lfsca",
            "order": list(result.order),
            "ve_curve": list(result.ve_curve),
            "native_trace": list(result.native_trace),
            "eval_count": result.eval_count,
            "warnings": list(result.warnings),
            "labels": [f"x{i}" for i in result.order],
        }

    def test_csv_format(self, capsys, tmp_path, small_csv):
        out_path = tmp_path / "sel.csv"
        code, out, _ = run_cli(
            capsys,
            "select",
            "--algo",
            "fsca",
            "--k",
            "3",
            "--input",
            small_csv,
            "--format",
            "csv",
            "--output",
            str(out_path),
        )
        assert code == 0 and out == ""
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["k", "index", "label", "ve", "native"]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        ve = [float(r[3]) for r in rows[1:]]
        assert ve == sorted(ve)

    def test_csv_stdout(self, capsys, small_csv):
        code, out, _ = run_cli(
            capsys,
            "select",
            "--algo",
            "fsca",
            "--k",
            "2",
            "--input",
            small_csv,
            "--format",
            "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("k,index,label,ve,native")

    def test_sim_inputs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "select",
            "--algo",
            "fsca",
            "--k",
            "2",
            "--input",
            "sim1",
            "--m",
            "300",
            "--seed",
            "4",
        )
        assert code == 0
        payload = json.loads(out)
        data = center_columns(gen_sim1(300, 4))
        assert tuple(payload["order"]) == fsca_select(data, 2).order

        code, out, _ = run_cli(
            capsys,
            "select",
            "--algo",
            "ufs",
            "--k",
            "3",
            "--input",
            "sim2",
            "--m",
            "200",
            "--u",
            "4",
            "--v",
            "9",
            "--seed",
            "1",
        )
        assert code == 0
        assert len(json.loads(out)["order"]) == 3

    def test_header_flag(self, capsys, tmp_path):
        data = random_dataset(40, 4, seed=3, centered=False)
        labeled = type(data)(data.values, labels=("a", "b", "c", "d"))
        path = tmp_path / "labeled.csv"
        save_csv(labeled, path)
        code, out, _ = run_cli(
            capsys,
            "select",
            "--algo",
            "fsca",
            "--k",
            "2",
            "--input",
            str(path),
            "--header",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["labels"]) <= {"a", "b", "c", "d"}

    def test_tau_stopping(self, capsys, small_csv):
        code, out, _ = run_cli(
            capsys, "select", "--algo", "fsca", "--tau", "95", "--input", small_csv
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ve_curve"][-1] >= 95.0
        assert all(value < 95.0 for value in payload["ve_curve"][:-1])

    def test_k_and_tau_exclusive(self, capsys, small_csv):
        code, _, err = run_cli(
            capsys,
            "select",
            "--algo",
            "fsca",
            "--k",
            "2",
            "--tau",
            "95",
            "--input",
            small_csv,
        )
        assert code == 1
        assert "error: provide exactly one of --k and --tau" in err

        code, _, err = run_cli(
            capsys, "select", "--algo", "fsca", "--input", small_csv
        )
        assert code == 1
        assert "provide exactly one of --k and --tau" in err

    def test_unreachable_tau(self, capsys, small_csv):
        code, _, err = run_cli(
            capsys, "select", "--algo", "fsca", "--tau", "101", "--input", small_csv
        )
        assert code == 1
        assert err.startswith("error:")

    def test_sigma_restricted_to_itfs(self, capsys, small_csv):
        code, _, err = run_cli(
            capsys,
            "select",
            "--algo",
            "fsca",
            "--k",
            "2",
            "--sigma",
            "0.1",
            "--input",
            small_csv,
        )
        assert code == 1
        assert "sigma applies only to itfs, not 'fsca'" in err

        code, out, _ = run_cli(
            capsys,
            "select",
            "--algo",
            "itfs",
            "--k",
            "2",
            "--sigma",
            "0.1",
            "--input",
            small_csv,
        )
        assert code == 0
        assert json.loads(out)["algorithm"] == "itfs"

    @pytest.mark.parametrize(
        "algo, sigma, message",
        [("fsca", "0.1", "sigma applies only to itfs, not 'fsca'"),
         ("itfs", "0", "sigma must be positive, got 0.0"),
         ("itfs", "inf", "sigma must be finite, got inf")],
    )
    def test_sigma_checked_before_input_is_read(self, capsys, tmp_path, algo, sigma, message):
        missing = str(tmp_path / "nope.csv")
        code, out, err = run_cli(
            capsys, "select", "--algo", algo, "--k", "2", "--sigma", sigma, "--input", missing
        )
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "select",
            "--algo",
            "fsca",
            "--k",
            "2",
            "--input",
            str(tmp_path / "nope.csv"),
        )
        assert code == 1
        assert err.startswith("error:")

    def test_oversize_field_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("a,b\n1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n5,6\n")
        code, out, err = run_cli(
            capsys, "select", "--algo", "fsca", "--k", "1", "--header", "--input", str(path)
        )
        assert code == 1 and out == ""
        assert err.startswith("error: cannot parse line 3: field larger than field limit")
        assert "Traceback" not in err

    def test_json_output_file(self, capsys, tmp_path, small_csv):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            "select",
            "--algo",
            "pfs",
            "--k",
            "2",
            "--input",
            small_csv,
            "--output",
            str(out_path),
        )
        assert code == 0 and out == ""
        payload = json.loads(out_path.read_text())
        assert payload["algorithm"] == "pfs"

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_no_variance_rejected(self, capsys, tmp_path, algo):
        # Every column constant: each selector names the cause, rather than
        # an empty order, a singular covariance or a zero-norm column.
        path = tmp_path / "flat.csv"
        save_csv(Dataset(np.tile([1.0, 2.0, 3.0], (4, 1))), path)
        code, out, err = run_cli(capsys, "select", "--algo", algo, "--k", "1", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == "error: variance explained is undefined: the data has no variance\n"


# =========================================================================
# gen
# =========================================================================


class TestGen:
    def test_sim1_round_trip(self, capsys, tmp_path):
        path = tmp_path / "sim1.csv"
        code, _, _ = run_cli(
            capsys, "gen", "sim1", "--m", "120", "--seed", "9", "--output", str(path)
        )
        assert code == 0
        written = load_csv(path, has_header=True)
        direct = gen_sim1(120, 9)
        np.testing.assert_allclose(written.values, direct.values, rtol=0, atol=1e-12)
        assert written.labels == direct.labels

    def test_sim2_round_trip(self, capsys, tmp_path):
        path = tmp_path / "sim2.csv"
        code, _, _ = run_cli(
            capsys,
            "gen",
            "sim2",
            "--m",
            "80",
            "--u",
            "3",
            "--v",
            "7",
            "--seed",
            "2",
            "--noise-sd",
            "0.05",
            "--output",
            str(path),
        )
        assert code == 0
        written = load_csv(path, has_header=True)
        direct = gen_sim2(80, 3, 7, 2, 0.05)
        np.testing.assert_allclose(written.values, direct.values, rtol=0, atol=1e-12)

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "gen", "sim2", "--m", "50", "--seed", "5", "--output", str(path))
        assert a.read_text() == b.read_text()

    def test_bad_family(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "gen", "sim3", "--output", str(tmp_path / "x.csv")
        )
        assert code == 1

    def test_output_required(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "sim1")
        assert code == 1

    def test_invalid_params(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "gen",
            "sim2",
            "--u",
            "8",
            "--v",
            "4",
            "--output",
            str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err.startswith("error:")


# =========================================================================
# bench
# =========================================================================


def write_bench_config(tmp_path, **overrides):
    config = {
        "datasets": [
            {
                "name": "sim2",
                "sim": {"family": "sim2", "m": 200, "seed": 0, "params": {"u": 4, "v": 10}},
            }
        ],
        "algorithms": [{"name": "fsca"}, {"name": "lfsca"}],
        "k_max": 5,
        "thresholds": [95.0, 99.0],
        "repeats": 1,
        "seed_base": 0,
    }
    config.update(overrides)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestBench:
    def test_json_report(self, capsys, tmp_path):
        config = write_bench_config(tmp_path)
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "bench", "--config", config, "--output", str(out_path)
        )
        assert code == 0 and err == ""
        report = json.loads(out_path.read_text())
        assert {(c["dataset"], c["algorithm"]) for c in report["cells"]} == {
            ("sim2", "fsca"),
            ("sim2", "lfsca"),
        }

    def test_stdout_report(self, capsys, tmp_path):
        config = write_bench_config(tmp_path)
        code, out, _ = run_cli(capsys, "bench", "--config", config)
        assert code == 0
        assert "cells" in json.loads(out)

    def test_csv_requires_output(self, capsys, tmp_path):
        config = write_bench_config(tmp_path)
        code, _, err = run_cli(capsys, "bench", "--config", config, "--format", "csv")
        assert code == 1
        assert "csv format requires --output" in err

    def test_csv_without_output_rejected_before_running(self, capsys, tmp_path, monkeypatch):
        def fail(config):
            raise AssertionError("the grid ran")

        monkeypatch.setattr("varsel.cli.run_benchmark", fail)
        config = write_bench_config(tmp_path)
        code, out, err = run_cli(capsys, "bench", "--config", config, "--format", "csv")
        assert code == 1 and out == ""
        assert "csv format requires --output" in err

    def test_no_variance_dataset_rejected(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        save_csv(Dataset(np.tile([1.0, 2.0, 3.0], (10, 1))), path)
        config = write_bench_config(
            tmp_path, datasets=[{"name": "flat", "csv_path": str(path)}], k_max=2
        )
        code, out, err = run_cli(capsys, "bench", "--config", config)
        assert code == 1 and out == ""
        assert err == "error: dataset 'flat' has no variance after centering\n"

    def test_csv_report(self, capsys, tmp_path):
        config = write_bench_config(tmp_path)
        out_path = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys,
            "bench",
            "--config",
            config,
            "--format",
            "csv",
            "--output",
            str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:2] == ["dataset", "algorithm"]
        assert len(rows) == 3

    def test_repeats_and_seed_overrides(self, capsys, tmp_path):
        config = write_bench_config(tmp_path)
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "bench",
            "--config",
            config,
            "--repeats",
            "2",
            "--seed",
            "10",
            "--output",
            str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["cells"][0]["seeds"] == [10, 11]

    def test_error_cell_exit_code(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 4))
        x[:, 3] = 1.0
        data_path = tmp_path / "constant.csv"
        save_csv(Dataset(x), data_path)
        config = write_bench_config(
            tmp_path,
            datasets=[{"name": "constant", "csv_path": str(data_path)}],
            algorithms=[{"name": "ufs"}],
            k_max=4,
            thresholds=[95.0],
        )
        code, _, err = run_cli(
            capsys, "bench", "--config", config, "--output", str(tmp_path / "r.json")
        )
        assert code == 2
        assert "cell failed: constant/ufs" in err

    def test_invalid_json_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1
        assert err.startswith("error:")

    def test_invalid_config_values(self, capsys, tmp_path):
        config = write_bench_config(tmp_path, k_max=0)
        code, _, err = run_cli(capsys, "bench", "--config", config)
        assert code == 1
        assert err.startswith("error:")

    def test_missing_required_key(self, capsys, tmp_path):
        path = Path(write_bench_config(tmp_path))
        no_name = json.loads(path.read_text())
        del no_name["datasets"][0]["name"]
        no_k_max = json.loads(path.read_text())
        del no_k_max["k_max"]
        for config, key in ((no_name, "name"), (no_k_max, "k_max")):
            path.write_text(json.dumps(config))
            code, _, err = run_cli(capsys, "bench", "--config", str(path))
            assert code == 1
            assert err.startswith("error:") and repr(key) in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--config", str(tmp_path / "nope.json")
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"datasets": [1]}, "dataset must be a JSON object, got 1"),
            ({"datasets": {"name": "s"}}, "key 'datasets' must be a JSON list"),
            ({"datasets": [{"name": "s", "sim": 5}]}, "key 'sim' must be a JSON object"),
            (
                {"datasets": [{"name": "s", "sim": {"family": "sim2", "params": [1]}}]},
                "key 'params' must be a JSON object",
            ),
            (
                {"datasets": [{"name": "s", "sim": {"family": "sim2", "params": {"u": "3", "v": 8}}}]},
                "sim params key 'u' must be a JSON integer, got '3'",
            ),
            (
                {"datasets": [{"name": "s", "sim": {"family": "sim2", "params": {"noise_sd": True}}}]},
                "sim params key 'noise_sd' must be a JSON number, got True",
            ),
            ({"metric_ks": 5}, "key 'metric_ks' must be a JSON list of integers"),
            ({"algorithms": [{"name": "itfs", "sigma": "0.5"}]}, "key 'sigma' must be a JSON number"),
            ({"algorithms": ["fsca"]}, "algorithm must be a JSON object, got 'fsca'"),
            ({"thresholds": "95"}, "key 'thresholds' must be a JSON list of numbers"),
            (
                {"datasets": [{"name": "s", "csv_path": "x.csv", "has_header": "false"}]},
                "key 'has_header' must be a JSON boolean",
            ),
            (None, "config must be a JSON object"),
        ],
        ids=[
            "dataset-not-object", "datasets-not-list", "sim-not-object", "params-not-object",
            "param-u-string", "param-noise_sd-boolean",
            "metric_ks-not-list", "sigma-string", "algorithm-not-object", "thresholds-string",
            "has_header-string", "config-not-object",
        ],
    )
    def test_config_value_of_wrong_json_type(self, capsys, tmp_path, overrides, message):
        path = Path(write_bench_config(tmp_path, **(overrides or {})))
        if overrides is None:
            path.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"repeat": 7}, "config has the unknown key 'repeat'"),
            ({"metrics_ks": [2]}, "config has the unknown key 'metrics_ks'"),
            ({"parallelism": 1}, "config has the unknown key 'parallelism'"),
            (
                {"datasets": [{"name": "s", "csv_path": "x.csv", "csv_pth": "y.csv"}]},
                "dataset has the unknown key 'csv_pth'",
            ),
            (
                {"datasets": [{"name": "s", "sim": {"family": "sim2", "seeds": 3, "params": {"u": 3, "v": 8}}}]},
                "sim has the unknown key 'seeds'",
            ),
            ({"algorithms": [{"name": "itfs", "sigmaa": 0.1}]}, "algorithm has the unknown key 'sigmaa'"),
            ({"algorithms": [{"name": "ufs", "engine": "lazy"}]}, "algorithm has the unknown key 'engine'"),
        ],
        ids=["repeat", "metrics_ks", "parallelism", "csv_pth", "sim-seeds", "sigmaa", "engine"],
    )
    def test_config_unknown_key(self, capsys, tmp_path, overrides, message):
        # A misspelt or retired key is an error, not a default run.
        path = write_bench_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "bench", "--config", path)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"algorithms": [{"name": "itfs", "sigma": -1.0}]}, "sigma must be positive, got -1.0"),
            ({"algorithms": [{"name": "itfs", "sigma": 0}]}, "sigma must be positive, got 0"),
            (
                {"datasets": [{"name": "s", "sim": {"family": "sim2", "params": {"u": 3, "v": 8}},
                               "has_header": True}]},
                "dataset 's': has_header applies only to csv_path",
            ),
        ],
        ids=["sigma-negative", "sigma-zero", "has_header-on-sim"],
    )
    def test_config_value_rejected_at_load(self, capsys, tmp_path, overrides, message):
        # A value no cell could use is a config error (exit 1), not a grid
        # whose every cell fails (exit 2) or a key that is silently ignored.
        path = write_bench_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "bench", "--config", path)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    def test_config_repeats_rejected(self, capsys, tmp_path):
        # Repeats would write a CSV column and the metric values twice.
        path = write_bench_config(tmp_path, thresholds=[95, 95.0], metric_ks=[2, 2])
        code, out, err = run_cli(capsys, "bench", "--config", path)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "threshold 95.0 repeats the CSV column k95pct" in err


# =========================================================================
# oracle
# =========================================================================


class TestOracle:
    def test_ve_optimum(self, capsys, small_csv):
        code, out, _ = run_cli(
            capsys, "oracle", "--k", "2", "--input", small_csv
        )
        assert code == 0
        payload = json.loads(out)
        data = center_columns(load_csv(small_csv))
        optimal = exhaustive_optimal(data, 2, "ve")
        assert frozenset(payload["optimal_indices"]) == optimal.indices
        assert payload["optimal_value"] == pytest.approx(optimal.value)
        assert payload["metric"] == "ve"

    def test_fp_and_mi_metrics(self, capsys, small_csv):
        for metric in ("fp", "mi"):
            code, out, _ = run_cli(
                capsys, "oracle", "--metric", metric, "--k", "2", "--input", small_csv
            )
            assert code == 0
            assert json.loads(out)["metric"] == metric

    def test_bounds_payload(self, capsys, small_csv):
        code, out, _ = run_cli(
            capsys, "oracle", "--k", "3", "--bounds", "--input", small_csv
        )
        assert code == 0
        bounds = json.loads(out)["bounds"]
        assert set(bounds) == {
            "alpha",
            "gamma",
            "b_n",
            "b_alpha_gamma",
            "greedy_value",
            "optimal_value",
            "greedy_ratio",
        }
        assert 0.0 <= bounds["alpha"] <= 1.0
        assert bounds["greedy_ratio"] <= 1.0 + 1e-9
        assert bounds["greedy_ratio"] >= bounds["b_alpha_gamma"] - 1e-9

    def test_bounds_optimum_is_the_search_optimum(self, capsys):
        # The bound table scores subsets as the search does, so both report
        # the same optimal value, bit for bit.
        for seed in range(33, 41):
            code, out, err = run_cli(
                capsys, "oracle", "--k", "4", "--bounds", "--input", "sim2",
                "--m", "500", "--u", "4", "--v", "12", "--seed", str(seed),
            )
            assert code == 0, err
            payload = json.loads(out)
            assert payload["bounds"]["optimal_value"] == payload["optimal_value"], seed

    def test_bounds_ve_only(self, capsys, small_csv):
        code, _, err = run_cli(
            capsys,
            "oracle",
            "--metric",
            "fp",
            "--k",
            "2",
            "--bounds",
            "--input",
            small_csv,
        )
        assert code == 1
        assert "--bounds is available only for the ve metric" in err

    @pytest.mark.parametrize("metric", ["fp", "mi"])
    def test_bounds_rejected_before_search(self, capsys, small_csv, monkeypatch, metric):
        def fail(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("varsel.cli.exhaustive_optimal", fail)
        code, out, err = run_cli(
            capsys, "oracle", "--metric", metric, "--k", "2", "--bounds", "--input", small_csv
        )
        assert code == 1 and out == ""
        assert "--bounds is available only for the ve metric" in err

    @pytest.mark.parametrize("algo", ["itfs", "fsfp-fsca"])
    def test_rank_deficient_comparison(self, capsys, tmp_path, algo):
        # Noise-free sim2 has rank 4 over 8 columns: these selectors' heads
        # at k=6 are rank deficient and still get a ratio.
        path = tmp_path / "noise_free.csv"
        save_csv(gen_sim2(100, 4, 8, seed=0, noise_sd=0.0), path)
        code, out, err = run_cli(
            capsys, "oracle", "--metric", "ve", "--k", "6", "--algo", algo,
            "--input", str(path), "--header",
        )
        assert code == 0, err
        comparison = json.loads(out)["comparison"]
        assert comparison["ratio"] == pytest.approx(1.0, abs=1e-9)

    @pytest.fixture
    def rank_three_csv(self, capsys, tmp_path):
        # Noise-free sim2 300 x 8 with rank 3.
        path = str(tmp_path / "nf.csv")
        code, _, err = run_cli(
            capsys, "gen", "sim2", "--m", "300", "--u", "3", "--v", "8", "--seed", "0",
            "--noise-sd", "0", "--output", path,
        )
        assert code == 0, err
        return path

    def test_bounds_on_rank_deficient_data(self, capsys, rank_three_csv):
        code, out, err = run_cli(
            capsys, "oracle", "--input", rank_three_csv, "--header", "--k", "3", "--bounds"
        )
        assert code == 0, err
        bounds = json.loads(out)["bounds"]
        assert bounds["greedy_ratio"] >= bounds["b_alpha_gamma"] - 1e-9

    def test_comparison_with_selection_stopped_at_rank(self, capsys, rank_three_csv):
        # fsca stops after 3 picks, which span every column: under ve they
        # reach the 5-subset optimum.
        code, out, err = run_cli(
            capsys, "oracle", "--input", rank_three_csv, "--header", "--k", "5",
            "--algo", "fsca",
        )
        assert code == 0, err
        comparison = json.loads(out)["comparison"]
        assert len(comparison["order"]) == 3
        assert comparison["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_algo_comparison(self, capsys, small_csv):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--k",
            "3",
            "--algo",
            "fsca",
            "--input",
            small_csv,
        )
        assert code == 0
        comparison = json.loads(out)["comparison"]
        assert comparison["algorithm"] == "fsca"
        assert len(comparison["order"]) == 3
        assert 0 <= comparison["n_common"] <= 3
        assert comparison["ratio"] <= 1.0 + 1e-9

    @pytest.mark.parametrize("extra", [(), ("--bounds",)], ids=["search", "bounds"])
    def test_no_variance_rejected(self, capsys, tmp_path, extra):
        # Every column constant: no selection explains any variance.
        path = tmp_path / "flat.csv"
        save_csv(Dataset(np.tile([1.0, 2.0, 3.0], (10, 1))), path)
        code, out, err = run_cli(capsys, "oracle", "--k", "1", "--input", str(path), *extra)
        assert (code, out) == (1, "")
        assert err == "error: variance explained is undefined: the data has no variance\n"

    def test_itfs_rejects_zero_sigma(self, capsys, small_csv):
        code, _, err = run_cli(
            capsys,
            "oracle",
            "--metric",
            "mi",
            "--k",
            "2",
            "--algo",
            "itfs",
            "--sigma",
            "0",
            "--input",
            small_csv,
        )
        assert code == 1
        assert "sigma must be positive" in err

    def test_mi_with_zero_sigma_on_singular_covariance(self, capsys, tmp_path):
        # Noise-free sim2 has rank 3 over 8 columns: at sigma 0 the
        # regularized covariance is singular and every MI is infinite.
        path = tmp_path / "noise_free.csv"
        save_csv(gen_sim2(100, 3, 8, seed=0, noise_sd=0.0), path)
        code, out, err = run_cli(
            capsys, "oracle", "--metric", "mi", "--sigma", "0", "--k", "3",
            "--input", str(path), "--header",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: regularized covariance is singular")

    @pytest.mark.parametrize(
        "extra", [("--metric", "ve", "--algo", "fsca"), ("--metric", "fp"), ("--metric", "ve")]
    )
    def test_sigma_rejected_without_mi_or_itfs(self, capsys, small_csv, extra):
        code, out, err = run_cli(
            capsys, "oracle", "--k", "2", "--sigma", "0.1", *extra, "--input", small_csv
        )
        assert code == 1 and out == ""
        assert "--sigma applies only to the mi metric or itfs" in err

    def test_sigma_with_itfs_under_ve(self, capsys, small_csv):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--metric",
            "ve",
            "--k",
            "2",
            "--algo",
            "itfs",
            "--sigma",
            "0.5",
            "--input",
            small_csv,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metric"] == "ve"
        assert payload["comparison"]["algorithm"] == "itfs"

    def test_output_file(self, capsys, tmp_path, small_csv):
        out_path = tmp_path / "oracle.json"
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--k",
            "2",
            "--input",
            small_csv,
            "--output",
            str(out_path),
        )
        assert code == 0 and out == ""
        assert "optimal_indices" in json.loads(out_path.read_text())

    def test_too_wide_rejected(self, capsys, tmp_path):
        data = random_dataset(40, 30, seed=2, centered=False)
        path = tmp_path / "wide.csv"
        save_csv(data, path)
        code, _, err = run_cli(
            capsys, "oracle", "--k", "3", "--bounds", "--input", str(path)
        )
        assert code == 1
        assert err.startswith("error:")

    def test_too_wide_for_bounds_rejected_before_search(self, capsys, monkeypatch):
        # v = 13 is one past the tabulation limit: the ground set is
        # refused before the exhaustive search starts.
        def fail(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("varsel.cli.exhaustive_optimal", fail)
        code, out, err = run_cli(
            capsys, "oracle", "--k", "2", "--bounds", "--input", "sim2",
            "--m", "60", "--u", "4", "--v", "13",
        )
        assert code == 1 and out == ""
        assert err == "error: 8192 combinations exceed the enumeration cap of 4096\n"


# =========================================================================
# Top-level parser behaviour
# =========================================================================


class TestMain:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_subcommand_help(self, capsys):
        for command in ("select", "bench", "gen", "oracle"):
            assert main([command, "--help"]) == 0
            capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["select", "--bogus"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
