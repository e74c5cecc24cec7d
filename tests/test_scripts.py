"""Smoke tests for the scripts under ``scripts/``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from varsel import report_from_json
from varsel.selectors import ALGORITHMS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_sim_benchmark_small_k_max(tmp_path, capsys):
    # k-max below the fixed metric sizes (5, 10) keeps only those <= k-max.
    script = load_script("run_sim_benchmark")
    output = tmp_path / "report.json"
    assert script.main(["--repeats", "1", "--k-max", "3", "--output", str(output)]) == 0
    capsys.readouterr()
    report = report_from_json(output)
    assert len(report.cells) == 2 * len(ALGORITHMS) == 14
    assert not report.has_errors
    assert report.config.k_max == 3 and report.config.metric_ks == ()
