"""Smoke tests for the files under ``scripts/``."""

from __future__ import annotations

import json
from pathlib import Path

from varsel.cli import main
from varsel.selectors import ALGORITHMS

SIM_GRID = Path(__file__).resolve().parents[1] / "scripts" / "sim_grid.json"


def test_sim_grid_config(tmp_path, capsys):
    output = tmp_path / "report.json"
    assert main(["bench", "--config", str(SIM_GRID), "--repeats", "1", "--output", str(output)]) == 0
    capsys.readouterr()
    report = json.loads(output.read_text())
    assert len(report["cells"]) == 2 * len(ALGORITHMS) == 14
    assert all(cell["error"] is None for cell in report["cells"])
    assert report["config"]["k_max"] == 26 and report["config"]["metric_ks"] == [5, 10]
    assert report["config"]["repeats"] == 1


def test_sim_grid_rejects_zero_repeats(capsys):
    assert main(["bench", "--config", str(SIM_GRID), "--repeats", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: repeats must be at least 1, got 0"
