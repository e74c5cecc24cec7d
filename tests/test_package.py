"""The package surface: each public name is declared once, in its module."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import varsel
from varsel import bench, dataset, engine, errors, metrics, oracle, selectors, simgen

#: The modules ``varsel`` re-exports, in the order of ``varsel.__all__``.
MODULES = (dataset, metrics, engine, selectors, oracle, simgen, bench, errors)

#: ``varsel.__all__``, sorted: every public name of the package.
SURFACE = sorted([
    "__version__",
    "Dataset", "center_columns", "normalize_unit", "dataset_from_gram", "load_csv",
    "save_csv",
    "VECurve", "CovarianceModel", "variance_explained", "frame_potential", "mutual_information",
    "default_sigma", "auc", "k_at_threshold", "relative_performance",
    "GainFunction", "GreedyRun", "Cardinality", "Threshold", "greedy_select", "lazy_greedy_select",
    "ALGORITHMS", "SelectionResult", "OrthonormalBasis", "NipalsResult", "nipals_first_pc",
    "fsca_select", "lfsca_select", "fosmod_select", "pfs_select", "itfs_select",
    "fsfp_fsca_select", "ufs_select",
    "OptimalSubset", "OptimalComparison", "BoundReport", "TabulatedSetFunction",
    "exhaustive_optimal", "tabulated_optimal", "curvature", "submodularity_ratio", "bound_values",
    "bound_report", "compare_to_optimal",
    "SimSpec", "gen_sim1", "gen_sim2", "dataset_from_spec",
    "DatasetSource", "AlgoConfig", "BenchConfig", "BenchCell", "BenchmarkReport", "run_benchmark",
    "emit_report",
    "SelectionError", "ZeroColumn", "RankDeficient", "ParseError", "RaggedRows", "EmptyFile",
    "LengthMismatch", "ThresholdNeverReached", "SingularCovariance", "TooLarge", "NotMonotone",
])


def test_all_is_the_module_lists():
    assert varsel.__all__ == ["__version__"] + [n for m in MODULES for n in m.__all__]
    assert len(varsel.__all__) == len(set(varsel.__all__)) == 67
    assert sorted(varsel.__all__) == SURFACE


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_names_are_the_objects_their_module_defines(module):
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(varsel, name) is obj
        if hasattr(obj, "__module__") and callable(obj):
            assert obj.__module__ == module.__name__, name


def test_standard_normals_stays_in_simgen():
    assert "standard_normals" not in varsel.__all__
    assert callable(simgen.standard_normals)


def test_import_loads_the_library_modules_only():
    code = "import sys, varsel; print(sorted(n for n in sys.modules if n.startswith('varsel')))"
    env = {**os.environ, "PYTHONPATH": str(Path(varsel.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == str(sorted(
        ["varsel", "varsel._linalg"] + [m.__name__ for m in MODULES]
    ))
