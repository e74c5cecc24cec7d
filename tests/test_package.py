"""The package surface: each public name is declared once, in its module; and
what importing the package and running the CLI load."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import metadata
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


# =========================================================================
# scipy loads only in the solvers that call it
# =========================================================================

#: Runs ``varsel.cli.main`` on the arguments, then writes the loaded scipy
#: modules as the last line of stderr and exits with the CLI's code.
_CLI_REPORTING_SCIPY = (
    "import json, sys, varsel.cli\n"
    "code = varsel.cli.main(sys.argv[1:])\n"
    "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')),"
    " file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _fresh_cli(*argv):
    """Exit code, JSON output and loaded scipy modules of one CLI run in a
    new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(varsel.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _CLI_REPORTING_SCIPY, *argv],
        capture_output=True, text=True, env=env,
    )
    return out.returncode, json.loads(out.stdout), json.loads(out.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("scipy") / "sim2.csv"
    dataset.save_csv(simgen.gen_sim2(m=60, u=4, v=10, seed=5), path)
    return path, dataset.center_columns(dataset.load_csv(path, has_header=True))


def test_import_loads_no_scipy():
    code = "import sys, varsel; print([n for n in sys.modules if n.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(Path(varsel.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "algo, needs_scipy",
    [("fsca", False), ("lfsca", False), ("fosmod", False), ("fsfp-fsca", False),
     ("ufs", False), ("pfs", True), ("itfs", True)],
)
def test_select_loads_scipy_only_for_pfs_and_itfs(sim_csv, algo, needs_scipy):
    path, data = sim_csv
    code, payload, scipy_modules = _fresh_cli(
        "select", "--algo", algo, "--k", "4", "--header", "--input", str(path)
    )
    assert code == 0
    assert bool(scipy_modules) == needs_scipy, scipy_modules
    expected = selectors.ALGORITHMS[algo](data, 4)
    assert tuple(payload["order"]) == expected.order
    assert payload["ve_curve"] == list(expected.ve_curve.values)


def test_bench_reads_scipy_version_without_importing_it(sim_csv, tmp_path):
    path, _ = sim_csv
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "datasets": [{"name": "sim", "csv_path": str(path), "has_header": True}],
        "algorithms": [{"name": "fsca"}],
        "k_max": 3,
    }))
    code, report, scipy_modules = _fresh_cli("bench", "--config", str(config))
    assert (code, scipy_modules) == (0, [])
    assert report["environment"]["scipy"] == metadata.version("scipy")


def test_oracle_mi_loads_scipy_and_matches_library(sim_csv):
    path, data = sim_csv
    code, payload, scipy_modules = _fresh_cli(
        "oracle", "--metric", "mi", "--k", "3", "--header", "--input", str(path)
    )
    assert code == 0 and scipy_modules
    expected = oracle.exhaustive_optimal(data, 3, "mi")
    assert tuple(payload["optimal_indices"]) == expected.ordered
    assert payload["optimal_value"] == expected.value
