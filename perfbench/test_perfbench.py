"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

import varsel  # noqa: E402
import varsel.cli  # noqa: E402,F401  (loaded before bindings are compared)
import varsel.selectors as selectors  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# =========================================================================
# Metric catalogue
# =========================================================================


def test_metric_names_are_valid():
    for name in [*measure.END_TO_END, *measure.PER_LAYER]:
        assert NAME.fullmatch(name), name


def test_metric_counts_within_limits(spec):
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128


def test_spec_matches_code(spec):
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# =========================================================================
# Self time
# =========================================================================


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, None, 0)
    span.end = end
    return span


def test_self_time_is_duration_minus_child_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 4.0, 6.0, parent=0),
        _span("a.inner", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 5.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


# =========================================================================
# Inputs from seeds
# =========================================================================


def _inputs(workload, seed, workdir):
    """Bytes of every input a run with benchmark seed ``seed`` generates."""
    result = []
    for input_seed in workloads.input_seeds(seed, workload.inputs_per_run):
        ctx = workload.setup(input_seed, workdir)
        if "path" in ctx:
            result.append(ctx["path"].read_bytes())
        else:
            result.extend(value.values.tobytes() for value in ctx.values())
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _inputs(workload, 3, tmp_path)
    assert _inputs(workload, 3, tmp_path) == first
    assert _inputs(workload, 4, tmp_path) != first


def test_input_seeds_stay_in_recorded_pool():
    assert workloads.input_seeds(5, 1) == [5]
    assert workloads.input_seeds(5, 3) == [15, 16, 17]
    assert workloads.input_seeds(workloads.POOL + 5, 3) == [15, 16, 17]
    for seed in (-3, 0, 10, 10**9):
        seeds = workloads.input_seeds(seed, 3)
        assert len(set(seeds)) == 3 and all(0 <= s < workloads.POOL for s in seeds)


# =========================================================================
# Output checks
# =========================================================================


def test_check_selection_catches_bad_outputs():
    data = varsel.center_columns(varsel.gen_sim2(200, 5, 12, seed=1)).values
    order = [1, 2, 3]
    ve = workloads.own_ve(data, order)
    assert workloads.check_selection(order, ve, data, 3, [1, 2, 3]) == []
    assert workloads.check_selection(order, ve, data, 3, [1, 3, 2])
    assert workloads.check_selection(order, ve + 1e-4, data, 3, None)
    assert workloads.check_selection([1, 1, 2], ve, data, 3, None)
    assert workloads.check_selection([1, 2], ve, data, 3, None)


def test_own_ve_matches_package():
    data = varsel.center_columns(varsel.gen_sim2(300, 5, 15, seed=2))
    order = [4, 9, 1, 12]
    assert workloads.own_ve(data.values, order) == pytest.approx(
        varsel.variance_explained(data, order), abs=1e-9
    )


# =========================================================================
# Tracing
# =========================================================================


def _bindings():
    modules = [m for n, m in sys.modules.items() if n == "varsel" or n.startswith("varsel.")]
    return (
        {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)},
        dict(selectors.ALGORITHMS),
        dict(vars(selectors.OrthonormalBasis)),
        dict(vars(varsel.oracle.TabulatedSetFunction)),
    )


def test_traced_run_restores_bindings_and_keeps_orders():
    data = varsel.center_columns(varsel.gen_sim2(120, 6, 30, seed=3))
    untraced = {a: selectors.ALGORITHMS[a](data, 8).order for a in tracing.SELECTORS}
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert selectors.ALGORITHMS["fsca"] is not before[1]["fsca"]
        traced = {}
        for index, algo in enumerate(tracing.SELECTORS):
            tracer.op, tracer.pass_id = algo, index
            traced[algo] = selectors.ALGORITHMS[algo](data, 8)
    finally:
        leftovers = tracer.uninstall()
    assert leftovers == []
    after = _bindings()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())
    assert {a: r.order for a, r in traced.items()} == untraced

    selves = self_times(tracer.spans)
    for index, algo in enumerate(tracing.SELECTORS):
        chosen = [i for i, s in enumerate(tracer.spans) if s.pass_id == index]
        values = layer_metrics([tracer.spans[i] for i in chosen], [selves[i] for i in chosen])
        assert values[f"engine.{algo}.evals"] == traced[algo].eval_count
        assert values[f"selectors.{algo}.setup_s"] > 0.0
    pfs = [s for s in tracer.spans if s.name == "selectors.nipals"]
    assert len(pfs) == 8 and all(s.op == "pfs" for s in pfs)


def test_oracle_layers_are_traced():
    data = varsel.center_columns(varsel.gen_sim2(100, 3, 8, seed=4))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.pass_id = 0
        varsel.oracle.exhaustive_optimal(data, 3, "mi")
        table = varsel.oracle.TabulatedSetFunction.from_callable(
            5, lambda s: varsel.metrics.variance_explained(data, s)
        )
        varsel.oracle.bound_report(table, 2)
    finally:
        assert tracer.uninstall() == []
    values = layer_metrics(tracer.spans, self_times(tracer.spans))
    assert values["metrics.mutual_information_calls"] == 56
    assert values["oracle.combinations"] == 56 + 10
    assert values["metrics.variance_explained_calls"] == 2**5
    assert values["linalg.factorizations"] >= values["linalg.spd_calls"] > 0
    assert values["oracle.exhaustive_mi_s"] > 0.0 and values["oracle.tabulate_s"] > 0.0
