"""The benchmark's tracer against the package it patches.

``perfbench/tracing.py`` rebinds named entry points of ``varsel`` and puts a
proxy in front of every gain the engines score.  These tests load it
read-only, so a change to the package that breaks a name it binds, or that
scores candidates around the proxy, fails here as well as in the benchmark.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import varsel.cli  # noqa: F401  (every module the tracer patches is loaded)
import varsel.selectors as selectors
from varsel import center_columns, gen_sim2

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every callable global of the loaded ``varsel`` modules, the registry,
    and the two class dictionaries the tracer patches."""
    modules = [m for n, m in sys.modules.items() if n == "varsel" or n.startswith("varsel.")]
    return (
        {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)},
        dict(selectors.ALGORITHMS),
        dict(vars(selectors.OrthonormalBasis)),
        dict(vars(varsel.oracle.TabulatedSetFunction)),
    )


def test_install_and_uninstall_leave_no_leftovers(tracing):
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert selectors.ALGORITHMS["fsca"] is not before[1]["fsca"]
        assert selectors.greedy_select is not before[0][("varsel.selectors", "greedy_select")]
    finally:
        assert tracer.uninstall() == []
    after = bindings()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())


@pytest.mark.parametrize("algo", ["fsca", "lfsca"])
def test_every_evaluation_goes_through_the_proxy(tracing, algo):
    # The plain engine scores each step with one ``gain_all`` call, and the
    # lazy one each evaluation, first step included, with one ``gain``
    # call: each is one ``engine.scan`` span.
    data = center_columns(gen_sim2(200, 5, 30, seed=2))
    k = 8
    untraced = selectors.ALGORITHMS[algo](data, k)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op, tracer.pass_id = algo, 0
        traced = selectors.ALGORITHMS[algo](data, k)
    finally:
        assert tracer.uninstall() == []
    assert (traced.order, traced.eval_count) == (untraced.order, untraced.eval_count)
    scans = [s for s in tracer.spans if s.name == "engine.scan"]
    runs = [s for s in tracer.spans if s.name == "engine.run"]
    assert len(runs) == 1 and runs[0].attrs["evals"] == traced.eval_count
    expected = k if algo == "fsca" else traced.eval_count
    assert len(scans) == expected and all(s.op == algo for s in scans)
    values = tracing.layer_metrics(tracer.spans, tracing.self_times(tracer.spans))
    assert values[f"engine.{algo}.evals"] == traced.eval_count
    assert values[f"engine.{algo}.scan_s"] > 0.0 and values[f"engine.{algo}.commit_s"] > 0.0
