"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single summary line of
the form ``CRITERION n: PASS — detail`` (or ``FAIL`` / ``SKIP``).  Run with
``pytest tests/test_acceptance.py -s`` to see the lines; without ``-s`` they
appear only for failing criteria.

Criteria 5 and 8 depend on files the user must place under ``data/`` (or the
directory named by ``VARSEL_DATA_DIR``); they skip with a warning when those
files are absent.
"""

from __future__ import annotations

import math
import statistics
import warnings
from time import perf_counter

import numpy as np
import pytest

from varsel import (
    CovarianceModel,
    Dataset,
    TabulatedSetFunction,
    bound_report,
    center_columns,
    compare_to_optimal,
    dataset_from_gram,
    exhaustive_optimal,
    frame_potential,
    fsca_select,
    fsfp_fsca_select,
    gen_sim1,
    gen_sim2,
    itfs_select,
    k_at_threshold,
    lfsca_select,
    load_csv,
    nipals_first_pc,
    normalize_unit,
    tabulated_optimal,
    ufs_select,
    variance_explained,
)
from varsel.selectors import ALGORITHMS, _ItfsGain

from conftest import data_dir, deflated, lazy_select, make_rng, random_dataset
from reference import project_onto

N_SEEDS = 10


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {criterion}: {status} — {detail}"
    print(line)
    assert ok, line


def _skip(criterion: int, detail: str) -> None:
    line = f"CRITERION {criterion}: SKIP — {detail}"
    print(line)
    warnings.warn(line)
    pytest.skip(line)


def _optional_dataset(name: str) -> Dataset | None:
    path = data_dir() / name
    if not path.is_file():
        return None
    return center_columns(load_csv(path, has_header=False))


def _sim1(seed: int) -> Dataset:
    return center_columns(gen_sim1(500, seed))


def _sim2(seed: int) -> Dataset:
    return center_columns(gen_sim2(1000, 25, 50, seed))


def _lower_median(values) -> float:
    return statistics.median_low(sorted(values))


# -------------------------------------------------------------------------
# Criterion 1 — lazy selection tracks plain selection in variance explained
# -------------------------------------------------------------------------


def test_criterion_1_lazy_fidelity():
    started = perf_counter()
    worst = 0.0
    worst_at = ""
    cases: list[tuple[str, Dataset]] = []
    for seed in range(N_SEEDS):
        cases.append((f"sim1/{seed}", _sim1(seed)))
        cases.append((f"sim2/{seed}", _sim2(seed)))
    extras = 0
    for name in ("sales.csv", "gases.csv", "music.csv", "arrhythmia.csv"):
        data = _optional_dataset(name)
        if data is not None:
            cases.append((name, data))
            extras += 1
    for name, data in cases:
        k_limit = min(50, data.v)
        plain = fsca_select(data, k_limit)
        lazy = lfsca_select(data, k_limit)
        diff = float(
            np.max(np.abs(np.asarray(plain.ve_curve.values) - np.asarray(lazy.ve_curve.values)))
        )
        if diff > worst:
            worst, worst_at = diff, name
    elapsed = perf_counter() - started
    _report(
        1,
        worst <= 0.1 and elapsed < 120.0,
        f"max |VE gap| {worst:.2e} pp (at {worst_at}) over {len(cases)} datasets "
        f"({extras} user-supplied), {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# Criterion 2 — lazy selection speed-up floors
# -------------------------------------------------------------------------


def _lazy_speedup(data: Dataset, k: int) -> float:
    """FSCA's median ``elapsed`` over L-FSCA's, from 10 sequential runs of
    each (FSCA first) on the same centered data."""
    fsca = statistics.median(fsca_select(data, k).elapsed for _ in range(10))
    lfsca = statistics.median(lfsca_select(data, k).elapsed for _ in range(10))
    return fsca / lfsca


@pytest.mark.slow
def test_criterion_2_speedup():
    started = perf_counter()
    rng = make_rng(20)
    s_big = _lazy_speedup(center_columns(Dataset(rng.standard_normal((5000, 400)))), 50)
    s_small = _lazy_speedup(center_columns(Dataset(rng.standard_normal((500, 100)))), 5)
    elapsed = perf_counter() - started
    _report(
        2,
        s_big >= 3.0 and s_small >= 1.2 and elapsed < 300.0,
        f"speed-up {s_big:.2f}x at 5000x400/k=50 (floor 3), "
        f"{s_small:.2f}x at 500x100/k=5 (floor 1.2), {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# Criterion 3 — lazy and plain engines agree on submodular gains
# -------------------------------------------------------------------------


def test_criterion_3_lazy_equivalence():
    mismatches = 0
    for seed in range(100):
        data = normalize_unit(random_dataset(100, 20, seed=seed))
        fp_plain = fsfp_fsca_select(data, 10)
        fp_lazy = lazy_select("fsfp-fsca", data, 10)
        if fp_plain.order != fp_lazy.order:
            mismatches += 1
        ufs_plain = ufs_select(data, 10)
        ufs_lazy = lazy_select("ufs", data, 10)
        if ufs_plain.order != ufs_lazy.order:
            mismatches += 1
    _report(
        3,
        mismatches == 0,
        f"{mismatches} sequence mismatches over 100 instances x 2 gains (steps through k=10)",
    )


# -------------------------------------------------------------------------
# Criterion 4 — simulated benchmark reproduction
# -------------------------------------------------------------------------


def test_criterion_4_simulated_benchmarks():
    sim1_k95, sim1_k99, sim1_ufs_k99 = [], [], []
    for seed in range(N_SEEDS):
        data = _sim1(seed)
        curve = fsca_select(data, data.v).ve_curve
        sim1_k95.append(k_at_threshold(curve, 95.0))
        sim1_k99.append(k_at_threshold(curve, 99.0))
        ufs_curve = ufs_select(data, data.v).ve_curve
        sim1_ufs_k99.append(k_at_threshold(ufs_curve, 99.0))

    sim2_k99, sim2_ve5, sim2_ve10 = [], [], []
    for seed in range(N_SEEDS):
        data = _sim2(seed)
        curve = fsca_select(data, data.v).ve_curve
        sim2_k99.append(k_at_threshold(curve, 99.0))
        sim2_ve5.append(curve.values[4])
        sim2_ve10.append(curve.values[9])

    m_k95 = _lower_median(sim1_k95)
    m_k99 = _lower_median(sim1_k99)
    m_ufs = _lower_median(sim1_ufs_k99)
    m2_k99 = _lower_median(sim2_k99)
    m2_ve5 = _lower_median(sim2_ve5)
    m2_ve10 = _lower_median(sim2_ve10)

    checks = [
        m_k95 in (4, 5, 6),
        m_k99 in (6, 7),
        m_ufs >= 15,
        20 <= m2_k99 <= 24,
        abs(m2_ve5 - 43.32) <= 0.20 * 43.32,
        abs(m2_ve10 - 71.08) <= 0.15 * 71.08,
    ]
    _report(
        4,
        all(checks),
        f"sim1 medians k95={m_k95} (want 4-6), k99={m_k99} (want 6-7), "
        f"ufs k99={m_ufs} (want >=15); sim2 medians k99={m2_k99} (want 20-24), "
        f"VE@5={m2_ve5:.2f} (want 43.32+-20%), VE@10={m2_ve10:.2f} (want 71.08+-15%)",
    )


# -------------------------------------------------------------------------
# Criterion 5 — user-supplied benchmark CSVs, exact integer signatures
# -------------------------------------------------------------------------


def test_criterion_5_external_datasets():
    available = {
        name: _optional_dataset(f"{name}.csv")
        for name in ("sales", "gases", "music", "arrhythmia")
    }
    if all(data is None for data in available.values()):
        _skip(5, "no benchmark CSVs under data/ — place sales/gases/music/arrhythmia CSVs to enable")

    results = []
    ok = True

    def check(label: str, actual, expected) -> None:
        nonlocal ok
        good = actual == expected
        ok = ok and good
        results.append(f"{label}={actual} (want {expected})")

    if available["sales"] is not None:
        data = available["sales"]
        curve = fsca_select(data, data.v).ve_curve
        first = fsca_select(data, 1).order[0]
        check("sales first", first, 48)
        check("sales k95", k_at_threshold(curve, 95.0), 5)
        check("sales k99", k_at_threshold(curve, 99.0), 38)
    if available["gases"] is not None:
        data = available["gases"]
        check("gases fsca k99", len(fsca_select(data, tau=99.0).order), 3)
        check("gases ufs k99", len(ufs_select(data, tau=99.0).order), 17)
    if available["music"] is not None:
        check("music fsca k99", len(fsca_select(available["music"], tau=99.0).order), 61)
    if available["arrhythmia"] is not None:
        check(
            "arrhythmia fsca k95",
            len(fsca_select(available["arrhythmia"], tau=95.0).order),
            47,
        )

    missing = sorted(name for name, data in available.items() if data is None)
    suffix = f"; missing: {', '.join(missing)}" if missing else ""
    _report(5, ok, "; ".join(results) + suffix)


# -------------------------------------------------------------------------
# Criterion 6 — greedy bound and modular optimality on tabulated functions
# -------------------------------------------------------------------------


def _random_coverage_function(seed: int):
    """Weighted-coverage set function: monotone and submodular by design."""
    rng = make_rng(1000 + seed)
    v = 4 + seed % 5
    n_elements = 12
    weights = rng.uniform(0.5, 2.0, size=n_elements)
    covers = [
        frozenset(rng.choice(n_elements, size=rng.integers(1, 6), replace=False).tolist())
        for _ in range(v)
    ]

    def evaluate(subset: tuple[int, ...]) -> float:
        covered: set[int] = set()
        for i in subset:
            covered |= covers[i - 1]
        return float(sum(weights[e] for e in covered))

    return v, evaluate


def test_criterion_6_bound_properties():
    started = perf_counter()
    min_margin = math.inf
    for seed in range(50):
        v, evaluate = _random_coverage_function(seed)
        table = TabulatedSetFunction.from_callable(v, evaluate)
        for k in range(1, v + 1):
            rep = bound_report(table, k)
            min_margin = min(min_margin, rep.greedy_ratio - rep.b_alpha_gamma)
    bound_ok = min_margin >= -1e-9

    modular_ok = True
    for seed in range(20):
        rng = make_rng(2000 + seed)
        v = 4 + seed % 5
        weights = rng.uniform(0.1, 3.0, size=v)

        def evaluate(subset: tuple[int, ...]) -> float:
            return float(sum(weights[i - 1] for i in subset))

        table = TabulatedSetFunction.from_callable(v, evaluate)
        for k in range(1, v + 1):
            rep = bound_report(table, k)
            optimal = tabulated_optimal(table, k)
            if not math.isclose(rep.greedy_value, optimal.value, rel_tol=0, abs_tol=1e-9):
                modular_ok = False
    elapsed = perf_counter() - started
    _report(
        6,
        bound_ok and modular_ok and elapsed < 120.0,
        f"50 submodular functions: min(greedy_ratio - b_ag) = {min_margin:.2e} (floor -1e-9); "
        f"20 modular functions greedy==optimal: {modular_ok}; {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# Criterion 7 — numerical consistency suite
# -------------------------------------------------------------------------


def test_criterion_7_numerical_consistency():
    # (a) sequential deflation equals the one-shot residual of the 60-digit
    # reference projection
    deflation_dev = 0.0
    for seed in range(10):
        data = random_dataset(60, 8, seed=seed)
        sequence = (1, 4, 6)
        rolling = deflated(data, sequence)
        direct = data.values - project_onto(data, sequence)
        deflation_dev = max(deflation_dev, float(np.max(np.abs(rolling - direct))))

    # (b) VE curves never decrease, across every algorithm
    monotone_ok = True
    for seed in range(3):
        data = random_dataset(50, 8, seed=100 + seed)
        unit = normalize_unit(data)
        for name, selector in sorted(ALGORITHMS.items()):
            run = selector(unit if name in ("fsfp-fsca", "ufs") else data, 6)
            diffs = np.diff(run.ve_curve.values)
            if len(diffs) and float(diffs.min()) < -5e-10:
                monotone_ok = False

    # (c) NIPALS direction matches the dominant eigenvector by power iteration
    worst_cosine = 1.0
    for seed in range(50):
        data = random_dataset(40, 6, seed=200 + seed)
        scores = nipals_first_pc(data).scores
        gram = data.values @ data.values.T
        y = np.ones(data.m)
        for _ in range(5000):
            y_next = gram @ y
            y_next /= np.linalg.norm(y_next)
            if np.linalg.norm(y_next - y) < 1e-13:
                y = y_next
                break
            y = y_next
        cosine = abs(float(scores @ y)) / float(np.linalg.norm(scores))
        worst_cosine = min(worst_cosine, cosine)

    # (d) frame potential equals the literal double loop
    fp_dev = 0.0
    for seed in range(10):
        data = normalize_unit(random_dataset(30, 8, seed=300 + seed))
        selected = (1, 3, 5, 8)
        direct = 0.0
        for i in selected:
            for j in selected:
                direct += float(data.values[:, i - 1] @ data.values[:, j - 1]) ** 2
        fp_dev = max(fp_dev, abs(frame_potential(data, selected) - direct))

    # (e) posterior-variance ratio equals the Gaussian entropy difference
    mi_dev = 0.0
    for seed in range(5):
        data = random_dataset(60, 6, seed=400 + seed)
        model = CovarianceModel.from_dataset(data, sigma=0.05)
        s2 = model.sigma_noise**2
        cov = model.cov

        def cond_var(i0, given0):
            if len(given0) == 0:
                return cov[i0, i0] + s2
            block = cov[np.ix_(given0, given0)] + s2 * np.eye(len(given0))
            cross = cov[given0, i0]
            return cov[i0, i0] + s2 - float(cross @ np.linalg.solve(block, cross))

        gain = _ItfsGain(data, 0.05)
        for selected in [(), (2,), (1, 5)]:
            sel0 = [s - 1 for s in selected]
            scores = gain.step_scores(sel0)
            for i0 in sorted(set(range(6)) - set(sel0)):
                rest0 = sorted(set(range(6)) - set(sel0) - {i0})
                h_s = 0.5 * math.log(2 * math.pi * math.e * cond_var(i0, sel0))
                h_rest = 0.5 * math.log(2 * math.pi * math.e * cond_var(i0, rest0))
                expected = math.exp(2.0 * (h_s - h_rest))
                mi_dev = max(mi_dev, abs(float(scores[i0]) - expected))

    checks = [
        deflation_dev <= 1e-7,
        monotone_ok,
        worst_cosine >= 1.0 - 1e-6,
        fp_dev <= 1e-10,
        mi_dev <= 1e-8,
    ]
    _report(
        7,
        all(checks),
        f"deflation-vs-projection {deflation_dev:.2e} (<=1e-7); VE monotone: {monotone_ok}; "
        f"NIPALS-vs-power min cosine {worst_cosine:.9f} (>=1-1e-6); "
        f"FP double-loop {fp_dev:.2e} (<=1e-10); posterior-ratio-vs-entropy {mi_dev:.2e} (<=1e-8)",
    )


# -------------------------------------------------------------------------
# Criterion 8 — correlation-matrix benchmark (conditional on supplied file)
# -------------------------------------------------------------------------


def test_criterion_8_correlation_matrix_benchmark():
    path = data_dir() / "pitprops_corr.csv"
    if not path.is_file():
        _skip(8, f"correlation matrix not found at {path} — supply the 13x13 CSV to enable")

    corr = load_csv(path, has_header=False).values
    if corr.shape != (13, 13):
        _report(8, False, f"expected a 13x13 matrix, got {corr.shape}")
    data = dataset_from_gram(corr)

    optimal = exhaustive_optimal(data, 7, "ve")
    fsca = fsca_select(data, 7)
    itfs = itfs_select(data, 7)
    fsca_ve = fsca.ve_curve.values[-1]
    fsca_nb = compare_to_optimal(fsca.order, optimal, data=data).n_common
    itfs_nb = compare_to_optimal(itfs.order, optimal, data=data).n_common

    checks = [
        abs(optimal.value - 86.9) <= 0.1,
        abs(fsca_ve - 85.3) <= 0.1,
        itfs_nb == 7,
        fsca_nb == 3,
    ]
    _report(
        8,
        all(checks),
        f"exhaustive k=7 VE {optimal.value:.2f} (want 86.9+-0.1); "
        f"plain VE {fsca_ve:.2f} (want 85.3+-0.1); "
        f"posterior-ratio n_b {itfs_nb} (want 7); plain n_b {fsca_nb} (want 3)",
    )
