"""Run the benchmark grid on the two synthetic families and print a summary.

Runs every selection algorithm on sim1 (500x26) and sim2 (1000x50, u=25)
across several seeds, then prints per-cell medians: AUC, relative
performance r, k at the 95%/99% VE thresholds, timing, and speed-up
relative to plain greedy selection.  Optionally writes the full report as
JSON for later inspection.

Usage:
    python scripts/run_sim_benchmark.py
    python scripts/run_sim_benchmark.py --repeats 10 --seed-base 0 --output report.json
"""

from __future__ import annotations

import argparse
import sys

from varsel import (
    AlgoConfig,
    BenchConfig,
    DatasetSource,
    SimSpec,
    emit_report,
    run_benchmark,
)
from varsel.selectors import ALGORITHMS


def build_config(args: argparse.Namespace) -> BenchConfig:
    datasets = (
        DatasetSource(name="sim1", sim=SimSpec(family="sim1", m=500, seed=args.seed_base)),
        DatasetSource(
            name="sim2",
            sim=SimSpec(family="sim2", m=1000, seed=args.seed_base, params={"u": 25, "v": 50}),
        ),
    )
    algorithms = tuple(AlgoConfig(name=name) for name in sorted(ALGORITHMS))
    return BenchConfig(
        datasets=datasets,
        algorithms=algorithms,
        k_max=args.k_max,
        thresholds=(95.0, 99.0),
        repeats=args.repeats,
        seed_base=args.seed_base,
        metric_ks=tuple(k for k in (5, 10) if k <= args.k_max),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="seeds per cell (default 3)")
    parser.add_argument("--seed-base", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--k-max", type=int, default=26, help="selection depth (default 26)")
    parser.add_argument("--output", default=None, help="write the full JSON report here")
    args = parser.parse_args(argv)

    report = run_benchmark(build_config(args))

    header = f"{'dataset':8} {'algorithm':10} {'auc':>7} {'r':>6} {'k95':>4} {'k99':>4} {'med s':>8} {'vs fsca':>8}"
    print(header)
    print("-" * len(header))
    for cell in report.cells:
        if cell.error is not None:
            print(f"{cell.dataset:8} {cell.algorithm:10} error: {cell.error}")
            continue
        auc = f"{cell.auc:.3f}" if cell.auc is not None else "-"
        r = f"{cell.r:.1f}" if cell.r is not None else "-"
        k95 = cell.k_for(95.0)
        k99 = cell.k_for(99.0)
        print(
            f"{cell.dataset:8} {cell.algorithm:10} {auc:>7} {r:>6} "
            f"{k95 if k95 is not None else '-':>4} {k99 if k99 is not None else '-':>4} "
            f"{cell.elapsed_median_s:>8.3f} {cell.speedup_vs_fsca:>8.2f}"
        )

    if args.output:
        emit_report(report, args.output, format="json")
        print(f"\nfull report written to {args.output}")
    return 2 if report.has_errors else 0


if __name__ == "__main__":
    sys.exit(main())
