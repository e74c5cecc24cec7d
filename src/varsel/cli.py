"""Command-line interface.

Four subcommands:

* ``select``: run one algorithm on one dataset, print the selection.
* ``bench``: run a benchmark grid described by a JSON config file.
* ``gen``: write a simulated dataset to CSV.
* ``oracle``: exhaustive optimal subset, optional curvature bounds and a
  comparison against a greedy algorithm.

Datasets come from a CSV path or the literal names ``sim1``/``sim2``
(generated on the fly with ``--m``, ``--u``, ``--v``, ``--seed``).  Input
is centered automatically before selection.

Exit codes: 0 on success, 1 on configuration or input errors, 2 when a
benchmark grid completed with failed cells.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from functools import partial

from .bench import AlgoConfig, BenchConfig, emit_report, run_benchmark
from .dataset import Dataset, center_columns, load_csv, save_csv
from .errors import SelectionError
from .metrics import variance_explained
from .oracle import TabulatedSetFunction, _ground_set_size, bound_report
from .oracle import compare_to_optimal, exhaustive_optimal
from .selectors import ALGORITHMS
from .simgen import gen_sim1, gen_sim2

__all__ = ["main"]


# =========================================================================
# Shared helpers
# =========================================================================


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--input",
        required=True,
        help="CSV path, or 'sim1'/'sim2' for generated data",
    )
    parser.add_argument(
        "--header",
        action="store_true",
        help="first CSV row holds column labels",
    )
    _add_sim_options(parser)


def _add_sim_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=1000, help="rows for simulated data")
    parser.add_argument("--u", type=int, default=25, help="independent columns for sim2")
    parser.add_argument("--v", type=int, default=50, help="total columns for sim2")
    parser.add_argument("--seed", type=int, default=0, help="seed for simulated data")


def _load_input(args: argparse.Namespace) -> Dataset:
    if args.input == "sim1":
        return gen_sim1(args.m, args.seed)
    if args.input == "sim2":
        return gen_sim2(args.m, args.u, args.v, args.seed)
    return load_csv(args.input, has_header=args.header)


def _emit_json(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# =========================================================================
# Subcommands
# =========================================================================


def _cmd_select(args: argparse.Namespace) -> int:
    if (args.k is None) == (args.tau is None):
        raise ValueError("provide exactly one of --k and --tau")
    algo = AlgoConfig(args.algo, args.sigma)
    data = center_columns(_load_input(args))
    result = algo.run(data, args.k, tau=args.tau)
    if args.format == "csv":
        _write_select_csv(result, data, args.output)
    else:
        payload = asdict(result) | {
            "ve_curve": result.ve_curve.values,
            "labels": [data.label_for(i) for i in result.order],
        }
        _emit_json(payload, args.output)
    return 0


def _write_select_csv(result, data: Dataset, output: str | None) -> None:
    import csv as _csv

    rows = [["k", "index", "label", "ve", "native"]]
    for step, index in enumerate(result.order):
        rows.append(
            [
                str(step + 1),
                str(index),
                data.label_for(index),
                repr(float(result.ve_curve[step])),
                repr(float(result.native_trace[step])),
            ]
        )
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            _csv.writer(fh).writerows(rows)
    else:
        _csv.writer(sys.stdout).writerows(rows)


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.format == "csv" and not args.output:
        raise ValueError("csv format requires --output")
    with open(args.config, encoding="utf-8") as fh:
        config = BenchConfig.from_dict(json.load(fh))
    if args.repeats is not None:
        config = replace(config, repeats=args.repeats)
    if args.seed is not None:
        config = replace(config, seed_base=args.seed)
    report = run_benchmark(config)
    if args.output:
        emit_report(report, args.output, args.format)
    else:
        print(json.dumps(asdict(report), indent=2, sort_keys=True))
    for cell in report.cells:
        if cell.error is not None:
            print(f"cell failed: {cell.dataset}/{cell.algorithm}: {cell.error}", file=sys.stderr)
    return 2 if report.has_errors else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "sim1":
        data = gen_sim1(args.m, args.seed)
        note = f"sim1 m={args.m} seed={args.seed}"
    else:
        data = gen_sim2(args.m, args.u, args.v, args.seed, args.noise_sd)
        note = f"sim2 m={args.m} u={args.u} v={args.v} seed={args.seed} noise_sd={args.noise_sd}"
    save_csv(data, args.output, comment=note)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.sigma is not None and args.metric != "mi" and args.algo != "itfs":
        raise ValueError("--sigma applies only to the mi metric or itfs")
    if args.bounds and args.metric != "ve":
        raise ValueError("--bounds is available only for the ve metric")
    algo = AlgoConfig(args.algo, args.sigma if args.algo == "itfs" else None) if args.algo else None
    data = center_columns(_load_input(args))
    if args.bounds:
        _ground_set_size(data.v)  # the table's limit, checked before the search
    sigma = args.sigma if args.metric == "mi" else None
    optimal = exhaustive_optimal(data, args.k, args.metric, sigma=sigma)
    payload: dict = {
        "metric": optimal.metric,
        "k": optimal.k,
        "optimal_indices": list(optimal.ordered),
        "optimal_labels": [data.label_for(i) for i in optimal.ordered],
        "optimal_value": optimal.value,
    }
    if args.bounds:
        # VE equals the search's scorer bit for bit, so the two optima agree.
        table = TabulatedSetFunction.from_callable(data.v, partial(variance_explained, data))
        bounds = asdict(bound_report(table, args.k))
        del bounds["k"]
        payload["bounds"] = bounds
    if algo is not None:
        result = algo.run(data, args.k)
        comparison = compare_to_optimal(result.order, optimal, data=data, sigma=sigma)
        payload["comparison"] = {
            "algorithm": args.algo,
            "order": list(result.order),
            "n_common": comparison.n_common,
            "achieved": comparison.achieved,
            "ratio": comparison.ratio,
        }
    _emit_json(payload, args.output)
    return 0


# =========================================================================
# Parser
# =========================================================================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varsel",
        description="Greedy unsupervised variable selection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run one selection algorithm")
    p_select.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p_select.add_argument("--k", type=int, help="number of variables to select")
    p_select.add_argument("--tau", type=float, help="variance-explained stopping threshold")
    p_select.add_argument("--sigma", type=float, help="noise scale for itfs")
    _add_input_options(p_select)
    p_select.add_argument("--format", choices=("json", "csv"), default="json")
    p_select.add_argument("--output", help="write to this path instead of stdout")
    p_select.set_defaults(func=_cmd_select)

    p_bench = sub.add_parser("bench", help="run a benchmark grid")
    p_bench.add_argument("--config", required=True, help="JSON benchmark config path")
    p_bench.add_argument("--repeats", type=int, help="override config repeats")
    p_bench.add_argument("--seed", type=int, help="override config seed_base")
    p_bench.add_argument("--format", choices=("json", "csv"), default="json")
    p_bench.add_argument("--output", help="write the report to this path")
    p_bench.set_defaults(func=_cmd_bench)

    p_gen = sub.add_parser("gen", help="write a simulated dataset to CSV")
    p_gen.add_argument("family", choices=("sim1", "sim2"))
    _add_sim_options(p_gen)
    p_gen.add_argument("--noise-sd", type=float, default=0.1, dest="noise_sd")
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_oracle = sub.add_parser("oracle", help="exhaustive optimum and bounds")
    p_oracle.add_argument("--metric", choices=("ve", "fp", "mi"), default="ve")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--sigma", type=float, help="noise scale for the mi metric and itfs")
    p_oracle.add_argument("--bounds", action="store_true", help="tabulate and report greedy bounds")
    p_oracle.add_argument("--algo", choices=sorted(ALGORITHMS), help="compare this algorithm")
    _add_input_options(p_oracle)
    p_oracle.add_argument("--output", help="write to this path instead of stdout")
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (SelectionError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
