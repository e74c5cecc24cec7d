"""The benchmark's workloads: inputs from a seed, the timed operations, and
the checks on their outputs.

Every workload draws its inputs from ``POOL`` recorded input seeds,
because outputs are checked against reference orders and optima recorded
in ``refs.json`` for exactly those inputs (see ``record_refs.py``).  A run
with benchmark seed ``s`` uses ``inputs_per_run`` consecutive input seeds
starting at ``s * inputs_per_run`` (modulo ``POOL``) and cycles through
them pass by pass, so data-dependent costs (NIPALS iterations, lazy
re-evaluations) are averaged over several inputs.  The program only ever
sees the generated data.

Package entry points are looked up on their modules at call time
(``simgen.gen_sim2``, ``selectors.ALGORITHMS[name]``, ...), so the
tracer's wrappers see the calls when they are installed and nothing
changes when they are not.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import varsel.dataset as dataset
import varsel.metrics as metrics
import varsel.oracle as oracle
import varsel.selectors as selectors
import varsel.simgen as simgen
from tracing import SELECTORS, Span

#: Number of distinct input seeds with recorded references.
POOL = 32

#: A selector's last VE value must match the benchmark's own VE of its
#: order within this many percentage points.
VE_TOL = 1e-6

#: Oracle values must match their references within this relative error.
VALUE_RTOL = 1e-9

#: Selectors whose orders are checked against references; ``pfs`` is
#: checked by VE only, since replacing NIPALS may change its orders.
ORDER_CHECKED = tuple(a for a in SELECTORS if a != "pfs")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Scratch directory for files a run writes (the CSV), one subdirectory per
#: process; removed afterwards.
WORKDIR = ROOT / ".perfbench_work"


@contextmanager
def scratch_dir():
    """A fresh directory under ``WORKDIR`` for this process, removed on exit."""
    path = WORKDIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


def input_seeds(seed: int, count: int) -> list[int]:
    """The recorded input seeds a run with benchmark seed ``seed`` uses."""
    return [(int(seed) * count + j) % POOL for j in range(count)]


def own_ve(centered: np.ndarray, order) -> float:
    """VE (percent) of a 1-based order, from a QR factorization of the
    selected columns; independent of the package's own VE code."""
    q, _ = np.linalg.qr(centered[:, np.asarray(order, dtype=int) - 1])
    captured = float(np.linalg.norm(q.T @ centered)) ** 2
    return 100.0 * captured / float(np.linalg.norm(centered)) ** 2


def check_order(order, k: int, v: int) -> list[str]:
    order = list(order)
    errors = []
    if len(order) != k:
        errors.append(f"selected {len(order)} variables, expected {k}")
    if len(set(order)) != len(order):
        errors.append(f"duplicate indices in {order}")
    if any(not 1 <= i <= v for i in order):
        errors.append(f"index outside 1..{v} in {order}")
    return errors


def check_selection(order, last_ve: float, centered: np.ndarray, k: int, expected) -> list[str]:
    """Length, duplicates, last VE against :func:`own_ve`, and the
    reference order when ``expected`` is given."""
    errors = check_order(order, k, centered.shape[1])
    if errors:
        return errors
    ve = own_ve(centered, order)
    if abs(ve - last_ve) > VE_TOL:
        errors.append(f"last VE {last_ve!r} differs from recomputed {ve!r}")
    if expected is not None and list(order) != list(expected):
        errors.append(f"order {list(order)} differs from reference {list(expected)}")
    return errors


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= VALUE_RTOL * max(1.0, abs(reference))


@dataclass(frozen=True)
class Op:
    """One timed operation; ``run`` takes no arguments."""

    name: str
    run: object


# =========================================================================
# tall / wide: the seven selectors through the library API
# =========================================================================


@dataclass(frozen=True)
class SelectorWorkload:
    name: str
    why: str
    m: int
    u: int
    v: int
    k: int
    setup_reps: int = 9
    inputs_per_run: int = 3
    probe: str = "blas"

    def describe(self) -> str:
        return f"sim2 m={self.m} u={self.u} v={self.v}, k={self.k}, all 7 selectors"

    def setup(self, seed: int, workdir: Path) -> dict:
        raw = simgen.gen_sim2(self.m, self.u, self.v, seed)
        return {"data": dataset.center_columns(raw)}

    def ops(self, ctx: dict, traced: bool = False) -> list[Op]:
        def run(algo):
            return selectors.ALGORITHMS[algo](ctx["data"], self.k)

        return [Op(algo, partial(run, algo)) for algo in SELECTORS]

    def signature(self, op: str, out) -> tuple:
        return tuple(out.order)

    def check(self, op: str, out, ctx: dict, ref: dict) -> list[str]:
        expected = ref["orders"].get(op) if op in ORDER_CHECKED else None
        return check_selection(
            out.order, out.ve_curve.values[-1], ctx["data"].values, self.k, expected
        )

    def reference(self, ctx: dict) -> dict:
        data = ctx["data"]
        return {
            "orders": {
                algo: list(selectors.ALGORITHMS[algo](data, self.k).order)
                for algo in ORDER_CHECKED
            }
        }


# =========================================================================
# csv: `varsel select` as a subprocess on a CSV written in set-up
# =========================================================================


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    max_rss_mb: float
    spans: list | None = None
    leftovers: tuple = ()


def subprocess_env() -> dict:
    """The benchmark's environment plus ``src`` on the import path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_measured(cmd: list[str], workdir: Path) -> CliResult:
    """Run ``cmd`` to completion and return its output with its own peak
    resident memory (from ``wait4``, so only this child is counted)."""
    err_path = workdir / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=subprocess_env(), cwd=ROOT
        )
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return CliResult(proc.returncode, stdout.decode(), stderr, usage.ru_maxrss / 1024.0)


@dataclass(frozen=True)
class CsvWorkload:
    name: str
    why: str
    m: int
    u: int
    v: int
    k: int
    algo: str = "lfsca"
    setup_reps: int = 3
    inputs_per_run: int = 1
    probe: str = "startup"

    def describe(self) -> str:
        return f"`varsel select --algo {self.algo} --k {self.k}` on a {self.m}x{self.v} sim2 CSV"

    def setup(self, seed: int, workdir: Path) -> dict:
        raw = simgen.gen_sim2(self.m, self.u, self.v, seed)
        path = workdir / f"sim2_{self.m}x{self.v}.csv"
        dataset.save_csv(raw, path)
        centered = raw.values - raw.values.mean(axis=0)
        return {"path": path, "centered": centered, "workdir": workdir}

    def cli_args(self, ctx: dict) -> list[str]:
        return ["select", "--algo", self.algo, "--k", str(self.k), "--header",
                "--input", str(ctx["path"])]

    def ops(self, ctx: dict, traced: bool = False) -> list[Op]:
        workdir = ctx["workdir"]
        if not traced:
            cmd = [sys.executable, "-m", "varsel", *self.cli_args(ctx)]
            return [Op("select_cli", partial(run_measured, cmd, workdir))]

        def run_traced():
            spans_path = workdir / "spans.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                   *self.cli_args(ctx)]
            result = run_measured(cmd, workdir)
            if result.returncode != 0:
                return result
            saved = json.loads(spans_path.read_text(encoding="utf-8"))
            return CliResult(
                result.returncode, result.stdout, result.stderr, result.max_rss_mb,
                [Span.from_dict(s) for s in saved["spans"]], tuple(saved["leftovers"]),
            )

        return [Op("select_cli", run_traced)]

    def signature(self, op: str, out: CliResult) -> tuple:
        return tuple(json.loads(out.stdout)["order"])

    def check(self, op: str, out: CliResult, ctx: dict, ref: dict) -> list[str]:
        if out.returncode != 0:
            return [f"exit code {out.returncode}: {out.stderr.strip()[-500:]}"]
        if out.leftovers:
            return [f"wrappers left installed: {list(out.leftovers)}"]
        try:
            payload = json.loads(out.stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        return check_selection(
            payload["order"], payload["ve_curve"][-1], ctx["centered"], self.k, ref["order"]
        )

    def reference(self, ctx: dict) -> dict:
        data = dataset.center_columns(dataset.load_csv(ctx["path"], has_header=True))
        return {"order": list(selectors.ALGORITHMS[self.algo](data, self.k).order)}


# =========================================================================
# oracle: exhaustive optima and the tabulated bound report
# =========================================================================


@dataclass(frozen=True)
class OracleWorkload:
    name: str
    why: str
    m: int = 500
    u: int = 6
    v: int = 16
    k: int = 6
    table_u: int = 4
    table_v: int = 12
    table_k: int = 4
    setup_reps: int = 9
    inputs_per_run: int = 1
    probe: str = "interp"

    def describe(self) -> str:
        return (f"exhaustive ve/fp/mi at v={self.v} k={self.k}; "
                f"tabulated VE + bound report at v={self.table_v} k={self.table_k}")

    def setup(self, seed: int, workdir: Path) -> dict:
        search = dataset.center_columns(simgen.gen_sim2(self.m, self.u, self.v, seed))
        table = dataset.center_columns(
            simgen.gen_sim2(self.m, self.table_u, self.table_v, seed + POOL)
        )
        return {"search": search, "table": table}

    def ops(self, ctx: dict, traced: bool = False) -> list[Op]:
        def exhaustive(metric):
            return oracle.exhaustive_optimal(ctx["search"], self.k, metric)

        def bounds():
            table_data = ctx["table"]
            table = oracle.TabulatedSetFunction.from_callable(
                self.table_v, lambda subset: metrics.variance_explained(table_data, subset)
            )
            return oracle.bound_report(table, self.table_k)

        ops = [Op(f"exhaustive_{m}", partial(exhaustive, m)) for m in ("ve", "fp", "mi")]
        return ops + [Op("bounds", bounds)]

    def signature(self, op: str, out) -> tuple:
        if op == "bounds":
            return (out.greedy_value, out.optimal_value)
        return (out.ordered, out.value)

    def check(self, op: str, out, ctx: dict, ref: dict) -> list[str]:
        expected = ref[op]
        if op == "bounds":
            errors = []
            if not out.optimal_value >= out.greedy_value:
                errors.append(f"optimal {out.optimal_value} below greedy {out.greedy_value}")
            for key in ("greedy_value", "optimal_value"):
                if not _close(getattr(out, key), expected[key]):
                    errors.append(f"{key} {getattr(out, key)!r} differs from {expected[key]!r}")
            return errors
        errors = check_order(out.ordered, self.k, self.v)
        if list(out.ordered) != expected["indices"]:
            errors.append(f"optimum {list(out.ordered)} differs from {expected['indices']}")
        if not _close(out.value, expected["value"]):
            errors.append(f"optimal value {out.value!r} differs from {expected['value']!r}")
        return errors

    def reference(self, ctx: dict) -> dict:
        ref = {}
        for op in self.ops(ctx):
            out = op.run()
            if op.name == "bounds":
                ref[op.name] = {"greedy_value": out.greedy_value, "optimal_value": out.optimal_value}
            else:
                ref[op.name] = {"indices": list(out.ordered), "value": out.value}
        return ref


WORKLOADS = {
    w.name: w
    for w in (
        SelectorWorkload(
            "tall", "m >> v: per-candidate matvecs, deflation, NIPALS and VE tracking dominate",
            m=2000, u=25, v=150, k=30,
        ),
        SelectorWorkload(
            "wide", "v > m: the ITFS inverse of the unselected block and the lazy list over 600 candidates",
            m=250, u=50, v=600, k=20,
        ),
        CsvWorkload(
            "csv", "the user's path through `varsel select` on a CSV; the only workload that reads a file",
            m=5000, u=25, v=200, k=20,
        ),
        OracleWorkload(
            "oracle", "exhaustive search and set-function tabulation; Python loops over the metrics",
        ),
    )
}


def load_refs(path: Path = HERE / "refs.json") -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
