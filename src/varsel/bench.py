"""Benchmark harness: selector x dataset grids with metric aggregation.

``run_benchmark`` executes every configured algorithm on every configured
dataset for ``repeats`` seeded runs, then aggregates per-cell metrics:
AUC of the VE curve, the smallest k reaching each VE threshold, relative
performance against the other algorithms in the grid, metric values at
requested selection sizes, median wall-clock time, and speed-up versus
FSCA.  Failures are captured per cell so one broken combination does not
abort the grid.

Conventions baked in here:

* Seeds are ``seed_base + run_index`` and are recorded in the report.
  Seeded (simulated) sources are regenerated per run; CSV sources are
  fixed data, so their repeats differ only in timing.
* Centering is shared preprocessing and excluded from timing; unit
  normalization and covariance construction happen inside the selectors
  that need them and are therefore timed.  Each timed selector call gets
  a fresh ``Dataset`` of the same values, so every call pays for the Gram
  root it factors and the ``||X||^2`` it reads, whatever the grid's order
  of algorithms.
* Integer summaries (k at threshold) use the lower median; continuous
  summaries use the standard median.  A threshold never reached counts as
  infinity in the median, and the summary is None when the median itself
  is unreached.
* A selector that stops early (span exhausted, VE at its plateau) yields
  a short curve; curves are padded with their last value when alignment
  with other algorithms requires it.
* AUC is reported only when the run covers k = 1..v-1.
* Metric values at k (VE/FP/MI) are scored by ``metrics.subset_scorer``,
  one scorer per distinct dataset object: FP on the unit-normalized
  columns, MI under the default noise scale, regardless of per-algorithm
  options.  MI at ``k = v`` is None: it needs a non-empty complement.
  A metric that a dataset cannot be scored by is None for that dataset,
  such as FP when a column is constant (it has no unit-norm version).
* A dataset with no variance after centering, by the selectors' own
  ``||X||^2 = 0`` test, is a configuration error, as is a ``k_max`` above
  its column count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dataset import Dataset, center_columns, load_csv
from .engine import Cardinality
from .errors import SelectionError, ThresholdNeverReached, ZeroColumn
from .metrics import auc, k_at_threshold, relative_performance, subset_scorer
from .selectors import ALGORITHMS, SelectionResult, _check_itfs_sigma
from .simgen import SimSpec, dataset_from_spec

__all__ = [
    "DatasetSource",
    "AlgoConfig",
    "BenchConfig",
    "BenchCell",
    "BenchmarkReport",
    "run_benchmark",
    "emit_report",
]

SCHEMA_VERSION = "1.3.0"

#: Fixed leading CSV columns; k-at-threshold columns follow, one per
#: configured threshold, named ``k{n}pct``.
CSV_FIXED_COLUMNS = (
    "dataset",
    "algorithm",
    "auc",
    "r",
    "elapsed_median_s",
    "speedup_vs_fsca",
)


# =========================================================================
# Configuration
# =========================================================================


_JSON = {"object": (dict,), "list": (list,), "string": (str,), "boolean": (bool,),
         "number": (int, float), "integer": (int,)}
_REQUIRED = object()
#: JSON kinds of the ``sim.params`` values; ``SimSpec`` rejects other keys.
_SIM_PARAMS = {"u": "integer", "v": "integer", "noise_sd": "number"}


def _object(raw, where: str, cls) -> dict:
    """``raw`` checked to be a JSON object whose keys are all fields of the
    dataclass ``cls``; a ``ValueError`` names ``where`` and the first
    unknown key."""
    if type(raw) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {raw!r}")
    known = [f.name for f in fields(cls)]
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"{where} has the unknown key {unknown[0]!r}; known keys: {', '.join(known)}")
    return raw


def _field(raw: dict, key: str, where: str, kind: str, default=_REQUIRED, items: str | None = None):
    """``raw[key]`` checked to be a JSON ``kind`` (a list of ``items`` when
    given; exact types, so a boolean is no number), or ``default`` when the
    key is absent or null.  A ``ValueError`` names a required key that is
    absent and a key of the wrong type."""
    value = raw.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{where} is missing the required key {key!r}")
        return default
    if type(value) not in _JSON[kind] or (items and any(type(x) not in _JSON[items] for x in value)):
        kind = f"list of {items}s" if items else kind
        raise ValueError(f"{where} key {key!r} must be a JSON {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class DatasetSource:
    """One dataset in the grid: either a CSV file or a simulation spec."""

    name: str
    csv_path: str | None = None
    sim: SimSpec | None = None
    has_header: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("dataset name must be nonempty")
        if (self.csv_path is None) == (self.sim is None):
            raise ValueError(f"dataset {self.name!r}: provide exactly one of csv_path and sim")
        if self.has_header and self.sim is not None:
            raise ValueError(f"dataset {self.name!r}: has_header applies only to csv_path")

    @property
    def seeded(self) -> bool:
        return self.sim is not None

    def load(self, seed: int | None = None) -> Dataset:
        """Materialize the raw (uncentered) dataset."""
        if self.csv_path is not None:
            return load_csv(self.csv_path, has_header=self.has_header)
        sim = self.sim if seed is None else replace(self.sim, seed=seed)
        return dataset_from_spec(sim)

    @classmethod
    def from_dict(cls, raw: dict) -> "DatasetSource":
        _object(raw, "dataset", cls)
        s = _field(raw, "sim", "dataset", "object", None)
        params = {} if s is None else _field(_object(s, "sim", SimSpec), "params", "sim", "object", {})
        return cls(
            name=_field(raw, "name", "dataset", "string"),
            csv_path=_field(raw, "csv_path", "dataset", "string", None),
            sim=None if s is None else SimSpec(
                family=_field(s, "family", "sim", "string"),
                m=_field(s, "m", "sim", "integer", 1000),
                seed=_field(s, "seed", "sim", "integer", 0),
                params={key: _field(params, key, "sim params", _SIM_PARAMS.get(key, "number"))
                        for key in params},
            ),
            has_header=_field(raw, "has_header", "dataset", "boolean", False),
        )


@dataclass(frozen=True)
class AlgoConfig:
    """One algorithm in the grid with its per-algorithm options."""

    name: str
    sigma: float | None = None

    def __post_init__(self):
        if self.name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.name!r}; known: {sorted(ALGORITHMS)}")
        if self.sigma is not None and self.name != "itfs":
            raise ValueError(f"sigma applies only to itfs, not {self.name!r}")
        _check_itfs_sigma(self.sigma)

    def run(self, data: Dataset, k: int | None = None, *, tau: float | None = None) -> SelectionResult:
        """The algorithm's selection: ``k`` picks, or up to ``tau`` percent VE."""
        kwargs = {} if self.sigma is None else {"sigma": self.sigma}
        return ALGORITHMS[self.name](data, k, tau=tau, **kwargs)

    @classmethod
    def from_dict(cls, raw: dict) -> "AlgoConfig":
        _object(raw, "algorithm", cls)
        return cls(
            name=_field(raw, "name", "algorithm", "string"),
            sigma=_field(raw, "sigma", "algorithm", "number", None),
        )


@dataclass(frozen=True)
class BenchConfig:
    """Full description of a benchmark grid."""

    datasets: tuple[DatasetSource, ...]
    algorithms: tuple[AlgoConfig, ...]
    k_max: int
    thresholds: tuple[float, ...] = (95.0, 99.0)
    repeats: int = 1
    seed_base: int = 0
    metric_ks: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        object.__setattr__(self, "k_max", Cardinality(self.k_max).k)
        object.__setattr__(self, "metric_ks", tuple(Cardinality(k).k for k in self.metric_ks))
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError("dataset names must be unique")
        algos = [a.name for a in self.algorithms]
        if len(set(algos)) != len(algos):
            raise ValueError("algorithm names must be unique")
        if self.repeats < 1:
            raise ValueError(f"repeats must be at least 1, got {self.repeats}")
        columns = [_k_column(t) for t in self.thresholds]
        for i, t in enumerate(self.thresholds):
            if not 0.0 < t < 100.0:
                raise ValueError(f"thresholds must lie in (0, 100), got {t}")
            if columns[i] in columns[:i]:
                raise ValueError(f"threshold {t} repeats the CSV column {columns[i]}")
        for i, k in enumerate(self.metric_ks):
            if k > self.k_max:
                raise ValueError(f"metric_ks entries must lie in 1..k_max, got {k}")
            if k in self.metric_ks[:i]:
                raise ValueError(f"metric_ks repeats {k}")

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchConfig":
        _object(raw, "config", cls)
        return cls(
            datasets=tuple(DatasetSource.from_dict(d) for d in _field(raw, "datasets", "config", "list")),
            algorithms=tuple(AlgoConfig.from_dict(a) for a in _field(raw, "algorithms", "config", "list")),
            k_max=_field(raw, "k_max", "config", "integer"),
            thresholds=tuple(_field(raw, "thresholds", "config", "list", (95.0, 99.0), "number")),
            repeats=_field(raw, "repeats", "config", "integer", 1),
            seed_base=_field(raw, "seed_base", "config", "integer", 0),
            metric_ks=tuple(_field(raw, "metric_ks", "config", "list", (), "integer")),
        )


# =========================================================================
# Report types
# =========================================================================


@dataclass(frozen=True)
class BenchCell:
    """Aggregated results for one (dataset, algorithm) combination.

    ``orders`` and ``ve_curves`` are per-seed, aligned with ``seeds``.
    ``k_at`` holds (threshold, lower-median k) pairs with None when the
    median run never reached the threshold.  ``metric_values`` holds
    (metric, k, median value) triples for the configured ``metric_ks``.
    ``error`` is a diagnostic string when the cell failed; failed cells
    carry no metric payload.
    """

    dataset: str
    algorithm: str
    seeds: tuple[int, ...] = ()
    orders: tuple[tuple[int, ...], ...] = ()
    ve_curves: tuple[tuple[float, ...], ...] = ()
    auc: float | None = None
    k_at: tuple[tuple[float, int | None], ...] = ()
    r: float | None = None
    metric_values: tuple[tuple[str, int, float | None], ...] = ()
    elapsed_median_s: float | None = None
    speedup_vs_fsca: float | None = None
    error: str | None = None

    def k_for(self, threshold: float) -> int | None:
        for t, k in self.k_at:
            if t == float(threshold):
                return k
        raise KeyError(f"threshold {threshold} not in cell")

    def metric_value(self, metric: str, k: int) -> float | None:
        for name, at_k, value in self.metric_values:
            if name == metric and at_k == k:
                return value
        raise KeyError(f"({metric}, {k}) not in cell")


@dataclass(frozen=True)
class BenchmarkReport:
    """A benchmark grid's outcome: config echo plus one cell per combination,
    and the environment its timings came from (see :func:`_environment`)."""

    config: BenchConfig
    cells: tuple[BenchCell, ...]
    schema_version: str = SCHEMA_VERSION
    generated_at: str = ""
    environment: dict = field(default_factory=dict)

    @property
    def has_errors(self) -> bool:
        return any(cell.error is not None for cell in self.cells)

    def cell(self, dataset: str, algorithm: str) -> BenchCell:
        for c in self.cells:
            if c.dataset == dataset and c.algorithm == algorithm:
                return c
        raise KeyError(f"no cell for ({dataset!r}, {algorithm!r})")


# =========================================================================
# Aggregation helpers
# =========================================================================


def _lower_median(values) -> int | None:
    """Lower median of integers where None sorts as +infinity."""
    keyed = sorted(math.inf if x is None else x for x in values)
    pick = keyed[(len(keyed) - 1) // 2]
    return None if pick == math.inf else int(pick)


def _median(values) -> float | None:
    """Standard median of the non-None entries; None when all are None."""
    vals = [x for x in values if x is not None]
    return float(np.median(vals)) if vals else None


def _extend_curve(values, length: int) -> tuple[float, ...]:
    vals = list(values)[:length]
    if vals and len(vals) < length:
        vals.extend([vals[-1]] * (length - len(vals)))
    return tuple(vals)


def _run_error(exc: Exception, seed: int) -> str:
    return f"{type(exc).__name__} (seed {seed}): {exc}"


def _environment() -> dict:
    """Where a report's timings came from.  scipy's version is read from its
    package metadata, so recording it does not import scipy; ``platform``
    and ``importlib.metadata`` load here, not with ``varsel select``."""
    import platform
    from importlib import metadata

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


# =========================================================================
# Grid execution
# =========================================================================


def _run_cell(algo: AlgoConfig, per_seed_data: list[Dataset], seeds: list[int], k: int):
    """All repeats for one cell, each timed on a fresh copy of its dataset
    with no kept Gram root or ``||X||^2``; returns (results, error-or-None)."""
    results: list[SelectionResult] = []
    for data, seed in zip(per_seed_data, seeds):
        try:
            results.append(algo.run(replace(data), k))
        except (SelectionError, ValueError, np.linalg.LinAlgError) as exc:
            return results, _run_error(exc, seed)
    return results, None


def run_benchmark(config: BenchConfig) -> BenchmarkReport:
    """Execute the grid and aggregate a report.

    Deterministic apart from wall-clock fields: the same config produces
    the same metric values.  Per-cell failures become ``error`` entries;
    dataset-level problems (unreadable CSV, k_max exceeding the column
    count, no variance after centering) are configuration errors and raise
    instead.
    """
    seeds = [config.seed_base + i for i in range(config.repeats)]

    # Shared preprocessing, excluded from timing: load/generate + center.
    prepared: dict[str, list[Dataset]] = {}
    for source in config.datasets:
        if source.seeded:
            raws = [source.load(seed) for seed in seeds]
            centered = [center_columns(raw) for raw in raws]
        else:
            raws = [source.load()]
            centered = [center_columns(raws[0])] * config.repeats
        if any(config.k_max > raw.v for raw in raws):
            raise ValueError(
                f"k_max={config.k_max} exceeds column count of dataset {source.name!r}"
            )
        try:
            for data in centered:
                data._energy  # ||X||^2, kept for the VE metric; ValueError when 0
        except ValueError:
            raise ValueError(f"dataset {source.name!r} has no variance after centering") from None
        prepared[source.name] = centered

    scorers: dict = {}  # (id(data), metric) -> score or None, per distinct dataset object

    def metric_value(metric: str, k: int, results, per_seed_data) -> float | None:
        per_seed: list[float | None] = []
        for result, data in zip(results, per_seed_data):
            # MI needs a non-empty complement, so it has no value at k = v.
            if len(result.order) < k or (metric == "mi" and k == data.v):
                per_seed.append(None)
                continue
            key = (id(data), metric)
            if key not in scorers:
                try:
                    scorers[key] = subset_scorer(data, metric)[0]
                except ZeroColumn:  # FP needs unit-norm columns
                    scorers[key] = None
            score = scorers[key]
            per_seed.append(None if score is None else float(score(np.array([result.order[:k]]) - 1)[0]))
        return _median(per_seed)

    cells: list[BenchCell] = []
    for source in config.datasets:
        per_seed_data = prepared[source.name]
        v = per_seed_data[0].v
        runs = {
            algo.name: _run_cell(algo, per_seed_data, seeds, config.k_max)
            for algo in config.algorithms
        }
        healthy = {name: results for name, (results, error) in runs.items() if error is None}
        elapsed = {
            name: _median([result.elapsed for result in results])
            for name, results in healthy.items()
        }
        fsca_elapsed = elapsed.get("fsca")  # None when FSCA failed or is not in the grid

        # Joint relative performance per seed, over the healthy cells.
        r_values: dict[str, list[float | None]] = {name: [] for name in healthy}
        for run in zip(*healthy.values()):
            curves = {
                name: _extend_curve(result.ve_curve, config.k_max)
                for name, result in zip(healthy, run)
            }
            try:
                joint = relative_performance(curves)
            except ThresholdNeverReached:
                joint = dict.fromkeys(curves)
            for name, value in joint.items():
                r_values[name].append(value)

        for algo in config.algorithms:
            results, error = runs[algo.name]
            if error is not None:
                cells.append(BenchCell(dataset=source.name, algorithm=algo.name, error=error))
                continue
            curves = [result.ve_curve.values for result in results]
            auc_value = None
            if config.k_max >= v - 1 and v >= 2:
                auc_value = _median([auc(_extend_curve(c, v - 1), v) for c in curves])
            k_at = []
            for threshold in config.thresholds:
                per_seed = []
                for c in curves:
                    try:
                        per_seed.append(k_at_threshold(c, threshold))
                    except ThresholdNeverReached:
                        per_seed.append(None)
                k_at.append((threshold, _lower_median(per_seed)))
            cells.append(
                BenchCell(
                    dataset=source.name,
                    algorithm=algo.name,
                    seeds=tuple(seeds),
                    orders=tuple(result.order for result in results),
                    ve_curves=tuple(tuple(c) for c in curves),
                    auc=auc_value,
                    k_at=tuple(k_at),
                    r=_median(r_values[algo.name]),
                    metric_values=tuple(
                        (metric, k, metric_value(metric, k, results, per_seed_data))
                        for metric in ("ve", "fp", "mi")
                        for k in config.metric_ks
                    ),
                    elapsed_median_s=elapsed[algo.name],
                    # FSCA's median time over the cell's, exactly 1 for FSCA.
                    speedup_vs_fsca=(
                        None if fsca_elapsed is None
                        else 1.0 if algo.name == "fsca"
                        else fsca_elapsed / elapsed[algo.name]
                    ),
                )
            )

    return BenchmarkReport(
        config=config,
        cells=tuple(cells),
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        environment=_environment(),
    )


# =========================================================================
# Serialization
# =========================================================================


def emit_report(report: BenchmarkReport, path, format: str = "json") -> None:
    """Write a report to disk as JSON (lossless) or CSV (summary table).

    The CSV has the six fixed columns ``dataset, algorithm, auc, r,
    elapsed_median_s, speedup_vs_fsca`` followed by one ``k{n}pct``
    column per configured threshold; empty fields mark unavailable values
    and failed cells.
    """
    path = Path(path)
    if format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif format == "csv":
        threshold_cols = [_k_column(t) for t in report.config.thresholds]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(CSV_FIXED_COLUMNS) + threshold_cols)
            for cell in report.cells:
                row = [_csv_value(getattr(cell, name)) for name in CSV_FIXED_COLUMNS]
                if cell.error is None:
                    row.extend(_csv_value(cell.k_for(t)) for t in report.config.thresholds)
                else:
                    row.extend("" for _ in report.config.thresholds)
                writer.writerow(row)
    else:
        raise ValueError(f"format must be json or csv, got {format!r}")


def _k_column(threshold: float) -> str:
    return f"k{threshold:g}pct"


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
