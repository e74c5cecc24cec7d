"""Layer tracing for the varsel benchmark, installed from outside the package.

A :class:`Tracer` replaces each layer's public entry points with timing
wrappers wherever the loaded ``varsel`` modules bind them (module globals,
the shared ``ALGORITHMS`` registry, and two class attributes), records one
span per call in memory, and puts every original object back on
:meth:`Tracer.uninstall`.  The gain object handed to the greedy engines is
wrapped in a proxy so candidate scans and commits get spans of their own.

Spans carry the operation and pass they belong to; :func:`layer_metrics`
turns the spans of one pass into the per-layer metrics listed in
``LAYER_METRICS``.  Nothing here runs at import time.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SELECTORS = ("fsca", "lfsca", "fosmod", "pfs", "itfs", "fsfp-fsca", "ufs")
TRACKING_SELECTORS = ("itfs", "fsfp-fsca", "ufs")

#: Per-layer metrics measured by the traced run: name -> unit.  The
#: ``_linalg`` module's metrics are named ``linalg.*`` because a metric
#: name has to start with a letter or a digit.
LAYER_METRICS: dict[str, str] = {
    "simgen.gen_s": "s",
    "dataset.save_csv_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.load_mb_per_s": "MB/s",
    "dataset.center_s": "s",
    "dataset.normalize_unit_s": "s",
}
for _algo in SELECTORS:
    LAYER_METRICS.update({
        f"engine.{_algo}.evals": "count",
        f"engine.{_algo}.scan_s": "s",
        f"engine.{_algo}.commit_s": "s",
        f"engine.{_algo}.self_s": "s",
    })
for _algo in SELECTORS:
    LAYER_METRICS[f"selectors.{_algo}.setup_s"] = "s"
for _algo in TRACKING_SELECTORS:
    LAYER_METRICS[f"selectors.{_algo}.track_s"] = "s"
LAYER_METRICS.update({
    "selectors.pfs.nipals_calls": "count",
    "selectors.pfs.nipals_iters": "count",
    "selectors.pfs.nipals_unconverged": "count",
    "selectors.pfs.nipals_s": "s",
    "selectors.warnings": "count",
    "linalg.spd_calls": "count",
    "linalg.spd_s": "s",
    "linalg.factorizations": "count",
    "linalg.jitter_retries": "count",
    "metrics.mutual_information_calls": "count",
    "metrics.mutual_information_s": "s",
    "metrics.variance_explained_calls": "count",
    "metrics.variance_explained_s": "s",
    "oracle.exhaustive_ve_s": "s",
    "oracle.exhaustive_fp_s": "s",
    "oracle.exhaustive_mi_s": "s",
    "oracle.tabulate_s": "s",
    "oracle.bound_report_s": "s",
    "oracle.combinations": "count",
    "cli.select_s": "s",
    "cli.self_s": "s",
})
del _algo


class Span:
    """One traced call: name, interval, parent span and owning operation."""

    __slots__ = ("name", "start", "end", "parent", "op", "pass_id", "attrs")

    def __init__(self, name, start, parent, op, pass_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.pass_id = pass_id
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, raw: dict) -> "Span":
        span = cls(raw["name"], raw["start"], raw["parent"], raw["op"], raw["pass_id"])
        span.end = raw["end"]
        span.attrs = dict(raw["attrs"])
        return span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(idx, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.duration - covered)
    return result


class _GainProxy:
    """Stands in for a gain object inside an engine run: candidate scores
    (``gain``/``gain_all``) are timed as scan spans, ``commit`` as commit
    spans; every other attribute is the wrapped object's own."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def gain(self, selected, candidate):
        with self._tracer.span("engine.scan"):
            return self._inner.gain(selected, candidate)

    def gain_all(self, selected, candidates):
        with self._tracer.span("engine.scan"):
            return self._inner.gain_all(selected, candidates)

    def commit(self, candidate):
        with self._tracer.span("engine.commit"):
            return self._inner.commit(candidate)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Set ``op`` and ``pass_id`` before calling into the package; every span
    opened meanwhile is tagged with them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self.pass_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, parent, self.op, self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def _timed(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                if before is not None:
                    before(record, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(record, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every ``varsel`` module global and registry entry that is
        ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "varsel" or mod_name.startswith("varsel.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append(("attr", module, attr, original))
                    setattr(module, attr, replacement)
        registry = sys.modules["varsel.selectors"].ALGORITHMS
        for key, value in list(registry.items()):
            if value is original:
                self._patches.append(("item", registry, key, original))
                registry[key] = replacement

    def _replace_class_attr(self, cls, attr: str, replacement) -> None:
        self._patches.append(("attr", cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap the public entry points of every traced layer."""
        import varsel._linalg as linalg
        import varsel.cli as cli
        import varsel.dataset as dataset
        import varsel.engine as engine
        import varsel.metrics as metrics
        import varsel.oracle as oracle
        import varsel.selectors as selectors
        import varsel.simgen as simgen

        if self._patches:
            raise RuntimeError("tracer already installed")

        def file_bytes(record, args, kwargs):
            record.attrs["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])

        def selector_warnings(record, result):
            record.attrs["warnings"] = len(result.warnings)

        def nipals_stats(record, result):
            record.attrs["iterations"] = result.iterations
            record.attrs["converged"] = bool(result.converged)

        def exhaustive_metric(record, args, kwargs):
            record.attrs["metric"] = args[2] if len(args) > 2 else kwargs.get("metric", "ve")

        plain = {
            simgen.gen_sim2: "simgen.gen_sim2",
            dataset.save_csv: "dataset.save_csv",
            dataset.center_columns: "dataset.center_columns",
            dataset.normalize_unit: "dataset.normalize_unit",
            linalg.spd_solve: "linalg.spd",
            linalg.spd_logdet: "linalg.spd",
            linalg.spd_inverse: "linalg.spd",
            metrics.mutual_information: "metrics.mutual_information",
            metrics.variance_explained: "metrics.variance_explained",
            oracle.bound_report: "oracle.bound_report",
            cli.main: "cli.main",
        }
        for fn, name in plain.items():
            self._replace_everywhere(fn, self._timed(name, fn))
        self._replace_everywhere(
            dataset.load_csv, self._timed("dataset.load_csv", dataset.load_csv, before=file_bytes)
        )
        self._replace_everywhere(
            oracle.exhaustive_optimal,
            self._timed("oracle.exhaustive", oracle.exhaustive_optimal, before=exhaustive_metric),
        )
        self._replace_everywhere(
            selectors.nipals_first_pc,
            self._timed("selectors.nipals", selectors.nipals_first_pc, after=nipals_stats),
        )
        for fn in set(selectors.ALGORITHMS.values()):
            self._replace_everywhere(
                fn, self._timed("selectors.select", fn, after=selector_warnings)
            )
        for fn in (engine.greedy_select, engine.lazy_greedy_select):
            self._replace_everywhere(fn, self._engine_wrapper(fn))
        self._replace_everywhere(linalg.cho_factor, self._factor_wrapper(linalg.cho_factor))
        self._replace_everywhere(oracle.combinations, self._counting_combinations(oracle.combinations))

        extend = selectors.OrthonormalBasis.__dict__["extend"]
        self._replace_class_attr(
            selectors.OrthonormalBasis, "extend", self._timed("selectors.extend", extend)
        )
        tabulate = oracle.TabulatedSetFunction.__dict__["from_callable"]
        self._replace_class_attr(
            oracle.TabulatedSetFunction,
            "from_callable",
            classmethod(self._timed("oracle.tabulate", tabulate.__func__)),
        )

    def _engine_wrapper(self, fn):
        """Engine run span; the gain object goes in behind a timing proxy."""
        tracer = self

        def wrapper(gain_fn, *args, **kwargs):
            with tracer.span("engine.run") as record:
                result = fn(_GainProxy(gain_fn, tracer), *args, **kwargs)
                record.attrs["evals"] = result.eval_count
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _factor_wrapper(self, fn):
        """One span per factorization attempt; failed attempts are marked."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span("linalg.cho_factor") as record:
                try:
                    return fn(*args, **kwargs)
                except np.linalg.LinAlgError:
                    record.attrs["failed"] = True
                    raise

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_combinations(self, fn):
        """A generator over ``fn``'s items that records how many were drawn
        on a zero-length marker span."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span("oracle.combinations") as record:
                pass
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                record.attrs["count"] = count

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> list[str]:
        """Put every original object back; return the bindings that still
        do not hold their original (empty when the restore is clean)."""
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        leftovers = []
        for kind, owner, key, original in self._patches:
            current = owner.__dict__.get(key) if kind == "attr" else owner.get(key)
            if current is not original:
                leftovers.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{key}")
        self._patches = []
        return leftovers


# =========================================================================
# Aggregation
# =========================================================================


def layer_metrics(spans: list[Span], selves: list[float]) -> dict[str, float]:
    """Per-layer metrics of one group of spans (one pass, or the set-up).

    ``selves`` holds :func:`self_times` for the same list, index-aligned.
    Engine and selector metrics are attributed to the operation that was
    running, so work done by a selector nested in another (the first FSCA
    pick of ``fsfp-fsca``) counts for the outer one.
    """
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    load_bytes = 0
    for span, own in zip(spans, selves):
        name, op, dur = span.name, span.op, span.duration
        if name == "simgen.gen_sim2":
            out["simgen.gen_s"] += dur
        elif name == "dataset.save_csv":
            out["dataset.save_csv_s"] += dur
        elif name == "dataset.load_csv":
            out["dataset.load_csv_s"] += dur
            load_bytes += span.attrs.get("bytes", 0)
        elif name == "dataset.center_columns":
            out["dataset.center_s"] += dur
        elif name == "dataset.normalize_unit":
            out["dataset.normalize_unit_s"] += dur
        elif name == "engine.run" and op in SELECTORS:
            out[f"engine.{op}.evals"] += span.attrs.get("evals", 0)
            out[f"engine.{op}.self_s"] += own
        elif name == "engine.scan" and op in SELECTORS:
            out[f"engine.{op}.scan_s"] += dur
        elif name == "engine.commit" and op in SELECTORS:
            out[f"engine.{op}.commit_s"] += dur
        elif name == "selectors.select":
            if op in SELECTORS:
                out[f"selectors.{op}.setup_s"] += own
            out["selectors.warnings"] += span.attrs.get("warnings", 0)
        elif name == "selectors.extend":
            if op in TRACKING_SELECTORS:
                out[f"selectors.{op}.track_s"] += dur
        elif name == "selectors.nipals":
            out["selectors.pfs.nipals_calls"] += 1
            out["selectors.pfs.nipals_iters"] += span.attrs.get("iterations", 0)
            out["selectors.pfs.nipals_unconverged"] += 0 if span.attrs.get("converged") else 1
            out["selectors.pfs.nipals_s"] += dur
        elif name == "linalg.spd":
            out["linalg.spd_calls"] += 1
            out["linalg.spd_s"] += dur
        elif name == "linalg.cho_factor":
            out["linalg.factorizations"] += 1
            out["linalg.jitter_retries"] += 1 if span.attrs.get("failed") else 0
        elif name == "metrics.mutual_information":
            out["metrics.mutual_information_calls"] += 1
            out["metrics.mutual_information_s"] += dur
        elif name == "metrics.variance_explained":
            out["metrics.variance_explained_calls"] += 1
            out["metrics.variance_explained_s"] += dur
        elif name == "oracle.exhaustive":
            out[f"oracle.exhaustive_{span.attrs['metric']}_s"] += dur
        elif name == "oracle.tabulate":
            out["oracle.tabulate_s"] += dur
        elif name == "oracle.bound_report":
            out["oracle.bound_report_s"] += dur
        elif name == "oracle.combinations":
            out["oracle.combinations"] += span.attrs.get("count", 0)
        elif name == "cli.main":
            out["cli.select_s"] += dur
            out["cli.self_s"] += own
    if out["dataset.load_csv_s"] > 0.0:
        out["dataset.load_mb_per_s"] = load_bytes / 1e6 / out["dataset.load_csv_s"]
    return out
