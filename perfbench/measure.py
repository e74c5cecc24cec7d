"""Measurement loop of the varsel benchmark: set-up, timed passes, output
checks, the optional traced half, and the result line.

Import this only after ``run.py`` has pinned the BLAS thread count and the
CPU, and put ``src`` on the import path.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import workloads
from probes import SpeedProbe
from tracing import LAYER_METRICS, SELECTORS, Tracer, layer_metrics, self_times

#: End-to-end metrics, measured with no wrapper installed: name -> unit.
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics of the traced run: the untraced median time of each
#: selector call, the traced layer metrics, and the tracing overhead.
PER_LAYER = {
    **{f"{algo}_s": "s" for algo in SELECTORS},
    **LAYER_METRICS,
    "trace.overhead_ratio": "1",
}


def blas_info() -> tuple[str, int | None]:
    """BLAS vendor string and the thread count it reports, when readable."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = config.get("openblas configuration") or f"{config.get('name')} {config.get('version')}"
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return vendor, threads


def environment() -> dict:
    vendor, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


#: Probe runs made before set-up, on top of one before each operation.
PROBE_WARMUP = 5


@dataclass
class Input:
    """One generated input of a run: its seed, set-up context and reference."""

    seed: int
    ctx: dict
    ref: dict


@dataclass
class Passes:
    """Samples of one measured phase: ``samples[op][i]`` holds the times of
    ``op`` on input ``i``; ``outputs[p]`` the outputs of pass ``p``."""

    samples: dict[str, dict[int, list[float]]]
    signatures: dict[tuple[int, str], set]
    outputs: list[dict]
    count: int = 0

    def medians(self) -> dict[str, float]:
        """Per operation, the mean over inputs of its median time on each."""
        return {
            op: statistics.fmean(statistics.median(t) for t in per_input.values())
            for op, per_input in self.samples.items()
            if per_input
        }

    def pass_s(self) -> float:
        return sum(self.medians().values())


def run_passes(workload, inputs: list[Input], seconds: float, tally: Tally,
               tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> Passes:
    """Run every operation once per pass, pass ``p`` on input
    ``p % len(inputs)``, until ``seconds`` have elapsed and every input had
    a pass; time each call and check each output outside the timed
    region.  The speed probe, when given, runs before each operation."""
    phase = Passes({}, {}, [])
    traced = tracer is not None
    ops = [workload.ops(item.ctx, traced) for item in inputs]
    start = perf_counter()
    while phase.count < len(inputs) or perf_counter() - start < seconds:
        index = phase.count % len(inputs)
        item = inputs[index]
        outputs = {}
        for op in ops[index]:
            if traced:
                tracer.op, tracer.pass_id = op.name, phase.count
            if probe is not None:
                probe.run()
            tally.attempted += 1
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:
                tally.fail(f"{op.name} on input seed {item.seed}: {traceback.format_exc()}")
                continue
            elapsed = perf_counter() - t0
            errors = workload.check(op.name, out, item.ctx, item.ref)
            if errors:
                tally.fail(f"{op.name} on input seed {item.seed}: {'; '.join(errors)}")
                continue
            phase.samples.setdefault(op.name, {}).setdefault(index, []).append(elapsed)
            phase.signatures.setdefault((index, op.name), set()).add(
                workload.signature(op.name, out)
            )
            outputs[op.name] = out
        phase.outputs.append(outputs)
        phase.count += 1
    if traced:
        tracer.op = tracer.pass_id = None
    return phase


def setup_inputs(workload, seeds: list[int], refs: dict, workdir: Path) -> list[Input]:
    return [Input(s, workload.setup(s, workdir), refs[s]) for s in seeds]


def timed_setup(workload, seeds, refs, workdir: Path, reps: int,
                probe: SpeedProbe) -> tuple[list[Input], list[float]]:
    """Set up all inputs ``reps`` times; return the last set and the times."""
    times = []
    inputs = []
    for _ in range(reps):
        probe.run()
        t0 = perf_counter()
        inputs = setup_inputs(workload, seeds, refs, workdir)
        times.append(perf_counter() - t0)
    return inputs, times


def peak_rss_mb(phase: Passes) -> float:
    """Median peak RSS of the subprocesses that ran the operations, or this
    process's own peak when the operations ran in-process."""
    child = [out.max_rss_mb for outputs in phase.outputs for out in outputs.values()
             if hasattr(out, "max_rss_mb")]
    if child:
        return statistics.median(child)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_layer_metrics(tracer: Tracer, phase: Passes) -> dict[str, float]:
    """Median over traced passes of each layer metric, plus the traced
    set-up's own spans."""
    selves = self_times(tracer.spans)
    groups: dict = {}
    for span, own in zip(tracer.spans, selves):
        spans, owns = groups.setdefault(span.pass_id, ([], []))
        spans.append(span)
        owns.append(own)
    per_pass = []
    for index in range(phase.count):
        values = layer_metrics(*groups.get(index, ([], [])))
        for out in phase.outputs[index].values():
            if getattr(out, "spans", None):
                extra = layer_metrics(out.spans, self_times(out.spans))
                values = {k: values[k] + extra[k] for k in values}
        per_pass.append(values)
    setup = layer_metrics(*groups.get("setup", ([], [])))
    return {
        name: setup[name] + statistics.median(p[name] for p in per_pass)
        for name in LAYER_METRICS
    }


def compare_signatures(untraced: Passes, traced: Passes, tally: Tally) -> None:
    for key, seen in traced.signatures.items():
        if len(seen | untraced.signatures.get(key, set())) > 1:
            tally.fail(f"{key[1]} on input {key[0]}: traced and untraced outputs differ")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    seeds = workloads.input_seeds(seed, workload.inputs_per_run)
    refs = workloads.load_refs()[name]
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    print(f"workload {name}: {workload.describe()}; seed {seed} -> input seeds {seeds}", flush=True)

    tally = Tally()
    with workloads.scratch_dir() as workdir:
        if not trace:
            probe = SpeedProbe(workload.probe)
            for _ in range(PROBE_WARMUP):
                probe.run()
            inputs, setup_times = timed_setup(
                workload, seeds, refs, workdir, workload.setup_reps, probe
            )
            phase = run_passes(workload, inputs, seconds, tally, probe=probe)
            speed = probe.factor()
            print(f"speed probe: median {statistics.median(probe.samples):.6f} s over "
                  f"{len(probe.samples)} runs; times are scaled by {speed:.4f}; unscaled "
                  f"pass {phase.pass_s():.6f} s, set-up {statistics.median(setup_times):.6f} s")
            metrics = {
                "pass_s": metric(phase.pass_s() * speed, "s"),
                "setup_s": metric(statistics.median(setup_times) * speed, "s"),
                "peak_rss_mb": metric(peak_rss_mb(phase), "MB"),
            }
            counts = {"pass_s": phase.count, "setup_s": len(setup_times), "peak_rss_mb": phase.count}
            for op, value in phase.medians().items():
                n = sum(len(t) for t in phase.samples[op].values())
                print(f"op {op}: {value:.6f} s (mean over {len(phase.samples[op])} inputs "
                      f"of the median time; n={n})")
        else:
            inputs = setup_inputs(workload, seeds, refs, workdir)
            untraced = run_passes(workload, inputs, seconds / 2, tally)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.pass_id = "setup"
                traced_inputs = setup_inputs(workload, seeds, refs, workdir)
                tracer.pass_id = None
                traced = run_passes(workload, traced_inputs, seconds / 2, tally, tracer)
            finally:
                leftovers = tracer.uninstall()
            if leftovers:
                tally.fail(f"wrappers left installed: {leftovers}")
            compare_signatures(untraced, traced, tally)
            layers = traced_layer_metrics(tracer, traced)
            op_medians = untraced.medians()
            metrics = {f"{algo}_s": metric(op_medians.get(algo, 0.0), "s") for algo in SELECTORS}
            metrics.update({n: metric(layers[n], unit) for n, unit in LAYER_METRICS.items()})
            untraced_s = untraced.pass_s()
            ratio = traced.pass_s() / untraced_s if untraced_s > 0 else 0.0
            metrics["trace.overhead_ratio"] = metric(ratio, "1")
            counts = {n: traced.count for n in metrics}
            counts.update({f"{a}_s": untraced.count for a in SELECTORS})
            print(f"passes: {untraced.count} untraced, {traced.count} traced; "
                  f"{len(tracer.spans)} spans kept in memory")

    for n, m in metrics.items():
        print(f"metric {n} = {m['value']:.6g} {m['unit']} (passes={counts[n]})")
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"metric fail_ratio = {fail_ratio:.6g} 1 ({tally.failed} of {tally.attempted} failed)")
    for error in tally.errors:
        print(f"failure: {error}", file=sys.stderr)
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
