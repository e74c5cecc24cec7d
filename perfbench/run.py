"""Run one workload of the varsel benchmark and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {tall,wide,csv,oracle} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the workload runs untraced and reports the end-to-end
metrics; with ``--trace 1`` half the time runs untraced and half under the
layer tracer, and the per-layer metrics are reported.  Human-readable
lines (environment, per-operation medians with sample counts, every metric
with its unit, the failure ratio) come first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` next to this directory; without it
the script exits with code 2 and prints no result.
"""

import argparse
import json
import os
import sys
from pathlib import Path

#: BLAS threads for this process and the subprocesses it starts.  One
#: thread keeps timings steadier on a shared machine than two; for the same
#: reason the process and its children are pinned to one CPU, so the speed
#: probe and the timed work run on the same core.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tall", "wide", "csv", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "varsel" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import varsel

    if src not in Path(varsel.__file__).resolve().parents:
        print(f"error: varsel imported from {varsel.__file__}, not {src}", file=sys.stderr)
        return 2
    import measure

    result = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
