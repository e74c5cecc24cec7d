"""Record the reference outputs the benchmark checks against.

Usage (from the repository root):

    python3 perfbench/record_refs.py [--workload NAME ...]

For each workload and each of its ``POOL`` input seeds this runs the
operations once with the current package and stores the selection orders
and exhaustive optima in ``perfbench/refs.json``.  Later commits are
checked against these, so record them only from a commit whose outputs
are trusted.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="record only these workloads")
    args = parser.parse_args(argv)
    import run

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = run.BLAS_THREADS
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    path = HERE / "refs.json"
    refs = workloads.load_refs(path) if path.exists() else {}
    with workloads.scratch_dir() as workdir:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            entries = []
            for seed in range(workloads.POOL):
                ctx = workload.setup(seed, workdir)
                entries.append(workload.reference(ctx))
                print(f"{name} seed {seed}: recorded", flush=True)
            refs[name] = entries
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
