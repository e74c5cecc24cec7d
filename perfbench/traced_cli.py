"""Run ``varsel`` command-line arguments in-process under the tracer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

The traced runs of the ``csv`` workload start this script in place of
``python -m varsel`` so that the layers inside the command get spans.  It
writes the spans, and any binding the tracer failed to restore, to
``SPANS_JSON`` and exits with the command's exit code.  ``src`` must be on
``PYTHONPATH``.
"""

import json
import sys

import tracing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import varsel.cli

    tracer = tracing.Tracer()
    tracer.op = "select_cli"
    tracer.pass_id = 0
    tracer.install()
    try:
        code = varsel.cli.main(cli_args)
    finally:
        leftovers = tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"leftovers": leftovers, "spans": [s.to_dict() for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
