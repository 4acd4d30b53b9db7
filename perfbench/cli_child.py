"""Run one polyjet command with spans around its calls into each layer.

Usage: python perfbench/cli_child.py SPANS_JSON COMMAND MANIFEST [options]

Behaves like ``python -m polyjet.cli COMMAND MANIFEST [options]`` (same
output, same exit code) and also writes the spans it recorded, including
the import of ``polyjet.cli``, to SPANS_JSON.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import polyjet.cli as cli
    end = time.perf_counter()

    from tracing import Tracer, patch_cli

    tracer = Tracer(run_id=spans_path)
    tracer.spans.append({"name": "cli.import", "start": start, "end": end,
                         "parent": None, "run": spans_path, "points": 0})
    patch_cli(tracer, cli)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
