"""Run one ``dinitz`` command with per-layer tracing, then write its spans.

    python3 bench/traced_cli.py SPANS.json solve|verify INSTANCE SOLUTION

The whole process is one request.  Spans stay in memory until the
command returns and are written to SPANS.json after it; the exit code is
the command's own.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    import dinitz.cli

    try:
        return dinitz.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.end_request()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
