"""Run ``repro serve`` with the layer tracing installed.

Usage: ``python3 perfbench/serve_traced.py TRACE.json serve <args>``.
The server runs until interrupted (SIGINT); its span statistics are
then written to ``TRACE.json``.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer, install


def main(argv):
    trace_out, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    patches = install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        patches.restore()
        trace_out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
