"""``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_OUT serve [repro serve arguments]``.
Records spans in memory from start-up on and writes them to ``TRACE_OUT``
when the server stops (SIGINT).  Requests carrying the
``X-Perfbench-Request`` header tag their spans with its value.
"""

from __future__ import annotations

import sys

import layers
from tracer import Tracer


def main(argv) -> int:
    trace_out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install(tracer, service=True)
    tracer.recording = True
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        tracer.recording = False
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
