"""Start ``repro serve`` with the benchmark's spans installed.

    python3 kvccbench/launcher.py SPANS_JSON TRACE_JSON -- serve ARGS...

The traced run of the ``serve`` workload starts the server through this
file instead of ``python -m repro``: it wraps the layers' public
functions (``layers.install_offline`` and ``layers.install_serve``:
a write re-enumerates k-VCCs inside the server), then calls
``repro.cli.main(["serve", ...])`` exactly as the command line would.
On SIGTERM the server shuts down and writes SPANS_JSON (every span's
duration and self time, grouped by the kind of request it served, for
the benchmark's arithmetic) and TRACE_JSON (Chrome trace events, for
Perfetto).
"""

from __future__ import annotations

import json
import signal
import sys


def _stop(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path, trace_path, dash, *serve_argv = argv
    if dash != "--":
        raise SystemExit(__doc__)
    import layers
    import repro.cli
    from tracing import Tracer

    tracer = Tracer()
    layers.install_offline(tracer)
    layers.install_serve(tracer)
    signal.signal(signal.SIGTERM, _stop)
    try:
        return repro.cli.main(serve_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump([[group, name, calls] for (group, name), calls
                       in tracer.by_group.items()], handle)
        tracer.write_chrome(trace_path, "repro serve")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
