"""The gateway's process: ``repro serve`` run in-process, on command.

Started by :mod:`servicebench` as ``python3 gateway_child.py <src-dir>``.
It imports the program once, says ``{"event": "ready"}``, then serves one
gateway per command read from standard input::

    {"cmd": "serve", "argv": ["serve", "--port", "0", ...], "trace": false}

by calling the same ``repro.cli.main`` a user's ``repro serve`` runs, so
the time the parent measures from the command to the first connections
is the gateway's set-up without the interpreter's imports.  When the
gateway stops (a ``drain`` frame with ``stop``) it reports the host time
of the serve call, its peak RSS and, when traced, the span summary::

    {"event": "stopped", "wall_s": ..., "maxrss_mb": ..., "summary": {...}}

``{"cmd": "quit"}`` or end of input exits.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from repro import cli

    from layers import install_gateway
    from spans import Tracer

    print(json.dumps({"event": "ready"}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("cmd") != "serve":
            break
        tracer = Tracer() if command.get("trace") else None
        if tracer is not None:
            install_gateway(tracer)
        start = time.perf_counter()
        try:
            status = cli.main(command["argv"])
            wall_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
                if command.get("trace_path"):
                    tracer.write_chrome_trace(command["trace_path"], pid=2)
        report = {
            "event": "stopped",
            "status": status,
            "wall_s": wall_s,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "summary": tracer.summary() if tracer is not None else None,
        }
        print(json.dumps(report), flush=True)
        # the next gateway starts from a clean heap, as a fresh process would
        del tracer
        gc.collect()
    return 0


if __name__ == "__main__":
    sys.exit(main())
