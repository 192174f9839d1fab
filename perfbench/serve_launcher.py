"""Start the ``repro serve`` CLI inside this process, optionally traced.

``python3 perfbench/serve_launcher.py --out FILE [--trace] -- serve ARGS...``

With ``--trace`` the benchmark's span wrappers are installed before the
CLI entry runs, so the server-side spans (``RunHandle`` methods,
``ScanService.stats``/``submit`` and every probe layer below them) are
real.  When the daemon exits (SIGINT) the launcher writes its peak RSS,
and the program's own counters and — when traced — the span aggregates,
each taken twice: when the listener starts (the end of warm-up) and at
exit.  Their difference is the request phases alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys

from spans import SpanRecorder, install
from units import program_counts


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:split])

    # The benchmark stops the daemon with SIGINT; a launcher started from
    # a background job inherits SIGINT ignored, which would outlive it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = SpanRecorder()
    if args.trace:
        install(recorder)
    from repro import api
    from repro.cli import main as cli_main
    from repro.serve import httpd

    handles = []
    open_run, start_server = api.open_run, httpd.start_server

    def capture_open_run(*a, **k):
        handles.append(open_run(*a, **k))
        return handles[-1]

    marks = {}

    def mark_start_server(*a, **k):
        marks["trace"] = recorder.snapshot()
        marks["counts"] = program_counts(handles[-1])
        return start_server(*a, **k)

    api.open_run = capture_open_run
    httpd.start_server = mark_start_server
    code = cli_main(argv[split + 1 :])
    out = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": program_counts(handles[-1]) if handles else {},
        "counts_warm": marks.get("counts", {}),
    }
    if args.trace:
        out["trace_warm"] = marks.get("trace")
        out["trace"] = recorder.snapshot()
    tmp = args.out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(out, handle)
    os.replace(tmp, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
