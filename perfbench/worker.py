"""Job runner: one fresh interpreter that imports ``cyclelift.cli`` and runs
jobs through ``cli.main(argv)``, one at a time, in a single thread.

Usage: ``python3 worker.py SRC_DIR WORK_DIR [--probe]``.  The worker prints
``ready`` once ``cyclelift.cli`` is imported; with ``--probe`` it then exits
(the harness times this for ``setup_s``).  Otherwise it reads one JSON
message per line on stdin and answers each on stdout:

- ``{"op": "job", "argv": [...]}`` -> ``{"exit", "error", "secs", "out", "bytes", "trace"}``;
- ``{"op": "trace", "on": bool}`` -> ``{}`` (installs or removes the tracer);
- ``{"op": "exit"}`` -> ``{"peak_rss_mb": ...}``, then the worker exits.

Only the ``cli.main`` call is timed.  An exception escaping ``cli.main`` is
reported as exit 1 with its type and message, which is what the installed
``cyclelift`` script would exit with after printing the traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter


def run_job(cli, argv: list, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.reset()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # uncaught by the CLI: a program fault
        code, error = 1, f"{type(exc).__name__}: {exc}"
    secs = perf_counter() - start
    text = out.getvalue()
    nbytes = len(text)
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            nbytes += os.path.getsize(path)
    return {
        "exit": code,
        "error": error,
        "secs": secs,
        "out": text,
        "err": err.getvalue()[-2000:],
        "bytes": nbytes,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def main() -> int:
    src, work = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import cyclelift.cli as cli

    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if "--probe" in sys.argv[3:]:
        return 0
    os.chdir(work)
    tracer = None
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "job":
            reply = run_job(cli, msg["argv"], tracer)
        elif op == "trace":
            if msg["on"]:
                from tracing import Tracer

                tracer = tracer or Tracer()
                tracer.install()
            elif tracer is not None:
                tracer.uninstall()
                tracer = None
            reply = {}
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            proto.write(json.dumps({"peak_rss_mb": rss_kb / 1024}) + "\n")
            proto.flush()
            return 0
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
