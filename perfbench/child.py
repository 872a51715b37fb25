"""One benchmark request in a fresh interpreter.

    python3 perfbench/child.py SPAWN_NS TRACE [lievol arguments...]

SPAWN_NS is the parent's `time.perf_counter_ns()` just before it spawned
this process (the clock is system-wide on Linux). The child times the
interpreter's start-up up to its first line and `import lievol.cli`, both
from that instant, then `lievol.cli.main(argv)` with its output captured,
and prints one JSON record as its last stdout line. With TRACE 1 the
record carries the spans of the traced layers. Without lievol arguments it
only imports, which fills the bytecode cache.
"""

import sys
import time

_boot_ns = time.perf_counter_ns() - int(sys.argv[1])

import lievol.cli  # noqa: E402

_setup_ns = time.perf_counter_ns() - int(sys.argv[1])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def run(argv, traced):
    record = {"boot_ns": _boot_ns, "setup_ns": _setup_ns, "main_ns": 0, "rc": 0,
              "stdout": "", "error": ""}
    if not argv:
        return record
    tracer = contextlib.nullcontext()
    if traced:
        from spans import Tracer

        tracer = Tracer()
    out, err = io.StringIO(), io.StringIO()
    with tracer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = lievol.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed request, reported with its traceback
            rc = "exception"
            err.write(traceback.format_exc())
        record["main_ns"] = time.perf_counter_ns() - start
    record.update(rc=rc, stdout=out.getvalue(), error=err.getvalue())
    if traced:
        record["spans"] = tracer.spans
        record["missing"] = tracer.missing
    return record


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[3:], sys.argv[2] == "1")))
