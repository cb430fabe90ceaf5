"""One round of a workload, run by `run.py` in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE SPAWN_NS

SPAWN_NS is `time.monotonic_ns()` read by the parent just before it started
this process, so set-up time covers interpreter start and imports.  The
round imports `digitsquares` from the checkout's `src/`, runs every command
of the workload through `digitsquares.cli.main`, and prints one JSON object
on stdout: timings, per-command exit code, report digest and row counts, the
environment, and with TRACE=1 the recorded spans.
"""

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _rows(cmd, text: str) -> tuple[int, int]:
    """(rows, rows with verdict fail) of one command's report."""
    if cmd[0] != "verify":
        return 1, 0
    table = list(csv.reader(io.StringIO(text)))[1:]
    return len(table), sum(1 for row in table if row[-1] == "fail")


def main(argv) -> int:
    workload, seed, trace, spawn_ns = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    sys.path.insert(0, str(SRC))
    import digitsquares.cli
    if not Path(digitsquares.__file__).resolve().is_relative_to(SRC):
        print(f"imported digitsquares from {digitsquares.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import commands
    argvs = commands(workload, seed)
    setup_ns = time.monotonic_ns() - spawn_ns

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    outputs = []
    cpu0 = time.process_time()
    t0 = time.perf_counter_ns()
    for cmd in argvs:
        out = io.StringIO()
        error = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = digitsquares.cli.main(cmd)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashing command is a failed command, not a crashed round
                code, error = -1, traceback.format_exc()
        outputs.append((cmd, code, out.getvalue(), error))
    wall_ns = time.perf_counter_ns() - t0
    cpu_s = time.process_time() - cpu0

    import mpmath
    import mpmath.libmp
    import numpy
    results = []
    for cmd, code, text, error in outputs:
        rows, failed = _rows(cmd, text)
        results.append({"argv": cmd, "exit": code,
                        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                        "rows": rows, "failed_rows": failed, "error": error})
    result = {
        "setup_s": setup_ns / 1e9,
        "wall_ns": wall_ns,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": results,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND},
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
