"""Run one statmenus CLI command in a fresh interpreter and report its timings.

Usage: python3 worker.py RESULT.json TRACE(0|1) -- <statmenus CLI arguments>

``sys.path`` must already reach ``statmenus`` (the runner sets PYTHONPATH).
The result file records when the interpreter was ready to run the command
(``time.monotonic``, comparable with the launching process), the command's
duration, its exit code and the process's peak RSS. With TRACE=1 the
command runs under ``tracer.Tracer`` and the result also holds its trace.
"""

import time  # first: everything imported after it counts as set-up
import contextlib
import io
import json
import resource
import sys

import statmenus.cli as cli

ready = time.monotonic()


def main() -> None:
    result_path, trace_flag = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    tracer = None
    if trace_flag == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.span("cli." + argv[0], cli.main)(argv)
    elapsed = time.perf_counter() - start

    result = {
        "ready": ready,
        "seconds": elapsed,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": captured.getvalue(),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
