"""One benchmark iteration in a fresh interpreter.

perfbench/run.py starts this as `python -I child.py SPEC`, where SPEC is the
JSON object {"root": checkout, "tasks": [argv, ...], "trace": bool}.  It
imports numpy and the package from `<root>/src`, notes the moment the first
task can start, then runs each argv through `laurent_eulerian.cli.main`
in-process, capturing what the task prints.  With "trace" the layer functions
are wrapped first (tracing.py).  The last line on stdout is one JSON object
with the timings, the captured task outputs and the spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_task(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crashing task fails alone; the others still run
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import numpy
    from laurent_eulerian import cli

    ready = time.monotonic()
    run = cli.main
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.wrap("cli", cli.main)

    cpu0, t0 = _cpu_s(), time.perf_counter()
    tasks = [_run_task(run, argv) for argv in spec["tasks"]]
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0

    import importlib.util
    import platform

    result = {
        "pid": os.getpid(),
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "tasks": tasks,
        "spans": tracer.spans if tracer else None,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
