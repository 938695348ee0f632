"""Run one benchmark operation in a fresh interpreter.

Usage: python3 child.py '<op as JSON>'

The op names the checkout root, the configuration (ell, p, r) whose
Params the operation builds (or null), and either CLI arguments, a
``run_checks`` call, or neither, which only times the set-up.  Set-up
is the time to import the package and build those Params; the body
then runs the command exactly as the CLI does and reuses the cached
Params.  The body's standard output is
captured, and the last line this process prints is one JSON object:
``setup_s``, ``compute_s``, ``code`` (the command's exit status),
``stdout`` and, when tracing, ``trace``.
"""

import contextlib
import functools
import io
import json
import os
import sys
import time


def _run_cli(cli, argv: list) -> int:
    try:
        cli.main.main(args=argv, prog_name="mfblocks", standalone_mode=True)
    except SystemExit as stop:
        if stop.code is None or isinstance(stop.code, int):
            return stop.code or 0
        return 1
    return 0


def _run_checks(mfblocks, P, call: dict) -> int:
    theta = mfblocks.make_char(P, "Z", call["theta"])
    report = mfblocks.run_checks(P, theta, suite=call["suite"],
                                 seed=call["seed"], names=call["names"])
    for row in report.row_dicts():
        print(json.dumps(row))
    return 0 if report.passed else 1


def main() -> None:
    op = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(op["root"], "src"))
    tracer = None
    if op["trace"]:
        from layertrace import Tracer
        tracer = Tracer()

    t0 = time.perf_counter()
    import mfblocks
    import mfblocks.cli
    if tracer is not None:
        tracer.install(mfblocks)
    P = mfblocks.params_make(*op["config"]) if op["config"] else None
    t1 = time.perf_counter()

    if "argv" in op:
        body = functools.partial(_run_cli, mfblocks.cli, op["argv"])
    elif "checks" in op:
        body = functools.partial(_run_checks, mfblocks, P, op["checks"])
    else:  # a set-up probe
        body = lambda: 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = body() if tracer is None else tracer.span("cli", body)
    t2 = time.perf_counter()

    result = {"setup_s": t1 - t0, "compute_s": t2 - t1, "code": code,
              "stdout": out.getvalue()}
    if tracer is not None:
        result["trace"] = tracer.dump()
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
