"""Run torofree's CLI main under the tracer, for the traced cli rounds.

    clichild.py TRACEFILE ARGS...

Stdout is the command's own output.  TRACEFILE receives the trace summary,
the time spent in ``cli.main`` and the time this script spent on the tracer
itself (importing and installing it, folding its summary), so that the parent
can take the command's start-up time as the subprocess wall time minus both.
Before main runs it imports only what ``python -m torofree.cli`` imports,
plus the timed tracer.
"""

import sys
import time


def main(argv: list[str]) -> int:
    tracefile, args = argv[0], argv[1:]
    import torofree.cli as cli

    t0 = time.perf_counter()
    from tracer import LAYER_NAMES, Tracer

    tracer = Tracer()
    tracer.install()
    harness_s = time.perf_counter() - t0
    with tracer.job_span(0):
        rc = cli.main(args)
    t1 = time.perf_counter()
    import json

    code = LAYER_NAMES.index("cli.main") + 1
    main_s = sum(e - s for c, s, e in zip(tracer.code, tracer.start, tracer.end) if c == code)
    summary = tracer.summary()
    harness_s += time.perf_counter() - t1
    text = json.dumps({"summary": summary, "main_s": main_s, "harness_s": harness_s})
    with open(tracefile, "w", encoding="utf-8") as fh:
        fh.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
