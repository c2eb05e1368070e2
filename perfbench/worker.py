"""The workload process: one client, closed loop, one thread.

Imports ``schedmech.cli``, finishes its start-up, prints ``ready`` and then
hands each op's argv to ``schedmech.cli.main`` in-process, one op after the
other, in whole rounds until ``--seconds`` have passed (or ``--rounds``
rounds are done).  Each op's exit code, wall time and captured output go to
``--out`` as one JSON line; a final line holds the run summary.  A
calibration probe (fixed work, ``reference_work``) is timed after every
op, so the parent can rescale op times by the machine's speed at that
moment (see ``run.py``).  With
``--trace`` the package's public functions are wrapped first and each op's
spans are kept in memory and written to the trace file when the run ends.

Usage: python3 worker.py --src SRC (--setup-only | --ops OPS --out OUT
       (--seconds S | --rounds K) [--trace FILE])
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction


_PROBE_PARSER = argparse.ArgumentParser(prog="probe")
_PROBE_PARSER.add_argument("name")
_PROBE_PARSER.add_argument("--grid")
_PROBE_PARSER.add_argument("--jobs")


def reference_work():
    """Fixed work shaped like one cheap CLI op: a small file read, argument
    parsing, small Fraction arithmetic, comparisons and a JSON round trip."""
    with open(__file__, "rb") as fh:
        fh.read()
    args = _PROBE_PARSER.parse_args(["polytope", "--grid", "1,3/2,4", "--jobs", "3,2,1"])
    grid = [Fraction(x) for x in args.grid.split(",")]
    acc = Fraction(0)
    table = {}
    for i in range(1, 16):
        x = Fraction(i % 17 + 1, i % 5 + 2) * grid[i % 3]
        acc = (acc + x * x) / 2 if acc < 10 else acc / 3
        table[f"p[{i % 2}]({i % 7})"] = f"{x.numerator}/{x.denominator}"
    return json.loads(json.dumps({"acc": str(acc), "table": table}, indent=2, sort_keys=True))


def probe():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--ops")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from schedmech import cli

    # Lazy start-up a user pays once: argparse builds and compiles its
    # parsers on first use.
    cli.build_parser().parse_args(["check", "le", "--bids", "1", "--workloads", "1"])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()

    with open(args.ops) as fh:
        rounds = json.load(fh)
    limit = args.seconds
    done_rounds = 0
    n_ops = 0
    span_lines = []
    probes = [[0, probe()] for _ in range(5)]  # [ops done before it, seconds]
    with open(args.out, "w") as out:
        start = time.perf_counter()
        for r, ops in enumerate(rounds):
            for i, argv in enumerate(ops):
                if tracer:
                    tracer.begin_op()
                stdout, stderr = io.StringIO(), io.StringIO()
                exc = None
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        rc = cli.main(argv)
                except Exception:  # an uncaught exception is a failed op, not a crash
                    rc = None
                    exc = traceback.format_exc(limit=3)
                t1 = time.perf_counter()
                n_ops += 1
                if tracer:
                    span_lines.append(json.dumps({"r": r, "i": i, "spans": tracer.end_op()}))
                out.write(json.dumps({"r": r, "i": i, "rc": rc, "t": t1 - t0, "out": stdout.getvalue(),
                                      "err": stderr.getvalue()[-2000:], "exc": exc}) + "\n")
                probes.append([n_ops, probe()])
            done_rounds += 1
            if args.rounds is not None and done_rounds >= args.rounds:
                break
            if limit is not None and time.perf_counter() - start >= limit:
                break
        elapsed = time.perf_counter() - start
        probes.extend([n_ops, probe()] for _ in range(5))
        out.write(json.dumps({
            "probes": probes,
            "summary": True,
            "elapsed": elapsed,
            "rounds": done_rounds,
            "ops": n_ops,
            "exhausted": done_rounds == len(rounds) and limit is not None and elapsed < limit,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }) + "\n")
    if tracer:
        with open(args.trace, "w") as fh:
            fh.writelines(line + "\n" for line in span_lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
