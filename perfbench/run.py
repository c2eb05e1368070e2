"""Seeded closed-loop benchmark of the schedmech CLI.

    python3 perfbench/run.py --workload sweep|curves|polytope --seed N \
        --seconds S --trace 0|1

Generates the workload's ops from the seed, runs them through
``schedmech.cli.main`` in one workload process (one client, closed loop,
one thread), checks every output independently and prints the metrics; the
last line of stdout is one JSON object.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` runs a fixed number of rounds with every
traced package function wrapped and reports the per-layer metrics.  On
``sweep`` an untimed audit then runs the ops that a known defect makes fail
and reports them on stderr, outside ``attempted`` and ``failed``.  The
program is read from ``src/`` next to this directory; scratch files go to
``.perfbench_work/`` there and are removed at exit.

Times are reported in reference seconds.  The speed of the shared 2-core
machine this was built on drifts by up to 1.6x within a minute, so every
op's wall time is multiplied by REFERENCE_PROBE_S over the median time of
the calibration probes (``worker.reference_work``) run next to it; a
reference second is a second on a machine where the probe takes exactly
REFERENCE_PROBE_S.  Set-up samples are rescaled the same way from probes
run just before them.  The raw wall-clock figures are printed too.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

import gen  # noqa: E402
from checks import KNOWN_DEFECTS, check_op  # noqa: E402
from trace_layers import BYPASSES, REACHES, Aggregate  # noqa: E402
from worker import probe  # noqa: E402

# Upper estimates of rounds per second, so an untimed list never runs dry,
# and the rounds of a traced run per requested second.
ROUND_RATE_CAP = {"sweep": 0.6, "curves": 4.0, "polytope": 1.5}
TRACE_ROUND_RATE = {"sweep": 0.1, "curves": 0.5, "polytope": 0.6}
SETUP_SAMPLES = 5
REFERENCE_PROBE_S = 0.0003
PROBE_WINDOW = 7
RUN_TIMEOUT_S = 150


def _run_worker(workdir, args, deadline):
    """Run a workload process to the end; returns its seconds until 'ready'."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "--src", SRC, *args], cwd=workdir,
                            stdout=subprocess.PIPE, text=True)
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("workload process failed to start")
        ready = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload process timed out")
    finally:
        if proc.poll() is None:  # timed out or interrupted: never leave it behind
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return ready


def _read_results(path):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    return lines[:-1], lines[-1]


def _rescaled(results, summary):
    """Each op's time in reference seconds, from the median of the
    PROBE_WINDOW probes nearest to it."""
    probes = summary["probes"]
    after = [p[0] for p in probes]
    out = []
    for k, res in enumerate(results):
        j = bisect.bisect_left(after, k + 1)
        lo = max(0, min(j - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
        out.append(res["t"] * REFERENCE_PROBE_S / statistics.median(p[1] for p in probes[lo:lo + PROBE_WINDOW]))
    return out


def _setup_sample(workdir, deadline):
    """Seconds until a fresh workload process is ready, in reference seconds."""
    scale = REFERENCE_PROBE_S / statistics.median(probe() for _ in range(PROBE_WINDOW))
    return _run_worker(workdir, ["--setup-only"], deadline) * scale


def _percentile(sorted_values, share):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def _check_all(workload, rounds, results):
    failures = []
    for res in results:
        op = rounds[res["r"]][res["i"]]
        verdict = check_op(workload, op, res)
        if not verdict.ok:
            failures.append((op, verdict))
    return failures


def _report_failures(failures):
    for op, verdict in failures:
        tag = f"known defect {verdict.known}" if verdict.known else "UNEXPECTED"
        print(f"failed op [{tag}] {' '.join(op['argv'])}: {verdict.reason}", file=sys.stderr)
    for name in sorted({v.known for _, v in failures if v.known}):
        print(f"known defect {name}: {KNOWN_DEFECTS[name]}", file=sys.stderr)


def _audit_known_defects(workload, rounds, files, workdir, deadline):
    """Run the ops that show a known defect, untimed and outside the
    attempted/failed counts, and report what they find on stderr.  False
    if one of them fails for another reason than its known defect."""
    if workload != "sweep":
        return True
    audit, new = gen.efchain_audit_rounds(rounds, files)
    ops_path = gen.write_inputs(workdir, audit, new, name="audit-ops.json")
    out = os.path.join(workdir, "audit.jsonl")
    _run_worker(workdir, ["--ops", ops_path, "--out", out, "--rounds", "1"], deadline)
    results, _ = _read_results(out)
    verdicts = [check_op(workload, audit[0][res["i"]], res) for res in results]
    unexpected = [(audit[0][k], v) for k, v in enumerate(verdicts) if not v.ok and not v.known]
    _report_failures(unexpected)
    shown = sum(1 for v in verdicts[1:] if v.known)
    if verdicts[0].known:
        print(f"known defect ef-chain-tie-order (untimed audit, not in attempted/failed): "
              f"'check ef lpt-star:efchain' fails on the reproducer and on {shown} of "
              f"{len(verdicts) - 1} instances of this run", file=sys.stderr)
    elif verdicts[0].ok:
        print("note: ef-chain-tie-order no longer reproduces; 'check ef lpt-star:efchain' "
              "can return to the timed sweep ops", file=sys.stderr)
    return len(results) == len(audit[0]) and not unexpected


def run_untraced(workload, seed, seconds, workdir, deadline):
    rounds, files = gen.make_rounds(workload, seed, math.ceil(seconds * ROUND_RATE_CAP[workload]) + 1)
    ops_path = gen.write_inputs(workdir, rounds, files)
    setup = [_setup_sample(workdir, deadline) for _ in range(SETUP_SAMPLES)]
    out = os.path.join(workdir, "results.jsonl")
    _run_worker(workdir, ["--ops", ops_path, "--out", out, "--seconds", str(seconds)], deadline)
    results, summary = _read_results(out)
    if summary["exhausted"]:
        print("warning: the op list ran out before the time did", file=sys.stderr)
    failures = _check_all(workload, rounds, results)
    _report_failures(failures)
    audit_ok = _audit_known_defects(workload, rounds[:summary["rounds"]], files, workdir, deadline)
    raw = sorted(r["t"] for r in results)
    lat = sorted(_rescaled(results, summary))
    n = len(lat)
    beyond = sum(1 for t in lat if t > _percentile(lat, 0.9))
    print(f"{workload}: {n} ops (latency samples) in {summary['rounds']} rounds, {summary['elapsed']:.2f} s wall, "
          f"{beyond} samples beyond p90; raw wall clock: {n / summary['elapsed']:.2f} ops/s, "
          f"p50 {_percentile(raw, 0.5) * 1000:.2f} ms, p90 {_percentile(raw, 0.9) * 1000:.2f} ms; "
          f"setup samples {[round(s, 4) for s in setup]}")
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p90", file=sys.stderr)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (_percentile(lat, 0.5) * 1000, "ms"),
        "latency_p90_ms": (_percentile(lat, 0.9) * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (summary["maxrss_kb"] / 1024, "MB"),
        "ok_frac": ((n - len(failures)) / n, "fraction"),
    }
    correct = audit_ok and all(v.known for _, v in failures)
    return correct, n, len(failures), metrics


def run_traced(workload, seed, seconds, workdir, deadline):
    n_rounds = max(1, round(seconds * TRACE_ROUND_RATE[workload]))
    rounds, files = gen.make_rounds(workload, seed, n_rounds)
    ops_path = gen.write_inputs(workdir, rounds, files)
    traced_out = os.path.join(workdir, "traced.jsonl")
    spans_path = os.path.join(workdir, "spans.jsonl")
    plain_out = os.path.join(workdir, "plain.jsonl")
    common = ["--ops", ops_path, "--rounds", str(n_rounds)]
    _run_worker(workdir, common + ["--out", traced_out, "--trace", spans_path], deadline)
    _run_worker(workdir, common + ["--out", plain_out], deadline)
    results, summary = _read_results(traced_out)
    failures = _check_all(workload, rounds, results)
    _report_failures(failures)
    audit_ok = _audit_known_defects(workload, rounds, files, workdir, deadline)

    agg = Aggregate()
    harness_ok = True
    with open(spans_path) as fh:
        for line, res in zip(fh, results):
            rec = json.loads(line)
            root_s = agg.add_op(rec["spans"])
            if not root_s <= res["t"] + 1e-9:
                harness_ok = False
                print(f"harness: root span {root_s} exceeds op time {res['t']}", file=sys.stderr)
    if agg.ops != len(results) or agg.max_self_gap_s > 1e-6:
        harness_ok = False
        print(f"harness: self times miss op time by {agg.max_self_gap_s} s", file=sys.stderr)
    unreached = sorted(name for name in REACHES[workload] if agg.calls[name] == 0)
    if unreached:
        harness_ok = False
        print(f"harness: wrapped names never called on {workload}: {unreached}", file=sys.stderr)
    for layer in BYPASSES[workload]:
        hits = {k: v for k, v in agg.calls.items() if k.startswith(layer + ".") and v}
        if hits:
            print(f"note: {workload} was expected to bypass {layer} but called {hits}", file=sys.stderr)
    metrics = agg.metrics()
    plain = _read_results(plain_out)
    metrics["trace.overhead"] = (sum(_rescaled(results, summary)) / sum(_rescaled(*plain)), "ratio")
    shares = {k: round(v, 3) for k, (v, _) in metrics.items() if k.endswith("share")}
    print(f"{workload}: traced {len(results)} ops in {n_rounds} rounds; "
          f"overhead x{metrics['trace.overhead'][0]:.2f}; shares {shares}")
    correct = harness_ok and audit_ok and all(v.known for _, v in failures)
    return correct, len(results), len(failures), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schedmech", "cli.py")):
        print(f"error: no schedmech package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Turn SIGTERM into SystemExit so the cleanup below and in _run_worker runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics = run(args.workload, args.seed, args.seconds, workdir, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
