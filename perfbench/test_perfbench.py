"""Tests of the benchmark itself: determinism, the independent checks and
the tracing harness.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from schedmech import cli  # noqa: E402
from schedmech.allocations import lpt_star, two_machine_opt  # noqa: E402
from schedmech.core import Instance  # noqa: E402

EF_CHAIN_REPRODUCER = gen.EF_CHAIN_REPRODUCER


def run_cli(argv, cwd=None):
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    if cwd:
        os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.chdir(old)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "exc": None}


def first_op(workload, seed, kind, rounds=1):
    for ops in gen.make_rounds(workload, seed, rounds)[0]:
        for op in ops:
            if op["kind"] == kind:
                return op
    raise LookupError(kind)


# ---------------------------------------------------------------------------
# Generation


@pytest.mark.parametrize("workload,n", [("sweep", 1), ("curves", 4), ("polytope", 2)])
def test_same_seed_gives_byte_identical_op_list(tmp_path, workload, n):
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        rounds, files = gen.make_rounds(workload, 7, n)
        gen.write_inputs(str(d), rounds, files)
        blobs.append({p.relative_to(d).as_posix(): p.read_bytes() for p in d.rglob("*") if p.is_file()})
    assert blobs[0] == blobs[1]
    other = gen.make_rounds(workload, 8, n)[0]
    assert [op["argv"] for op in other[0]] != [op["argv"] for op in gen.make_rounds(workload, 7, n)[0][0]]


@pytest.mark.parametrize("workload,n", [("sweep", 2), ("curves", 30), ("polytope", 4)])
def test_no_argv_repeats_within_a_list(workload, n):
    rounds, _ = gen.make_rounds(workload, 3, n)
    argvs = [tuple(op["argv"]) for ops in rounds for op in ops]
    assert len(argvs) == len(set(argvs))


def test_rounds_hold_a_fixed_mix():
    rounds, _ = gen.make_rounds("polytope", 5, 3)
    mixes = [sorted(op["kind"] for op in ops) for ops in rounds]
    assert mixes[0] == mixes[1] == mixes[2]
    assert mixes[0].count("I2") == 6


# ---------------------------------------------------------------------------
# Oracle


def test_g_of_three_is_five_twelfths():
    assert oracle.lemma6_g_two_opt(Fraction(3), [Fraction(2), Fraction(1)]) == Fraction(5, 12)


def test_own_rules_match_the_package_on_generated_instances():
    rounds, files = gen.make_rounds("sweep", 2, 1)
    for inst in files.values():
        jobs = [oracle.q(x) for x in inst["jobs"]]
        bids = [oracle.q(x) for x in inst["bids"]]
        assert oracle.lpt_star(jobs, bids) == lpt_star(Instance(jobs, bids)).workloads
        if len(bids) == 2 and len(jobs) <= 6:
            assert oracle.two_opt(jobs, bids) == two_machine_opt(Instance(jobs, bids)).workloads


def test_ln_bounds_bracket_the_constant():
    lo, hi = oracle.ln_three_halves_bounds(Fraction(1, 10 ** 12))
    assert lo < hi and hi - lo < Fraction(1, 10 ** 12)
    assert Fraction(4054651080, 10 ** 10) < lo and hi < Fraction(4054651082, 10 ** 10)


# ---------------------------------------------------------------------------
# Real outputs pass; planted wrong outputs fail


@pytest.mark.parametrize("kind", ["F2", "I2"])
def test_polytope_output_passes_and_a_flipped_verdict_fails(kind):
    op = first_op("polytope", 4, kind)
    res = run_cli(op["argv"])
    assert checks.check_op("polytope", op, res).ok
    body = json.loads(res["out"])
    body["feasible"] = not body["feasible"]
    assert not checks.check_op("polytope", op, dict(res, out=json.dumps(body))).ok


def test_polytope_tampered_witness_fails():
    op = first_op("polytope", 4, "F2")
    res = run_cli(op["argv"])
    body = json.loads(res["out"])
    key = sorted(body["witness"])[0]
    body["witness"][key] = oracle.qs(oracle.q(body["witness"][key]) + 1)
    assert not checks.check_op("polytope", op, dict(res, out=json.dumps(body))).ok


@pytest.mark.parametrize("kind", ["theorem5", "theorem7", "theorem1", "lemma6"])
def test_certificate_output_passes_and_a_corrupted_check_fails(kind):
    op = first_op("curves", 6, kind)
    res = run_cli(op["argv"])
    assert checks.check_op("curves", op, res).ok
    body = json.loads(res["out"])
    body["checks"][-1]["holds"] = not body["checks"][-1]["holds"]
    assert not checks.check_op("curves", op, dict(res, out=json.dumps(body))).ok


def test_certificate_with_a_wrong_constant_fails():
    op = first_op("curves", 6, "lemma6")
    res = run_cli(op["argv"])
    body = json.loads(res["out"])
    body["constants"]["g"] = oracle.qs(oracle.q(body["constants"]["g"]) * 2)
    assert not checks.check_op("curves", op, dict(res, out=json.dumps(body))).ok


def _sweep_op(tmp_path, inst, kind, argv_tail):
    (tmp_path / "inst").mkdir(exist_ok=True)
    (tmp_path / "inst" / "x.json").write_text(json.dumps(inst))
    op = {"kind": kind, "argv": ["check", *argv_tail, "inst/x.json"], "facts": {"instance": inst}}
    return op, run_cli(op["argv"], cwd=str(tmp_path))


def test_ef_chain_reproducer_counts_as_a_known_failure(tmp_path):
    op, res = _sweep_op(tmp_path, EF_CHAIN_REPRODUCER, "ef-efchain", ["ef", "lpt-star:efchain"])
    assert res["rc"] == 1
    verdict = checks.check_op("sweep", op, res)
    assert not verdict.ok and verdict.known == "ef-chain-tie-order"
    assert "machine 2 envies machine 1" in verdict.reason


def test_audit_runs_the_reproducer_and_every_timed_instance():
    rounds, files = gen.make_rounds("sweep", 4, 2)
    audit, new = gen.efchain_audit_rounds(rounds, files)
    paths = [op["argv"][3] for op in audit[0]]
    assert paths[0] in new and new[paths[0]] == EF_CHAIN_REPRODUCER
    assert sorted(paths[1:]) == sorted(files)
    assert all(op["kind"] == "ef-efchain" for op in audit[0])
    assert not any(op["kind"] == "ef-efchain" for ops in rounds for op in ops)


def test_chain_ir_passes_at_tied_bids_and_a_flipped_verdict_fails(tmp_path):
    op, res = _sweep_op(tmp_path, EF_CHAIN_REPRODUCER, "ir-efchain", ["ir", "lpt-star:efchain"])
    assert checks.check_op("sweep", op, res).ok
    body = json.loads(res["out"])
    planted = dict(body, failures=[{"instance": EF_CHAIN_REPRODUCER, "verdict": {"pass": False}}],
                   **{"pass": False})
    assert not checks.check_op("sweep", op, dict(res, rc=1, out=json.dumps(planted))).ok


def test_false_pass_fails(tmp_path):
    op, res = _sweep_op(tmp_path, EF_CHAIN_REPRODUCER, "ef-efchain", ["ef", "lpt-star:efchain"])
    body = json.loads(res["out"])
    planted = dict(body, failures=[], **{"pass": True})
    verdict = checks.check_op("sweep", op, dict(res, rc=0, out=json.dumps(planted)))
    assert not verdict.ok and verdict.known is None and "false pass" in verdict.reason


def test_sweep_outputs_pass_and_a_wrong_ratio_fails(tmp_path):
    inst = {"jobs": ["5", "3", "3", "2"], "bids": ["1", "3/2", "4"]}
    for kind, tail in [("truthful-vcg", ["truthful", "vcg"]), ("ef-vcg", ["ef", "vcg"]),
                       ("monotone-lpt-star", ["monotone", "lpt-star"]), ("ratio-lpt-star", ["ratio", "lpt-star"])]:
        op, res = _sweep_op(tmp_path, inst, kind, tail)
        assert checks.check_op("sweep", op, res).ok, kind
    assert not checks.check_op("sweep", op, dict(res, out="12345/7\n")).ok


def test_usage_errors_and_exceptions_fail():
    op = first_op("curves", 1, "theorem7")
    assert not checks.check_op("curves", op, {"rc": 2, "out": "", "err": "error: x", "exc": None}).ok
    assert not checks.check_op("curves", op, {"rc": None, "out": "", "err": "", "exc": "Boom\n"}).ok


# ---------------------------------------------------------------------------
# Tracing harness


def _traced_calls(tmp_path, workload, sub):
    workdir = tmp_path / sub
    workdir.mkdir()
    deadline = time.monotonic() + 300
    correct, attempted, failed, metrics = run.run_traced(workload, 9, 1, str(workdir), deadline)
    assert correct, "harness checks failed"
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}, metrics


@pytest.mark.parametrize("workload", ["curves", "polytope"])
def test_traced_call_counts_repeat_exactly(tmp_path, workload):
    a, metrics = _traced_calls(tmp_path, workload, "a")
    b, _ = _traced_calls(tmp_path, workload, "b")
    assert a == b
    if workload == "polytope":
        assert a["workcurve.build.calls"] == 0
        assert metrics["exactlp.share"][0] == max(v for k, (v, _) in metrics.items() if k.endswith(".share")
                                                 and k != "workcurve.inclusive_share")
    else:
        assert a["exactlp.solve.calls"] == 0


def test_directory_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
