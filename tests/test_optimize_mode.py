"""The package's verdict and witness checks are explicit raises, so they
still run under ``python -O``, which strips ``assert`` statements."""

import ast
import os
import pathlib
import subprocess
import sys

import schedmech

PACKAGE = pathlib.Path(schedmech.__file__).parent
# The first line stops the run unless -O stripped assert statements.
PRELUDE = "assert False, 'assert statements were not stripped'\nfrom fractions import Fraction as F\n"


def run_optimized(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", PRELUDE + code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_verdict_rejects_a_counterexample_that_holds_under_O():
    proc = run_optimized(
        "from schedmech.properties import Counterexample, _verdict\n"
        "_verdict('ir', Counterexample('not a violation', F(1), '>=', F(0), {}))\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: counterexample must re-evaluate to a violation" in proc.stderr


def test_int_local_efficiency_still_cross_checks_the_pairwise_criterion_under_O():
    proc = run_optimized(
        "from schedmech import properties\n"
        "properties.local_efficiency_violation = lambda bids, workloads: None\n"
        "properties.check_local_efficiency((F(2, 3), F(3, 4)), (F(1, 10), F(5, 6)))\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: pairwise criterion and permutation enumeration disagree" in proc.stderr


def test_verdict_refuses_counterexamples_built_on_a_wrong_scale_under_O():
    # The int comparisons still find each violation, but lhs and rhs are
    # built over the negated scale, so every recorded inequality holds.
    # No assert survives -O: the child prints what each checker raised.
    # check_ir compares each machine on its own cross-multiplied ints, with
    # no shared scale, so it still reports the loss.
    proc = run_optimized(
        "from schedmech import properties\n"
        "scale = properties.on_one_scale\n"
        "def negated(*vectors):\n"
        "    s, *ints = scale(*vectors)\n"
        "    return (-s, *ints)\n"
        "properties.on_one_scale = negated\n"
        "bids, loads = (F(3, 4), F(2, 3)), (F(5, 6), F(1, 10))\n"
        "for check, args in [(properties.check_local_efficiency, (bids, loads)),\n"
        "                    (properties.check_envy_free, (bids, loads, (0, F(1, 7))))]:\n"
        "    try:\n"
        "        print(check(*args))\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "print(properties.check_ir(bids, loads, (0, 0)).counterexample.to_json_dict())\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("counterexample must re-evaluate to a violation\n" * 2
                           + "{'description': 'machine 0 runs at a loss', 'lhs': '-5/8', 'relation': '>=', "
                           "'rhs': '0', 'context': {'i': 0}}\n")


def test_witness_check_rejects_a_broken_ic_row_under_O():
    # One machine on the grid {1, 2}, workloads 3 and 0: paid 5 at bid 2
    # against 3 at bid 1, the bid-1 type gains by deviating, so an IC row
    # fails.  Payments are ints over the scale 1.
    proc = run_optimized(
        "from schedmech.certificates import _verify_witness\n"
        "_verify_witness((F(1), F(2)), [(F(3),), (F(0),)], [3, 5], 1)\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: IC violated by witness" in proc.stderr


def test_simplex_rejects_a_witness_off_by_one_unit_under_O():
    # 3x = 2 has the one solution 2/3, an int 2 over the pivot 3; the check
    # is handed 3/3 instead.
    proc = run_optimized(
        "from schedmech import exactlp\n"
        "check = exactlp._check_witness\n"
        "exactlp._check_witness = lambda given, values, d: check(given, [values[0] + 1], d)\n"
        "exactlp.solve_feasibility(1, [exactlp.Constraint(((0, F(3)),), '==', F(2))])\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: witness fails a constraint; solver bug" in proc.stderr


def test_keyed_checkers_refuse_a_decide_that_disagrees_with_the_run_under_O():
    # Each planted ``decide`` is off by one unit at every key, so the base
    # cross-check of each checker that reads it refuses.
    proc = run_optimized(
        "from schedmech.allocations import VcgAllocate, vcg_allocate\n"
        "from schedmech.core import Instance\n"
        "from schedmech.payments import VcgMechanism, vcg_payments\n"
        "from schedmech.properties import check_anonymous, check_monotone, check_scalable, check_truthful,"
        " SCALING_FACTORS\n"
        "class OverpaidVcg(VcgMechanism):\n"
        "    def decide(self, instance, key, bids):\n"
        "        loads, payments = super().decide(instance, key, bids)\n"
        "        return loads, [p + 1 for p in payments]\n"
        "class Overloaded(VcgAllocate):\n"
        "    def decide(self, instance, winner):\n"
        "        job_to_machine, loads = super().decide(instance, winner)\n"
        "        loads[winner] += 1\n"
        "        return job_to_machine, loads\n"
        "planted = OverpaidVcg('overpaid-vcg', vcg_allocate, vcg_payments)\n"
        "instance = Instance((3, 2), (1, F(5, 2)))\n"
        "for check in (lambda: check_truthful(planted, instance), lambda: check_anonymous(planted, instance),\n"
        "              lambda: check_scalable(Overloaded(), instance, SCALING_FACTORS),\n"
        "              lambda: check_monotone(Overloaded(), instance)):\n"
        "    try:\n"
        "        print(check())\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "overpaid-vcg: decide at the instance's own key disagrees with the run",
        "overpaid-vcg: decide at the instance's own key disagrees with the run",
        "vcg: decide at the instance's own key disagrees with the run",
        "vcg: decide at the instance's own key disagrees with the run",
    ]


def test_package_has_no_assert_statements():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_probe_disagreement_raises_under_O():
    proc = run_optimized(
        "from schedmech.allocations import vcg_allocate\n"
        "from schedmech.payments import Mechanism, extract_h\n"
        "flat = Mechanism('flat', vcg_allocate, lambda inst, alloc: (F(1),) * inst.m)\n"
        "extract_h(flat, (2, 1), (2,), 1, 4)\n"
    )
    assert proc.returncode != 0
    assert "NotTruthfulEvidence" in proc.stderr


def test_json_writer_matches_json_dumps_and_refuses_floats_under_O():
    # No assert survives -O: the child prints what it found.
    proc = run_optimized(
        "import json\n"
        "from schedmech.cli import _json\n"
        "value = {'b': [1, -2, {}], 'a': ('\\u00e9\\n', None, True, []), 'c': {'d': False}}\n"
        "print(_json(value) == json.dumps(value, indent=2, sort_keys=True))\n"
        "for bad in (1.5, {1, 2}, {1: 'a'}):\n"
        "    try:\n"
        "        _json(bad)\n"
        "        print('written', bad)\n"
        "    except TypeError:\n"
        "        print('refused')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\nrefused\nrefused\nrefused\n"
