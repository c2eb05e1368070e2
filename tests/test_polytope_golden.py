"""Exact CLI output of ``certify polytope`` on fixed grids.

Feasible and infeasible two-machine grids, ``opt`` and ``at-expected`` on
a two-machine grid with mixed bid and job denominators, three machines on
a two-value grid with ``opt`` and on the six-point grid with ``lpt-star``
and ``at-expected``, and a one-value grid at the largest machine count its
budget admits: the exit code and stdout of each are pinned in
``polytope_golden.json``, recorded from the ``Fraction``-tableau simplex
(the mixed-denominator and three-machine ``at-expected`` cases from the
``Fraction`` ``opt_makespan`` and binning rule).  A faster simplex, row
builder, Bellman–Ford or rule kernel cannot change a witness, an
infeasible subset or a note unnoticed.  To record the file again from the
code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_polytope_golden.py --write
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from schedmech.cli import main

GOLDEN = pathlib.Path(__file__).with_name("polytope_golden.json")

SIX_POINTS = "1,5/4,3/2,7/4,2,5/2"
ARGVS = (
    # two machines, feasible
    [],
    ["--rule", "vcg", "--grid", "1,2,4", "--jobs", "2,1"],
    ["--rule", "two-opt", "--grid", "1,3/2,2,3", "--jobs", "3,2,1"],
    ["--rule", "at-expected", "--grid", "5/8,1,5", "--jobs", "2,1"],
    # two machines, infeasible
    ["--rule", "lpt-star", "--grid", "3/2,3", "--jobs", "6,6,2"],
    ["--rule", "opt", "--grid", "3/8,3/4", "--jobs", "2,2,1"],
    ["--rule", "opt", "--grid", "1/2,3/4,2", "--jobs", "3,1"],
    ["--rule", "opt", "--grid", "1,3/2,3", "--jobs", "2,1,1"],
    # three machines
    ["--machines", "3", "--grid", "1,2", "--rule", "opt"],
    ["--machines", "3", "--rule", "lpt-star", "--grid", SIX_POINTS, "--jobs", "3,2,2,1"],
    ["--machines", "3", "--rule", "at-expected", "--grid", SIX_POINTS, "--jobs", "3,2,2,1"],
    # two machines, mixed job and bid denominators
    ["--rule", "opt", "--grid", "3/8,5/4,3", "--jobs", "5/2,4/3,1"],
    ["--rule", "at-expected", "--grid", "3/8,5/4,3", "--jobs", "5/2,4/3,1"],
    # one-value grid at the budget's machine cap
    ["--grid", "1", "--jobs", "1", "--machines", "12"],
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def record():
    ops = [{"argv": ["certify", "polytope", *argv]} for argv in ARGVS]
    for op in ops:
        op["rc"], op["stdout"] = _run(op["argv"])
    return {"ops": ops}


GOLDEN_OPS = json.loads(GOLDEN.read_text())["ops"] if GOLDEN.exists() else []


def _machines(argv):
    return int(argv[argv.index("--machines") + 1]) if "--machines" in argv else 2


def test_golden_covers_both_verdicts_on_two_and_three_machines():
    assert [op["argv"][2:] for op in GOLDEN_OPS] == [list(argv) for argv in ARGVS]
    verdicts = {(_machines(op["argv"]), json.loads(op["stdout"])["feasible"]) for op in GOLDEN_OPS}
    assert {(2, True), (2, False), (3, True), (3, False)} <= verdicts


@pytest.mark.parametrize("op", GOLDEN_OPS, ids=lambda op: " ".join(op["argv"][2:]) or "defaults")
def test_polytope_output_is_pinned(op):
    assert _run(op["argv"]) == (op["rc"], op["stdout"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
