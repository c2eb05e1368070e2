"""Exact CLI output of every op kind of the ``sweep`` benchmark workload.

Three fixed instances (straddling bids, tied bids, bids on default-grid
points) run through every ``check`` the workload issues; the stdout and exit
code of each are pinned in ``sweep_golden.json``, so a speed-up of the
rules, payments or checkers cannot change a verdict unnoticed.  To record
the file again from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_sweep_golden.py --write
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from schedmech.cli import main

GOLDEN = pathlib.Path(__file__).with_name("sweep_golden.json")

INSTANCES = {
    # 7/4 and 9/4 sit just below and just above 2 (lpt-star rounds them apart)
    "straddling": {"jobs": ["5", "3", "5/2", "1/4"], "bids": ["7/4", "9/4"]},
    # the two lowest bids tie, so the VCG winner is the lower index
    "tied": {"jobs": ["3", "3", "1/2", "5", "11/4"], "bids": ["4/3", "5/2", "4/3"]},
    # 3/4 = 3 * 2/8 is a point of the j/8 grid scaled by the largest bid
    "on-grid": {"jobs": ["6", "1", "9/2", "2"], "bids": ["3", "3/4"]},
}
SWEEP_CHECKS = (
    ("truthful", "vcg"),
    ("ef", "vcg"),
    ("ir", "vcg"),
    ("anonymous", "vcg"),
    ("monotone", "vcg"),
    ("monotone", "lpt-star"),
    ("ir", "lpt-star:efchain"),
    ("ratio", "lpt-star"),
)
TWO_MACHINE_CHECKS = (("monotone", "two-opt"), ("scalable", "two-opt"))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def _write_instances(directory):
    for name, inst in INSTANCES.items():
        (pathlib.Path(directory) / f"{name}.json").write_text(json.dumps(inst))


def record():
    """The golden ops with the outputs of the code on ``PYTHONPATH``; the
    ``le`` workloads are lpt-star's, as the workload computes them."""
    from schedmech.allocations import lpt_star
    from schedmech.core import Instance, rat_str

    ops = []
    for name, inst in INSTANCES.items():
        path = f"{name}.json"
        checks = SWEEP_CHECKS + (TWO_MACHINE_CHECKS if len(inst["bids"]) == 2 else ())
        argvs = [["check", prop, mech, path] for prop, mech in checks]
        workloads = lpt_star(Instance.from_json_dict(inst)).workloads
        argvs.append(["check", "le", "--bids", ",".join(inst["bids"]),
                      "--workloads", ",".join(rat_str(w) for w in workloads)])
        ops.extend({"argv": argv} for argv in argvs)
    for op in ops:
        op["rc"], op["stdout"] = _run(op["argv"])
    return {"instances": INSTANCES, "ops": ops}


def _golden():
    return json.loads(GOLDEN.read_text())


# Read at collection; absent only while the file is being recorded, which
# the coverage test below then reports.
GOLDEN_OPS = _golden()["ops"] if GOLDEN.exists() else []


def test_golden_covers_every_sweep_op_kind():
    golden = _golden()
    assert golden["instances"] == INSTANCES
    kinds = {tuple(op["argv"][1:3]) for op in golden["ops"]}
    assert kinds >= set(SWEEP_CHECKS) | set(TWO_MACHINE_CHECKS)
    assert sum(op["argv"][1] == "le" for op in golden["ops"]) == len(INSTANCES)


@pytest.mark.parametrize("op", GOLDEN_OPS, ids=lambda op: " ".join(op["argv"][1:4]))
def test_sweep_op_output_is_pinned(op, tmp_path, monkeypatch):
    _write_instances(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(op["argv"]) == (op["rc"], op["stdout"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        _write_instances(scratch)
        os.chdir(scratch)
        try:
            golden = record()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
