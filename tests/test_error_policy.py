"""One refusal type per exit code.

The package defines exactly five exception classes.  Three reach users,
and ``cli.main`` maps each to its exit code and one stderr line:
``DomainError`` to 2, ``BudgetExceeded`` to 3 and ``NotTruthfulEvidence``
to 1.  ``CurveResolutionError`` (an inexact curve at the integral gate) and
``CertificateFailure`` stay internal: a run that raises one is a bug.
"""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import schedmech
from schedmech import cli
from schedmech.allocations import vcg_allocate
from schedmech.core import ZERO, Assignment, DomainError, Instance
from schedmech.payments import Mechanism
from schedmech.properties import check_scalable
from schedmech.workcurve import LogLinearValue, WorkCurve, build_workcurve, integrate

PACKAGE = Path(schedmech.__file__).resolve().parent

EXCEPTION_CLASSES = {
    "core.py:DomainError",
    "core.py:BudgetExceeded",
    "payments.py:NotTruthfulEvidence",
    "workcurve.py:CurveResolutionError",
    "certificates.py:CertificateFailure",
}


def defined_exception_classes():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports only
            continue
        module = importlib.import_module(f"schedmech.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                obj = getattr(module, node.name, None)
                if isinstance(obj, type) and issubclass(obj, BaseException):
                    found.add(f"{path.name}:{node.name}")
    return found


def test_the_package_defines_exactly_five_exception_classes():
    assert defined_exception_classes() == EXCEPTION_CLASSES


def test_main_catches_only_the_three_user_facing_types():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught.update(t.id for t in types)
    assert caught == {"SystemExit", "BrokenPipeError", "DomainError", "BudgetExceeded", "NotTruthfulEvidence"}


def _flat_payments(instance, allocation):
    return (Fraction(1),) * instance.m


@pytest.mark.parametrize("argv, code, line", [
    (["certify", "polytope", "--grid", "0,1"], 2, "error: grid bids must be positive"),
    (["certify", "polytope", "--grid", "1,2,3", "--jobs", "1", "--machines", "9"], 3,
     "error: 3^9 profiles exceed budget 4096"),
    (["certify", "theorem1", "--m", "2", "--c", "1"], 1,
     "not truthful: h(1) resolves to 1 at probe 1/2 but 4 at probe 2"),
], ids=["DomainError", "BudgetExceeded", "NotTruthfulEvidence"])
def test_each_user_facing_type_gives_its_exit_code_and_one_line(capsys, monkeypatch, argv, code, line):
    # theorem1 runs vcg_mechanism; flat payments are not truthful, so the
    # additive term differs between two probes.
    monkeypatch.setattr(cli, "vcg_mechanism", Mechanism("flat", vcg_allocate, _flat_payments))
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", line + "\n")


@pytest.mark.parametrize("data, reason", [
    (b'{"jobs": ["1"], "bids": ["1\xff"]}', "'utf-8' codec can't decode byte 0xff in position 27: invalid start byte"),
    (b"\xff\xfe" + '{"jobs": ["1"], "bids": ["1"]}'.encode("utf-16-le"),
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b'\xef\xbb\xbf{"jobs": ["1"], "bids": ["1"]}',
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
], ids=["invalid-utf-8", "utf-16-bom", "utf-8-bom"])
def test_an_instance_file_that_is_not_plain_utf_8_is_refused_with_one_line(capsys, tmp_path, data, reason):
    path = tmp_path / "instance.json"
    path.write_bytes(data)
    assert cli.main(["check", "ir", "vcg", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read instance {path}: {reason}\n")


_INST = Instance((2, 1), (1, Fraction(3, 2)))


@pytest.mark.parametrize("refused, message", [
    (lambda: _INST.scaled(0), "scaling factor must be positive"),
    (lambda: check_scalable(vcg_allocate, _INST, [0]), "scaling factor must be positive"),
    (lambda: Assignment.from_map(_INST, [0]), "one machine index per job required"),
    (lambda: WorkCurve((Fraction(1),), (), ZERO), "need one value per breakpoint interval"),
    (lambda: integrate(WorkCurve((), (), ZERO), -1, None), "integration starts at a nonnegative bound"),
    (lambda: build_workcurve(vcg_allocate, [1], [2, 1], 0), "cap must be positive"),
    (lambda: LogLinearValue(ZERO, ()).enclosure(0), "enclosure width must be positive"),
], ids=["scaled", "check-scalable", "from-map", "workcurve-lengths", "integrate-below-zero",
        "build-workcurve-cap", "enclosure-width"])
def test_public_refusals_raise_a_domain_error(refused, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        refused()
