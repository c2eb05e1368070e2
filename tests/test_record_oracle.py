"""The package's records, built on ``core.Record``, behave as the
``@dataclass`` classes they replaced.

``tests/dataclass_records.py`` keeps those 15 classes verbatim, decorator
and fields, under the package's names.  On seeded field values each record
and its twin must agree on: ``==`` with an equal record, an unequal one,
a record of another class with equal field values (``Mechanism`` against a
subclass, ``Assignment`` against ``ExpectedAllocation``) and a non-record;
``hash``, equal ints on the frozen ones and ``TypeError`` on the four
mutable ones; ``repr``; refused assignment and deletion on the frozen ones
(``AttributeError``, same text) and accepted assignment on the mutable
ones; ``pickle`` and ``copy.deepcopy`` round trips; construction by
keyword, with defaults left out, and refusal of a missing field; the
``DomainError`` of each constructor check; and the keys of
``FeasibilityResult.to_json_dict``.
"""

import copy
import pickle
import random
from fractions import Fraction

import dataclass_records as twins
import pytest

from schedmech import certificates, core, exactlp, payments, properties, workcurve
from schedmech.allocations import RULES, at_lower_bound, opt_makespan
from schedmech.certificates import _polytope_rows
from schedmech.core import DomainError, Record

PACKAGE = {
    cls.__name__: cls
    for cls in (
        core.Instance, core.Assignment, core.ExpectedAllocation, core.Outcome,
        properties.Counterexample, properties.PropertyVerdict,
        payments.Mechanism, payments.HFunction,
        workcurve.WorkCurve, workcurve.CurvePiece, workcurve.LogLinearValue,
        certificates.CheckRecord, certificates.CertificateReport, certificates.FeasibilityResult,
        exactlp.Constraint,
    )
}
TWINS = {name: getattr(twins, name) for name in PACKAGE}
MUTABLE = {"Mechanism", "HFunction", "CertificateReport", "FeasibilityResult"}


def frac(r):
    return Fraction(r.randint(1, 9), r.randint(1, 4))


def fracs(r, k):
    return tuple(frac(r) for _ in range(k))


def _curve(ns, r):
    breakpoints = tuple(sorted({frac(r) for _ in range(r.randint(0, 3))}))
    return ns["WorkCurve"](breakpoints, fracs(r, len(breakpoints)), frac(r), r.random() < 0.5)


def _counterexample(ns, r):
    return ns["Counterexample"]("lhs <= rhs at b", frac(r), r.choice(["<=", ">="]), frac(r), {"i": r.randint(0, 3)})


def _feasibility(ns, r):
    feasible = r.random() < 0.5
    witness = {f"u{i}": str(frac(r)) for i in range(r.randint(1, 3))} if feasible else None
    subset = None if feasible else [f"row {i}" for i in range(r.randint(1, 3))]
    return ns["FeasibilityResult"](feasible, witness, subset, r.randint(1, 9), r.randint(1, 30), ["a note"])


def _report(ns, r):
    report = ns["CertificateReport"](r.choice(["theorem5", "lemma6"]), {"jobs": "1,2"}, {"c": str(frac(r))})
    report.checks.append(ns["CheckRecord"]("x", frac(r), "<=", frac(r)))
    return report


BUILDERS = {
    "Instance": lambda ns, r: ns["Instance"](fracs(r, r.randint(1, 4)), [str(b) for b in fracs(r, r.randint(1, 3))]),
    "Assignment": lambda ns, r: ns["Assignment"](tuple(r.randrange(3) for _ in range(4)), fracs(r, 3)),
    "ExpectedAllocation": lambda ns, r: ns["ExpectedAllocation"](
        fracs(r, 2), tuple(((0, frac(r)), (1, frac(r))) for _ in range(r.randint(1, 3)))),
    "Outcome": lambda ns, r: ns["Outcome"](ns["Assignment"]((0, 1, 1), fracs(r, 2)), fracs(r, 2)),
    "Counterexample": _counterexample,
    "PropertyVerdict": lambda ns, r: ns["PropertyVerdict"](
        "truthful", _counterexample(ns, r) if r.random() < 0.5 else None),
    "Mechanism": lambda ns, r: ns["Mechanism"](
        r.choice(["vcg", "ef"]), r.choice([at_lower_bound, opt_makespan]),
        r.choice([payments.vcg_payments, payments.ef_chain_payments])),
    "HFunction": lambda ns, r: ns["HFunction"](
        ns["Mechanism"]("vcg", at_lower_bound, payments.vcg_payments), fracs(r, 2)),
    "WorkCurve": _curve,
    "CurvePiece": lambda ns, r: ns["CurvePiece"](
        frac(r), r.choice([None, Fraction(10)]), (frac(r), frac(r), frac(r), 1)),
    "LogLinearValue": lambda ns, r: ns["LogLinearValue"](frac(r), tuple((frac(r), 1 + frac(r)) for _ in range(2))),
    "CheckRecord": lambda ns, r: ns["CheckRecord"]("x", frac(r), r.choice(["<=", "==", ">"]), frac(r)),
    "CertificateReport": _report,
    "FeasibilityResult": _feasibility,
    "Constraint": lambda ns, r: ns["Constraint"](((0, frac(r)), (2, frac(r))), r.choice(["<=", ">=", "=="]), frac(r),
                                                 r.choice(["", "row"])),
}
SEEDS = range(12)


def raised(action):
    """``(exception kind, text)`` of what ``action()`` raises, else None; a
    frozen dataclass's ``FrozenInstanceError`` is of kind ``AttributeError``."""
    try:
        action()
    except Exception as exc:  # what is compared is the exception itself
        kind = next(k for k in (AttributeError, TypeError, DomainError, Exception) if isinstance(exc, k))
        return kind.__name__, str(exc)
    return None


def behaviour(ns, name, seed):
    """What the generated methods of one record do, as comparable values."""
    build = BUILDERS[name]
    a, b, c = build(ns, random.Random(seed)), build(ns, random.Random(seed)), build(ns, random.Random(seed + 99))
    out = {"repr": repr(a), "eq": (a == b, a == c, a != b, a == None, a == (a,))}  # noqa: E711
    out["hash"] = raised(lambda: hash(a)) or (hash(a), hash(a) == hash(b))
    for label, clone in (("pickle", pickle.loads(pickle.dumps(a))), ("deepcopy", copy.deepcopy(a))):
        out[label] = (type(clone).__name__, repr(clone), clone == a, clone is not a)
    for field in PACKAGE[name]._fields:
        out[f"set {field}"] = raised(lambda: setattr(a, field, getattr(c, field)))
        out[f"del {field}"] = raised(lambda: delattr(copy.copy(a), field))
    out["set new"] = raised(lambda: setattr(a, "extra", 1))
    out["after"] = (repr(a), a == c)
    return out


@pytest.mark.parametrize("name", sorted(PACKAGE))
def test_each_record_behaves_as_its_dataclass_twin(name):
    for seed in SEEDS:
        assert behaviour(PACKAGE, name, seed) == behaviour(TWINS, name, seed), seed


def test_the_twins_are_dataclasses_and_the_records_are_not():
    for name in PACKAGE:
        assert hasattr(TWINS[name], "__dataclass_fields__")
        assert not hasattr(PACKAGE[name], "__dataclass_fields__")
        assert issubclass(PACKAGE[name], Record)
        assert PACKAGE[name]._fields == tuple(TWINS[name].__dataclass_fields__)
        assert (name in MUTABLE) == (PACKAGE[name].__hash__ is None)


def test_frozen_records_refuse_and_mutable_records_take_assignment():
    r = random.Random(3)
    for name, cls in PACKAGE.items():
        record = BUILDERS[name](PACKAGE, r)
        first = cls._fields[0]
        if name in MUTABLE:
            setattr(record, first, "changed")
            assert getattr(record, first) == "changed"
        else:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
                setattr(record, first, "changed")


def test_records_of_two_classes_with_equal_values_differ():
    class TwinVcg(twins.Mechanism):
        pass

    for ns, sub in ((PACKAGE, payments.VcgMechanism), (TWINS, TwinVcg)):
        base = ns["Mechanism"]("vcg", at_lower_bound, payments.vcg_payments)
        assert base != sub("vcg", at_lower_bound, payments.vcg_payments)
        assert sub("vcg", at_lower_bound, payments.vcg_payments) == sub("vcg", at_lower_bound, payments.vcg_payments)
        values = (0, 1), (Fraction(1), Fraction(2))
        assert ns["Assignment"](*values) != ns["ExpectedAllocation"](*values)
        assert hash(ns["Assignment"](*values)) == hash(ns["ExpectedAllocation"](*values)) == hash(values)


def test_keywords_defaults_and_missing_fields():
    f = Fraction
    for ns in (PACKAGE, TWINS):
        assert ns["PropertyVerdict"]("ir") == ns["PropertyVerdict"](prop="ir", counterexample=None)
        assert ns["Constraint"](((0, f(1)),), "<=", f(2)).label == ""
        assert not ns["WorkCurve"]((f(1),), (f(2),), f(0)).approximate
        assert ns["CertificateReport"]("x", {}, {}).checks == []
        by_name = ns["CheckRecord"](label="x", lhs=f(1), relation="<=", rhs=f(2))
        assert ns["CheckRecord"]("x", f(1), "<=", rhs=f(2)) == by_name
        assert ns["LogLinearValue"](rational=f(1), logs=()) == ns["LogLinearValue"](f(1), ())
        for build in (lambda: ns["LogLinearValue"](f(1)), lambda: ns["LogLinearValue"](f(1), (), ()),
                      lambda: ns["LogLinearValue"](f(1), rational=f(1)), lambda: ns["Mechanism"]("x", None, z=1)):
            assert raised(build)[0] == "TypeError"


def test_constructor_checks_raise_the_same_domain_errors():
    f = Fraction
    for build in (
        lambda ns: ns["Outcome"](ns["Assignment"]((0,), (f(1),)), (f(1), f(2))),
        lambda ns: ns["WorkCurve"]((f(1), f(2)), (f(1),), f(0)),
        lambda ns: ns["WorkCurve"]((f(2), f(1)), (f(1), f(1)), f(0)),
        lambda ns: ns["CurvePiece"](f(1), None, (f(1), f(1), f(1), f(2))),
        lambda ns: ns["CurvePiece"](f(1), None, (f(1), f(1), f(-3), f(1))),
        lambda ns: ns["Constraint"]((), "<", f(1)),
        lambda ns: ns["Instance"]([], [1]),
        lambda ns: ns["Instance"]([1], ["0"]),
    ):
        got = raised(lambda: build(PACKAGE))
        assert got is not None and got[0] == DomainError.__name__
        assert got == raised(lambda: build(TWINS))


def test_feasibility_json_keys_and_values_match():
    for seed in SEEDS:
        mine, theirs = (_feasibility(ns, random.Random(seed)).to_json_dict() for ns in (PACKAGE, TWINS))
        assert list(mine) == list(theirs) and mine == theirs


def test_polytope_rows_read_by_name_and_refuse_assignment():
    system = _polytope_rows(RULES["lpt-star"], ["1", "2"], ["1", "2"], 2, 4096)
    assert system._fields[:2] == ("grid", "texts") and system.scale > 0 and system.rows
    with pytest.raises(AttributeError):
        system.rows = []
