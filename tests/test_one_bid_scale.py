"""The bids' common denominator has one derivation: ``Instance.scaled_bids``.

No module under ``src/schedmech`` other than ``core.py`` takes the ``lcm``
of the denominators of ``instance.bids`` or ``self.bids``, and ``workcurve``
defines no common-denominator helper of its own: it scales through
``core.scaled_to_ints``.  No module, ``core.py`` included, scales the
``Fraction`` bids to ints with ``scaled_by``: the int bids over any multiple
D of their scale E are ``scaled_bids`` times D // E.  Inside ``core.py``
the bids are scaled in one function, ``scaled_bids``, which the constructor
primes and a copy runs on its first read: ``Instance.__init__`` scales only
the jobs itself, and no ``lcm`` reads ``self.bids``.
"""

import ast
import sys
from pathlib import Path

import schedmech
from schedmech import core
from schedmech.core import Instance

PACKAGE = Path(schedmech.__file__).resolve().parent


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _calls(node, name="lcm"):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == name:
            yield sub


def _reads_denominators(call):
    return any(isinstance(sub, ast.Attribute) and sub.attr == "denominator" for sub in ast.walk(call))


def _reads_bids(call):
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "bids"
        and isinstance(sub.value, ast.Name) and sub.value.id in ("instance", "self")
        for sub in ast.walk(call)
    )


def bid_scale_derivations():
    """``module:line`` of each ``lcm`` over bid denominators outside ``core.py``."""
    return [
        f"{module}:{call.lineno}"
        for module, tree in _trees().items() if module != "core.py"
        for call in _calls(tree) if _reads_denominators(call) and _reads_bids(call)
    ]


def bid_scalings():
    """``module:line`` of each ``scaled_by`` over ``instance.bids`` or ``self.bids``."""
    return [f"{module}:{call.lineno}" for module, tree in _trees().items()
            for call in _calls(tree, "scaled_by") if _reads_bids(call)]


def workcurve_denominator_helpers():
    """Functions of ``workcurve.py`` that take an ``lcm`` of denominators."""
    tree = _trees()["workcurve.py"]
    return [
        func.name for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_reads_denominators(call) for call in _calls(func))
    ]


def core_scalings():
    """``(function, argument)`` of each ``scaled_to_ints`` call in ``core.py``."""
    return sorted((func.name, ast.unparse(call.args[0])) for func in ast.walk(_trees()["core.py"])
                  if isinstance(func, ast.FunctionDef) for call in _calls(func, "scaled_to_ints"))


def test_core_scales_the_bids_in_scaled_bids_only():
    assert core_scalings() == [("__init__", "jobs"), ("scaled_bids", "self.bids")]
    assert [call.lineno for call in _calls(_trees()["core.py"]) if _reads_bids(call)] == []


def test_the_constructor_and_copies_share_that_one_derivation(monkeypatch):
    callers, scaled_to_ints = [], core.scaled_to_ints

    def spy(values):
        callers.append(sys._getframe(1).f_code.co_name)
        return scaled_to_ints(values)

    monkeypatch.setattr(core, "scaled_to_ints", spy)
    inst = Instance(["3/2", 1], ["5/4", 2, "1/3"])
    assert callers == ["__init__", "scaled_bids"] and inst.scaled_bids == (12, [15, 24, 4])
    for copy in (inst.with_bid(1, "7/5"), inst.with_swapped_bids(0, 2), inst.scaled(3)):
        callers.clear()
        assert copy.scaled_bids == scaled_to_ints(copy.bids) and copy.scaled_bids is copy.scaled_bids
        assert callers == ["scaled_bids"]


def test_only_core_derives_the_bids_common_denominator():
    assert bid_scale_derivations() == []


def test_no_module_scales_the_fraction_bids_again():
    assert bid_scalings() == []


def test_workcurve_scales_through_core():
    assert workcurve_denominator_helpers() == []


def test_the_guards_see_the_patterns_they_forbid():
    source = (
        "def f(instance):\n    return lcm(*[b.denominator for b in instance.bids])\n"
        "def g(self):\n    return math.lcm(*(b.denominator for b in self.bids))\n"
        "def h(values):\n    return lcm(*range(1, 4)), lcm(*(v.numerator for v in values))\n"
        "def i(self, d):\n    return scaled_by(self.bids, d), core.scaled_by(instance.bids, d)\n"
        "def j(bids, d):\n    return scaled_by(bids, d), scaled_by(self.jobs, d)\n"
    )
    tree = ast.parse(source)
    found = [call.lineno for call in _calls(tree) if _reads_denominators(call) and _reads_bids(call)]
    assert found == [2, 4]
    assert [call.lineno for call in _calls(tree, "scaled_by") if _reads_bids(call)] == [8, 8]
