"""The bids' common denominator has one derivation: ``Instance.scaled_bids``.

No module under ``src/schedmech`` other than ``core.py`` takes the ``lcm``
of the denominators of ``instance.bids`` or ``self.bids``, and ``workcurve``
defines no common-denominator helper of its own: it scales through
``core.scaled_to_ints``.  No module, ``core.py`` included, scales the
``Fraction`` bids to ints with ``scaled_by``: the int bids over any multiple
D of their scale E are ``scaled_bids`` times D // E.
"""

import ast
from pathlib import Path

import schedmech

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
