"""Every check that reads a rule or mechanism at other profiles reads it
through one reader, ``properties._reader``.

No function or class of ``properties.py`` other than ``_reader`` names
``decide``, as an attribute (``rule.decide``), a name or the string of a
``getattr`` / ``hasattr``, so no checker has a second reading path of its own.
Nor does any name ``with_bid``, ``_with_bids`` or ``bid_data_of``: the
reader's ``read(bids, key=None)`` takes a profile's int bids, derives a
missing key from their bid data and, without ``decide``, builds the copy
itself; it takes no ``copy`` of a caller.  ``core.py`` defines no
``deviation_copy``, ``with_swapped_bids`` or ``scaled``: ``with_bid`` is
``Instance``'s one public copy method.
"""

import ast
from pathlib import Path

import schedmech

PACKAGE = Path(schedmech.__file__).resolve().parent


def _tree(module):
    path = PACKAGE / module
    return ast.parse(path.read_text(), filename=str(path))


# What only the reader names: ``decide``, and how a read builds its copy and key.
READER_NAMES = ("decide", "with_bid", "_with_bids", "bid_data_of")


def _names(node, names):
    """Line numbers under ``node`` where one of ``names`` is named."""
    return [sub.lineno for sub in ast.walk(node)
            if getattr(sub, "attr", None) in names or getattr(sub, "id", None) in names
            or (isinstance(sub, ast.Constant) and sub.value in names)]


def named_outside_the_reader(tree, names=("decide",)):
    """``name:line`` of each top-level statement other than ``_reader`` that
    names one of ``names``."""
    return [f"{getattr(node, 'name', type(node).__name__)}:{line}"
            for node in tree.body if getattr(node, "name", None) != "_reader"
            for line in _names(node, names)]


def read_parameters(tree):
    """The parameters of each ``read`` that ``_reader`` defines."""
    return [[arg.arg for arg in sub.args.args] for node in tree.body if getattr(node, "name", None) == "_reader"
            for sub in ast.walk(node) if isinstance(sub, ast.FunctionDef) and sub.name == "read"]


def defines(tree, name):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name]


def test_only_the_reader_reads_decide():
    assert named_outside_the_reader(_tree("properties.py")) == []


def test_only_the_reader_builds_a_copy_or_a_key():
    assert named_outside_the_reader(_tree("properties.py"), READER_NAMES) == []
    assert read_parameters(_tree("properties.py")) == [["bids", "key"]]


def test_core_has_no_deviation_copy():
    assert defines(_tree("core.py"), "deviation_copy") == []


def test_core_has_one_public_copy_method():
    tree = _tree("core.py")
    assert defines(tree, "with_swapped_bids") == defines(tree, "scaled") == []
    assert defines(tree, "with_bid")


def test_the_guards_see_the_patterns_they_forbid():
    source = (
        "def _reader(check):\n    return check.decide, getattr(check, 'decide')\n"
        "def check_a(rule):\n    return rule.decide(1, 2)\n"
        "def check_b(rule):\n    decide = getattr(rule, 'decide', None)\n"
        "def check_c(rule):\n    return hasattr(rule, 'key'), rule.decision, '``decide`` in a docstring'\n"
        "class Instance:\n    def deviation_copy(self):\n        return self\n"
        "def check_d(instance, bids):\n    return instance.with_bid(0, 1), bid_data_of(1, bids)\n"
        "def check_e(instance):\n    return instance._with_bids(instance.bids), 'with_bids'\n"
        "def _reader(check):\n    def read(bids, key, copy):\n        return copy()\n"
        "    def scaled(result):\n        return result\n"
    )
    tree = ast.parse(source)
    assert named_outside_the_reader(tree) == ["check_a:4", "check_b:6", "check_b:6"]
    assert named_outside_the_reader(tree, READER_NAMES) == ["check_a:4", "check_b:6", "check_b:6", "check_d:13",
                                                            "check_d:13", "check_e:15"]
    assert read_parameters(tree) == [["bids", "key", "copy"]]
    assert defines(tree, "deviation_copy") == [10] and defines(tree, "scaled") == [19]
