"""Every check that reads a rule or mechanism at other profiles reads it
through one reader, ``properties._reader``.

No function or class of ``properties.py`` other than ``_reader`` names
``decide``, as an attribute (``rule.decide``), a name or the string of a
``getattr`` / ``hasattr``, so no checker has a second reading path of its own.
``core.py`` defines no ``deviation_copy``: a read without ``decide`` builds
its copy with the public ``Instance.with_bid``.
"""

import ast
from pathlib import Path

import schedmech

PACKAGE = Path(schedmech.__file__).resolve().parent


def _tree(module):
    path = PACKAGE / module
    return ast.parse(path.read_text(), filename=str(path))


def _names_decide(node):
    """Line numbers under ``node`` where ``decide`` is named."""
    return [sub.lineno for sub in ast.walk(node)
            if getattr(sub, "attr", None) == "decide" or getattr(sub, "id", None) == "decide"
            or (isinstance(sub, ast.Constant) and sub.value == "decide")]


def decide_readers(tree):
    """``name:line`` of each top-level statement other than ``_reader`` that
    names ``decide``."""
    return [f"{getattr(node, 'name', type(node).__name__)}:{line}"
            for node in tree.body if getattr(node, "name", None) != "_reader"
            for line in _names_decide(node)]


def defines(tree, name):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name]


def test_only_the_reader_reads_decide():
    assert decide_readers(_tree("properties.py")) == []


def test_core_has_no_deviation_copy():
    assert defines(_tree("core.py"), "deviation_copy") == []


def test_the_guards_see_the_patterns_they_forbid():
    source = (
        "def _reader(check):\n    return check.decide, getattr(check, 'decide')\n"
        "def check_a(rule):\n    return rule.decide(1, 2)\n"
        "def check_b(rule):\n    decide = getattr(rule, 'decide', None)\n"
        "def check_c(rule):\n    return hasattr(rule, 'key'), rule.decision, '``decide`` in a docstring'\n"
        "class Instance:\n    def deviation_copy(self):\n        return self\n"
    )
    tree = ast.parse(source)
    assert decide_readers(tree) == ["check_a:4", "check_b:6", "check_b:6"]
    assert defines(tree, "deviation_copy") == [10]
