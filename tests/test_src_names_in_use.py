"""Every module-level function and class in the package, and every method,
has a use there, every local a function assigns is read, every imported
name is read, and no module imports another module's private names.

A definition must be named somewhere in ``src/schedmech`` other than in
its own body and in ``__init__.py``, or be exported through
``schedmech.__all__``.  Helpers only tests call belong under ``tests/``.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import schedmech

PACKAGE = Path(schedmech.__file__).resolve().parent


def _names(node):
    """Every identifier a node reads or imports, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unused_definitions():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = sum(1 for name in _names(node) if name == node.name)
            if node.name not in schedmech.__all__ and uses[node.name] == own:
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_definition_is_used_in_the_package_or_exported():
    assert unused_definitions() == []


# Methods kept with no caller in the package, each with its reason.
UNCALLED_METHODS = {
    "workcurve.py:WorkCurve.monotonicity_violations":
        "ROADMAP item 5's continuum monotonicity check calls it",
}


def unused_methods():
    """``module:Class.method`` for each non-dunder method that nothing in
    the package names outside its own body.  A string (``getattr(rule,
    "region_points", None)``) names it too, and an override of a base
    class's method is used by that base."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }

    def names(node):
        yield from _names(node)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield sub.value

    uses = Counter(name for tree in trees.values() for name in names(tree))
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            module_object = importlib.import_module(f"schedmech.{module[:-3]}")
            bases = getattr(module_object, cls.name).__mro__[1:]
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                own = sum(1 for name in names(node) if name == node.name)
                if uses[node.name] == own and not any(node.name in vars(b) for b in bases):
                    unused.append(f"{module}:{cls.name}.{node.name}")
    return unused


def test_every_method_is_used_in_the_package():
    # An allowed method that gains a caller leaves the list.
    assert sorted(unused_methods()) == sorted(UNCALLED_METHODS)


def dead_stores():
    """Local names a function assigns but never reads, as module:function:name.

    Names starting with ``_`` and names declared ``global`` or ``nonlocal``
    are exempt; a read in a nested function or comprehension counts.
    """
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, read, declared = set(), set(), set()
            for sub in ast.walk(func):
                if isinstance(sub, ast.Name):
                    (read if isinstance(sub.ctx, ast.Load) else stored).add(sub.id)
                elif isinstance(sub, (ast.Global, ast.Nonlocal)):
                    declared.update(sub.names)
            dead += [
                f"{path.name}:{func.name}:{name}"
                for name in sorted(stored - read - declared)
                if not name.startswith("_")
            ]
    return dead


def test_every_assigned_local_is_read():
    assert dead_stores() == []


def private_imports():
    """``module:name`` for each ``_``-prefixed name a package module imports
    from another package module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("schedmech"):
                continue
            found += [
                f"{path.name}:{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_another_modules_private_name():
    assert private_imports() == []


def unread_imports():
    """``module:name`` for each name a package module imports and never
    reads, itself or as ``module.name`` in another package module.
    ``__init__.py`` re-exports and ``from __future__`` are exempt."""
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    through = {
        (sub.value.id, sub.attr) for tree in trees.values() for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
    }
    unread = []
    for module, tree in trees.items():
        read = {
            sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [
                    f"{module}.py:{bound}"
                    for alias in node.names
                    if (bound := alias.asname or alias.name.split(".")[0]) not in read
                    and (module, bound) not in through
                ]
    return unread


def test_every_imported_name_is_read():
    assert unread_imports() == []
