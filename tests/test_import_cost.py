"""Starting a command imports only what every command reads.

A child process that runs ``import schedmech.cli`` must not load
``dataclasses`` (which loads ``inspect``, ``dis`` and ``ast``, and whose
decorator writes each record's methods by ``exec``), ``inspect`` itself,
``csv`` (read by ``check ratio --csv`` only) or ``concurrent.futures``
(read by ``--jobs-parallel`` only).  ``src/`` neither imports
``dataclasses`` nor subclasses ``NamedTuple``: records derive from
``core.Record``.
"""

import ast
import subprocess
import sys
from pathlib import Path

from test_cli import CHILD_ENV

import schedmech

PACKAGE = Path(schedmech.__file__).resolve().parent
NOT_AT_START = ("dataclasses", "inspect", "csv", "concurrent.futures")


def loaded_at_start(modules=NOT_AT_START):
    """Which of ``modules`` a fresh ``import schedmech.cli`` loads."""
    probe = f"import sys, schedmech.cli; print(*[m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def forbidden(tree):
    """Line numbers in ``tree`` that import ``dataclasses`` or subclass ``NamedTuple``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
            or isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in node.bases)]


def test_import_of_the_cli_loads_none_of_them():
    assert loaded_at_start() == []


def test_src_has_no_dataclass_and_no_named_tuple():
    found = {path.name: forbidden(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guards_see_the_patterns_they_forbid():
    assert loaded_at_start(("json", "no_such_module", "schedmech.core")) == ["json", "schedmech.core"]
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "import typing, dataclasses as dc\n"
        "class Rows(NamedTuple):\n    x: int\n"
        "class Pair(typing.NamedTuple):\n    x: int\n"
        "class Fine(Record):\n    x: int\n"
        "from typing import NamedTuple\n"
    )
    assert forbidden(ast.parse(source)) == [1, 2, 3, 4, 6]
