"""The README's Python tour runs and prints what its comments say, and its
CLI option table matches the parser's."""

import contextlib
import io
import itertools
import pathlib

from schedmech import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_tour_prints_its_comments():
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.split("  # ", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert len(expected) >= 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_cli_option_table_lists_each_targets_options():
    """Each row of the README's "Target | Options" table names targets by
    their leading words (``check PROPERTY`` is every property) and the
    options it adds; together they must be the options of each target."""
    table = README.read_text().split("| Target | Options", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    listed = {path: set() for path in cli.TARGETS if path not in cli._LEVELS}
    for targets, options in rows:
        names = {span.split()[0] for span in options.split("`")[1::2] if span.startswith("--")}
        for span in targets.split("`")[1::2]:
            prefix = tuple(itertools.takewhile(str.islower, span.split()))
            matched = [path for path in listed if path[:len(prefix)] == prefix]
            assert matched, span
            for path in matched:
                listed[path] |= names
    for path, names in listed.items():
        spec = cli.TARGETS[path][0]
        assert names == {name for name in spec if name.startswith("--")}, path
