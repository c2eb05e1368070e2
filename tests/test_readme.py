"""The README's Python tour runs, and prints what its comments say."""

import contextlib
import io
import pathlib

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
