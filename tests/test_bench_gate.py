"""The benchmark's own correctness gate passes on every workload.

``perfbench/run.py`` checks every op's output independently and, on a
traced run (``--trace 1``), also that the workload reaches each span it
must reach and that the spans' self times add up to the ops' time.  It
reports the outcome as ``"correct"`` on the last line of stdout and can
still exit 0 when that is false.  This runs each workload briefly, untraced
and traced, on the package under ``src/`` and asserts exit 0 and
``"correct": true``.
"""

import json
import pathlib
import subprocess
import sys

import pytest

RUN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "curves", "polytope"])
def test_a_short_bench_run_reports_correct(workload, trace):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "9", "--seconds", "1",
            "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True, done.stderr[-2000:]
