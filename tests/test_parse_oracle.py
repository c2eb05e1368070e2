"""The option table parses every argv as the argparse parser it replaced.

``tests/argparse_oracle.py`` keeps that parser verbatim.  The corpus is the
README's CLI examples, every argv written in ``tests/test_cli.py``, the
generated ops of three seeds per benchmark workload and seeded shuffles of
valid and invalid option lists.  A valid argv must give equal parsed values
(callables compared by identity; each certificate's ``report`` lambda, which
the oracle defines anew, by its code), an invalid one the same error line,
and ``--help`` exit 0 on both.  Only shuffled argv may show the differences
in ``DIFFERENCES``, and on each the table refuses no argv that argparse took.
"""

import ast
import contextlib
import io
import pathlib
import random
import shlex
import sys

import pytest

import argparse_oracle
from schedmech import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from gen import make_rounds  # noqa: E402


def outcome(parser, argv):
    """('ok', values), ('error', line) or ('help',) for one parse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = parser.parse_args(list(argv))
    except cli.UsageError as exc:
        return ("error", str(exc))
    except SystemExit as exc:
        assert exc.code == 0
        return ("help",)
    values = dict(vars(args))
    if "report" in values:
        code = values["report"].__code__
        values["report"] = (code.co_code, code.co_consts, code.co_names)
    return ("ok", values)


def same(old, new):
    if old[0] != "ok" or new[0] != "ok":
        return old == new
    if old[1].keys() != new[1].keys():
        return False
    return all(a is b if callable(a) else a == b
               for a, b in ((old[1][key], new[1][key]) for key in old[1]))


def readme_examples():
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("schedmech ")]


def cli_test_argvs():
    """Every list, tuple or ``run_cli`` call in test_cli.py that starts with
    a command; a name in it reads as a file path."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    found = []
    for node in ast.walk(tree):
        items = None
        if isinstance(node, (ast.List, ast.Tuple)):
            items = node.elts
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "run_cli":
            items = node.args[1:]
        if items and isinstance(items[0], ast.Constant) and items[0].value in (
                "allocate", "check", "certify"):
            found.append([item.value if isinstance(item, ast.Constant) else "inst.json"
                          for item in items if not isinstance(item, ast.Starred)])
    return found


def generated_ops():
    rounds = {"sweep": 2, "curves": 8, "polytope": 2}  # polytope rounds are slow to draw
    return [op["argv"] for workload, n in rounds.items() for seed in (1, 2, 3)
            for ops in make_rounds(workload, seed, n)[0] for op in ops]


GOOD = {
    "--seed": "3", "--budget": "50", "--random": "4", "--straddle": None,
    "--jobs-parallel": "2", "--grid": "1,2,3", "--bids": "1,2", "--workloads": "2,1",
    "--payments": "1/2,0", "--csv": "out.csv", "--a": "8,16", "--tol": "1/1000",
    "--m": "4", "--c": "3/2", "--eps": "1/3", "--k": "2", "--rule": "opt",
    "--jobs": "3,2,1", "--samples-at": "1,3", "--samples": "10", "--machines": "3",
    "--text": None,
}
BAD_VALUES = ["x", "", "-1,2", "-3", "1e3", "0", "-2/3", "-", "1.5", "- 1", "-.5", "nope"]
POSITIONALS = ["vcg", "lpt-star", "lpt-star:efchain", "inst.json", "-", "-7", ""]
ODD_TOKENS = ["--", "-x", "--bogus=3", "-1,2", "--help=1", "-h", "--help"]


ORACLE = argparse_oracle.build_parser()


def oracle_parser(path):
    parser = ORACLE
    for word in path:
        parser = parser._subparsers._group_actions[0].choices[word]
    return parser


def shuffles(count=2000, seed=27):
    """(argv, the same tokens with the positionals first) for every target:
    mostly its own options with good values, plus now and then a bad value,
    a value or an option left alone, another target's option, an
    abbreviation, a stray or missing positional, an odd token, or a path
    cut short or ending in an unknown word."""
    rng = random.Random(seed)
    paths = [("allocate",)] + [
        (command, name) for command in ("check", "certify")
        for name in oracle_parser((command,))._subparsers._group_actions[0].choices]
    pairs = []
    for _ in range(count):
        path = rng.choice(paths)
        own = [name for name in oracle_parser(path)._option_string_actions
               if name not in ("-h", "--help")]
        groups = []
        for name in rng.sample(own, rng.randint(0, min(4, len(own)))):
            value = GOOD[name]
            if value is None:
                groups.append([name])
            else:
                groups.append([f"{name}={value}"] if rng.random() < 0.3 else [name, value])
        if path[0] == "allocate":
            positionals = [[rng.choice(["vcg", "opt", "at-sample", "nope"])], ["inst.json"]]
        else:
            positionals = [[word] for word in rng.sample(POSITIONALS, rng.randint(0, 2))]
        kind, name = rng.random(), rng.choice(list(GOOD))
        takes_values = [option for option in own if GOOD[option]] or ["--seed"]
        if kind < 0.15:
            groups.append([rng.choice(takes_values), rng.choice(BAD_VALUES)])
        elif kind < 0.25:
            groups.append([f"{rng.choice(own or [name])}={rng.choice(BAD_VALUES)}"])
        elif kind < 0.32:
            groups.append([name] if GOOD[name] is None else [name, GOOD[name]])
        elif kind < 0.37:
            groups.append([name[:4]])
        elif kind < 0.42:
            positionals.append([rng.choice(POSITIONALS)])
        elif kind < 0.5:
            groups.append([rng.choice(ODD_TOKENS)])
        two = [group for group in groups if len(group) == 2]
        if kind > 0.95 and two:  # an option without its value, or a value without its option
            group = rng.choice(two)
            del group[rng.randrange(2)]
            if group[0][0] != "-":  # the value is left: a positional now
                groups.remove(group)
                positionals.append(group)
        if 0.5 < kind < 0.53:  # a positional or a path word missing
            positionals = positionals[:-1]
        elif 0.53 < kind < 0.55:
            path = path[:rng.randint(0, len(path) - 1)]
        elif kind > 0.99:
            path = path[:rng.randint(0, len(path) - 1)] + ("nope",)
        # Shuffle the option groups in among the positionals, whose order
        # stays, since it sets their roles.
        slots = sorted(rng.randint(0, len(groups)) for _ in positionals)
        mixed = list(groups)
        for offset, (slot, group) in enumerate(zip(slots, positionals)):
            mixed.insert(slot + offset, group)
        pairs.append(([*path, *(t for group in mixed for t in group)],
                      [*path, *(t for group in positionals + groups for t in group)]))
    return pairs


CORPUS = {
    "readme": lambda: [(argv, argv) for argv in readme_examples()],
    "test_cli": lambda: [(argv, argv) for argv in cli_test_argvs()],
    "generated": lambda: [(argv, argv) for argv in generated_ops()],
    "shuffled": shuffles,
}
DIFFERENCES = {
    "interleaved": "argparse fills every optional positional of `check` from the first run "
                   "of positionals and refuses a later one as unrecognized; the table reads "
                   "it as the next positional, as argparse does with the positionals first",
    "dash-dash": "the table drops the first `--`, which argparse sometimes listed among "
                 "the unrecognized arguments (`certify polytope --`)",
    "flag-value": "a flag given a value (`--text=1`, `--help=1`) is an unrecognized "
                  "argument, refused after every other error, where argparse said at once "
                  "'argument --text: ignored explicit argument '1''",
}


def difference(argv, positionals_first, old, new):
    """The entry of DIFFERENCES behind a disagreement, or None."""
    if old[0] != "error":
        return None
    if new[0] == "error" and ": ignored explicit argument " in old[1]:
        return "flag-value"
    if "--" in argv:
        return "dash-dash"
    reordered = outcome(ORACLE, positionals_first)
    if argv[0] == "check" and old[1].startswith("unrecognized arguments: ") and (
            same(reordered, new) or reordered[0] == new[0] == "error"):
        return "interleaved"
    return None


@pytest.mark.parametrize("source", CORPUS)
def test_the_table_parses_as_the_argparse_parser(source):
    pairs = CORPUS[source]()
    assert len(pairs) >= 10
    kinds, parted = set(), []
    for argv, positionals_first in pairs:
        old, new = outcome(ORACLE, argv), outcome(cli.build_parser(), argv)
        kinds.add(old[0])
        if new[0] == "error":  # the one error line main prints, with exit 2
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.main(list(argv)) == cli.EXIT_USAGE
            assert err.getvalue() == f"error: {new[1]}\n" and "\n" not in new[1]
        if not same(old, new):
            assert difference(argv, positionals_first, old, new), (argv, old, new)
            parted.append(argv)
    if source == "shuffled":
        assert kinds == {"ok", "error", "help"} and len(parted) < len(pairs) // 5
    else:
        assert parted == []
