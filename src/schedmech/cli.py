"""Command-line front end.

``allocate`` runs a rule on an instance file, ``check`` one property checker
on an instance file, a random batch or (``le``, ``ef``) explicit vectors,
and ``certify`` one certificate.  One option table, ``TARGETS``, lists each
target's positionals and options; a target accepts only the options it
reads, and ``--help`` prints them from the table.  Output is JSON with
rationals as strings (``--text``: the five report certificates as text).
Exit codes: 0 pass, 1 property failure, unverified certificate or output
closed early (one ``error:`` line), 2 usage or parse error (one ``error:``
line), 3 resource budget exceeded.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import certificates
from .allocations import OPT_STATE_BUDGET, RULES, at_sample, opt_makespan
from .core import BudgetExceeded, DomainError, Instance, makespan, rat, rat_str
from .payments import (
    NotTruthfulEvidence,
    ef_chain_mechanism,
    vcg_mechanism,
)
from .properties import (
    SCALING_FACTORS,
    approx_ratio,
    check_anonymous,
    check_envy_free,
    check_ir,
    check_local_efficiency,
    check_monotone,
    check_scalable,
    check_truthful,
)
from .sampling import sample_instance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
ProcessPoolExecutor = None  # None: concurrent.futures' pool, imported only to start one


class UsageError(Exception):
    pass


def _rat_list(text: str) -> list[Fraction]:
    try:
        values = [rat(tok) for tok in text.split(",") if tok.strip()]
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    if not values:
        raise UsageError(f"expected comma-separated rationals, got {text!r}")
    return values


def _grid_list(text: str) -> list[Fraction]:
    values = _rat_list(text)
    if min(values) <= 0:
        raise UsageError(f"--grid takes strictly positive bids, got {rat_str(min(values))}")
    return values


def _load_instance(path: str) -> tuple[Instance, int | None]:
    """Instance plus the file's optional default sampling seed."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise DomainError("instance JSON must be an object")
        seed = payload.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise DomainError("instance seed must be an integer")
        return Instance.from_json_dict(payload), seed
    except (OSError, json.JSONDecodeError, DomainError) as exc:
        raise UsageError(f"cannot read instance {path}: {exc}") from exc


def _mechanism_for(name: str):
    if name == "vcg":
        return vcg_mechanism
    base, sep, suffix = name.partition(":")
    if sep and suffix == "efchain":
        if base not in RULES:
            raise UsageError(f"unknown rule {base!r}")
        return ef_chain_mechanism(RULES[base])
    raise UsageError(
        f"unknown mechanism {name!r}; use 'vcg' or '<rule>:efchain'"
    )


def _rule_for(name: str):
    if name not in RULES:
        raise UsageError(f"unknown rule {name!r}; choose from {sorted(RULES)}")
    return RULES[name]


def _emit(payload):
    body = payload.to_json_dict() if hasattr(payload, "to_json_dict") else payload
    print(json.dumps(body, indent=2, sort_keys=True))


def cmd_allocate(args) -> int:
    for option, reader in (("seed", "at-sample"), ("budget", "opt")):
        if option in vars(args) and args.rule != reader:
            raise UsageError(f"--{option} is read by allocate {reader} only")
    instance, file_seed = _load_instance(args.instance)
    if args.rule == "at-sample":
        seed = getattr(args, "seed", file_seed or 0)
        allocation = at_sample(instance, random.Random(seed))
    elif args.rule == "opt":
        allocation, _ = opt_makespan(instance, getattr(args, "budget", OPT_STATE_BUDGET))
    else:
        allocation = RULES[args.rule](instance)
    out = allocation.to_json_dict()
    out["makespan"] = rat_str(makespan(allocation, instance.bids))
    out["rule"] = args.rule
    out["instance"] = instance.to_json_dict()
    _emit(out)
    return EXIT_OK


def _check_on_instance(property_name, mechanism_name, instance, grid, budget):
    """One property verdict (for ``ratio``, the exact approximation ratio)
    on one instance; used by the batch fan-out."""
    if property_name in ("ef", "ir", "truthful", "anonymous"):
        mech = _mechanism_for(mechanism_name)
        if property_name == "truthful":
            return check_truthful(mech, instance, grid)
        if property_name == "anonymous":
            return check_anonymous(mech, instance)
        outcome = mech.run(instance)
        checker = check_envy_free if property_name == "ef" else check_ir
        return checker(instance.bids, outcome.allocation.workloads, outcome.payments)
    rule = _rule_for(mechanism_name)
    if property_name == "ratio":
        return approx_ratio(rule, instance, budget)
    if property_name == "le":
        return check_local_efficiency(instance.bids, rule(instance).workloads)
    if property_name == "monotone":
        return check_monotone(rule, instance, grid)
    return check_scalable(rule, instance, SCALING_FACTORS)


def _refuse_batch_options(args):
    batch = {"seed": "--seed", "straddle": "--straddle", "jobs_parallel": "--jobs-parallel"}
    given = [option for name, option in batch.items() if name in vars(args)]
    if given:
        raise UsageError(f"{', '.join(given)}: read with --random N only")


def cmd_check_vectors(args) -> int:
    """``le`` and ``ef`` on the explicit vectors, or on instances without them."""
    names = ["bids", "workloads"] + (["payments"] if args.property == "ef" else [])
    vectors = [getattr(args, name) for name in names]
    if vectors == [None] * len(names):
        return cmd_check(args)
    if None in vectors:
        raise UsageError(f"explicit {args.property} check needs --" + ", --".join(names))
    if args.mechanism or args.instance or args.random:
        raise UsageError("give explicit vectors or a rule with instances, not both")
    _refuse_batch_options(args)
    if min(vectors[0]) <= 0 or min(vectors[1]) < 0:  # as in an instance file
        raise UsageError("--bids must be strictly positive and --workloads nonnegative")
    checker = check_local_efficiency if args.property == "le" else check_envy_free
    verdict = checker(*vectors)
    _emit(verdict)
    return EXIT_OK if verdict.passed else EXIT_FAIL


def cmd_check(args) -> int:
    if not args.mechanism:
        raise UsageError("property checks need a mechanism or rule name")
    if args.random < 0:
        raise UsageError(f"--random takes a positive count, got {args.random}")
    workers = getattr(args, "jobs_parallel", 1)
    if workers < 1:
        raise UsageError(f"--jobs-parallel takes a positive count, got {workers}")
    if args.random and args.instance:
        raise UsageError("give an instance file or --random N, not both")
    if args.random:
        rng = random.Random(getattr(args, "seed", 0))
        base = args.mechanism.partition(":")[0]
        fixed_m = getattr(RULES.get(base), "machine_count", None)
        m_range = {"m_min": fixed_m, "m_max": fixed_m} if fixed_m else {}
        instances = [
            sample_instance(rng, straddle_pow2="straddle" in vars(args), **m_range)
            for _ in range(args.random)
        ]
    elif args.instance:
        _refuse_batch_options(args)
        instances = [_load_instance(args.instance)[0]]
    else:
        raise UsageError("provide an instance file or --random N")
    check = functools.partial(
        _check_on_instance, args.property, args.mechanism,
        grid=getattr(args, "grid", None), budget=getattr(args, "budget", None),
    )
    workers = min(workers, len(instances))
    if workers > 1:
        from concurrent import futures
        with (ProcessPoolExecutor or futures.ProcessPoolExecutor)(max_workers=workers) as pool:
            verdicts = list(pool.map(check, instances, chunksize=8))
    else:
        verdicts = [check(inst) for inst in instances]
    if args.property == "ratio":
        return _emit_ratios(args, instances, verdicts)
    failures = [
        {"instance": inst.to_json_dict(), "verdict": verdict.to_json_dict()}
        for inst, verdict in zip(instances, verdicts)
        if not verdict.passed
    ]
    summary = {
        "property": args.property,
        "mechanism": args.mechanism,
        "instances": len(verdicts),
        "failures": failures,
        "pass": not failures,
    }
    _emit(summary)
    return EXIT_OK if not failures else EXIT_FAIL


def _emit_ratios(args, instances, ratios) -> int:
    rows = [
        {"rule": args.mechanism, "m": inst.m, "n": inst.n, "ratio": rat_str(ratio)}
        for inst, ratio in zip(instances, ratios)
    ]
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=["rule", "m", "n", "ratio"])
                writer.writeheader()
                writer.writerows(rows)
        except OSError as exc:
            raise UsageError(f"cannot write {args.csv}: {exc}") from exc
    if len(rows) == 1 and not args.csv:
        print(rows[0]["ratio"])
    else:
        _emit({"ratios": rows})
    return EXIT_OK


def _report(args) -> int:
    """Build the certificate's report (``args.report``) and print it."""
    report = args.report(args)
    if args.text:
        print(report.to_text())
    else:
        _emit(report)
    return EXIT_OK if report.verified else EXIT_FAIL


def cmd_polytope(args) -> int:
    _emit(certificates.payment_polytope_feasible(
        args.rule, args.grid, args.jobs, machines=args.machines, profile_budget=args.budget
    ))
    return EXIT_OK  # the verdict is data either way


_LEVELS = {(): "command", ("check",): "property", ("certify",): "name"}
ABSENT = object()  # no default: a positional must be given, an option is set only if given
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's: a value, not an option


def _is_option(token, spec) -> bool:
    """argparse's rule: a token that starts with "-" is an option unless it
    names none and is "-", a negative number or holds a space."""
    return token[:1] == "-" and (token.partition("=")[0] in spec or not (
        token == "-" or " " in token or _NEGATIVE.match(token)))


def _convert(name, convert, text):
    if isinstance(convert, tuple) and text not in convert:
        choices = ", ".join(map(repr, convert))
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    try:
        return text if isinstance(convert, tuple) else convert(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {convert.__name__} value: {text!r}") from None


class OptionTable(dict):
    """The CLI's one parser: path -> (spec, values the call reads), where a
    spec maps each positional, in order, and each option to (converter,
    default).  A tuple converter lists the allowed values, None marks a flag
    and a string default goes through the converter.  Tokens and error lines
    follow argparse's, but positionals may follow options anywhere."""

    def __init__(self, targets):
        super().__init__(targets)
        for level, dest in _LEVELS.items():  # one positional: the next word of a path
            words = dict.fromkeys(path[len(level)] for path in targets if path[:len(level)] == level)
            self[level] = ({dest: (tuple(words), ABSENT)}, {})

    def parse_args(self, argv=None) -> SimpleNamespace:
        tokens = list(sys.argv[1:] if argv is None else argv)
        path, spec, positionals, values, extras, ended = (), self[()][0], ["command"], {}, [], False
        while tokens:
            token = tokens.pop(0)
            option, given, text = token.partition("=")
            if token == "--" and not ended:
                ended = True
            elif (ended or not _is_option(token, spec)) and positionals:
                name = positionals.pop(0)
                values[name] = _convert(name, spec[name][0], token)
                if path in _LEVELS:
                    path += (token,)
                    spec = self[path][0]
                    positionals = [name for name in spec if name[0] != "-"]
            elif not ended and token in ("-h", "--help"):
                print("usage: schedmech", *path, "[--help]", *("{%s}" % ",".join(entry[0])
                      if isinstance(entry[0], tuple) else name for name, entry in spec.items()))
                raise SystemExit(EXIT_OK)
            elif ended or option not in spec or given and spec[option][0] is None:  # a flag's value
                extras.append(token)
            elif spec[option][0] is None:
                values[option] = True
            else:
                if not given:
                    if not tokens or _is_option(tokens[0], spec):
                        raise UsageError(f"argument {option}: expected one argument")
                    text = tokens.pop(0)
                values[option] = _convert(option, spec[option][0], text)
        missing = [name for name in positionals if spec[name][1] is ABSENT]
        if missing:
            raise UsageError("the following arguments are required: " + ", ".join(missing))
        for name, (convert, default) in spec.items():
            if name not in values and default is not ABSENT:
                values[name] = _convert(name, convert, default) if isinstance(default, str) else default
        if extras:
            raise UsageError("unrecognized arguments: " + " ".join(extras))
        dests = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
        return SimpleNamespace(**dests, **self[path][1])


_CHECK = {"mechanism": (str, None), "instance": (str, None), "--random": (int, 0),
          "--seed": (int, ABSENT), "--straddle": (None, ABSENT), "--jobs-parallel": (int, ABSENT)}
_VECTORS = {"--bids": (_rat_list, None), "--workloads": (_rat_list, None)}
_GRID, _TEXT = {"--grid": (_grid_list, None)}, {"--text": (None, False)}
_CHECKS = {"le": _VECTORS, "ef": {**_VECTORS, "--payments": (_rat_list, None)}, "ir": {},
           "truthful": _GRID, "monotone": _GRID, "anonymous": {}, "scalable": {},
           "ratio": {"--csv": (str, None), "--budget": (int, OPT_STATE_BUDGET)}}
TARGETS = OptionTable({
    ("allocate",): ({"rule": ((*RULES, "at-sample"), ABSENT), "instance": (str, ABSENT),
                     "--seed": (int, ABSENT), "--budget": (int, ABSENT)}, {"func": cmd_allocate}),
    **{("check", name): ({**_CHECK, **extra}, {"func": cmd_check_vectors if "--bids" in extra
                                                else cmd_check}) for name, extra in _CHECKS.items()},
    ("certify", "theorem5"): ({"--a": (_rat_list, "8,16,32"), **_TEXT}, {
        "func": _report, "report": lambda args: certificates.theorem5_certificate(args.a)}),
    ("certify", "theorem7"): ({"--tol": (str, "1/1000000"), **_TEXT}, {
        "func": _report, "report": lambda args: certificates.theorem7_certificate(rat(args.tol))}),
    ("certify", "theorem1"): ({"--m": (int, 3), "--c": (str, "1"), "--eps": (str, "1/2"), **_TEXT}, {
        "func": _report, "report": lambda args: certificates.theorem1_harness(
            vcg_mechanism, args.m, rat(args.c), rat(args.eps))}),
    ("certify", "lemma6"): ({"--k": (str, "3"), "--rule": (_rule_for, "two-opt"),
                             "--jobs": (_rat_list, "2,1"), "--samples-at": (_rat_list, "1,2,5"),
                             **_TEXT}, {"func": _report, "report": lambda args: certificates.lemma6_g(
                                 args.rule, rat(args.k), args.jobs, args.samples_at)[1]}),
    ("certify", "prop12"): ({"--samples": (int, 1000), "--seed": (int, certificates.PROP12_SEED),
                             **_TEXT}, {"func": _report, "report": lambda args:
                                        certificates.prop12_verify(args.samples, args.seed)}),
    ("certify", "polytope"): ({"--rule": (_rule_for, "lpt-star"), "--grid": (_rat_list, "1,2,8"),
                               "--jobs": (_rat_list, "2,1"), "--machines": (int, 2),
                               "--budget": (int, 4096)}, {"func": cmd_polytope}),
})


def build_parser() -> OptionTable:
    return TARGETS


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that left fails here, not at exit
        return code
    except SystemExit:  # --help
        return EXIT_OK
    except BrokenPipeError:
        # What is still buffered, and the flush at exit, go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before it was all written", file=sys.stderr)
        return EXIT_FAIL
    except (UsageError, DomainError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_USAGE
    except NotTruthfulEvidence as exc:
        print(f"not truthful: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
