"""Command-line front end.

``allocate`` runs a rule on an instance file, ``check`` one property checker
on an instance file, a random batch or (``le``, ``ef``) explicit vectors,
and ``certify`` one certificate; each property and certificate has its own
parser, which accepts only the options it reads.  Output is JSON with
rationals as strings (``--text``: the five report certificates as text).
Exit codes: 0 pass, 1 property failure, unverified certificate or output
closed early (one ``error:`` line), 2 usage or parse error (one ``error:``
line), 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
from fractions import Fraction

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


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ``UsageError``; no abbreviations (``--m``, ``--mach``)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schedmech",
        description=(
            "exact allocation rules, payments, property checkers and "
            "impossibility certificates for strategic makespan scheduling"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="run an allocation rule")
    p_alloc.add_argument("rule", choices=[*RULES, "at-sample"])
    p_alloc.add_argument("instance", help="instance JSON file")
    # Options a call may not read are absent unless given (SUPPRESS), so
    # that an unread one can be refused.
    p_alloc.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="at-sample only")
    p_alloc.add_argument("--budget", type=int, default=argparse.SUPPRESS, help="opt only")
    p_alloc.set_defaults(func=cmd_allocate)

    source = _Parser(add_help=False)
    source.add_argument("mechanism", nargs="?", default=None, help="rule or mechanism")
    source.add_argument("instance", nargs="?", default=None, help="instance JSON file")
    source.add_argument("--random", type=int, default=0, help="check N sampled instances")
    source.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    source.add_argument("--straddle", action="store_true", default=argparse.SUPPRESS,
                        help="bids near powers of two")
    source.add_argument("--jobs-parallel", type=int, default=argparse.SUPPRESS)
    source.set_defaults(func=cmd_check)
    props = sub.add_parser("check", help="run a property checker")
    props = props.add_subparsers(dest="property", required=True)
    check = {
        name: props.add_parser(name, parents=[source])
        for name in ("le", "ef", "ir", "truthful", "monotone", "anonymous", "scalable", "ratio")
    }
    for name in ("truthful", "monotone"):
        check[name].add_argument("--grid", type=_grid_list, help="deviation bids")
    for name in ("le", "ef"):
        check[name].add_argument("--bids", type=_rat_list)
        check[name].add_argument("--workloads", type=_rat_list)
        check[name].set_defaults(func=cmd_check_vectors)
    check["ef"].add_argument("--payments", type=_rat_list)
    check["ratio"].add_argument("--csv", help="write batch ratios as CSV")
    check["ratio"].add_argument("--budget", type=int, default=OPT_STATE_BUDGET)

    text = _Parser(add_help=False)
    text.add_argument("--text", action="store_true", help="human-readable report")
    text.set_defaults(func=_report)
    certs = sub.add_parser("certify", help="emit a certificate")
    certs = certs.add_subparsers(dest="name", required=True)
    p = certs.add_parser("theorem5", parents=[text])
    p.add_argument("--a", type=_rat_list, default="8,16,32", help="powers of two")
    p.set_defaults(report=lambda args: certificates.theorem5_certificate(args.a))
    p = certs.add_parser("theorem7", parents=[text])
    p.add_argument("--tol", default="1/1000000")
    p.set_defaults(report=lambda args: certificates.theorem7_certificate(rat(args.tol)))
    p = certs.add_parser("theorem1", parents=[text])
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--c", default="1")
    p.add_argument("--eps", default="1/2")
    p.set_defaults(report=lambda args: certificates.theorem1_harness(
        vcg_mechanism, args.m, rat(args.c), rat(args.eps)))
    p = certs.add_parser("lemma6", parents=[text])
    p.add_argument("--k", default="3")
    p.add_argument("--rule", type=_rule_for, default="two-opt")
    p.add_argument("--jobs", type=_rat_list, default="2,1")
    p.add_argument("--samples-at", type=_rat_list, default="1,2,5")
    p.set_defaults(report=lambda args: certificates.lemma6_g(
        args.rule, rat(args.k), args.jobs, args.samples_at)[1])
    p = certs.add_parser("prop12", parents=[text])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=certificates.PROP12_SEED)
    p.set_defaults(report=lambda args: certificates.prop12_verify(args.samples, args.seed))
    p = certs.add_parser("polytope")
    p.add_argument("--rule", type=_rule_for, default="lpt-star")
    p.add_argument("--grid", type=_rat_list, default="1,2,8")
    p.add_argument("--jobs", type=_rat_list, default="2,1")
    p.add_argument("--machines", type=int, default=2)
    p.add_argument("--budget", type=int, default=4096)
    p.set_defaults(func=cmd_polytope)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs about 1 ms per call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that left fails here, not at exit
        return code
    except SystemExit:  # --help; argument errors raise UsageError instead
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
