"""Command-line front end.

Three subcommands: ``allocate`` runs a rule on an instance file, ``check``
runs property checkers on an instance, explicit vectors or a random batch,
and ``certify`` emits the machine-checked certificate reports.  Output is
JSON (``--text`` switches the certificates to a human-readable rendering);
all rationals cross the wire as strings.  Exit codes: 0 pass/success,
1 property failure or unverified certificate, 2 usage or parse error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import certificates
from .allocations import RULES, at_sample, opt_makespan
from .core import BudgetExceeded, DomainError, Instance, makespan, rat, rat_str
from .payments import (
    NotTruthfulEvidence,
    ef_chain_mechanism,
    vcg_mechanism,
)
from .properties import (
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


class UsageError(Exception):
    pass


def _rat_list(text: str) -> list[Fraction]:
    try:
        return [rat(tok) for tok in text.split(",") if tok.strip()]
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _load_instance(path: str) -> tuple[Instance, int | None]:
    """Instance plus the file's optional default sampling seed."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise DomainError("instance JSON must be an object")
        seed = payload.get("seed")
        if seed is not None and not isinstance(seed, int):
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


def _emit(payload, text: bool = False):
    if text and hasattr(payload, "to_text"):
        print(payload.to_text())
    else:
        body = payload.to_json_dict() if hasattr(payload, "to_json_dict") else payload
        print(json.dumps(body, indent=2, sort_keys=True))


def cmd_allocate(args) -> int:
    instance, file_seed = _load_instance(args.instance)
    rule_name = args.rule
    if rule_name == "at-sample":
        seed = args.seed if args.seed is not None else (file_seed or 0)
        assignment = at_sample(instance, random.Random(seed))
        out = assignment.to_json_dict()
        out["makespan"] = rat_str(makespan(assignment, instance.bids))
    elif rule_name == "opt":
        assignment, opt = opt_makespan(instance, args.budget)
        out = assignment.to_json_dict()
        out["makespan"] = rat_str(opt)
    else:
        rule = _rule_for(rule_name)
        allocation = rule(instance)
        out = allocation.to_json_dict()
        out["makespan"] = rat_str(makespan(allocation, instance.bids))
    out["rule"] = rule_name
    out["instance"] = instance.to_json_dict()
    _emit(out, args.text)
    return EXIT_OK


def _check_on_instance(property_name, mechanism_name, instance, grid):
    """One property verdict on one instance; used by the batch fan-out."""
    if property_name in ("ef", "ir", "truthful", "anonymous"):
        mech = _mechanism_for(mechanism_name)
        if property_name == "truthful":
            return check_truthful(mech, instance, grid)
        if property_name == "anonymous":
            return check_anonymous(mech, instance)
        outcome = mech.run(instance)
        checker = check_envy_free if property_name == "ef" else check_ir
        return checker(
            instance.bids, outcome.allocation.workloads, outcome.payments
        )
    rule = _rule_for(mechanism_name)
    if property_name == "le":
        return check_local_efficiency(instance.bids, rule(instance).workloads)
    if property_name == "monotone":
        return check_monotone(rule, instance, grid)
    if property_name == "scalable":
        scalars = (2, Fraction(1, 3), Fraction(7, 5))
        return check_scalable(rule, instance, scalars)
    raise UsageError(f"unknown property {property_name!r}")


def _batch_worker(payload):
    property_name, mechanism_name, instance_dict, grid = payload
    instance = Instance.from_json_dict(instance_dict)
    verdict = _check_on_instance(property_name, mechanism_name, instance, grid)
    return instance_dict, verdict.to_json_dict()


def cmd_check(args) -> int:
    grid = _rat_list(args.grid) if args.grid else None
    if args.property == "ratio":
        return _cmd_check_ratio(args)
    if args.property == "le" and args.workloads:
        if not args.bids:
            raise UsageError("--workloads needs --bids")
        verdict = check_local_efficiency(
            _rat_list(args.bids), _rat_list(args.workloads)
        )
        _emit(verdict, args.text)
        return EXIT_OK if verdict.passed else EXIT_FAIL
    if args.property == "ef" and args.workloads:
        if not (args.bids and args.payments):
            raise UsageError("explicit ef check needs --bids and --payments")
        verdict = check_envy_free(
            _rat_list(args.bids), _rat_list(args.workloads), _rat_list(args.payments)
        )
        _emit(verdict, args.text)
        return EXIT_OK if verdict.passed else EXIT_FAIL
    if not args.mechanism:
        raise UsageError("property checks need a mechanism or rule name")
    if args.random:
        rng = random.Random(args.seed)
        base = args.mechanism.partition(":")[0]
        fixed_m = getattr(RULES.get(base), "machine_count", None)
        m_range = {"m_min": fixed_m, "m_max": fixed_m} if fixed_m else {}
        instances = [
            sample_instance(rng, straddle_pow2=args.straddle, **m_range)
            for _ in range(args.random)
        ]
    elif args.instance:
        instances = [_load_instance(args.instance)[0]]
    else:
        raise UsageError("provide an instance file or --random N")
    payloads = [
        (args.property, args.mechanism, inst.to_json_dict(), grid)
        for inst in instances
    ]
    if args.jobs_parallel > 1:
        with ProcessPoolExecutor(max_workers=args.jobs_parallel) as pool:
            results = list(pool.map(_batch_worker, payloads, chunksize=8))
    else:
        results = [_batch_worker(p) for p in payloads]
    failures = [
        {"instance": inst, "verdict": verdict}
        for inst, verdict in results
        if not verdict["pass"]
    ]
    summary = {
        "property": args.property,
        "mechanism": args.mechanism,
        "instances": len(results),
        "failures": failures,
        "pass": not failures,
    }
    _emit(summary, args.text)
    return EXIT_OK if not failures else EXIT_FAIL


def _cmd_check_ratio(args) -> int:
    if args.theorem1:
        params = dict(tok.partition("=")[::2] for tok in args.theorem1)
        if "" in params.values():
            raise UsageError("--theorem1 takes k=v pairs, e.g. m=3 c=3/2")
        try:
            m = int(params.get("m", "3"))
        except ValueError as exc:
            raise UsageError(f"--theorem1 m must be an integer: {exc}") from exc
        c = rat(params.get("c", "1"))
        eps = rat(params.get("eps", "1/2"))
        if args.mechanism != "vcg":
            raise UsageError("the adversarial-instance ratio is wired to vcg")
        report = certificates.theorem1_harness(vcg_mechanism, m, c, eps)
        print(report.constants["ratio"])
        return EXIT_OK if report.verified else EXIT_FAIL
    rule = _rule_for(args.mechanism)
    rows = []
    if args.random:
        rng = random.Random(args.seed)
        instances = [sample_instance(rng) for _ in range(args.random)]
    elif args.instance:
        instances = [_load_instance(args.instance)[0]]
    else:
        raise UsageError("provide an instance file, --random N, or --theorem1")
    for inst in instances:
        ratio = approx_ratio(rule, inst, budget=args.budget)
        rows.append(
            {
                "rule": args.mechanism,
                "m": inst.m,
                "n": inst.n,
                "ratio": rat_str(ratio),
            }
        )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["rule", "m", "n", "ratio"])
            writer.writeheader()
            writer.writerows(rows)
    if len(rows) == 1 and not args.csv:
        print(rows[0]["ratio"])
    else:
        _emit({"ratios": rows}, args.text)
    return EXIT_OK


def cmd_certify(args) -> int:
    name = args.name
    if name == "theorem5":
        a_values = _rat_list(args.a) if args.a else (8, 16, 32)
        report = certificates.theorem5_certificate(a_values)
    elif name == "theorem7":
        report = certificates.theorem7_certificate(rat(args.tol))
    elif name == "theorem1":
        report = certificates.theorem1_harness(
            vcg_mechanism, args.m, rat(args.c), rat(args.eps)
        )
    elif name == "lemma6":
        rule = _rule_for(args.rule or "two-opt")
        jobs = _rat_list(args.jobs) if args.jobs else [2, 1]
        samples = _rat_list(args.samples_at) if args.samples_at else (1, 2, 5)
        _, report = certificates.lemma6_g(rule, rat(args.k), jobs, samples)
    elif name == "prop12":
        report = certificates.prop12_verify(args.samples, args.seed or 20250809)
    elif name == "polytope":
        rule = _rule_for(args.rule or "lpt-star")
        grid = _rat_list(args.grid) if args.grid else [1, 2, 8]
        jobs = _rat_list(args.jobs) if args.jobs else [2, 1]
        result = certificates.payment_polytope_feasible(
            rule, grid, jobs, machines=args.machines, profile_budget=args.budget
        )
        _emit(result, args.text)
        return EXIT_OK  # the verdict is data either way
    else:
        raise UsageError(f"unknown certificate {name!r}")
    _emit(report, args.text)
    return EXIT_OK if report.verified else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedmech",
        description=(
            "exact allocation rules, payments, property checkers and "
            "impossibility certificates for strategic makespan scheduling"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="run an allocation rule")
    p_alloc.add_argument(
        "rule",
        choices=[*RULES, "at-sample"],
    )
    p_alloc.add_argument("instance", help="instance JSON file")
    p_alloc.add_argument("--seed", type=int, default=None)
    p_alloc.add_argument("--budget", type=int, default=10 ** 7)
    p_alloc.add_argument("--text", action="store_true")
    p_alloc.set_defaults(func=cmd_allocate)

    p_check = sub.add_parser("check", help="run a property checker")
    p_check.add_argument(
        "property",
        choices=["le", "ef", "ir", "truthful", "monotone", "anonymous", "scalable", "ratio"],
    )
    p_check.add_argument("mechanism", nargs="?", default=None)
    p_check.add_argument("instance", nargs="?", default=None)
    p_check.add_argument("--random", type=int, default=0)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--straddle", action="store_true",
                         help="bias random bids toward powers of two")
    p_check.add_argument("--grid", default=None, help="deviation bids, comma separated")
    p_check.add_argument("--workloads", default=None)
    p_check.add_argument("--bids", default=None)
    p_check.add_argument("--payments", default=None)
    p_check.add_argument("--theorem1", nargs="+", default=None,
                         help="k=v pairs: m=3 c=3/2 [eps=1/2]")
    p_check.add_argument("--csv", default=None, help="write batch ratios as CSV")
    p_check.add_argument("--budget", type=int, default=10 ** 7)
    p_check.add_argument("--jobs-parallel", type=int, default=1)
    p_check.add_argument("--text", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_cert = sub.add_parser("certify", help="emit a certificate report")
    p_cert.add_argument(
        "name",
        choices=["theorem5", "theorem7", "theorem1", "lemma6", "prop12", "polytope"],
    )
    p_cert.add_argument("--a", default=None, help="comma-separated powers of two")
    p_cert.add_argument("--tol", default="1/1000000")
    p_cert.add_argument("--m", type=int, default=3)
    p_cert.add_argument("--c", default="1")
    p_cert.add_argument("--eps", default="1/2")
    p_cert.add_argument("--k", default="3")
    p_cert.add_argument("--rule", default=None)
    p_cert.add_argument("--grid", default=None)
    p_cert.add_argument("--jobs", default=None)
    p_cert.add_argument("--machines", type=int, default=2)
    p_cert.add_argument("--budget", type=int, default=4096)
    p_cert.add_argument("--samples", type=int, default=1000)
    p_cert.add_argument("--samples-at", default=None)
    p_cert.add_argument("--seed", type=int, default=None)
    p_cert.add_argument("--text", action="store_true")
    p_cert.set_defaults(func=cmd_certify)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs about 1 ms per call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotTruthfulEvidence as exc:
        print(f"not truthful: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
