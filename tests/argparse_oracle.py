"""The command line's argparse parser, kept verbatim as the oracle of the
option table in ``schedmech.cli``: ``_Parser`` and ``build_parser`` as they
stood before the table replaced them (tests/test_parse_oracle.py)."""

import argparse

from schedmech import certificates
from schedmech.allocations import OPT_STATE_BUDGET, RULES
from schedmech.cli import (
    UsageError,
    _grid_list,
    _rat_list,
    _report,
    _rule_for,
    cmd_allocate,
    cmd_check,
    cmd_check_vectors,
    cmd_polytope,
)
from schedmech.core import rat
from schedmech.payments import vcg_mechanism


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ``UsageError``; no abbreviations (``--m``, ``--mach``)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


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
