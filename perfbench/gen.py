"""Seeded op lists for the three workloads.

The generator is this file's own: it draws from ``random.Random(seed)``
and never from ``schedmech.sampling``, so a change to the package's sampler
cannot change the work a run does.  An op is one CLI invocation, written as
the argv handed to ``schedmech.cli.main`` plus the facts its check needs.
Ops are grouped in rounds with a fixed mix of op kinds, so every run holds
the kinds in the same proportions whatever its length; a run executes
whole rounds.  No argv repeats within a list.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

from oracle import has_negative_cycle, lpt_star, polytope_rows, qs

WORKLOADS = ("sweep", "curves", "polytope")


def _fresh(seen, draw, attempts=10_000):
    """Redraw until the argv has not been used in this list."""
    for _ in range(attempts):
        argv = draw()
        key = tuple(argv)
        if key not in seen:
            seen.add(key)
            return argv
    raise RuntimeError("the draw space is exhausted; ask for fewer rounds")

# ---------------------------------------------------------------------------
# sweep: property verdicts on seeded random instances


_STRADDLE = (Fraction(1), Fraction(1), Fraction(7, 8), Fraction(9, 8), Fraction(3, 4), Fraction(4, 3))


def _instance(rng, m, n, straddle):
    """Straddling bids sit at, just below and just above powers of two, so
    tied bids and rounded-speed boundaries are common."""
    jobs = [Fraction(rng.randint(1, 24), rng.choice((1, 2, 4))) for _ in range(n)]
    if straddle:
        bids = [Fraction(2) ** rng.randint(-1, 2) * rng.choice(_STRADDLE) for _ in range(m)]
    else:
        bids = [Fraction(rng.randint(1, 16), rng.choice((1, 2, 3))) for _ in range(m)]
    return jobs, bids


SWEEP_SHAPES = tuple((m, n) for m in (2, 3, 4) for n in range(1, 9))


def sweep_round(rng, index, seen):
    """One instance per (m, n) shape, in seeded order; half straddle powers
    of two, alternating by round so both styles meet every shape."""
    ops, files = [], {}
    shapes = list(SWEEP_SHAPES)
    rng.shuffle(shapes)
    for m, n in shapes:
        straddle = (m + n + index) % 2 == 1
        jobs, bids = _instance(rng, m, n, straddle)
        path = f"inst/{index:04d}-{m}-{n}.json"
        inst = {"jobs": [qs(l) for l in jobs], "bids": [qs(b) for b in bids]}
        files[path] = inst
        ops.extend(_sweep_ops(path, inst, jobs, bids, seen))
    return ops, files


def _sweep_ops(path, inst, jobs, bids, seen):
    facts = {"instance": inst}
    ops = [
        (kind, ["check", prop, mech, path])
        for kind, prop, mech in (
            ("truthful-vcg", "truthful", "vcg"),
            ("ef-vcg", "ef", "vcg"),
            ("ir-vcg", "ir", "vcg"),
            ("anonymous-vcg", "anonymous", "vcg"),
            ("monotone-vcg", "monotone", "vcg"),
            ("monotone-lpt-star", "monotone", "lpt-star"),
            ("ir-efchain", "ir", "lpt-star:efchain"),
            ("ratio-lpt-star", "ratio", "lpt-star"),
        )
    ]
    le = ("check", "le", "--bids", ",".join(inst["bids"]),
          "--workloads", ",".join(qs(w) for w in lpt_star(jobs, bids)))
    if le not in seen:  # small shapes can repeat a bid/workload pair
        seen.add(le)
        ops.append(("le-lpt-star", list(le)))
    if len(bids) == 2:
        ops.append(("monotone-two-opt", ["check", "monotone", "two-opt", path]))
        ops.append(("scalable-two-opt", ["check", "scalable", "two-opt", path]))
    return [{"kind": k, "argv": a, "facts": facts} for k, a in ops]


EF_CHAIN_REPRODUCER = {"jobs": ["18", "6", "5", "5/4", "1/2"], "bids": ["14", "16/3", "7/4", "16/3"]}


def efchain_audit_rounds(rounds, files):
    """'check ef lpt-star:efchain' on the reproducer of the known
    ef-chain-tie-order defect and on every instance of the given sweep
    rounds, as one round of ops and the files they add.  These ops fail
    wherever the defect shows, so they run after the timed ops and are
    reported apart from them."""
    repro = "inst/ef-chain-reproducer.json"
    paths = [repro] + list(dict.fromkeys(op["argv"][3] for ops in rounds for op in ops
                                         if op["kind"] == "ir-efchain"))
    instances = dict(files, **{repro: EF_CHAIN_REPRODUCER})
    ops = [{"kind": "ef-efchain", "argv": ["check", "ef", "lpt-star:efchain", p],
            "facts": {"instance": instances[p]}} for p in paths]
    return [ops], {repro: EF_CHAIN_REPRODUCER}


# ---------------------------------------------------------------------------
# curves: the curve-integral certificates


def _theorem5(rng, count):
    exps = sorted(rng.sample(range(3, 29), count))
    return ["certify", "theorem5", "--a", ",".join(str(2 ** e) for e in exps)]


def _theorem7(rng):
    return ["certify", "theorem7", "--tol", f"1/{rng.randint(10 ** 3, 10 ** 15)}"]


def _theorem1(rng, m):
    """c in (0, 2 - 1/m) and eps in (0, 1), as the harness requires."""
    den = rng.randint(2, 4)
    c = Fraction(rng.randint(1, (2 * m - 1) * den // m - 1), den)
    eps_den = rng.randint(2, 16)
    eps = Fraction(rng.randint(1, eps_den - 1), eps_den)
    return ["certify", "theorem1", "--m", str(m), "--c", qs(c), "--eps", qs(eps)]


def _lemma6(rng, n_jobs):
    """k in (1, min(L/s, 4)], s the shortest job: the two-machine optimum
    keeps a machine bidding x < k busy against bid 1 whenever x*s < L."""
    jobs = [Fraction(rng.randint(1, 6), rng.choice((1, 2))) for _ in range(n_jobs)]
    top = min(sum(jobs) / min(jobs), Fraction(4))
    den = rng.randint(2, 12)
    k = 1 + Fraction(rng.randint(1, int((top - 1) * den)), den)
    return ["certify", "lemma6", "--rule", "two-opt", "--k", qs(k),
            "--jobs", ",".join(qs(l) for l in jobs)]


def curves_round(rng, index, seen):
    """The parameters that set an op's cost are stratified: each m appears
    once per round.  The weights (two 2-value theorem5 ops, four lemma6
    ops) put p50 and p90 inside dense parts of the latency distribution
    rather than on a gap between op kinds.  The first round carries the
    paper's g(3) = 5/12 instance."""
    draws = [("theorem5", lambda: _theorem5(rng, 2))] * 2 + [("theorem5", lambda: _theorem5(rng, 3)),
                                                             ("theorem7", lambda: _theorem7(rng))]
    draws += [("theorem1", lambda m=m: _theorem1(rng, m)) for m in range(2, 7)]
    draws += [("lemma6", lambda: _lemma6(rng, 2))] * 4
    if index == 0:
        draws[-1] = ("lemma6", lambda: ["certify", "lemma6", "--rule", "two-opt", "--k", "3", "--jobs", "2,1"])
    ops = [(kind, _fresh(seen, draw)) for kind, draw in draws]
    return [{"kind": k, "argv": a, "facts": {}} for k, a in ops], {}


# ---------------------------------------------------------------------------
# polytope: the finite-grid payment polytope

POLY_RULES = ("lpt-star", "opt", "two-opt", "vcg", "at-expected")
INFEASIBLE_RULES = ("lpt-star", "opt")
_GRID_VALUES = tuple(sorted({Fraction(2) ** e * f for e in range(-2, 5)
                             for f in (Fraction(1), Fraction(3, 4), Fraction(5, 4), Fraction(3, 2))}))

# Per round: (verdict class, rule) -> op count.  F/I = feasible/infeasible,
# 2/3 = bids in the grid; rule None draws from INFEASIBLE_RULES.  The shares
# are fixed so p50 falls inside F2 and p90 inside the infeasible class.
POLY_MIX = tuple(
    [(("F2", r), 3) for r in POLY_RULES]
    + [(("F3", r), 1) for r in POLY_RULES]
    + [(("I2", None), 6)]
)


def _poly_draw(rng, rule, n_bids):
    grid = tuple(sorted(rng.sample(_GRID_VALUES, n_bids)))
    jobs = tuple(sorted((Fraction(rng.randint(1, 6)) for _ in range(rng.randint(1, 3))), reverse=True))
    return rule or rng.choice(INFEASIBLE_RULES), grid, jobs


def poly_workloads(rule, grid, jobs):
    """The rule's workload at every profile of the grid, from the package:
    the rule is an input of the polytope certificate, not what it certifies."""
    from schedmech.allocations import RULES
    from schedmech.core import Instance

    return {b: RULES[rule](Instance(jobs, b)).workloads for b in itertools.product(grid, repeat=2)}


def poly_feasible(grid, workloads):
    """Verdict of the benchmark's own negative-cycle test."""
    profiles, labelled, implicit = polytope_rows(grid, workloads)
    nodes = [(i, b) for b in profiles for i in range(2)]
    return not has_negative_cycle(nodes, [r for _, r in labelled] + implicit)


def _poly_take(rng, seen, cls, rule, attempts=10_000):
    """Draw until a fresh op of the verdict class turns up."""
    for _ in range(attempts):
        draw = _poly_draw(rng, rule, int(cls[1]))
        if draw in seen:
            continue
        seen.add(draw)
        if poly_feasible(draw[1], poly_workloads(*draw)) == (cls[0] == "F"):
            return draw
    raise RuntimeError(f"no fresh {cls} op found; ask for fewer rounds")


def polytope_round(rng, seen):
    ops = []
    for (cls, rule), count in POLY_MIX:
        for _ in range(count):
            rule_name, grid, jobs = _poly_take(rng, seen, cls, rule)
            argv = ["certify", "polytope", "--rule", rule_name, "--grid", ",".join(qs(g) for g in grid),
                    "--jobs", ",".join(qs(l) for l in jobs)]
            ops.append({"kind": cls, "argv": argv, "facts": {}})
    rng.shuffle(ops)
    return ops, {}


# ---------------------------------------------------------------------------


def make_rounds(workload, seed, n_rounds):
    """(rounds, files): rounds is a list of op lists; files maps relative
    paths to instance JSON the ops read."""
    rng = random.Random(f"{workload}:{seed}")
    rounds, files = [], {}
    seen = set()
    for index in range(n_rounds):
        if workload == "sweep":
            ops, new = sweep_round(rng, index, seen)
        elif workload == "curves":
            ops, new = curves_round(rng, index, seen)
        elif workload == "polytope":
            ops, new = polytope_round(rng, seen)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rounds.append(ops)
        files.update(new)
    return rounds, files


def write_inputs(workdir, rounds, files, name="ops.json"):
    """Write the instance files and the op list the workload process reads."""
    for rel, payload in files.items():
        path = os.path.join(workdir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)
    ops_path = os.path.join(workdir, name)
    with open(ops_path, "w") as fh:
        json.dump([[op["argv"] for op in ops] for ops in rounds], fh)
    return ops_path
