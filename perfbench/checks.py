"""Independent checks of every op's output.

``check_op`` returns a ``Verdict``: ``ok`` when the output is right and
agrees with theory, otherwise the reason, and ``known`` when the failure is
an instance of a defect listed in ``KNOWN_DEFECTS`` (such an op still
counts as failed; it only does not make the run incorrect).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

import oracle
from gen import poly_workloads
from oracle import q

KNOWN_DEFECTS = {
    "ef-chain-tie-order": (
        "ef_chain_payments orders tied bids by index, not by workload, so "
        "'check ef lpt-star:efchain' fails on tied-bid instances although "
        "local efficiency holds"
    ),
}

EXIT_USAGE, EXIT_BUDGET = 2, 3


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    known: str | None = None


OK = Verdict(True)


def bad(reason, known=None):
    return Verdict(False, reason, known)


def check_op(workload, op, result) -> Verdict:
    if result.get("exc"):
        return bad("uncaught exception: " + result["exc"].strip().splitlines()[-1])
    rc = result["rc"]
    if rc in (EXIT_USAGE, EXIT_BUDGET):
        return bad(f"exit {rc}: {result['err'].strip()[-200:]}")
    try:
        if workload == "sweep":
            return _check_sweep(op, rc, result["out"])
        if workload == "curves":
            return _check_curves(op, rc, result["out"])
        if workload == "polytope":
            return _check_polytope(op, rc, result["out"])
    except (oracle.OracleError, KeyError, TypeError, ValueError, IndexError) as exc:
        return bad(f"malformed output: {type(exc).__name__}: {exc}")
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# sweep


def _check_sweep(op, rc, out) -> Verdict:
    inst = op["facts"]["instance"]
    jobs = sorted((q(x) for x in inst["jobs"]), reverse=True)
    bids = [q(x) for x in inst["bids"]]
    kind = op["kind"]
    if kind == "ratio-lpt-star":
        return _check_ratio(rc, out, jobs, bids)
    if kind == "le-lpt-star":
        verdict = json.loads(out)
        if not oracle.locally_efficient(bids, oracle.lpt_star(jobs, bids)):
            return bad("LPT* workloads are not locally efficient")
        return _against_theory(rc, verdict)
    summary = json.loads(out)
    prop, mech = op["argv"][1], op["argv"][2]
    if summary["property"] != prop or summary["mechanism"] != mech or summary["instances"] != 1:
        return bad("summary does not echo the op")
    failures = summary["failures"]
    if summary["pass"] != (not failures) or (rc == 0) != summary["pass"]:
        return bad("exit code, pass flag and failure list disagree")
    verdict = failures[0]["verdict"] if failures else {"pass": True}
    if failures and [q(x) for x in failures[0]["instance"]["bids"]] != bids:
        return bad("failure reported on another instance")
    if kind in ("ef-vcg", "ir-vcg"):
        pays = _vcg_payments(jobs, bids)
        loads = oracle.vcg_workloads(jobs, bids)
        if kind == "ef-vcg":
            own_pass = not oracle.envy_pairs(bids, loads, pays)
        else:
            own_pass = all(p >= b * w for p, b, w in zip(pays, bids, loads))
        if own_pass != verdict["pass"]:
            return bad(f"verdict {verdict['pass']} but recomputed VCG payments give {own_pass}")
    if kind == "ir-efchain":
        # Utility is nondecreasing along the chain from the slowest machine,
        # which is paid its cost, so the chain is IR whatever the tie order.
        loads = oracle.lpt_star(jobs, bids)
        pays = oracle.chain_payments_by_index(bids, loads)
        own_pass = all(p >= b * w for p, b, w in zip(pays, bids, loads))
        if own_pass != verdict["pass"]:
            return bad(f"verdict {verdict['pass']} but recomputed chain payments give {own_pass}")
    if kind == "ef-efchain":
        return _check_efchain(verdict, jobs, bids)
    return _against_theory(rc, verdict)


def _against_theory(rc, verdict) -> Verdict:
    """Every sweep property holds in theory, so any failure is a defect."""
    if verdict["pass"]:
        return OK if rc == 0 else bad(f"pass verdict with exit {rc}")
    ce = verdict["counterexample"]
    if not oracle.violation_holds(ce):
        return bad(f"counterexample does not re-evaluate as a violation: {ce}")
    return bad(f"{verdict['property']} fails, against theory: {ce['description']}")


def _check_efchain(verdict, jobs, bids) -> Verdict:
    """Recompute the chain the package implements and compare verdicts."""
    loads = oracle.lpt_star(jobs, bids)
    pays = oracle.chain_payments_by_index(bids, loads)
    envy = oracle.envy_pairs(bids, loads, pays)
    if verdict["pass"]:
        return OK if not envy else bad(f"false pass: recomputed chain payments leave envy {envy}")
    ce = verdict["counterexample"]
    if not oracle.violation_holds(ce):
        return bad(f"counterexample does not re-evaluate as a violation: {ce}")
    i, j = ce["context"]["i"], ce["context"]["j"]
    own = pays[i] - bids[i] * loads[i]
    other = pays[j] - bids[i] * loads[j]
    if (i, j) not in envy or (q(ce["lhs"]), q(ce["rhs"])) != (own, other):
        return bad(f"reported envy {i}->{j} does not match the recomputed chain")
    if oracle.tied_bids_unequal_loads(bids, loads) and oracle.locally_efficient(bids, loads):
        return bad(f"machine {i} envies machine {j} at tied bids", known="ef-chain-tie-order")
    return bad(f"machine {i} envies machine {j} without tied bids")


def _vcg_payments(jobs, bids):
    total = sum(jobs, Fraction(0))
    loads = oracle.vcg_workloads(jobs, bids)
    return tuple(
        min(b for k, b in enumerate(bids) if k != i) * total
        - sum((bids[k] * loads[k] for k in range(len(bids)) if k != i), Fraction(0))
        for i in range(len(bids))
    )


EXHAUSTIVE_LIMIT = 4096


def _check_ratio(rc, out, jobs, bids) -> Verdict:
    if rc != 0:
        return bad(f"ratio exits {rc}")
    ratio = q(out.strip())
    loads = oracle.lpt_star(jobs, bids)
    greedy = max(w * b for w, b in zip(loads, bids))
    if len(bids) ** len(jobs) <= EXHAUSTIVE_LIMIT:
        expected = greedy / oracle.exhaustive_opt(jobs, bids)
        return OK if ratio == expected else bad(f"ratio {ratio} but exhaustive search gives {expected}")
    # Too many assignments to enumerate: the implied optimum must lie
    # between the fractional lower bound and LPT*'s own makespan.
    opt = greedy / ratio
    lower = max(sum(jobs, Fraction(0)) / sum(1 / b for b in bids), jobs[0] * min(bids))
    return OK if ratio >= 1 and lower <= opt else bad(f"ratio {ratio} implies optimum {opt} below {lower}")


# ---------------------------------------------------------------------------
# curves


def _check_curves(op, rc, out) -> Verdict:
    report = json.loads(out)
    argv = op["argv"]
    name = argv[1]
    if report["name"] != name:
        return bad(f"report {report['name']!r} for op {name!r}")
    for c in report["checks"]:
        holds = oracle.relation_holds(q(c["lhs"]), c["relation"], q(c["rhs"]))
        if holds != c["holds"]:
            return bad(f"check {c['label']!r} records holds={c['holds']} but re-evaluates to {holds}")
    verified = all(c["holds"] for c in report["checks"])
    if report["verified"] != verified or (rc == 0) != verified:
        return bad("verified flag, exit code and checks disagree")
    if not verified:
        return bad("certificate not verified")
    opts = dict(zip(argv[2::2], argv[3::2]))
    consts = report["constants"]
    if name == "theorem5":
        a_values = [q(a) for a in opts["--a"].split(",")]
        if [q(a) for a in report["inputs"]["a_values"]] != a_values:
            return bad("inputs do not echo --a")
        for a in a_values:
            tag = f"a={oracle.qs(a)}"
            if q(consts[f"{tag}:integral"]) != 13 * a / 4:
                return bad(f"{tag}: integral {consts[f'{tag}:integral']} is not 13a/4")
            label = f"{tag}: response integral equals 13a/4"
            if not any(c["label"] == label and q(c["lhs"]) == 13 * a / 4 for c in report["checks"]):
                return bad(f"{tag}: no 13a/4 check")
        return OK
    if name == "theorem7":
        integral = consts["integral"]
        if q(integral["rational"]) != Fraction(7, 2):
            return bad(f"rational part {integral['rational']} is not 7/2")
        if [(q(x["coef"]), q(x["arg"])) for x in integral["logs"]] != [(1, Fraction(3, 2))]:
            return bad(f"log part {integral['logs']} is not one ln(3/2) atom")
        lo, hi = (q(x) for x in consts["enclosure"])
        if not hi - lo < q(opts["--tol"]):
            return bad("enclosure wider than the tolerance")
        return _encloses_7_2_plus_ln_3_2(lo, hi)
    if name == "theorem1":
        m, c, eps = int(opts["--m"]), q(opts["--c"]), q(opts["--eps"])
        if (report["inputs"]["m"], q(report["inputs"]["c"]), q(report["inputs"]["eps"])) != (m, c, eps):
            return bad("inputs do not echo --m/--c/--eps")
        L = Fraction(2 * m - 1)
        gamma = c * L + eps
        f = gamma ** (m - 1) * L + q(consts["h_geometric"])
        alpha = L * c / (m - 1) * f
        if (q(consts["L"]), q(consts["gamma"]), q(consts["f"]), q(consts["alpha"])) != (L, gamma, f, alpha):
            return bad("derived constants L, gamma, f, alpha do not recompute")
        if q(consts["ratio"]) != Fraction(2 * m - 1, m):
            return bad(f"ratio {consts['ratio']} is not (2m-1)/m")
        return OK
    if name == "lemma6":
        k = q(opts["--k"])
        jobs = [q(x) for x in opts["--jobs"].split(",")]
        g = q(consts["g"])
        expected = oracle.lemma6_g_two_opt(k, jobs)
        if g != expected:
            return bad(f"g = {consts['g']} but the exact step response gives {oracle.qs(expected)}")
        if k == 3 and sorted(jobs) == [1, 2] and g != Fraction(5, 12):
            return bad("g(3) for jobs (2,1) is not 5/12")
        return OK
    return bad(f"no check for certificate {name!r}")


def _encloses_7_2_plus_ln_3_2(lo, hi) -> Verdict:
    width = hi - lo
    for _ in range(64):
        low, up = oracle.ln_three_halves_bounds(width)
        low, up = low + Fraction(7, 2), up + Fraction(7, 2)
        if lo <= low and up <= hi:
            return OK
        if up < lo or low > hi:
            return bad("enclosure misses 7/2 + ln(3/2)")
        width /= 4
    return bad("enclosure edge too close to 7/2 + ln(3/2) to decide")


# ---------------------------------------------------------------------------
# polytope

_WITNESS_KEY = re.compile(r"^p\[(\d+)\]\(([^)]*)\)$")


def _check_polytope(op, rc, out) -> Verdict:
    if rc != 0:
        return bad(f"polytope exits {rc}")
    res = json.loads(out)
    opts = dict(zip(op["argv"][2::2], op["argv"][3::2]))
    grid = tuple(sorted({q(x) for x in opts["--grid"].split(",")}))
    jobs = tuple(sorted((q(x) for x in opts["--jobs"].split(",")), reverse=True))
    workloads = poly_workloads(opts["--rule"], grid, jobs)
    profiles, labelled, implicit = oracle.polytope_rows(grid, workloads)
    nodes = [(i, b) for b in profiles for i in range(2)]
    feasible = not oracle.has_negative_cycle(nodes, [r for _, r in labelled] + implicit)
    if res["n_profiles"] != len(profiles) or res["n_constraints"] != len(labelled):
        return bad(f"{res['n_profiles']} profiles / {res['n_constraints']} rows, expected "
                   f"{len(profiles)} / {len(labelled)}")
    if res["feasible"] != feasible:
        return bad(f"verdict feasible={res['feasible']} but the negative-cycle test says {feasible}")
    if feasible:
        pay = {}
        for key, value in res["witness"].items():
            m = _WITNESS_KEY.match(key)
            pay[(int(m.group(1)), tuple(q(x) for x in m.group(2).split(",")))] = q(value)
        if set(pay) != set(nodes):
            return bad("witness does not price every machine at every profile")
        broken = oracle.witness_violations(grid, profiles, workloads, pay)
        return OK if not broken else bad(f"witness violates {broken[:3]}")
    by_label = dict(labelled)
    subset = res["infeasible_subset"]
    if res["witness"] is not None or not subset or not set(subset) <= set(by_label):
        return bad("infeasible subset missing or names unknown rows")
    rows = [by_label[label] for label in subset]
    if not oracle.has_negative_cycle(nodes, rows + implicit):
        return bad("reported infeasible subset is feasible")
    for drop in range(len(rows)):
        if oracle.has_negative_cycle(nodes, rows[:drop] + rows[drop + 1:] + implicit):
            return bad(f"infeasible subset is reducible: {subset[drop]!r} is redundant")
    return OK
