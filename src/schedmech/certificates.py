"""Machine-checked certificates for the impossibility arithmetic.

Each certificate reproduces one quantitative argument as a list of exact
inequalities: the 13a/4 bid-response integral that rules out payments for
the rounded-speed greedy rule, the 3.5+ln3-ln2 expected-integral analogue
for the fractional binning rule, the (2m-1)/m lower-bound harness, the g(k)
inequality for scalable two-machine rules, the two-machine optimal rule's
property sweep, and a finite-grid envy-free/truthful payment polytope
solver.  Reports never rely on floating point: logarithms stay symbolic
with rational enclosures, and every recorded check re-evaluates exactly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

from .allocations import (
    at_fractional,
    at_lower_bound,
    lpt_star,
    opt_makespan,
    two_machine_opt,
    vcg_allocate,
)
from .core import (
    BudgetExceeded,
    DomainError,
    Instance,
    RationalLike,
    Record,
    compare,
    makespan,
    rat,
    rat_str,
    ratio_str,
    rats,
    rounded_speed,
    scaled_to_ints,
)
from .exactlp import Constraint, irreducible_infeasible_subset
from .payments import HFunction, Mechanism
from .properties import (
    SCALING_FACTORS,
    check_anonymous,
    check_local_efficiency,
    check_monotone,
    check_scalable,
)
from .sampling import sample_instance
from .workcurve import (
    CurvePiece,
    build_workcurve,
    expected_workcurve,
    integrate,
    piecewise_integral,
    region_curve,
)


class CertificateFailure(RuntimeError):
    """An exact computation came out different from the certified shape."""


class CheckRecord(Record):
    """One exact comparison; ``holds`` is recomputed, never stored."""

    label: str
    lhs: Fraction
    relation: str
    rhs: Fraction

    def __init__(self, label: str, lhs: Fraction, relation: str, rhs: Fraction):
        self.__dict__.update(label=label, lhs=lhs, relation=relation, rhs=rhs)

    @property
    def holds(self) -> bool:
        return compare(self.lhs, self.relation, self.rhs)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs": rat_str(self.lhs),
            "relation": self.relation,
            "rhs": rat_str(self.rhs),
            "holds": self.holds,
        }


class CertificateReport(Record, frozen=False):
    name: str
    inputs: dict
    constants: dict
    checks: list[CheckRecord]
    notes: list[str]

    def __init__(self, name: str, inputs: dict, constants: dict):
        self.name, self.inputs, self.constants, self.checks, self.notes = name, inputs, constants, [], []

    @property
    def verified(self) -> bool:
        return all(c.holds for c in self.checks)

    def add(self, label: str, lhs, relation: str, rhs) -> CheckRecord:
        record = CheckRecord(label, rat(lhs), relation, rat(rhs))
        self.checks.append(record)
        return record

    def require(self, label: str, ok: bool) -> CheckRecord:
        """Record a yes/no fact as the exact check ``1 == 1`` (``0 == 1`` if not)."""
        return self.add(label, 1 if ok else 0, "==", 1)

    def to_json_dict(self) -> dict:
        """The report with each check's ``holds``, each compared once here."""
        checks = [c.to_json_dict() for c in self.checks]
        return dict(zip(self._fields, self._values()), checks=checks, verified=all(c["holds"] for c in checks))


def report_text(body: dict) -> str:
    """A ``CertificateReport.to_json_dict`` as text, compared no further."""
    lines = [f"certificate {body['name']}: {'VERIFIED' if body['verified'] else 'FAILED'}"]
    for key, value in body["inputs"].items():
        lines.append(f"  input {key} = {value}")
    for key, value in body["constants"].items():
        lines.append(f"  const {key} = {value}")
    for c in body["checks"]:
        mark = "ok " if c["holds"] else "BAD"
        lines.append(f"  [{mark}] {c['label']}: {c['lhs']} {c['relation']} {c['rhs']}")
    for note in body["notes"]:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Greedy rounded-speed rule: no truthful+envy-free+IR+anonymous payments


def theorem5_certificate(
    a_values: Sequence[RationalLike] = (8, 16, 32),
) -> CertificateReport:
    """Exact 13a/4 accounting that rules out payments for the greedy rule.

    For jobs (2,1) against a competitor bidding a power of two a >= 8, the
    greedy rule's bid response is 3 on (0,a/4], 2 on (a/4,a], 1 on (a,2a]
    and 0 beyond, so any individually rational additive term must be at
    least its integral 13a/4; anonymity and envy-freeness cap the same term
    at h(1) + 3a, which is impossible once a > 4*h(1).
    """
    a_values = rats(a_values)
    jobs = (Fraction(2), Fraction(1))
    report = CertificateReport(
        name="theorem5",
        inputs={"a_values": [rat_str(a) for a in a_values], "jobs": ["2", "1"]},
        constants={},
    )
    for i, a in enumerate(a_values):
        if a in a_values[:i]:
            raise DomainError(f"a value {rat_str(a)} is given twice")
        if a < 8 or rounded_speed(a) != a:
            raise DomainError(
                f"a must be a power of two at least 8, got {rat_str(a)}; smaller "
                "powers change the response shape the argument relies on"
            )
        curve = build_workcurve(lpt_star, (a,), jobs, cap=4 * a)
        expected_bps = (a / 4, a, 2 * a)
        expected_vals = (Fraction(3), Fraction(2), Fraction(1))
        if (curve.breakpoints, curve.values, curve.tail) != (expected_bps, expected_vals, 0):
            raise CertificateFailure(
                f"bid response at a={rat_str(a)} is "
                f"{[rat_str(x) for x in curve.breakpoints]} / "
                f"{[rat_str(v) for v in curve.values]} / tail {rat_str(curve.tail)}, "
                f"expected {[rat_str(x) for x in expected_bps]} / (3, 2, 1) / tail 0"
            )
        tag = f"a={rat_str(a)}"
        integral = integrate(curve, 0, None)
        report.constants[f"{tag}:integral"] = rat_str(integral)
        report.add(f"{tag}: response integral equals 13a/4", integral, "==", a * 13 / 4)
        report.add(
            f"{tag}: anchor w(a/4, a)",
            lpt_star(Instance(jobs, (a / 4, a))).workloads[0],
            "==",
            3,
        )
        report.add(
            f"{tag}: anchor w(2a, a)",
            lpt_star(Instance(jobs, (2 * a, a))).workloads[0],
            "==",
            1,
        )
        # Envy chain between speeds (1, a): h(a) - h(1) <= L*1 + (a-1)*w,
        # and the workload at that profile is the full L = 3.
        w_at_one = lpt_star(Instance(jobs, (Fraction(1), a))).workloads[0]
        report.add(f"{tag}: workload at bids (1, a) is the whole L", w_at_one, "==", 3)
        report.add(
            f"{tag}: envy cap 3 + (a-1)*3 equals 3a",
            3 + (a - 1) * w_at_one,
            "==",
            3 * a,
        )
        # Contradiction at the pinned choice h(1) = a/8 (i.e. a = 8*h(1)).
        h1 = a / 8
        report.constants[f"{tag}:h1_choice"] = rat_str(h1)
        report.add(
            f"{tag}: 13a/4 exceeds 3a + h(1) at a = 8*h(1)",
            integral,
            ">",
            3 * a + h1,
        )
    report.add("slope comparison 13/4 > 3", Fraction(13, 4), ">", 3)
    report.notes.append(
        "any nonnegative h(1) is contradicted once a > 4*h(1): the response "
        "integral grows at 13/4 per unit of a while the envy cap grows at 3"
    )
    report.notes.append(
        "for bids beyond 2a the rounded speed is at least 4a, so both jobs "
        "prefer the competitor and the response stays 0; the tail is exact"
    )
    return report


# ---------------------------------------------------------------------------
# Fractional binning rule: expected-response integral 3.5 + ln 3 - ln 2


EXPECTED_BINNING_PIECES = (
    CurvePiece(Fraction(0), Fraction(1, 3), rats((3, 0, 1, 0))),
    CurvePiece(Fraction(1, 3), Fraction(1, 2), rats((1, 0, 0, 1))),
    CurvePiece(Fraction(1, 2), Fraction(1), rats((2, 0, 1, 0))),
    CurvePiece(Fraction(1), Fraction(2), rats((1, 0, 1, 0))),
    CurvePiece(Fraction(2), Fraction(3), rats((3, -1, 1, 0))),
    CurvePiece(Fraction(3), None, rats((0, 0, 1, 0))),
)


def theorem7_certificate(
    tolerance: RationalLike = Fraction(1, 10 ** 6),
) -> CertificateReport:
    """Expected-response accounting for the fractional binning rule.

    Against a competitor bidding 1 with jobs (2,1) the expected workload is
    piecewise (3, 1/x, 2, 1, 3-x, 0) with boundaries (1/3, 1/2, 1, 2, 3);
    its integral is exactly 7/2 + ln(3/2), which exceeds the envy cap slope
    3, so no payments work (pinned at a = 2*h(1): the bound exceeds 7*h(1)).
    """
    tolerance = rat(tolerance)
    jobs = (Fraction(2), Fraction(1))
    report = CertificateReport(
        name="theorem7",
        inputs={"tolerance": rat_str(tolerance), "jobs": ["2", "1"], "other_bid": "1"},
        constants={},
    )
    pieces = tuple(expected_workcurve(at_fractional, (1,), jobs, cap=4))
    if pieces != EXPECTED_BINNING_PIECES:
        raise CertificateFailure(
            "expected-workload pieces diverge: got "
            + ", ".join(str(p.to_json_dict()) for p in pieces)
        )
    report.constants["pieces"] = [p.to_json_dict() for p in pieces]
    total = piecewise_integral(pieces)
    report.constants["integral"] = total.to_json_dict()
    report.add("rational part of the integral", total.rational, "==", Fraction(7, 2))
    report.require(
        "log part is exactly one ln(3/2) atom",
        total.logs == ((Fraction(1), Fraction(3, 2)),),
    )
    lo, hi = total.enclosure(tolerance)
    report.constants["enclosure"] = [rat_str(lo), rat_str(hi)]
    report.add("enclosure width below tolerance", hi - lo, "<", tolerance)
    report.add("integral exceeds the envy cap slope 3", lo, ">", 3)
    # At a = 2*h(1) the bound reads 2*(7/2 + ln(3/2))*h(1) > 7*h(1).
    report.add("contradiction at a = 2*h(1)", 2 * lo, ">", 7)
    # The expected allocation fills every bin except possibly the last, so
    # expected workloads equal lower_bound/bid there: local efficiency.
    for x in (Fraction(1, 4), Fraction(2, 5), Fraction(1), Fraction(5, 2)):
        inst = Instance(jobs, (x, Fraction(1)))
        lower = at_lower_bound(inst)
        expected = at_fractional(inst)
        order = inst.bid_order
        last_nonempty = max(
            (pos for pos in range(2) if expected.expected_workloads[order[pos]] > 0),
            default=0,
        )
        for pos in range(last_nonempty):
            i = order[pos]
            report.add(
                f"bin of machine bidding {rat_str(inst.bids[i])} at x={rat_str(x)} "
                "is exactly full",
                expected.expected_workloads[i],
                "==",
                lower / inst.bids[i],
            )
        sorted_loads = [expected.expected_workloads[i] for i in order]
        report.require(
            f"expected workloads nonincreasing in bid order at x={rat_str(x)}",
            all(a >= b for a, b in zip(sorted_loads, sorted_loads[1:])),
        )
    report.notes.append(
        "beyond x = L*a/min_job the competitor bin holds every job, so the "
        "final const-0 piece is exact out to infinity"
    )
    return report


# ---------------------------------------------------------------------------
# Lower-bound harness: ratio (2m-1)/m on the pinned adversarial instance


def theorem1_harness(
    mechanism: Mechanism,
    m: int,
    c: RationalLike,
    eps: RationalLike = Fraction(1, 2),
) -> CertificateReport:
    """Run a mechanism on the adversarial instance behind the (2m-1)/m bound.

    Extracts the additive term h at the profiles the argument needs, forms
    the constants, and reports whether every job lands on the uniquely fast
    machine, the achieved ratio against the brute-force optimum, and the
    two bounds on h whose collision forces that allocation.  Probe
    disagreement during extraction aborts with NotTruthfulEvidence.
    """
    c = rat(c)
    eps = rat(eps)
    if m < 2:
        raise DomainError("the construction needs at least two machines")
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    if not 0 < c < 2 - Fraction(1, m):
        raise DomainError(
            f"target ratio must lie in (0, 2 - 1/m); got {rat_str(c)} for m={m}"
        )
    jobs = tuple([Fraction(m)] + [Fraction(1)] * (m - 1))
    h = HFunction(mechanism, jobs)
    # Total length L, growth ratio gamma, additive-term budget f at the
    # geometric profile, and the speed scale alpha.
    L = Fraction(2 * m - 1)
    gamma = c * L + eps
    h_geometric = h(tuple(gamma ** e for e in range(m - 2, -1, -1)))
    f = gamma ** (m - 1) * L + h_geometric
    alpha = (L * c / (m - 1)) * f
    speeds = tuple([m * alpha] * (m - 1) + [alpha])
    instance = Instance(jobs, speeds)
    outcome = mechanism.run(instance)
    workloads = outcome.allocation.workloads
    all_on_fast = workloads == tuple(
        [Fraction(0)] * (m - 1) + [instance.total_length]
    )
    achieved = makespan(outcome.allocation, speeds)
    _, opt = opt_makespan(instance)
    ratio = achieved / opt
    h_adversarial = h(speeds[1:])

    report = CertificateReport(
        name="theorem1",
        inputs={
            "mechanism": mechanism.name,
            "m": m,
            "c": rat_str(c),
            "eps": rat_str(eps),
        },
        constants={
            "L": rat_str(L),
            "gamma": rat_str(gamma),
            "f": rat_str(f),
            "alpha": rat_str(alpha),
            "h_geometric": rat_str(h_geometric),
            "h_adversarial": rat_str(h_adversarial),
            "workloads": [rat_str(w) for w in workloads],
            "makespan": rat_str(achieved),
            "opt": rat_str(opt),
            "ratio": rat_str(ratio),
            "all_on_fast": all_on_fast,
        },
    )
    lower = (L + Fraction(m - 1) / (L * c)) * alpha
    upper = L * alpha + f
    report.add(
        "alpha is pinned so the lower bound meets the strict upper bound",
        lower,
        "==",
        upper,
    )
    report.add("extracted h stays below the strict cap", h_adversarial, "<", upper)
    report.add("brute-force optimum equals m*alpha", opt, "==", m * alpha)
    if all_on_fast:
        report.add(
            "achieved ratio equals (2m-1)/m",
            ratio,
            "==",
            Fraction(2 * m - 1, m),
        )
        report.notes.append(
            "every job went to the uniquely fast machine, so the early-machine "
            "hypothesis of the lower bound is vacuous and only the cap binds"
        )
    else:
        report.add(
            "with work on an early machine, h must reach the lower bound",
            h_adversarial,
            ">=",
            lower,
        )
        report.notes.append(
            "an early machine received work: the recorded bounds now collide, "
            "witnessing that the mechanism cannot be truthful, envy-free, IR, "
            "anonymous and c-approximate at once"
        )
    return report


# ---------------------------------------------------------------------------
# g(k) inequality for scalable two-machine rules


def lemma6_g(
    rule,
    k: RationalLike,
    jobs: Sequence[RationalLike],
    inequality_samples: Sequence[RationalLike] = (1, 2, 5),
) -> tuple[Fraction, CertificateReport]:
    """Exact g(k) and the transfer inequality for a scalable 2-machine rule.

    g(k) = (4k^2/(k+1)^2 - 1) * integral over (1/k, (k+1)/(2k)) of the
    unit-bid machine's workload as the competitor's bid varies; the rule
    must be scalable and keep the low bidder busy below bid ratio k.
    """
    k = rat(k)
    if k <= 1:
        raise DomainError("k must exceed 1")
    jobs = rats(jobs)
    base = Instance(jobs, (Fraction(1), Fraction(1)))
    # Scalability spot-check.
    for y in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(2)):
        verdict = check_scalable(rule, base.with_bid(1, y), SCALING_FACTORS)
        if not verdict:
            raise DomainError(f"rule is not scalable at competitor bid {rat_str(y)}")

    ratio_cap = (k + 1) / (2 * k)
    samples = rats(inequality_samples)
    for i, a in enumerate(samples):
        if a <= 0 or a in samples[:i]:
            raise DomainError(f"inequality sample {rat_str(a)} " + ("is given twice" if a > 0 else "must be positive"))
    # Machine 0's workload as the competitor's bid varies, one curve per
    # distinct own bid; the unit-bid machine's curve is the a = 1 one.  Every
    # curve is built on a copy of base, so all share its subset-sum table.
    competitor_curves = {
        a: region_curve(rule, base.with_bid(0, a).with_bid(1, a), 1, 2 * a)
        for a in dict.fromkeys((Fraction(1), *samples))
    }
    own_curves = {a: region_curve(rule, base.with_bid(1, a), 0, 2 * k * a) for a in competitor_curves}
    # Busy below k, exact: the rule gives machine 0 work at each of its region
    # points in (0, k), and the a = 1 own-bid curve, which reads each point's
    # value from the right, is nowhere 0 on (0, k).
    one = own_curves[1]
    points = sorted({x for x in rule.region_points(base, 0, k) if 0 < x < k})
    pieces = zip((0, *one.breakpoints), (*one.breakpoints, k), (*one.values, one.tail))
    idle = next(itertools.chain((x for x in points if rule(base.with_bid(0, x)).workloads[0] == 0),
                                ((lo + min(hi, k)) / 2 for lo, hi, w in pieces if lo < k and w == 0)), None)
    if idle is not None:
        raise DomainError(
            f"rule idles the machine bidding {rat_str(idle)} against bid 1, "
            f"violating the busy-below-{rat_str(k)} precondition"
        )
    core_integral = integrate(competitor_curves[1], 1 / k, ratio_cap)
    factor = Fraction(4) * k * k / ((k + 1) * (k + 1)) - 1
    g = factor * core_integral

    report = CertificateReport(
        name="lemma6",
        inputs={
            "rule": getattr(rule, "name", "rule"),
            "k": rat_str(k),
            "jobs": [rat_str(l) for l in jobs],
            "samples": [rat_str(a) for a in samples],
        },
        constants={
            "factor": rat_str(factor),
            "core_integral": rat_str(core_integral),
            "g": rat_str(g),
        },
    )
    report.add("g(k) is strictly positive", g, ">", 0)
    for a in samples:
        lhs = integrate(own_curves[a], a, k * a)
        rhs = integrate(competitor_curves[a], a / k, a) + g * a
        report.add(
            f"transfer inequality at a={rat_str(a)}",
            lhs,
            ">=",
            rhs,
        )
    return g, report


# ---------------------------------------------------------------------------
# Two-machine optimal rule: the property sweep and the VCG separation


PROP12_SEED = 20250809


def prop12_verify(
    sample_budget: int = 1000, seed: int = PROP12_SEED
) -> CertificateReport:
    """Sweep the two-machine min-makespan/min-running-time rule.

    Local efficiency, monotonicity, scalability and anonymity all pass on a
    random-instance sample, yet the rule differs from the all-to-fastest
    allocation; combined with the scalable-rule certificate this shows those
    four properties do not buy a payment scheme.
    """
    if sample_budget < 1:
        raise DomainError(f"prop12 needs at least one sample, got {sample_budget}")
    rng = random.Random(seed)
    report = CertificateReport(
        name="prop12",
        inputs={"sample_budget": sample_budget, "seed": seed},
        constants={},
    )
    failures = 0
    for trial in range(sample_budget):
        instance = sample_instance(rng, m_min=2, m_max=2, n_max=5)
        allocation = two_machine_opt(instance)
        grid = tuple(max(instance.bids) * Fraction(j, 4) for j in range(1, 9))
        verdicts = [
            check_local_efficiency(instance.bids, allocation.workloads),
            check_monotone(two_machine_opt, instance, grid),
            check_scalable(two_machine_opt, instance, SCALING_FACTORS),
            check_anonymous(two_machine_opt, instance),
        ]
        for v in verdicts:
            if not v:
                failures += 1
                report.notes.append(
                    f"trial {trial}: {v.prop} failed on jobs "
                    f"{[rat_str(l) for l in instance.jobs]} bids "
                    f"{[rat_str(b) for b in instance.bids]}: "
                    f"{v.counterexample.to_json_dict()}"
                )
    report.add("property failures across the sample", failures, "==", 0)
    # The rule genuinely differs from all-to-fastest.
    separating = Instance((2, 1), (1, Fraction(3, 2)))
    ours = two_machine_opt(separating).workloads
    vcg = vcg_allocate(separating).workloads
    report.constants["separating_workloads"] = [rat_str(w) for w in ours]
    report.constants["vcg_workloads"] = [rat_str(w) for w in vcg]
    report.require(
        "two-machine rule differs from all-to-fastest on jobs (2,1), bids (1,3/2)",
        ours != vcg,
    )
    report.add("two-machine rule splits the jobs there", ours[0], "==", 2)
    # Raising a bid through 1/8, 2/8, ..., 4 never hands that machine more work.
    sweep = check_monotone(
        two_machine_opt,
        Instance((2, 1), (1, 1)),
        [Fraction(step, 8) for step in range(1, 33)],
    )
    if not sweep:
        report.notes.append(f"raised-bid sweep: {sweep.counterexample.to_json_dict()}")
    report.require("raised-bid sweep finds no monotonicity violation", sweep.passed)
    return report


# ---------------------------------------------------------------------------
# Finite-grid payment polytope


class FeasibilityResult(Record, frozen=False):
    """Outcome of the grid polytope solve.

    Grid feasibility is one-directional evidence: the constraints on a grid
    are a strict subset of the continuum constraints, so only infeasibility
    transfers.  Witnesses and infeasible subsets are re-verified exactly.
    """

    feasible: bool
    witness: Optional[dict]
    infeasible_subset: Optional[list[str]]
    n_profiles: int
    n_constraints: int
    notes: list[str]

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def payment_polytope_feasible(
    rule,
    bid_grid: Sequence[RationalLike],
    jobs: Sequence[RationalLike],
    machines: int = 2,
    profile_budget: int = 4096,
) -> FeasibilityResult:
    """Exact feasibility of truthful+envy-free+IR+anonymous payments on a grid.

    One payment variable per (machine, grid profile); truthfulness over all
    single-coordinate grid deviations, envy-freeness over all ordered pairs,
    individual rationality everywhere, and payment anonymity across
    bid-permuted profiles at unique bids.  Variables are shifted to
    truthful-report utilities so IR becomes plain nonnegativity, and
    anonymity ties collapse to variable merges whenever the rule's own
    workloads swap correctly.

    Every row then reads ``u_a - u_b (>=|==) c`` and the system is
    translation-invariant, so it is a difference-constraint system: the
    witness is a set of shortest-path potentials and an infeasible verdict
    names one simple negative cycle, which the exact simplex re-checks.
    """
    if machines < 1:
        raise DomainError("machines must be at least 1")
    if profile_budget < 1:
        raise DomainError("the profile budget must be at least 1")
    system = _polytope_rows(rule, bid_grid, jobs, machines, profile_budget)
    potentials, cycle = _difference_solve(system.n_vars, system.rows)
    if cycle is None:
        # Payment t = p * machines + i, as an int over scale: the shifted
        # utility plus machine i's scaled bid times its scaled workload.
        low = min(potentials)
        bid_indices = itertools.chain.from_iterable(system.points)
        payments = [potentials[v] - low + system.g[d] * load
                    for v, d, load in zip(system.var, bid_indices, system.loads)]
        _verify_witness(system.grid, system.workloads, payments, system.scale)
        keys = [",".join([system.texts[d] for d in idx]) for idx in system.points]
        witness = {f"p[{t % machines}]({keys[t // machines]})": ratio_str(x, system.scale)
                   for t, x in enumerate(payments)}
        return FeasibilityResult(True, witness, None, len(system.profiles), len(system.rows), system.notes)
    # A simple negative cycle is irreducible by construction; the deletion
    # filter of the independent simplex must agree row for row.
    cycle = [system.constraint(row) for row in cycle]
    try:
        rechecked = irreducible_infeasible_subset(system.n_vars, cycle)
    except DomainError:
        raise AssertionError("simplex finds the negative cycle feasible") from None
    if rechecked != cycle:
        raise AssertionError("simplex reduces the negative cycle further")
    return FeasibilityResult(False, None, [c.label for c in cycle], len(system.profiles),
                             len(system.rows), system.notes)


class _PolytopeRows(Record):
    """The grid payment polytope on integers.

    Profile ``p`` is ``profiles[p]`` (in ``itertools.product`` order), at
    grid indices ``points[p]``; the rule gives it ``workloads[p]`` (run on a
    ``_with_bids`` copy, which derives its own bid data), flat and
    scaled to ints in ``loads`` (the grid in ``g``, its ``rat_str`` texts in
    ``texts``).  Machine ``i``'s variable at ``p`` is ``var[p * machines + i]``
    after the anonymity merges.  Each row ``(head, tail, is_eq, rhs, label_spec)`` reads
    ``u[head] - u[tail] (== if is_eq else >=) rhs / scale``, where
    ``scale`` is the lcm of the grid denominators times the lcm of the
    workload denominators, so every ``rhs`` is an exact int.
    ``constraint`` renders one row with its label.
    """

    grid: tuple
    texts: list
    profiles: list
    points: list
    workloads: list
    g: list
    loads: list
    scale: int
    var: list
    n_vars: int
    rows: list
    notes: list

    def constraint(self, row) -> Constraint:
        head, tail, is_eq, rhs, (kind, p, a, b) = row
        text = tuple(self.texts[d] for d in self.points[p])
        if kind == "ANON":
            label = f"ANON profile={text} swap=({a},{b})"
        elif kind == "EF":
            label = f"EF profile={text} i={a} j={b}"
        else:
            label = f"IC profile={text} i={a} dev={self.texts[b]}"
        return Constraint(
            ((head, 1), (tail, -1)), "==" if is_eq else ">=",
            Fraction(rhs, self.scale), label,
        )


def _polytope_rows(rule, bid_grid, jobs, machines, profile_budget) -> _PolytopeRows:
    """The rule's workloads on every grid profile, the anonymity merges and
    the rows of the polytope, in order: ANON rows at broken swaps, then EF
    and IC rows per profile; notes name the broken swaps."""
    grid = tuple(sorted({rat(b) for b in bid_grid}))
    if not grid or grid[0] <= 0:
        raise DomainError("grid bids must be positive")
    jobs = rats(jobs)
    n = len(grid)
    # A one-value grid is capped like a two-value one, as its rows still grow
    # with machines^2.  Never builds a huge power: 2 ** bit_length(budget) > budget.
    if max(n, 2) ** min(machines, profile_budget.bit_length()) > profile_budget:
        count = f"{n}^{machines} profiles" if n > 1 else f"{machines} machines on a one-value grid"
        raise BudgetExceeded(f"{count} exceed budget {profile_budget}")
    profiles = list(itertools.product(grid, repeat=machines))
    points = list(itertools.product(range(n), repeat=machines))
    # Raising machine i's grid index by one moves strides[i] profiles on.
    strides = [n ** (machines - 1 - i) for i in range(machines)]
    # One Instance sorts and scales the jobs; every profile's copy shares
    # them and derives its own bid data from its bids.
    base = Instance(jobs, profiles[0])
    workloads = [rule(base._with_bids(b)).workloads for b in profiles]
    grid_scale, g = scaled_to_ints(grid)
    texts = [rat_str(v) for v in grid]
    load_scale, loads = scaled_to_ints([w for ws in workloads for w in ws])
    wi = [loads[t: t + machines] for t in range(0, len(loads), machines)]
    notes: list[str] = []
    n_vars = len(profiles) * machines
    # Union-find over the variables; a merge keeps the smaller root.
    parent = list(range(n_vars))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pairs = list(itertools.permutations(range(machines), 2))
    broken_swaps = []
    for p, idx in enumerate(points):
        for k, l in pairs:
            if idx.count(idx[k]) != 1:
                continue
            q = p + (idx[l] - idx[k]) * (strides[k] - strides[l])
            if workloads[q][l] == workloads[p][k]:
                ra, rb = find(p * machines + k), find(q * machines + l)
                parent[max(ra, rb)] = min(ra, rb)
            else:
                notes.append(
                    f"rule workloads break anonymity at profile "
                    f"{tuple(texts[d] for d in idx)} swap ({k},{l})"
                )
                broken_swaps.append((p, k, q, l))
    var = [find(t) for t in range(n_vars)]
    # Payment anonymity at a broken workload swap stays an explicit row;
    # built after the union pass so it names final representatives.
    rows = [
        (var[q * machines + l], var[p * machines + k], True,
         g[points[p][k]] * (wi[p][k] - wi[q][l]), ("ANON", p, k, l))
        for p, k, q, l in broken_swaps
    ]
    for p, idx in enumerate(points):
        u = var[p * machines: (p + 1) * machines]
        w = wi[p]
        # utility_i >= utility_j's bundle at bid_i, in shifted vars
        rows += [
            (u[i], u[j], False, (g[idx[j]] - g[idx[i]]) * w[j], ("EF", p, i, j))
            for i, j in pairs
        ]
        for i, gi in enumerate(idx):
            for d in range(n):
                if d != gi:
                    q = p + (d - gi) * strides[i]
                    rows.append((u[i], var[q * machines + i], False,
                                 (g[d] - g[gi]) * wi[q][i], ("IC", p, i, d)))
    return _PolytopeRows(grid, texts, profiles, points, workloads, g, loads,
                         grid_scale * load_scale, var, n_vars, rows, notes)


def _difference_solve(n_vars: int, rows):
    """Bellman–Ford over ``u_a - u_b (>=|==) c`` rows, exact on ints.

    Each row is ``(a, b, is_eq, c, label_spec)``.  ``u_a - u_b >= c`` is
    ``u_b <= u_a - c``: an edge a -> b of weight -c; an equality adds
    b -> a of weight c.  Every distance starts at 0, as if a virtual source
    reached each variable.  Returns ``(potentials, None)`` when no negative
    cycle exists (the potentials satisfy every row), else ``(None, cycle)``
    with the rows of one simple negative cycle in cycle order.
    """
    edges = []
    edge_rows = []
    for row in rows:
        a, b, is_eq, c, _spec = row
        edges.append((a, b, -c))
        edge_rows.append(row)
        if is_eq:
            edges.append((b, a, c))
            edge_rows.append(row)
    dist = [0] * n_vars
    pred: list[Optional[int]] = [None] * n_vars
    for _ in range(n_vars + 1):
        last = None
        for k, (a, b, w) in enumerate(edges):
            d = dist[a] + w
            if d < dist[b]:
                dist[b] = d
                pred[b] = k
                last = b
        if last is None:
            return dist, None
    # Still relaxing after n_vars + 1 passes: walking back n_vars edges from
    # the last relaxed variable lands on a cycle of the predecessor graph.
    v = last
    for _ in range(n_vars):
        v = edges[pred[v]][0]
    cycle = []
    u = v
    while True:
        k = pred[u]
        cycle.append(edge_rows[k])
        u = edges[k][0]
        if u == v:
            break
    cycle.reverse()
    return None, cycle


def _verify_witness(grid, workloads, payments, scale):
    """Substitute the payments, ints over ``scale``, into every original
    constraint in payment space.  ``workloads`` lists the profiles of the
    sorted ``grid`` in ``itertools.product`` order and payment ``t`` is
    machine ``t % m``'s at profile ``t // m``.  The bids and workloads are
    scaled to ints here and each profile is keyed by its grid indices, so
    the check reads nothing of the rows it re-checks."""
    m, n = len(workloads[0]), len(grid)
    grid_scale, g = scaled_to_ints(grid)
    load_scale, loads = scaled_to_ints([w for ws in workloads for w in ws])
    if scale % (grid_scale * load_scale) or not len(payments) == len(loads) == m * n ** m:
        raise AssertionError("witness scale or size does not fit the grid and workloads")
    loads = [x * (scale // (grid_scale * load_scale)) for x in loads]
    index = {idx: p * m for p, idx in enumerate(itertools.product(range(n), repeat=m))}
    for idx, t in index.items():
        for i, gi in enumerate(idx):
            utility = payments[t + i] - g[gi] * loads[t + i]
            if not utility >= 0:
                raise AssertionError("IR violated by witness")
            for j in range(m):
                if j != i and not utility >= payments[t + j] - g[gi] * loads[t + j]:
                    raise AssertionError("EF violated by witness")
            for d in range(n):
                if d != gi:
                    s = index[idx[:i] + (d,) + idx[i + 1:]] + i
                    if not utility >= payments[s] - g[gi] * loads[s]:
                        raise AssertionError("IC violated by witness")
        for k in range(m):
            if idx.count(idx[k]) != 1:
                continue
            for l in range(m):
                if l != k:
                    swapped = list(idx)
                    swapped[k], swapped[l] = swapped[l], swapped[k]
                    if not payments[index[tuple(swapped)] + l] == payments[t + k]:
                        raise AssertionError("anonymity violated by witness")
