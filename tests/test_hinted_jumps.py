"""Hinted jump location against the bisection-only discovery it replaced.

``discover_step_function`` tests the candidate between two disagreeing
samples as the jump before it bisects.  The oracle below is a verbatim copy
of the earlier bisection-only discovery (and of ``build_workcurve`` with its
fresh ``Instance`` per probe); every curve must come out equal.
"""

import random
from fractions import Fraction
from typing import Callable, Iterable, Optional

import pytest

from schedmech.allocations import RULES, lpt_star, two_machine_opt
from schedmech.certificates import lemma6_g
from schedmech.core import (
    Assignment,
    ExpectedAllocation,
    Instance,
    rat,
    rat_str,
    rats,
)
from schedmech.workcurve import (
    MAX_BREAKPOINTS,
    MAX_DENOMINATOR,
    CurveResolutionError,
    WorkCurve,
    build_response_curve,
    build_workcurve,
    integrate,
    power_of_two_points,
    simplest_between,
    subset_ratio_points,
)

F = Fraction


# ---------------------------------------------------------------------------
# Oracle: the bisection-only discovery, verbatim apart from error types.


def bisect_locate_jumps(f, x1, v1, x2, v2, depth=0) -> Optional[list]:
    if depth > 8:
        return None
    lo, vlo, hi, vhi = x1, v1, x2, v2
    for _ in range(260):
        width = hi - lo
        if all(f(lo + width / (1 << k)) == vhi for k in (14, 34, 54)):
            return [lo]
        if all(f(hi - width / (1 << k)) == vlo for k in (14, 34, 54)):
            return [hi]
        z = simplest_between(lo, hi)
        if z.denominator <= MAX_DENOMINATOR:
            left_gap = z - lo
            right_gap = hi - z
            left_ok = all(
                f(z - left_gap / (1 << k)) == vlo for k in (1, 16, 40)
            )
            right_ok = all(
                f(z + right_gap / (1 << k)) == vhi for k in (1, 16, 40)
            )
            if left_ok and right_ok and f(z) in (vlo, vhi):
                return [z]
        mid = lo + width / 2
        vm = f(mid)
        if vm == vlo:
            lo = mid
        elif vm == vhi:
            hi = mid
        else:
            left = bisect_locate_jumps(f, lo, vlo, mid, vm, depth + 1)
            right = bisect_locate_jumps(f, mid, vm, hi, vhi, depth + 1)
            if left is None or right is None:
                return None
            return left + right
    return None


def bisect_discover(
    f: Callable[[Fraction], Fraction], candidates: Iterable, cap
) -> WorkCurve:
    cap = rat(cap)
    points = sorted({rat(c) for c in candidates if 0 < rat(c) < cap})
    edges = [Fraction(0)] + points + [cap]
    samples = []
    for lo, hi in zip(edges, edges[1:]):
        samples.extend(lo + (hi - lo) * Fraction(k, 4) for k in (1, 2, 3))
    values = [f(q) for q in samples]
    approximate = False
    jumps = set()
    for (xa, va), (xb, vb) in zip(zip(samples, values), zip(samples[1:], values[1:])):
        if va != vb:
            found = bisect_locate_jumps(f, xa, va, xb, vb)
            if found is None:
                approximate = True
                jumps.add(xb)
            else:
                jumps.update(found)
            if len(jumps) > MAX_BREAKPOINTS:
                raise CurveResolutionError("too many jumps")
    edges = [Fraction(0)] + sorted(jumps) + [cap]
    breakpoints, vals = [], []
    for lo, hi in zip(edges, edges[1:]):
        v = f(lo + (hi - lo) / 2)
        if vals and vals[-1] == v:
            continue
        if vals:
            breakpoints.append(lo)
        vals.append(v)
    tail = vals.pop()
    return WorkCurve(tuple(breakpoints), tuple(vals), tail, cap, approximate)


def bisect_build_workcurve(rule, others_bids, jobs, cap) -> WorkCurve:
    others_bids = rats(others_bids)
    jobs = rats(jobs)
    cap = rat(cap)

    def f(x):
        result = rule(Instance(jobs, (x, *others_bids)))
        if isinstance(result, ExpectedAllocation):
            raise TypeError("expected allocation")
        return result.workloads[0]

    hints = getattr(rule, "breakpoint_hints", None)
    if hints is not None:
        candidates = hints(others_bids, jobs, cap)
    else:
        lo = min((*others_bids, cap)) * min(jobs) / (2 * sum(jobs))
        candidates = subset_ratio_points(others_bids, jobs, cap)
        candidates |= power_of_two_points(lo, cap)
    return bisect_discover(f, candidates, cap)


# ---------------------------------------------------------------------------


def _draw_rational(rng):
    if rng.random() < 0.25:
        return F(2) ** rng.randint(-2, 4)
    return F(rng.randint(1, 24), rng.randint(1, 4))


def _own_bid_draws(seed, count):
    rng = random.Random(seed)
    names = ("lpt-star", "two-opt", "vcg", "opt")
    for index in range(count):
        name = names[index % len(names)]
        n_others = 1 if name == "two-opt" else rng.randint(1, 3)
        others = tuple(_draw_rational(rng) for _ in range(n_others))
        jobs = tuple(_draw_rational(rng) for _ in range(rng.randint(1, 4)))
        cap = max(others) * rng.randint(2, 12)
        yield name, others, jobs, cap


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_own_bid_curves_equal_bisection_only_discovery(seed):
    for name, others, jobs, cap in _own_bid_draws(seed, 24):
        rule = RULES[name]
        expected = bisect_build_workcurve(rule, others, jobs, cap)
        assert build_workcurve(rule, others, jobs, cap) == expected, (
            name, others, jobs, cap,
        )
        assert not expected.approximate


@pytest.mark.parametrize("seed", [4, 5])
def test_competitor_bid_responses_equal_bisection_only_discovery(seed):
    # The two responses lemma6_g integrates: the unit-bid machine against a
    # varying competitor, and a varying competitor against bid a.
    rng = random.Random(seed)
    for _ in range(12):
        jobs = rats(_draw_rational(rng) for _ in range(rng.randint(1, 4)))
        a = _draw_rational(rng)
        for own, cap in ((F(1), F(2)), (a, 2 * a)):

            def response(x, own=own):
                return two_machine_opt(Instance(jobs, (own, x))).workloads[0]

            candidates = subset_ratio_points((own,), jobs, cap)
            assert build_response_curve(two_machine_opt, own, jobs, cap) == (
                bisect_discover(response, candidates, cap)
            ), (jobs, own)


def test_lemma6_report_equals_bisection_only_discovery():
    # The integrals of lemma6_g, rebuilt from the oracle with a fresh
    # Instance per probe.
    rule, k, jobs, samples = two_machine_opt, F(3), (F(2), F(1), F(1, 2)), (F(1), F(5, 2))
    _, report = lemma6_g(rule, k, jobs, samples)
    report = report.to_json_dict()

    def unit_response(y):
        return rule(Instance(jobs, (F(1), y))).workloads[0]

    unit_curve = bisect_discover(
        unit_response, subset_ratio_points((F(1),), jobs, 2), 2
    )
    core = integrate(unit_curve, 1 / k, (k + 1) / (2 * k))
    g = (4 * k * k / ((k + 1) * (k + 1)) - 1) * core
    assert report["constants"]["core_integral"] == rat_str(core)
    assert report["constants"]["g"] == rat_str(g)
    for a, check in zip(samples, report["checks"][1:]):
        own_curve = bisect_build_workcurve(rule, (a,), jobs, 2 * k * a)

        def cross_response(x, a=a):
            return rule(Instance(jobs, (a, x))).workloads[0]

        cross_curve = bisect_discover(
            cross_response, subset_ratio_points((a,), jobs, 2 * a), 2 * a
        )
        assert check["lhs"] == rat_str(integrate(own_curve, a, k * a))
        assert check["rhs"] == rat_str(integrate(cross_curve, a / k, a) + g * a)
    assert report["verified"]


@pytest.mark.parametrize("offset", [F(1, 1000), F(-1, 1000)], ids=["right", "left"])
def test_decoy_candidate_is_not_taken_for_the_jump(offset):
    threshold = F(22, 7)

    class DecoyHints:
        def __call__(self, instance):
            target = 0 if instance.bids[0] < threshold else 1
            return Assignment.from_map(instance, [target] * instance.n)

        def breakpoint_hints(self, others_bids, jobs, cap):
            return {threshold + offset, F(3)}

    curve = build_workcurve(DecoyHints(), (F(1),), (2, 1), cap=8)
    assert curve.breakpoints == (threshold,)
    assert curve.values == (3,)
    assert curve.tail == 0
    assert not curve.approximate


class CountingRule:
    """Forwards to a rule, counting calls; keeps its hints and name."""

    def __init__(self, rule):
        self.rule = rule
        self.name = rule.name
        self.breakpoint_hints = rule.breakpoint_hints
        self.calls = 0

    def __call__(self, instance):
        self.calls += 1
        return self.rule(instance)


def test_probe_counts_stay_pinned():
    # A count, not a timing: bisection alone took 61 and 379 calls here.
    rule = CountingRule(lpt_star)
    curve = build_workcurve(rule, (F(8),), (F(2), F(1)), cap=32)
    assert curve.breakpoints == (2, 8, 16) and not curve.approximate
    assert rule.calls == 36

    rule = CountingRule(two_machine_opt)
    g, _ = lemma6_g(rule, F(3), (F(2), F(1)))
    assert g == F(5, 12)
    assert rule.calls == 262
