"""Curve discovery's placed points against the ``Fraction`` code they replaced.

Discovery now builds every sample and probe point from the ints of the two
points it lies between (``workcurve._between``), and ``subset_ratio_points``
takes its sums from ``JobData.subset_sums`` and its ratios from scaled ints.
The oracles below are verbatim copies of the earlier ``_steps_at``,
``_locate_jumps``, ``discover_step_function``, ``subset_ratio_points``,
``build_workcurve`` and ``build_response_curve``, apart from their names
(prefixed ``parent``).  Equal curves are not enough: the new code must probe
the rule at the same points, in the same order.
"""

import itertools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import pytest

from schedmech.allocations import RULES, at_fractional, lpt_star, two_machine_opt
from schedmech.core import Assignment, DomainError, RationalLike, rat, rat_str, rats
from schedmech.workcurve import (
    MAX_BREAKPOINTS,
    MAX_DENOMINATOR,
    CurveResolutionError,
    WorkCurve,
    _response_eval,
    build_response_curve,
    build_workcurve,
    discover_step_function,
    expected_workcurve,
    power_of_two_points,
    simplest_between,
    subset_ratio_points,
)
from test_expected_curve_oracle import parent_expected_workcurve

F = Fraction


# ---------------------------------------------------------------------------
# Oracles: the Fraction-arithmetic discovery, verbatim apart from names.


def parent_steps_at(
    f: Callable[[Fraction], Fraction],
    lo: Fraction,
    vlo: Fraction,
    z: Fraction,
    hi: Fraction,
    vhi: Fraction,
) -> bool:
    """Jump hypothesis: f steps from vlo to vhi at z inside (lo, hi).

    Probes at z - (z-lo)/2^k and z + (hi-z)/2^k for k in (1, 16, 40) must
    read vlo and vhi, and f(z) itself must be one of the two values.
    """
    left_gap = z - lo
    right_gap = hi - z
    return (
        all(f(z - left_gap / (1 << k)) == vlo for k in (1, 16, 40))
        and all(f(z + right_gap / (1 << k)) == vhi for k in (1, 16, 40))
        and f(z) in (vlo, vhi)
    )


def parent_locate_jumps(
    f: Callable[[Fraction], Fraction],
    x1: Fraction,
    v1: Fraction,
    x2: Fraction,
    v2: Fraction,
    candidates: Sequence[Fraction],
    depth: int = 0,
) -> Optional[list[tuple[Fraction, Fraction]]]:
    """Exact jump points of a step function in [x1, x2], given f(x1) != f(x2),
    each with the value just right of it.

    Each candidate strictly inside the bracket is first tested as the
    jump under the same hypothesis test the bisection uses.  Failing that, a
    simplest-rational hypothesis test alternates with plain bisection.
    Bisection shrinks the bracket geometrically; once it is tight enough
    that the true jump is the simplest rational inside (any two rationals
    with denominator at most q are at least 1/q^2 apart), the hypothesis
    test confirms it exactly.  Steps closed on either side are caught by
    endpoint probes.  Returns None when the budgets run out, in which case
    the caller flags the curve approximate.
    """
    if depth > 8:
        return None
    lo, vlo, hi, vhi = x1, v1, x2, v2
    for z in candidates:
        if lo < z < hi and parent_steps_at(f, lo, vlo, z, hi, vhi):
            return [(z, vhi)]
    for _ in range(260):
        width = hi - lo
        # Endpoint hypotheses: the value changes immediately after lo
        # (breakpoint lo itself), or only at hi.
        if all(f(lo + width / (1 << k)) == vhi for k in (14, 34, 54)):
            return [(lo, vhi)]
        if all(f(hi - width / (1 << k)) == vlo for k in (14, 34, 54)):
            return [(hi, vhi)]
        z = simplest_between(lo, hi)
        if z.denominator <= MAX_DENOMINATOR and parent_steps_at(f, lo, vlo, z, hi, vhi):
            return [(z, vhi)]
        mid = lo + width / 2
        vm = f(mid)
        if vm == vlo:
            lo = mid
        elif vm == vhi:
            hi = mid
        else:
            left = parent_locate_jumps(f, lo, vlo, mid, vm, candidates, depth + 1)
            right = parent_locate_jumps(f, mid, vm, hi, vhi, candidates, depth + 1)
            if left is None or right is None:
                return None
            return left + right
    return None


def parent_discover_step_function(
    f: Callable[[Fraction], Fraction],
    candidates: Iterable[RationalLike],
    cap: RationalLike,
) -> WorkCurve:
    """Recover a piecewise-constant f on (0, cap] exactly.

    ``candidates`` delimit the initial sampling grid (three quantiles per
    candidate interval); every jump is then located exactly between adjacent
    samples that disagree.  A candidate between them is tested first, and
    accepted as the jump only under the probe test a simplest-rational
    hypothesis must pass; otherwise simplest-rational bisection finds it.
    The curve's tail is the value on the final interval ending at cap, and
    it is flagged approximate when a jump could not be located exactly.  A
    jump hiding between two equal-valued samples is invisible; candidate
    sets must be dense enough to expose one sign of every change.

    Curves are exact when every jump is a candidate, which holds for the
    package's rules.  A jump nearer to a tested point than 2^-40 of its
    bracket is read at that point, and the curve is not flagged: a rule
    giving machine 0 all the work iff b0 < b1 + 1/(2^70+1) yields
    breakpoint 1 against competitor bid 1, not approximate.
    """
    cap = rat(cap)
    if cap <= 0:
        raise DomainError("cap must be positive")
    points = sorted({rat(c) for c in candidates if 0 < rat(c) < cap})
    edges = [Fraction(0)] + points + [cap]
    samples: list[Fraction] = []
    for lo, hi in zip(edges, edges[1:]):
        samples.extend(lo + (hi - lo) * Fraction(k, 4) for k in (1, 2, 3))
    values = [f(q) for q in samples]
    approximate = False
    jumps: dict[Fraction, Fraction] = {}
    for (xa, va), (xb, vb) in zip(zip(samples, values), zip(samples[1:], values[1:])):
        if va != vb:
            inside = points[bisect_right(points, xa):bisect_left(points, xb)]
            found = parent_locate_jumps(f, xa, va, xb, vb, inside)
            if found is None:
                approximate = True
                jumps[xb] = vb  # best effort: split at the right sample
            else:
                jumps.update(found)
            if len(jumps) > MAX_BREAKPOINTS:
                raise CurveResolutionError(
                    f"more than {MAX_BREAKPOINTS} jumps on (0, {rat_str(cap)}]; "
                    "the response does not look like a bounded step function"
                )
    breakpoints: list[Fraction] = []
    vals = [values[0]]
    for x, v in sorted(jumps.items()):
        if v != vals[-1]:
            breakpoints.append(x)
            vals.append(v)
    tail = vals.pop()
    return WorkCurve(tuple(breakpoints), tuple(vals), tail, approximate)


def parent_subset_ratio_points(
    scales: Sequence[Fraction], jobs: Sequence[Fraction], cap: Fraction
) -> set[Fraction]:
    """Points where exact makespan or running-time comparisons can flip.

    Each scale times s1/s2 over the nonzero job subset sums (s1 = s2 gives
    the scale itself), limited to (0, cap].  Up to 12 jobs every subset sum
    is used; above that, prefix sums plus single jobs keep the set small.
    """
    sums = {Fraction(0)}
    if len(jobs) <= 12:
        for l in jobs:
            sums |= {s + l for s in sums}
    else:
        sums.update(itertools.accumulate(jobs))
        sums.update(jobs)
    sums.discard(Fraction(0))
    return {x for b in scales for s1 in sums for s2 in sums if 0 < (x := b * s1 / s2) <= cap}


def parent_build_workcurve(
    rule,
    others_bids: Sequence[RationalLike],
    jobs: Sequence[RationalLike],
    cap: RationalLike,
) -> WorkCurve:
    """Exact bid-response step function of ``rule`` for the first machine.

    The caller promises that ``cap`` lies beyond the last breakpoint whenever
    the rule's support is bounded; a nonzero tail in the result means that
    promise could not be confirmed at the cap.
    """
    others_bids, jobs, cap = rats(others_bids), rats(jobs), rat(cap)
    f = _response_eval(rule, (1, *others_bids), jobs, 0)
    hints = getattr(rule, "breakpoint_hints", None)
    if hints is not None:
        # A rule that knows its own comparison structure supplies a complete
        # candidate set; the quantile verification still guards it.
        candidates = hints(others_bids, jobs, cap)
    else:
        # Bid-comparison thresholds plus rounded-speed flips: good for the
        # rules in this package.
        lo = min((*others_bids, cap)) * min(jobs) / (2 * sum(jobs))
        candidates = parent_subset_ratio_points(others_bids, jobs, cap)
        candidates |= power_of_two_points(lo, cap)
    return parent_discover_step_function(f, candidates, cap)


def parent_build_response_curve(
    rule,
    own_bid: RationalLike,
    jobs: Sequence[RationalLike],
    cap: RationalLike,
) -> WorkCurve:
    """The first machine's workload at bid ``own_bid`` as the competitor's
    bid varies over (0, cap]: the curves the certificate for scalable
    two-machine rules integrates on both sides of its inequality."""
    own_bid, jobs, cap = rat(own_bid), rats(jobs), rat(cap)
    f = _response_eval(rule, (own_bid, own_bid), jobs, 1)
    return parent_discover_step_function(f, parent_subset_ratio_points((own_bid,), jobs, cap), cap)



# ---------------------------------------------------------------------------


class Recorder:
    """Forwards to a rule, recording the bids of every call; keeps the
    rule's name and hints."""

    def __init__(self, rule):
        self.rule = rule
        self.bids = []

    def __getattr__(self, name):
        return getattr(self.rule, name)

    def __call__(self, instance):
        self.bids.append(instance.bids)
        return self.rule(instance)


def recorded(build, rule, *args):
    recorder = Recorder(rule)
    try:
        outcome = build(recorder, *args)
    except (CurveResolutionError, DomainError) as exc:
        outcome = (type(exc), str(exc))
    return outcome, recorder.bids


def assert_same_probes(new, parent, rule, *args):
    got, got_bids = recorded(new, rule, *args)
    want, want_bids = recorded(parent, rule, *args)
    assert got == want, args
    assert got_bids == want_bids, args
    return got, got_bids


def _draw_rational(rng):
    if rng.random() < 0.25:
        return F(2) ** rng.randint(-3, 5)
    return F(rng.randint(1, 40), rng.randint(1, 6))


@pytest.mark.parametrize("name", ["lpt-star", "vcg", "two-opt"])
@pytest.mark.parametrize("seed", [1, 2])
def test_own_bid_curves_probe_the_parents_points(name, seed):
    rng = random.Random(f"{name}:{seed}")
    for _ in range(10):
        n_others = 1 if name == "two-opt" else rng.randint(1, 3)
        others = tuple(_draw_rational(rng) for _ in range(n_others))
        jobs = tuple(_draw_rational(rng) for _ in range(rng.randint(1, 5)))
        cap = max(others) * rng.randint(2, 12)
        curve, bids = assert_same_probes(
            build_workcurve, parent_build_workcurve, RULES[name], others, jobs, cap
        )
        assert bids and not curve.approximate


@pytest.mark.parametrize("seed", [3, 4])
def test_competitor_bid_curves_probe_the_parents_points(seed):
    rng = random.Random(seed)
    for _ in range(8):
        jobs = tuple(_draw_rational(rng) for _ in range(rng.randint(1, 5)))
        own = _draw_rational(rng)
        for rule in (two_machine_opt, lpt_star):
            assert_same_probes(
                build_response_curve, parent_build_response_curve, rule, own, jobs, 2 * own
            )


class LevelRule:
    """A rule without hints: machine 0 takes one job (of equal ones) per
    test its own bid passes, so each test is one jump of its response."""

    name = "levels"

    def __init__(self, *tests: Callable[[Fraction], bool]):
        self.tests = tests

    def __call__(self, instance):
        x = instance.bids[0]
        count = sum(test(x) for test in self.tests)
        return Assignment.from_map(instance, [0 if j < count else 1 for j in range(instance.n)])


LEVEL_RULES = {
    # name: (rule, breakpoints), against competitor bid 2 with jobs (1, 1, 1)
    # and cap 8; the candidates then include 2, 3 and 4, and 9/4, 5/2 and
    # 11/4 are samples.
    "at-a-candidate": (LevelRule(lambda x: x < 3), (F(3),)),
    # Open and closed at a sample: each endpoint hypothesis in turn.
    "at-a-sample": (LevelRule(lambda x: x < F(5, 2)), (F(5, 2),)),
    "closed-at-a-sample": (LevelRule(lambda x: x <= F(5, 2)), (F(5, 2),)),
    # Off every candidate: found by simplest-rational bisection.
    "off-the-candidates": (LevelRule(lambda x: x < F(22, 7)), (F(22, 7),)),
    # Two jumps between one pair of samples: a three-valued bracket.
    "two-close-jumps": (
        LevelRule(lambda x: x < F(22, 7), lambda x: x < F(16, 5)),
        (F(22, 7), F(16, 5)),
    ),
    # An irrational jump: the budgets run out and the curve is approximate.
    "irrational": (LevelRule(lambda x: x * x < 10), None),
}


@pytest.mark.parametrize("name", sorted(LEVEL_RULES))
def test_a_hintless_rule_probes_the_parents_points(name):
    rule, breakpoints = LEVEL_RULES[name]
    curve, _ = assert_same_probes(
        build_workcurve, parent_build_workcurve, rule, (F(2),), (1, 1, 1), F(8)
    )
    assert curve.approximate == (breakpoints is None)
    assert breakpoints is None or curve.breakpoints == breakpoints


def test_discovery_from_given_candidates_probes_the_parents_points():
    # discover_step_function straight, with candidates given as strings and
    # ints too, some outside (0, cap) and one repeated.
    def f(x):
        probes.append(x)
        return F(3) if x < F(7, 3) else F(1) if x <= 5 else F(0)

    candidates = ["7/3", 5, "5", F(-1), 0, 9, "1/3"]
    probes = []
    want = parent_discover_step_function(f, candidates, 9)
    want_probes, probes = probes, []
    assert discover_step_function(f, candidates, 9) == want
    assert probes == want_probes
    assert want.breakpoints == (F(7, 3), F(5)) and not want.approximate


def test_expected_workcurve_samples_the_parents_points():
    # The earlier expected_workcurve placed its samples at lo + span*k/6.
    rng = random.Random(1515)
    for _ in range(30):
        jobs = [F(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))]
        a = F(rng.randint(1, 8), rng.choice((1, 2, 3)))
        cap = a * rng.randint(1, 4)
        pieces, bids = assert_same_probes(
            expected_workcurve, parent_expected_workcurve, at_fractional, (a,), jobs, cap
        )
        assert bids and not isinstance(pieces, tuple), (jobs, a, cap)


# ---------------------------------------------------------------------------


def _ratio_draw(rng, n):
    # Few distinct lengths up to 12 jobs keep the Fraction oracle's sum
    # table small; above 12 only prefix sums and single jobs are used.
    pool = [F(rng.randint(1, 30), rng.choice((1, 1, 2, 3, 4, 7))) for _ in range(3 if n <= 12 else n)]
    jobs = [rng.choice(pool) for _ in range(n)]
    scales = [F(rng.randint(1, 20), rng.choice((1, 2, 3, 5))) for _ in range(rng.randint(1, 3))]
    return scales, jobs


@pytest.mark.parametrize("n", range(1, 15))
def test_subset_ratio_points_equal_the_fraction_sets(n):
    rng = random.Random(n)
    for _ in range(4 if n <= 12 else 2):
        scales, jobs = _ratio_draw(rng, n)
        cap = F(rng.randint(1, 60), rng.choice((1, 3, 8)))
        got = subset_ratio_points(scales, jobs, cap)
        assert got == parent_subset_ratio_points(scales, jobs, cap), (scales, jobs, cap)
        # Every ratio is a cap that keeps it; one just below drops it.
        ratios = sorted(parent_subset_ratio_points(scales, jobs, F(10) ** 9))
        for x in rng.sample(ratios, min(3, len(ratios))):
            kept = subset_ratio_points(scales, jobs, x)
            assert x in kept and kept == parent_subset_ratio_points(scales, jobs, x)
            below = x - F(1, 10 ** 12)
            dropped = subset_ratio_points(scales, jobs, below)
            assert x not in dropped and dropped == parent_subset_ratio_points(scales, jobs, below)


def test_subset_ratio_points_on_edge_inputs_equal_the_fraction_sets():
    for scales, jobs, cap in [
        ((), (F(1),), F(4)),
        ((F(1),), (), F(4)),
        ((F(3, 2),), (F(1, 3), F(1, 3)), F(0)),
        ((F(-1), F(2)), (F(2), F(1)), F(4)),
        ((F(2),), (F(2), F(1)), F(-1)),
    ]:
        assert subset_ratio_points(scales, jobs, cap) == parent_subset_ratio_points(scales, jobs, cap)
