"""Region curves checked inside every region, by direct rule calls.

The builders call a rule once per region, at its midpoint.  This test
shares no code with them: it cuts (0, cap] at the rule's ``region_points``
itself, calls the rule on a fresh ``Instance`` at the quarter points of
every region, and reads each value off the built curve.  A region point
missing from a rule's set shows as a value that changes inside a region.
"""

import random
from fractions import Fraction

import pytest

from schedmech.allocations import RULES
from schedmech.core import DomainError, Instance
from schedmech.workcurve import _between, build_response_curve, build_workcurve

F = Fraction
REGION_RULES = ("lpt-star", "vcg", "two-opt", "opt")

# Response draws (own bid, jobs) on which the discovery this replaced
# returned an approximate lpt-star curve: it was given no powers of two.
DISCOVERY_APPROXIMATE = [
    (F(1), (F(9), F(33, 5), F(33, 4))),
    (F(1, 4), (F(10), F(1, 4), F(23, 6), F(2), F(19))),
    (F(1), (F(9), F(39, 4), F(9))),
    (F(1, 8), (F(9), F(13), F(5))),
]
POWERS_OF_TWO = tuple(F(2) ** e for e in range(10))  # 1024 distinct subset sums


def _draw_rational(rng):
    if rng.random() < 0.25:
        return F(2) ** rng.randint(-3, 5)
    return F(rng.randint(1, 40), rng.randint(1, 6))


def assert_complete(rule, curve, bids, machine, jobs, cap):
    """The rule at k/4 of every region equals the curve there, k = 1, 2, 3."""
    base = Instance(jobs, bids)
    points = sorted({x for x in rule.region_points(base, machine, cap) if 0 < x < cap})
    edges = [F(0), *points, cap]
    for lo, hi in zip(edges, edges[1:]):
        for k in (1, 2, 3):
            x = _between(lo, hi, k, 4)
            moved = list(bids)
            moved[machine] = x
            assert rule(Instance(jobs, moved)).workloads[0] == curve.value_at(x), (bids, machine, jobs, x)


def test_every_rule_declares_region_points_and_the_binning_rule_refuses():
    assert all(hasattr(rule, "region_points") for rule in RULES.values())
    with pytest.raises(DomainError, match="^rule returns expected allocations"):
        RULES["at-expected"].region_points(Instance((2, 1), (1, 1)), 0, F(4))


@pytest.mark.parametrize("name", REGION_RULES)
def test_own_bid_curves_hold_inside_every_region(name):
    rule, rng = RULES[name], random.Random(f"own:{name}")
    for _ in range(20):
        m = 2 if name in ("two-opt", "opt") else rng.randint(2, 4)
        others = tuple(_draw_rational(rng) for _ in range(m - 1))
        jobs = tuple(_draw_rational(rng) for _ in range(rng.randint(1, 5 if name == "opt" else 7)))
        cap = max(others) * rng.randint(2, 12)
        curve = build_workcurve(rule, others, jobs, cap)
        assert_complete(rule, curve, (F(1), *others), 0, jobs, cap)


@pytest.mark.parametrize("name", REGION_RULES)
def test_response_curves_hold_inside_every_region(name):
    rule, rng = RULES[name], random.Random(f"response:{name}")
    draws = [(_draw_rational(rng), tuple(_draw_rational(rng) for _ in range(rng.randint(1, 5))))
             for _ in range(20)]
    if name == "lpt-star":
        draws += DISCOVERY_APPROXIMATE
    for own, jobs in draws:
        curve = build_response_curve(rule, own, jobs, 2 * own)
        assert_complete(rule, curve, (own, own), 1, jobs, 2 * own)


@pytest.mark.parametrize("name", ["two-opt", "opt"])
def test_power_of_two_jobs_hold_inside_every_region(name):
    # lemma6's curves on jobs 1, 2, ..., 512 at k = 3: cap 2a and 2ka.
    rule = RULES[name]
    curve = build_response_curve(rule, 1, POWERS_OF_TWO, 2)
    assert len(curve.breakpoints) > 500
    assert_complete(rule, curve, (F(1), F(1)), 1, POWERS_OF_TWO, F(2))
    curve = build_workcurve(rule, (F(2),), POWERS_OF_TWO, 12)
    assert_complete(rule, curve, (F(1), F(2)), 0, POWERS_OF_TWO, F(12))
