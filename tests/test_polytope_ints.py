"""The payment polytope on grid indices and ints, against what it replaced.

Each grid profile's copy gets its ``bid_order`` and ``bid_exponents`` from
its grid indices, through the copy constructor ``Instance._with_bids``; they
must be those of a fresh ``Instance`` at that profile.  The witness text is
rendered from each payment's int over the scale and from per-grid-value
texts; it must be the text that ``rat_str`` of a ``Fraction`` gave, with
``parent_rat_str`` below the earlier ``rat_str`` verbatim but for its name.
"""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from schedmech import certificates
from schedmech.allocations import RULES, lpt_star, vcg_allocate
from schedmech.certificates import _polytope_rows, payment_polytope_feasible
from schedmech.core import Instance, rat_str, ratio_str
from schedmech.payments import Mechanism, vcg_payments
from schedmech.properties import check_truthful

F = Fraction


def parent_rat_str(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (the wire format)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Recording:
    """A rule that records the bid data each profile copy arrives with,
    before anything reads it, and then runs ``rule``."""

    def __init__(self, rule):
        self.rule, self.seen = rule, []
        self.name = rule.name

    def __call__(self, instance):
        known = vars(instance)
        self.seen.append((instance.bids, known.get("bid_order"), known.get("bid_exponents")))
        return self.rule(instance)


# Powers of two and values between them.
POWERS = {F(1, 2), F(1), F(2), F(4), F(8)}
BID_POOL = sorted(POWERS | {F(3, 4), F(5, 4), F(3, 2), F(3)})


def test_profile_copies_carry_the_bid_data_of_a_fresh_instance():
    rng = random.Random(3301)
    seen = Counter()
    for trial in range(240):
        machines = (1, 2, 2, 3)[trial % 4]
        n_values = rng.choice((1, 2, 3)) if machines < 3 else rng.choice((1, 2))
        grid = rng.sample(BID_POOL, n_values)
        jobs = [F(rng.randint(1, 6), rng.choice((1, 2))) for _ in range(rng.randint(1, 3))]
        rule = rng.choice([r for name, r in RULES.items() if machines == 2 or name != "two-opt"])
        recording = Recording(rule)
        _polytope_rows(recording, grid, jobs, machines, 4096)
        assert [b for b, _, _ in recording.seen] == list(itertools.product(sorted(set(grid)), repeat=machines))
        for bids, order, exponents in recording.seen:
            fresh = Instance(jobs, bids)
            assert (order, exponents) == (fresh.bid_order, fresh.bid_exponents), (grid, bids)
            seen["equal bids"] += len(set(bids)) < len(bids)
            seen["a power of two"] += not POWERS.isdisjoint(bids)
        seen[f"m = {machines}"] += 1
        seen["one-value grid"] += n_values == 1
    assert min(seen.values()) >= 20, seen


def test_deviation_copies_and_polytope_profiles_share_one_helper(monkeypatch):
    helper = Instance._with_bids
    callers = []

    def counted(self, *args, **bid_data):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        callers.append((frame.f_code.co_name, sorted(bid_data)))
        return helper(self, *args, **bid_data)

    monkeypatch.setattr(Instance, "_with_bids", counted)
    _polytope_rows(lpt_star, [1, F(3, 2), 2], [2, 1], 2, 4096)
    known = ["bid_exponents", "bid_order"]  # each caller hands both in
    assert callers == [("_polytope_rows", known)] * 9
    callers.clear()
    # a mechanism without ``decide`` runs on ``with_bid`` copies, whose
    # bid data is their own: only the polytope hands bid data in
    check_truthful(Mechanism("vcg-unkeyed", vcg_allocate, vcg_payments), Instance([3, 2, 1], [1, F(5, 2), 4]))
    assert callers and all(caller == ("with_bid", []) for caller in callers)


def test_ratio_str_and_rat_str_give_the_parent_strings():
    rng = random.Random(3302)
    values = [(0, 1), (0, 7), (12, 4), (-12, 4), (-3, 6), (1, 1), (-1, 1), (10 ** 30 + 1, 10 ** 15)]
    values += [(rng.randint(-60, 60), rng.randint(1, 36)) for _ in range(600)]
    for p, q in values:
        want = parent_rat_str(F(p, q))
        assert ratio_str(p, q) == want == rat_str(F(p, q)), (p, q)
        assert rat_str(p) == parent_rat_str(p)
    assert [ratio_str(*v) for v in values[:6]] == ["0", "0", "3", "-3", "-1/2", "1"]


@pytest.mark.parametrize(
    "rule, grid, jobs, machines",
    [
        (vcg_allocate, "1", "2,1", 1),
        (vcg_allocate, "1,3/2,2", "2,1", 1),
        (RULES["two-opt"], "1,3/2,2,3", "3,2,1", 2),
        (RULES["at-expected"], "5/8,1,5", "2,1", 2),
        (RULES["opt"], "1,2", "2,1", 3),
        (vcg_allocate, "3/4,5/4,2", "5/2,4/3,1", 3),
    ],
)
def test_witness_text_is_the_parent_text(monkeypatch, rule, grid, jobs, machines):
    """Keys from per-grid-value texts, values from ints over the scale, as
    ``rat_str`` of each profile bid and of each payment's ``Fraction``."""
    pairs = []

    def recorded(numerator, denominator):
        pairs.append((numerator, denominator))
        return ratio_str(numerator, denominator)

    monkeypatch.setattr(certificates, "ratio_str", recorded)
    values = [F(v) for v in grid.split(",")]
    result = payment_polytope_feasible(rule, values, [F(v) for v in jobs.split(",")], machines)
    assert result.feasible and len(pairs) == machines * len(values) ** machines
    texts = [",".join(map(parent_rat_str, b)) for b in itertools.product(sorted(values), repeat=machines)]
    parent = {
        f"p[{t % machines}]({texts[t // machines]})": parent_rat_str(Fraction(x, scale))
        for t, (x, scale) in enumerate(pairs)
    }
    assert list(result.witness.items()) == list(parent.items())
    if machines == 1 and grid == "1":
        assert list(result.witness) == ["p[0](1)"]
