"""Deviation grids derived from the base instance give what one ``with_bid``
per grid point gave.

The reference below is a verbatim copy of ``LptStar.__call__``,
``VcgAllocate.__call__``, ``vcg_payments``, ``check_truthful``,
``check_monotone`` and ``default_grid`` as they were when every rule sorted
the bids and took ``ceil_log2`` of each on every call, and every check
built each deviated instance with ``with_bid`` and evaluated the rule at
every grid point of a grid of ``Fraction`` bids (with the two bid helpers
they read, since removed from ``core``), and of ``Instance.deviations``,
which built a copy at every grid point before ``Instance.deviation_runs``
cut the grid into runs of equal bid data.  ``deviation_runs`` now cuts the
sorted integer grid of ``Instance.deviation_grid`` into index ranges by
bisection; expanded point by point, its runs must give the reference's
copies on the sorted grid.  The package must return identical copies,
allocations, payments, verdicts and counterexamples on seeded deviation
chains, on the default grid and on the sorted caller grid: tied bids, bids
at 2^e and 2^e ± 2^-k, one to six machines, and unsorted caller grids with
repeated bids, on which a verdict passes or fails as the reference's does
on the caller's order.  Further chains aim at the cuts of
``deviation_runs``: grid bids equal to two or three tied machine bids,
large coprime denominators, and points at 2^e and 2^e ± 1/q.
"""

import bisect
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from schedmech import core, properties
from schedmech.allocations import lpt_star, two_machine_opt, vcg_allocate
from schedmech.core import (
    Assignment,
    DomainError,
    Instance,
    RationalLike,
    ceil_log2,
    ceil_log2_ints,
    rat,
    rat_str,
    rats,
    scaled_by,
    scaled_to_ints,
)
from schedmech.payments import EfChainMechanism, Mechanism, VcgMechanism, ef_chain_mechanism, vcg_mechanism, vcg_payments
from schedmech.properties import (
    SCALING_FACTORS,
    Counterexample,
    PropertyVerdict,
    _verdict,
    check_anonymous,
    check_monotone,
    check_scalable,
    check_truthful,
)

from specimens import bid_proportional_mechanism, rounded_vcg_mechanism, slowest_takes_all, swapped_two_opt

# ---------------------------------------------------------------------------
# Reference: the per-point code, verbatim.


GRID_STEPS = 64


def default_grid(instance: Instance) -> tuple[Fraction, ...]:
    """Deviation bids in increasing order: j/8 of the largest bid for
    j = 1..GRID_STEPS, plus the bids."""
    scale = max(instance.bids)
    grid = [Fraction(scale.numerator * j, scale.denominator * 8) for j in range(1, GRID_STEPS + 1)]
    for bid in instance.bids:
        k = bisect.bisect_left(grid, bid)
        if grid[k:k + 1] != [bid]:
            grid.insert(k, bid)
    return tuple(grid)


def bid_order(bids: Sequence[Fraction]) -> list[int]:
    """Machine indices in nondecreasing bid order, ties to the lower index
    (the sort is stable)."""
    return sorted(range(len(bids)), key=bids.__getitem__)


def lowest_bidder(bids: Sequence[Fraction]) -> int:
    """The machine with the minimum bid, ties to the lowest index."""
    return bids.index(min(bids))


class ReferenceLptStar:
    name = "lpt-star"

    def __call__(self, instance: Instance) -> Assignment:
        # Machine i's rounded speed is 2**exps[i].  Every key
        # (load + length) * 2**exps[i] is scaled by D * 2**-min(exps), with D
        # the jobs' common denominator, which makes it an exact int.
        exps = [ceil_log2(b) for b in instance.bids]
        low = min(exps)
        shifts = [e - low for e in exps]
        loads = [0] * instance.m
        job_to_machine = [0] * instance.n
        denominator, lengths = instance.scaled_jobs
        for j, length in enumerate(lengths):
            keys = [(loads[i] + length) << shifts[i] for i in range(instance.m)]
            # index finds the first of equal keys: ties go to the lowest index
            winner = keys.index(min(keys))
            job_to_machine[j] = winner
            loads[winner] += length
        # Bundle reordering: bid order lists the rounded-speed classes by
        # increasing exponent, and so does this sort of the bundles, so the
        # k-th bundle (heaviest first within its class) goes to the k-th
        # machine of the same class; its integer load moves with it.
        bundles = sorted(range(instance.m), key=lambda i: (exps[i], -loads[i], i))
        target = [0] * instance.m
        workloads = [Fraction(0)] * instance.m
        for source, machine in zip(bundles, bid_order(instance.bids)):
            target[source] = machine
            workloads[machine] = Fraction(loads[source], denominator)
        return Assignment(tuple(target[i] for i in job_to_machine), tuple(workloads))


class ReferenceVcgAllocate:
    """Everything to the machine with the minimum bid (total running time
    minimizer); ties go to the lowest index."""

    name = "vcg"

    def __call__(self, instance: Instance) -> Assignment:
        winner = lowest_bidder(instance.bids)
        workloads = [Fraction(0)] * instance.m
        workloads[winner] = instance.total_length
        return Assignment((winner,) * instance.n, tuple(workloads))


def reference_vcg_payments(
    instance: Instance, assignment: Assignment
) -> tuple[Fraction, ...]:
    bids = instance.bids
    L = instance.total_length
    winner = lowest_bidder(bids)
    winner_only = [Fraction(0)] * len(bids)  # the workloads, then the payments
    winner_only[winner] = L
    if assignment.workloads != tuple(winner_only):
        raise DomainError("payments are defined on the rule's own allocation")
    if instance.m == 1:
        return (bids[0] * L,)
    winner_only[winner] = min(bids[:winner] + bids[winner + 1:]) * L
    return tuple(winner_only)


def reference_check_truthful(
    mechanism,
    instance: Instance,
    deviation_grid: Optional[Sequence[RationalLike]] = None,
) -> PropertyVerdict:
    grid = (
        rats(deviation_grid) if deviation_grid is not None else default_grid(instance)
    )
    truthful_outcome = mechanism.run(instance)
    for i in range(instance.m):
        true_speed = instance.bids[i]
        honest = (
            truthful_outcome.payments[i]
            - true_speed * truthful_outcome.allocation.workloads[i]
        )
        for dev in grid:
            if dev == true_speed:
                continue
            deviated = mechanism.run(instance.with_bid(i, dev))
            gained = (
                deviated.payments[i] - true_speed * deviated.allocation.workloads[i]
            )
            if honest < gained:
                return _verdict(
                    "truthfulness",
                    Counterexample(
                        f"machine {i} profits by bidding {rat_str(dev)}",
                        honest,
                        ">=",
                        gained,
                        {
                            "machine": i,
                            "true_speed": rat_str(true_speed),
                            "deviation": rat_str(dev),
                        },
                    ),
                )
    return _verdict("truthfulness", None)


def reference_check_monotone(
    rule,
    instance: Instance,
    deviation_grid: Optional[Sequence[RationalLike]] = None,
) -> PropertyVerdict:
    """Raising one's own bid never increases one's workload (grid check)."""
    grid = sorted(rats(deviation_grid)) if deviation_grid is not None else default_grid(instance)
    for i in range(instance.m):
        prev_bid = None
        prev_w = None
        for bid in grid:
            allocation = rule(instance.with_bid(i, bid))
            w = allocation.workloads[i]
            if prev_w is not None and w > prev_w:
                return _verdict(
                    "monotonicity",
                    Counterexample(
                        f"machine {i} gains workload by raising its bid",
                        w,
                        "<=",
                        prev_w,
                        {
                            "machine": i,
                            "bid_low": rat_str(prev_bid),
                            "bid_high": rat_str(bid),
                        },
                    ),
                )
            prev_bid, prev_w = bid, w
    return _verdict("monotonicity", None)


def reference_deviations(self, bids):
    """``(machine, bid, self.with_bid(machine, bid))`` for every machine and
    each of ``bids``: machine 0's grid in the caller's order, then machine
    1's, and so on.  Where the bid is the machine's own, the copy is this
    instance itself.  Each bid's check, ``ceil_log2`` and place among the
    sorted bids are computed once, on machine 0's pass (so a bad bid
    raises when it is reached); a copy's bid order then comes from
    integer arithmetic, ties to the lower index as in ``bid_order``."""
    order = self.bid_order
    sorted_bids = [self.bids[j] for j in order]
    points = []

    def first_pass():
        for bid in bids:
            bid = rat(bid)
            if bid.numerator <= 0:
                raise DomainError("bids must be strictly positive")
            less = bisect.bisect_left(sorted_bids, bid)
            tied = order[less:bisect.bisect_right(sorted_bids, bid, less)]  # in index order
            points.append((bid, ceil_log2(bid), less, tied))
            yield points[-1]

    for machine in range(self.m):
        own = order.index(machine)
        others = order[:own] + order[own + 1:]
        new_bids, new_exponents = list(self.bids), list(self.bid_exponents)
        for bid, exponent, less, tied in points if machine else first_pass():
            if machine in tied:
                yield machine, bid, self
                continue
            new_bids[machine], new_exponents[machine] = bid, exponent
            pos = less - (less > own) + bisect.bisect_left(tied, machine)
            copy = self._with_bids(new_bids)
            vars(copy)["bid_data"] = (*others[:pos], machine, *others[pos:]), tuple(new_exponents)
            yield machine, bid, copy


reference_lpt_star = ReferenceLptStar()
reference_vcg_allocate = ReferenceVcgAllocate()
reference_vcg_mechanism = Mechanism("vcg", reference_vcg_allocate, reference_vcg_payments)

# ---------------------------------------------------------------------------
# Seeded deviation chains.


def _near_power_of_two(rng):
    """2^e, 2^e + 2^-k or 2^e - 2^-k (still positive)."""
    e = rng.randint(-3, 4)
    power = Fraction(2) ** e
    k = rng.randint(max(1, 1 - e), 9)
    return power + rng.choice((0, 1, -1)) * Fraction(1, 2 ** k)


def _bid(rng):
    if rng.random() < 0.5:
        return _near_power_of_two(rng)
    return Fraction(rng.randint(1, 24), rng.choice((1, 2, 3, 4)))


def draw_chain(seed):
    """A seeded instance and deviation grid; about half the profiles tie,
    and grids are the default or an unsorted caller grid with repeats."""
    rng = random.Random(seed)
    m = 1 + seed % 6
    pool = [_bid(rng) for _ in range(m if rng.random() < 0.5 else max(1, m // 2))]
    bids = [rng.choice(pool) for _ in range(m)]
    jobs = [Fraction(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 6))]
    grid = None
    if rng.random() < 0.6:
        grid = [_bid(rng) for _ in range(rng.randint(1, 12))] + rng.sample(bids, rng.randint(0, m))
        grid += rng.sample(grid, rng.randint(0, len(grid)))  # repeats
        rng.shuffle(grid)
    return Instance(jobs, bids), grid


SEEDS = range(120)


def test_chains_cover_ties_powers_of_two_and_caller_grids():
    chains = [draw_chain(seed) for seed in SEEDS]
    assert {inst.m for inst, _ in chains} == set(range(1, 7))
    assert sum(len(set(inst.bids)) < inst.m for inst, _ in chains) > 30
    assert sum(any(b == Fraction(2) ** ceil_log2(b) for b in inst.bids) for inst, _ in chains) > 20
    explicit = [grid for _, grid in chains if grid is not None]
    assert len(explicit) > 40 and sum(grid is None for _, grid in chains) > 30
    assert sum(len(set(g)) < len(g) for g in explicit) > 20
    assert sum(list(g) != sorted(g) for g in explicit) > 30
    # grid bids equal to another machine's bid, where the deviator's place
    # among the tied bids follows the index
    assert sum(b != inst.bids[i] and b in inst.bids
               for inst, grid in chains if grid for i in range(inst.m) for b in grid) > 50


def sorted_grid(inst, grid):
    """The grid the reference checks on: the caller's, sorted, or the
    reference default grid."""
    return sorted(rats(grid)) if grid is not None else list(default_grid(inst))


def grid_bids(inst, grid=None):
    """``inst.deviation_grid(grid)`` as ``Fraction`` bids."""
    denominator, points = inst.deviation_grid(grid)
    return [Fraction(p, denominator) for p in points]


def expand(inst, grid):
    """``inst.deviation_runs`` on ``inst.deviation_grid(grid)`` point by
    point, as (machine, bid, copy), the copy a grid check's: ``with_bid`` at
    the point's ``Fraction``."""
    denominator, points = cut = inst.deviation_grid(grid)
    return [(machine, bid, inst.with_bid(machine, bid))
            for machine, lo, hi, _ in inst.deviation_runs(cut, scaled_by(inst.bids, denominator))
            for bid in (Fraction(points[k], denominator) for k in range(lo, hi))]


def assert_runs_expand_to_the_reference(inst, grid):
    expected = list(reference_deviations(inst, sorted_grid(inst, grid)))
    got = expand(inst, grid)
    assert [(machine, bid) for machine, bid, _ in got] == [(machine, bid) for machine, bid, _ in expected]
    for (_, _, copy), (_, _, reference) in zip(got, expected):
        assert copy == reference
        assert (copy.bid_order, copy.bid_exponents) == (reference.bid_order, reference.bid_exponents)
        fresh = Instance(copy.jobs, copy.bids)
        assert (copy.bid_order, copy.bid_exponents) == (fresh.bid_order, fresh.bid_exponents)
    cut = inst.deviation_grid(grid)
    runs = list(inst.deviation_runs(cut, scaled_by(inst.bids, cut[0])))
    # each machine's runs tile its grid, in order
    for machine in range(inst.m):
        assert [k for i, lo, hi, _ in runs if i == machine for k in range(lo, hi)] == list(range(len(cut[1])))
    data = []
    for machine, lo, hi, bid_data in runs:
        copies = [inst.with_bid(machine, Fraction(cut[1][k], cut[0])) for k in range(lo, hi)]
        # one run, one set of bid data, the run's: each copy's own, computed afresh
        assert {(c.bid_order, c.bid_exponents) for c in copies} == {bid_data}
        data.append((machine, copies[0].bid_order, copies[0].bid_exponents))
    # and each run is as long as it can be: the next one of the machine differs
    assert all(a != b for a, b in zip(data, data[1:]))


@pytest.mark.parametrize("seed", SEEDS)
def test_runs_expand_to_the_reference_deviations(seed):
    inst, grid = draw_chain(seed)
    assert_runs_expand_to_the_reference(inst, grid)
    # the default grid holds the reference's points, on ints
    denominator, points = inst.deviation_grid()
    assert grid_bids(inst) == list(default_grid(inst))
    assert all(type(p) is int for p in points) and all(denominator % b.denominator == 0 for b in inst.bids)


# Hand-picked grids at every kind of cut: a point equal to a lower- and to a
# higher-indexed machine's bid, tied other bids, exact powers of two below 1,
# the own bid, repeated points, a one-point grid and a lone machine.
CUT_CASES = [
    ((3, 1), (1, 2, Fraction(1, 2)), [1, 2, Fraction(1, 2), Fraction(3, 2)]),
    ((2, 1), (Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), 1), [Fraction(3, 2), 1, Fraction(5, 4), 2]),
    ((5, 2, 1), (Fraction(3, 8), Fraction(1, 4), 1), [Fraction(1, 4), Fraction(3, 8), Fraction(1, 2),
                                                      Fraction(5, 16), Fraction(3, 4), 1]),
    ((4, 3), (2, 2), [2, 2, 2, 1, 4, 4]),
    ((1,), (Fraction(3, 4), 5), [Fraction(3, 4)]),
    ((7, 2), (Fraction(5, 3),), [Fraction(1, 2), Fraction(5, 3), 2, Fraction(1, 4), 2]),
    ((7, 2), (Fraction(5, 3),), None),
    ((2,), (1, 1), [Fraction(1, 2) ** 40, 2 ** 40]),
    ((3, 2), (1, 2), []),
]


@pytest.mark.parametrize("jobs, bids, grid", CUT_CASES)
def test_hand_picked_cuts_expand_to_the_reference_deviations(jobs, bids, grid):
    assert_runs_expand_to_the_reference(Instance(jobs, bids), grid)


@pytest.mark.parametrize("seed", SEEDS)
def test_deviated_allocations_and_payments_equal_the_reference(seed):
    inst, grid = draw_chain(seed)
    triples = expand(inst, grid)
    # machine by machine, each machine's grid in sorted order
    assert [(machine, bid) for machine, bid, _ in triples] == [
        (machine, bid) for machine in range(inst.m) for bid in sorted_grid(inst, grid)]
    for machine, bid, deviated in triples:
        reference = inst.with_bid(machine, bid)
        assert deviated == reference
        fresh = Instance(reference.jobs, reference.bids)
        assert (deviated.bid_order, deviated.bid_exponents) == (fresh.bid_order, fresh.bid_exponents)
        lpt = lpt_star(deviated)
        assert lpt == reference_lpt_star(reference)
        vcg = vcg_allocate(deviated)
        assert vcg == reference_vcg_allocate(reference)
        assert vcg_payments(deviated, vcg) == reference_vcg_payments(reference, vcg)


@pytest.mark.parametrize("seed", SEEDS)
def test_verdicts_and_counterexamples_equal_the_reference(seed):
    inst, grid = draw_chain(seed)
    points = sorted_grid(inst, grid)
    monotone = [(lpt_star, reference_lpt_star), (vcg_allocate, reference_vcg_allocate),
                (slowest_takes_all, slowest_takes_all)]
    if inst.m == 2:  # two grid-keyed rules, one monotone and one not
        monotone += [(two_machine_opt, two_machine_opt), (swapped_two_opt, swapped_two_opt)]
    for rule, reference in monotone:
        assert check_monotone(rule, inst, grid) == reference_check_monotone(reference, inst, grid)
    truthful = [
        (vcg_mechanism, reference_vcg_mechanism),
        (ef_chain_mechanism(lpt_star), ef_chain_mechanism(reference_lpt_star)),
        (bid_proportional_mechanism(lpt_star), bid_proportional_mechanism(reference_lpt_star)),
        (rounded_vcg_mechanism, rounded_vcg_mechanism),  # keyed; the reference reads no key
    ]
    for mechanism, reference in truthful:
        verdict = check_truthful(mechanism, inst, grid)
        # the checker sorts the caller's grid: the reference's counterexample
        # on the sorted grid, its verdict on the caller's order too
        assert verdict == reference_check_truthful(reference, inst, points)
        assert verdict.passed == reference_check_truthful(reference, inst, grid).passed


def test_chains_reach_both_verdicts():
    failed = {"monotone": 0, "truthful": 0, "keyed truthful": 0, "grid-keyed monotone": 0}
    for seed in SEEDS:
        inst, grid = draw_chain(seed)
        failed["monotone"] += not check_monotone(slowest_takes_all, inst, grid)
        failed["truthful"] += not check_truthful(bid_proportional_mechanism(lpt_star), inst, grid)
        failed["keyed truthful"] += not check_truthful(rounded_vcg_mechanism, inst, grid)
        if inst.m == 2:
            failed["grid-keyed monotone"] += not check_monotone(swapped_two_opt, inst, grid)
    # one machine has no competitor to lose its work to, or to be paid against
    assert failed["monotone"] >= 80 and failed["truthful"] >= 80
    assert 30 <= failed["keyed truthful"] <= 90
    # of the 20 two-machine chains, the swapped rule fails wherever the
    # balance moves on the grid
    assert failed["grid-keyed monotone"] >= 15


@pytest.mark.parametrize("grid", [[1, 0, 2], [Fraction(-1, 2)]])
def test_a_non_positive_grid_raises_where_the_reference_raises(grid):
    inst = Instance((2, 1), (1, 3))
    for check, reference, rule in ((check_monotone, reference_check_monotone, lpt_star),
                                   (check_truthful, reference_check_truthful, vcg_mechanism)):
        with pytest.raises(DomainError, match="^bids must be strictly positive$"):
            reference(rule, inst, grid)
        with pytest.raises(DomainError, match="^bids must be strictly positive$"):
            check(rule, inst, grid)


def test_a_non_positive_grid_bid_raises_before_any_run(runs):
    """The reference fails at the caller's first bid; the checker sorts the
    grid and refuses it before running the mechanism at all."""
    inst = Instance((2, 1), (1, 3))
    mechanism = bid_proportional_mechanism(lpt_star)
    assert not reference_check_truthful(mechanism, inst, [5, 0])
    runs.clear()
    with pytest.raises(DomainError, match="^bids must be strictly positive$"):
        check_truthful(mechanism, inst, [5, 0])
    assert runs == []


class _LengthOnly:
    """A bid sequence a rule may count but not read."""

    def __init__(self, m):
        self.m = m

    def __len__(self):
        return self.m

    def __getitem__(self, k):
        raise AssertionError("the rule read a raw bid")

    def __iter__(self):
        raise AssertionError("the rule read a raw bid")


def _key(check, instance, denominator=None):
    """``check``'s ``key`` at the instance's bids, as ints over
    ``denominator`` (default: their own), and bid data."""
    bids = scaled_by(instance.bids, denominator) if denominator else scaled_to_ints(instance.bids)[1]
    return check.key(instance, (instance.bid_order, instance.bid_exponents))(bids)


@pytest.mark.parametrize("seed", range(60))
def test_rules_with_a_decision_key_read_the_bids_only_through_it(seed):
    """LPT* and VCG, run on copies whose raw bids cannot be read, return
    what they return on fresh instances: they read nothing the key omits,
    and a key reads the bid data alone.  Along one machine's grid an equal
    VCG mechanism key gives that machine an equal workload and payment."""
    inst, grid = draw_chain(seed)
    grid = grid if grid is not None else default_grid(inst)[::7]
    # the base itself (a machine's own bid) comes last: its bids are replaced too
    deviated = [(machine, d) for machine, _, d in expand(inst, grid) if d != inst]
    copies = [d for _, d in deviated]
    copies += [inst._with_bids([inst.bids[{0: inst.m - 1, inst.m - 1: 0}.get(i, i)] for i in range(inst.m)]),
               inst._with_bids([b * Fraction(3, 2) for b in inst.bids]), inst]
    by_key = {}
    for machine, copy in deviated:
        outcome = vcg_mechanism.run(Instance(copy.jobs, copy.bids))
        mine = outcome.allocation.workloads[machine], outcome.payments[machine]
        key = machine, _key(vcg_mechanism, copy)
        assert inst.m == 1 or by_key.setdefault(key, mine) == mine
    for copy in copies:
        fresh = Instance(copy.jobs, copy.bids)
        keys = _key(lpt_star, copy), _key(vcg_allocate, copy), _key(vcg_mechanism, copy)
        assert (keys[2] is None) == (inst.m == 1)
        # and the key holds all they read: equal keys, equal allocations
        for rule, key in zip((lpt_star, vcg_allocate), keys):
            assert by_key.setdefault((rule.name, key), rule(fresh)) == rule(fresh)
        vars(copy)["bids"] = _LengthOnly(fresh.m)
        assert lpt_star(copy) == lpt_star(fresh)
        assert vcg_allocate(copy) == vcg_allocate(fresh)


class _Counting:
    """A rule that counts its evaluations, with or without its key."""

    def __init__(self, rule, keyed):
        self.rule, self.calls = rule, 0
        for name in ("key", "key_reads_bids") if keyed else ():
            if hasattr(rule, name):
                setattr(self, name, getattr(rule, name))

    def __call__(self, instance):
        self.calls += 1
        return self.rule(instance)


def _point_keys(rule, inst, machine, grid):
    """The rule's key at each point of machine's sorted grid, on a fresh
    ``with_bid`` copy's bids over the grid's denominator and bid data."""
    denominator, points = inst.deviation_grid(grid)
    return [_key(rule, inst.with_bid(machine, Fraction(p, denominator)), denominator) for p in points]


# two-opt on the two-machine chains (seed % 6 == 1)
MONOTONE_WALKS = [pytest.param(rule, seed, id=f"{rule.name}-{seed}")
                  for rule, seeds in ((lpt_star, range(0, 120, 7)), (vcg_allocate, range(0, 120, 7)),
                                      (two_machine_opt, range(1, 120, 6))) for seed in seeds]


@pytest.mark.parametrize("rule, seed", MONOTONE_WALKS)
def test_check_monotone_evaluates_where_the_key_changes_and_everywhere_without_one(rule, seed):
    """One run at the instance, then one at each read off the machine's own
    bid: each point where the key changes, or each point without a key."""
    inst, grid = draw_chain(seed)
    denominator, points = inst.deviation_grid(grid)
    changes = off_own = 0
    for machine in range(inst.m):
        keys, own = _point_keys(rule, inst, machine, grid), inst.bids[machine] * denominator
        changes += sum((k == 0 or keys[k] != keys[k - 1]) and p != own for k, p in enumerate(points))
        off_own += sum(p != own for p in points)
    keyed, plain = _Counting(rule, keyed=True), _Counting(rule, keyed=False)
    assert check_monotone(keyed, inst, grid) == check_monotone(plain, inst, grid)
    assert (keyed.calls, plain.calls) == (1 + changes, 1 + off_own)


# ---------------------------------------------------------------------------
# Key safety: a keyed mechanism runs where its key changes, any other at
# every grid point, with the reference's verdicts either way.


@pytest.fixture
def runs(monkeypatch):
    """The names of the mechanisms ``Mechanism.run`` is called on."""
    names = []
    run = Mechanism.run

    def counted(self, instance):
        names.append(self.name)
        return run(self, instance)

    monkeypatch.setattr(Mechanism, "run", counted)
    return names


@pytest.fixture
def decides(monkeypatch):
    """The names of the keyed mechanisms ``decide`` is called on."""
    names = []
    for kind in (VcgMechanism, EfChainMechanism):
        def counted(self, *args, decide=kind.decide):
            names.append(self.name)
            return decide(self, *args)

        monkeypatch.setattr(kind, "decide", counted)
    return names


def _counted(runs, check, mechanism, inst, grid):
    runs.clear()
    verdict = check(mechanism, inst, grid)
    return verdict, len(runs)


def _key_changes(mechanism, inst, grid):
    """One read of the instance plus, per machine, the points of its sorted
    grid where the key is None or differs from the previous point's, but not
    at the own bid, whose outcome is the instance's."""
    changes, denominator = 1, inst.deviation_grid(grid)[0]
    for machine in range(inst.m):
        keys = [_key(mechanism, inst.with_bid(machine, b), denominator) for b in grid]
        changes += sum((k == 0 or keys[k] is None or keys[k] != keys[k - 1]) and grid[k] != inst.bids[machine]
                       for k in range(len(keys)))
    return changes


def test_keyed_vcg_runs_where_its_key_changes_with_the_reference_verdicts(runs, decides):
    """VCG runs once, on the instance, and ``decide`` reads it there and
    wherever its key changes."""
    keyed = plain = 0
    for seed in SEEDS:
        inst, grid = draw_chain(seed)
        grid = sorted_grid(inst, grid)
        expected, reference_runs = _counted(runs, reference_check_truthful, vcg_mechanism, inst, grid)
        runs.clear()
        verdict, keyed_runs = _counted(decides, check_truthful, vcg_mechanism, inst, grid)
        assert runs == ["vcg"]
        assert verdict == expected
        assert verdict == reference_check_truthful(reference_vcg_mechanism, inst, grid)
        assert keyed_runs <= reference_runs
        if verdict:  # every point was reached
            assert keyed_runs == _key_changes(vcg_mechanism, inst, grid)
        keyed, plain = keyed + keyed_runs, plain + reference_runs
    assert keyed * 4 < plain


def _flat_payments(instance, allocation):
    return (Fraction(1),) * instance.m


@pytest.mark.parametrize("mechanism", [
    Mechanism("flat", vcg_allocate, _flat_payments),
    Mechanism("vcg-unkeyed", vcg_allocate, vcg_payments),
    bid_proportional_mechanism(vcg_allocate),
    ef_chain_mechanism(reference_lpt_star),
], ids=["flat", "vcg-unkeyed", "bid-cost", "ef-chain"])
def test_a_mechanism_without_a_key_runs_at_every_point(runs, mechanism):
    # a keyed rule does not key the mechanism; an EF chain is keyed only
    # on a rule with ``decide``
    assert not hasattr(mechanism, "key")
    for seed in SEEDS:
        inst, grid = draw_chain(seed)
        grid = sorted_grid(inst, grid)
        expected, reference_runs = _counted(runs, reference_check_truthful, mechanism, inst, grid)
        assert _counted(runs, check_truthful, mechanism, inst, grid) == (expected, reference_runs)


def test_a_lone_vcg_machine_profits_by_overbidding(runs, decides):
    """One machine is paid its own bid times L, so every overbid pays; its
    key is None, so the keyed check reads it at every point."""
    inst = Instance((3, 2), (2,))
    verdict, keyed_runs = _counted(decides, check_truthful, vcg_mechanism, inst, None)
    assert runs == ["vcg"]
    assert _key(vcg_mechanism, inst) is None
    assert verdict.counterexample.description == "machine 0 profits by bidding 9/4"
    assert (verdict.counterexample.lhs, verdict.counterexample.rhs) == (0, Fraction(5, 4))
    assert verdict == reference_check_truthful(reference_vcg_mechanism, inst)
    # the instance, the seven bids below 2 and the failing 9/4
    assert keyed_runs == 9


def test_a_keyed_specimen_runs_where_its_key_changes_with_the_reference_counterexamples(runs):
    """The rounded-VCG specimen is keyed on all the bid data, so it runs once
    per run of ``deviation_runs`` that does not start at its own bid, and
    fails where the per-point reference fails, with the same
    counterexample."""
    deep = 0
    for seed in SEEDS:
        inst, grid = draw_chain(seed)
        grid = sorted_grid(inst, grid)
        expected, reference_runs = _counted(runs, reference_check_truthful, rounded_vcg_mechanism, inst, grid)
        verdict, keyed_runs = _counted(runs, check_truthful, rounded_vcg_mechanism, inst, grid)
        assert verdict == expected
        if verdict:
            assert keyed_runs == _key_changes(rounded_vcg_mechanism, inst, grid)
        else:
            assert keyed_runs <= reference_runs
            deep += keyed_runs < reference_runs
    # counterexamples past some skipped point of a run
    assert deep >= 20


class _PartlyKeyedVcg(Mechanism):
    """VCG's key where the winner's bid exponent is even, None elsewhere, and
    no ``decide``.  Along a sorted grid the winner changes at most once, but
    a low bidder's exponent alternates, so keys come back after a None one."""

    def key(self, instance, bid_data):
        bid_order, bid_exponents = bid_data
        winner = bid_order[0]
        return lambda bids: None if len(bid_order) == 1 or bid_exponents[winner] % 2 else winner


partly_keyed_vcg = _PartlyKeyedVcg("vcg-partly-keyed", vcg_allocate, vcg_payments)


def test_a_none_key_runs_and_counts_as_a_change(runs):
    """A None key runs the mechanism at every point of its run, and the next
    run's key is compared with None, not with the key before it."""
    mixed = 0
    for seed in SEEDS:
        inst, grid = draw_chain(seed)
        grid = sorted_grid(inst, grid)
        verdict, keyed_runs = _counted(runs, check_truthful, partly_keyed_vcg, inst, grid)
        assert verdict == reference_check_truthful(reference_vcg_mechanism, inst, grid)
        if verdict:
            assert keyed_runs == _key_changes(partly_keyed_vcg, inst, grid)
            # a key that comes back after a None one
            keys = [[_key(partly_keyed_vcg, inst.with_bid(i, b)) for b in grid if b != inst.bids[i]]
                    for i in range(inst.m)]
            mixed += any(None in k[1:-1] and k[0] is not None and k[-1] is not None for k in keys)
    assert mixed >= 10


def _own_bid_places(inst, grid):
    """Per machine, where its own bid sits among the runs of
    ``deviation_runs``: "first" of a longer run, "alone" in its run,
    "inside" a run after its first point, or None off the grid."""
    denominator, points = cut = inst.deviation_grid(grid)
    places = [None] * inst.m
    for machine, lo, hi, _ in inst.deviation_runs(cut, scaled_by(inst.bids, denominator)):
        own = [k for k in range(lo, hi) if Fraction(points[k], denominator) == inst.bids[machine]]
        if own:
            places[machine] = "inside" if own[0] > lo else "alone" if hi - lo == 1 else "first"
    return places


# The own bid at each place in a run, tied bids, a lone machine (whose VCG
# key is None) and a caller grid that repeats the own bid.
WALK_CASES = {
    "own-bid-first-in-a-keyed-run": ((2, 1), (3, Fraction(5, 4)),
                                     [Fraction(1, 2), Fraction(5, 4), Fraction(3, 2), 2, 3]),
    "own-bid-alone-in-its-run": ((2, 1), (1, 1), None),
    "own-bid-inside-a-run": ((2, 1), (3, Fraction(5, 4)), [Fraction(9, 8), Fraction(5, 4), Fraction(3, 2)]),
    "tied-bids": ((3, 1, Fraction(1, 2)), (Fraction(16, 3), 1, Fraction(16, 3)), None),
    "lone-vcg-machine": ((3, 2), (2,), None),
    "repeated-caller-grid": ((2, 1), (1, Fraction(3, 2)),
                             [Fraction(3, 2), 1, Fraction(3, 2), 2, 1, Fraction(1, 2), Fraction(3, 2)]),
}


def test_walk_cases_put_the_own_bid_where_their_names_say():
    places = {name: _own_bid_places(Instance(jobs, bids), grid) for name, (jobs, bids, grid) in WALK_CASES.items()}
    assert places["own-bid-first-in-a-keyed-run"][1] == "first"
    assert places["own-bid-alone-in-its-run"][1] == "alone"
    assert places["own-bid-inside-a-run"][1] == "inside"
    assert _key(vcg_mechanism, Instance(*WALK_CASES["lone-vcg-machine"][:2])) is None
    grid, bids = WALK_CASES["repeated-caller-grid"][2], WALK_CASES["repeated-caller-grid"][1]
    assert all(grid.count(b) > 1 for b in bids)


@pytest.mark.parametrize("name", WALK_CASES)
def test_the_one_walk_gives_the_reference_verdicts_on_hand_picked_cases(runs, decides, name):
    jobs, bids, grid = WALK_CASES[name]
    inst = Instance(jobs, bids)
    points = sorted_grid(inst, grid)
    monotone = [(lpt_star, reference_lpt_star), (vcg_allocate, reference_vcg_allocate),
                (slowest_takes_all, slowest_takes_all)]
    if inst.m == 2:
        monotone += [(two_machine_opt, two_machine_opt), (swapped_two_opt, swapped_two_opt)]
    for rule, reference in monotone:
        assert check_monotone(rule, inst, grid) == reference_check_monotone(reference, inst, grid)
    truthful = [
        (vcg_mechanism, reference_vcg_mechanism),
        (partly_keyed_vcg, reference_vcg_mechanism),
        (rounded_vcg_mechanism, rounded_vcg_mechanism),
        (ef_chain_mechanism(lpt_star), ef_chain_mechanism(reference_lpt_star)),
        (bid_proportional_mechanism(lpt_star), bid_proportional_mechanism(reference_lpt_star)),
    ]
    for mechanism, reference in truthful:
        runs.clear()
        # a mechanism with ``decide`` runs once and is read by ``decide``
        verdict, keyed_reads = _counted(decides, check_truthful, mechanism, inst, grid)
        reads = keyed_reads if hasattr(mechanism, "decide") else len(runs)
        assert len(runs) == 1 or not hasattr(mechanism, "decide")
        assert verdict == reference_check_truthful(reference, inst, points)
        if verdict and hasattr(mechanism, "key"):
            assert reads == _key_changes(mechanism, inst, points)


# ---------------------------------------------------------------------------
# Laziness: a grid check builds a copy, and the ``Fraction`` of its bid, once
# per read off the machine's own bid, never once per grid point, and none for
# a run whose key repeats; a rule or mechanism with ``decide`` is read at its
# key and builds neither.


def _copies_and_fractions(monkeypatch, check, *args):
    """The check's verdict, the copies ``Instance._with_bids`` returned and the
    functions, as ``(module, name)``, that built a ``Fraction`` meanwhile
    (``"core"`` and ``"properties"`` for those modules of the package)."""
    copies, made = [], []
    with_bids, modules = Instance._with_bids, {core.__file__: "core", properties.__file__: "properties"}

    def counted(self, *copy_args):
        copies.append(with_bids(self, *copy_args))
        return copies[-1]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            caller = frame.f_back.f_code
            made.append((modules.get(caller.co_filename, caller.co_filename), caller.co_name))

    monkeypatch.setattr(Instance, "_with_bids", counted)
    sys.setprofile(profile)
    try:
        verdict = check(*args)
    finally:
        sys.setprofile(None)
    return verdict, copies, made


def _reads(check, inst, runs):
    """The points ``_grid_reads`` reads a check keyed on the bid data at: the
    first of each run whose key differs from the machine's previous run's."""
    keys = [(i, check.key(inst, bid_data)(None)) for i, _, _, bid_data in runs]
    return [run[:2] for run, key, last in zip(runs, keys, [None, *keys]) if key != last]


@pytest.mark.parametrize("mechanism, inst", [
    (vcg_mechanism, Instance((5, 3, 2, Fraction(3, 2)), (1, Fraction(3, 2), Fraction(5, 4), 3))),
    # chain payments on two-opt pass the truthful check on one job, where the
    # job's machine changes at the other bid
    (ef_chain_mechanism(two_machine_opt), Instance((1,), (1, 1))),
], ids=["vcg", "two-opt-efchain"])
def test_a_truthful_check_keys_each_run_once_and_no_read_again(monkeypatch, mechanism, inst):
    """``_grid_reads`` hands each read its key: the mechanism's ``key`` is
    called once at the instance and once per run, never per read; VCG's key
    reads the bid order only, so its runs are those of the order."""
    calls, key = [], mechanism.key
    monkeypatch.setattr(mechanism, "key", lambda instance, bid_data: calls.append(bid_data) or key(instance, bid_data))
    assert check_truthful(mechanism, inst).passed
    denominator, points = grid = inst.deviation_grid()
    order_only = mechanism is vcg_mechanism
    runs = list(inst.deviation_runs(grid, scaled_by(inst.bids, denominator), order_only))
    assert inst.m >= 2 and len(runs) > inst.m  # the winner or balance changes on some machine's grid
    assert calls == [(inst.bid_order, inst.bid_exponents)] + [bid_data for *_, bid_data in runs]


def _exponent_starts(inst, grid):
    """The points of the sorted grid whose rounded speed differs from the
    point before's: where a key that reads the exponents can change."""
    denominator, points = inst.deviation_grid(grid)
    exponents = [ceil_log2(Fraction(p, denominator)) for p in points]
    return {k for k in range(1, len(points)) if exponents[k] != exponents[k - 1]}


def _walked_runs(monkeypatch, check, subject, inst, grid):
    """Per machine, the ``(lo, hi)`` of each run ``check`` walks."""
    walked, runs = [], Instance.deviation_runs
    monkeypatch.setattr(Instance, "deviation_runs", lambda self, *args: (
        walked.append(run) or run for run in runs(self, *args)))
    check(subject, inst, grid)
    monkeypatch.setattr(Instance, "deviation_runs", runs)
    return {i: [(lo, hi) for j, lo, hi, _ in walked if j == i] for i in {i for i, *_ in walked}}


def test_an_order_only_key_walks_the_runs_of_the_bid_order(monkeypatch):
    """VCG's key reads the bid order only (``key_reads_order_only``): its runs
    are cut at the other bids and nowhere else, one order each, with no
    exponents.  The specimens ``vcg-rounded`` and ``vcg-partly-keyed``, whose
    keys read the exponents too, keep a run boundary at every power of two."""
    skipped = kept = 0
    for seed in SEEDS:
        inst, grid = draw_chain(seed)
        denominator, points = cut = inst.deviation_grid(grid)
        own = scaled_by(inst.bids, denominator)
        for machine, lo, hi, (order, exponents) in inst.deviation_runs(cut, own, True):
            assert exponents is None
            assert {inst.with_bid(machine, Fraction(points[k], denominator)).bid_order for k in range(lo, hi)} == {order}
        starts = _exponent_starts(inst, grid)
        for check, subject in ((check_truthful, vcg_mechanism), (check_monotone, vcg_allocate)):
            for i, walked in _walked_runs(monkeypatch, check, subject, inst, grid).items():
                orders = [inst.with_bid(i, Fraction(p, denominator)).bid_order for p in points]
                assert walked[0][0] == 0 and walked[-1][1] == len(points)  # VCG passes both checks
                assert {lo for lo, _ in walked[1:]} == {k for k in range(1, len(points)) if orders[k] != orders[k - 1]}
                skipped += len(starts - {lo for lo, _ in walked})
        for specimen in (rounded_vcg_mechanism, partly_keyed_vcg):
            for i, walked in _walked_runs(monkeypatch, check_truthful, specimen, inst, grid).items():
                inside = starts & set(range(walked[0][0] + 1, walked[-1][1]))
                assert inside <= {lo for lo, _ in walked}
                kept += len(inside)
    assert skipped > 2000 and kept > 2000


class _WinnerKeyed(Mechanism):
    """VCG keyed on its winner, with no ``decide``, so it runs on copies."""

    def key(self, instance, bid_data):
        return lambda bids: bid_data[0][0]


def _one_run_fractions(monkeypatch, rule, inst):
    """The functions that build a ``Fraction`` in one run of the rule on the
    instance, its caches warm."""
    rule(inst)
    return _copies_and_fractions(monkeypatch, rule, inst)[2]


def test_grid_checks_build_one_copy_and_one_bid_per_read(monkeypatch):
    inst = Instance((5, 3, 2, Fraction(3, 2)), (1, Fraction(3, 2), Fraction(5, 4), 3))
    denominator, points = grid = inst.deviation_grid()
    own = scaled_by(inst.bids, denominator)
    runs = list(inst.deviation_runs(grid, own))
    assert len(runs) * 4 < inst.m * len(points)
    # a rule with ``decide`` passes on its int loads: no copy, and no
    # Fraction but those of its one run on the instance
    for rule in (lpt_star, vcg_allocate):
        fractions = _one_run_fractions(monkeypatch, rule, inst)
        assert _copies_and_fractions(monkeypatch, check_monotone, rule, inst)[1:] == ([], fractions)
    # LPT* without its ``decide``, and VCG keyed without one, run on copies
    keyed_vcg = _WinnerKeyed("vcg-winner-keyed", vcg_allocate, vcg_payments)
    for check, reader in ((check_monotone, _Counting(lpt_star, keyed=True)), (check_truthful, keyed_vcg)):
        reads = _reads(reader, inst, runs)
        # LPT*'s key is all the bid data, which changes at every run; VCG's
        # winner repeats over runs, and they build no copy
        assert (len(reads) == len(runs)) == (check is check_monotone)
        verdict, copies, made = _copies_and_fractions(monkeypatch, check, reader, inst)
        # a read at the machine's own bid takes the instance's outcome: no
        # copy and no Fraction; any other builds one of each, in the reader,
        # and keeps the instance's Fraction for every other machine
        off_own = [(i, k) for i, k in reads if points[k] != own[i]]
        assert verdict.passed
        assert [c.bids[i] for c, (i, _) in zip(copies, off_own)] == [Fraction(points[k], denominator)
                                                                      for i, k in off_own]
        assert all(c.bids[j] is inst.bids[j] for c, (i, _) in zip(copies, off_own) for j in range(inst.m) if j != i)
        assert len(copies) == sum(module == "properties" for module, _ in made) == len(off_own)
        assert not {("core", "with_bid"), ("core", "_with_bids")} & set(made)
    # two-opt without its ``decide`` builds a copy only where its grid key
    # changes, which it does inside runs too; with it, none
    inst = Instance((5, 3, 2, Fraction(3, 2)), (Fraction(5, 4), 3))
    denominator, points = grid = inst.deviation_grid()
    changes = [(i, k) for i in range(2) for keys in [_point_keys(two_machine_opt, inst, i, None)]
               for k in range(len(points)) if k == 0 or keys[k] != keys[k - 1]]
    runs = list(inst.deviation_runs(grid, scaled_by(inst.bids, denominator)))
    assert len(runs) < len(changes) and len(changes) * 4 < 2 * len(points)
    off_own = [(i, k) for i, k in changes if Fraction(points[k], denominator) != inst.bids[i]]
    unkeyed = _Counting(two_machine_opt, keyed=True)
    verdict, copies, made = _copies_and_fractions(monkeypatch, check_monotone, unkeyed, inst)
    assert verdict.passed and len(copies) == len(off_own)
    assert [c.bids[i] for c, (i, _) in zip(copies, off_own)] == [Fraction(points[k], denominator) for i, k in off_own]
    fractions = _one_run_fractions(monkeypatch, two_machine_opt, inst)
    assert _copies_and_fractions(monkeypatch, check_monotone, two_machine_opt, inst)[1:] == ([], fractions)


UNDERBIDS = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


def test_keyed_checks_run_once_and_build_no_copy(monkeypatch):
    """A passing grid, anonymity or scalability check on VCG, on the EF chain
    of LPT*, VCG or two-opt, or on LPT*, two-opt or VCG itself runs the
    mechanism or the rule once, on the instance, builds no ``Instance``, and
    reads every other profile through ``decide``.  The EF chains pass on a
    grid of underbids."""
    built, calls = [], []

    def counted(cls, name, log, entry):
        method = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            log.append(entry(self))
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for name in ("__init__", "_with_bids"):
        counted(Instance, name, built, lambda self, name=name: name)
    for cls in (Mechanism, type(lpt_star), type(vcg_allocate), type(two_machine_opt)):
        counted(cls, "run" if cls is Mechanism else "__call__", calls, lambda self: self.name)
    four = Instance((5, 3, 2, Fraction(3, 2)), (1, Fraction(3, 2), Fraction(5, 4), 3))
    two = Instance((5, 3, 2, Fraction(3, 2)), (Fraction(5, 4), 3))
    ef_lpt, ef_vcg, ef_two = (ef_chain_mechanism(rule) for rule in (lpt_star, vcg_allocate, two_machine_opt))
    cases = [(check_truthful, vcg_mechanism, four, (None,)), (check_truthful, vcg_mechanism, two, (None,))]
    cases += [(check_truthful, m, inst, (UNDERBIDS,)) for m, inst in ((ef_lpt, four), (ef_vcg, four), (ef_two, two))]
    cases += [(check_anonymous, subject, inst, ()) for subject, inst in (
        (vcg_mechanism, four), (ef_lpt, four), (ef_vcg, four), (ef_two, two), (two_machine_opt, two),
        (vcg_allocate, four), (lpt_star, four))]
    cases += [(check_scalable, rule, inst, (SCALING_FACTORS,)) for rule, inst in ((two_machine_opt, two),
                                                                                  (vcg_allocate, four))]
    cases += [(check_monotone, rule, inst, (None,)) for rule, inst in ((lpt_star, four), (vcg_allocate, four),
                                                                        (two_machine_opt, two))]
    for check, subject, inst, args in cases:
        built.clear(), calls.clear()
        assert check(subject, inst, *args).passed
        assert built == []
        rule = getattr(subject, "rule", subject)
        assert calls == ([subject.name] if rule is not subject else []) + [rule.name]


# ---------------------------------------------------------------------------
# The cuts of ``deviation_runs`` on their edge cases: grid bids
# equal to two or three tied machine bids, large coprime denominators, and
# points at 2^e and 2^e ± 1/q.

LARGE_NUMERATORS = (2 ** 61 - 1, 2 ** 89 - 1, 10 ** 30 + 57)
LARGE_DENOMINATORS = (2 ** 40, 3 ** 40, 2 ** 40 + 1)


def _edge_bid(rng):
    if rng.random() < 0.4:
        return Fraction(rng.choice(LARGE_NUMERATORS), rng.choice(LARGE_DENOMINATORS))
    power = Fraction(2) ** rng.randint(-6, 30)
    q = rng.choice((3, 7, 1000003, 2 ** 61 - 1))
    while Fraction(1, q) >= power:
        q = 4 * q + 1
    return power + rng.choice((0, 1, -1)) * Fraction(1, q)


def draw_edge_chain(seed):
    """2-5 machines, two or three of them tied, and a grid holding the tied
    bid, edge bids and their repeats in no order."""
    rng = random.Random(seed)
    m = 2 + seed % 4
    tied = _edge_bid(rng)
    ties = min(m, rng.choice((2, 3)))
    bids = [tied] * ties + [_edge_bid(rng) for _ in range(m - ties)]
    rng.shuffle(bids)
    jobs = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
    grid = [tied] * rng.randint(1, 2) + [_edge_bid(rng) for _ in range(rng.randint(4, 12))]
    grid += rng.sample(bids, rng.randint(0, m)) + rng.sample(grid, rng.randint(0, 3))
    rng.shuffle(grid)
    return Instance(jobs, bids), grid


EDGE_SEEDS = range(80)


def test_edge_chains_cover_ties_large_denominators_and_powers_of_two():
    chains = [draw_edge_chain(seed) for seed in EDGE_SEEDS]
    tie_counts = [max(inst.bids.count(b) for b in grid) for inst, grid in chains]
    assert tie_counts.count(2) > 20 and tie_counts.count(3) > 10
    points = [b for inst, grid in chains for b in (*grid, *inst.bids)]
    assert sum(b.denominator in LARGE_DENOMINATORS for b in points) > 200
    powers = [b for b in points if b == Fraction(2) ** ceil_log2(b)]
    assert len(powers) > 100 and any(b < 1 for b in powers)
    assert sum(b.denominator > 10 ** 6 and abs(b - Fraction(2) ** ceil_log2(b)) * b.denominator == 1
               for b in points) > 50


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_chains_expand_to_the_reference_deviations(seed):
    assert_runs_expand_to_the_reference(*draw_edge_chain(seed))


def test_ceil_log2_and_its_int_helper_agree_on_the_edge_points():
    points = {b for seed in EDGE_SEEDS for inst, grid in [draw_edge_chain(seed)] for b in (*grid, *inst.bids)}
    for b in points:
        e = ceil_log2(b)
        assert e == ceil_log2_ints(b.numerator, b.denominator)
        assert Fraction(2) ** (e - 1) < b <= Fraction(2) ** e
