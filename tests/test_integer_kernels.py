"""The integer kernels against the Fraction loops they replaced.

Each ``reference_*`` below is the package's earlier ``Fraction``
implementation, kept verbatim as an oracle (``rounded_speed`` is spelled
out through ``reference_ceil_log2``, so no reference calls a kernel).  Draws come from seeded
``random.Random`` streams and are aimed at the cases the rescaling has to
get exactly right: equal keys (tie rules), bids on either side of a power
of two, mixed job denominators and very large or very small rationals.
"""

import random
from fractions import Fraction

import pytest

from schedmech.allocations import lpt_star, two_machine_opt, vcg_allocate
from schedmech.core import (
    Assignment,
    DomainError,
    Instance,
    ceil_log2,
    rat,
    rat_str,
)
from schedmech.payments import vcg_payments

F = Fraction


def reference_ceil_log2(b):
    b = rat(b)
    if b <= 0:
        raise DomainError(f"ceil_log2 requires a positive argument, got {rat_str(b)}")
    e = b.numerator.bit_length() - b.denominator.bit_length()
    while Fraction(2) ** e < b:
        e += 1
    while Fraction(2) ** (e - 1) >= b:
        e -= 1
    return e


def reference_two_machine_opt(instance):
    b0, b1 = instance.bids
    total_length = instance.total_length
    best = None
    best_mask = 0
    for mask in range(2 ** instance.n):
        w0 = Fraction(0)
        for j in range(instance.n):
            if mask >> j & 1:
                w0 += instance.jobs[j]
        w1 = total_length - w0
        key = (max(w0 * b0, w1 * b1), w0 * b0 + w1 * b1)
        if best is None or key < best:
            best = key
            best_mask = mask
    return Assignment.from_map(
        instance,
        [0 if best_mask >> j & 1 else 1 for j in range(instance.n)],
    )


def reference_lpt_star(instance):
    speeds = [Fraction(2) ** reference_ceil_log2(b) for b in instance.bids]
    loads = [Fraction(0)] * instance.m
    job_to_machine = [0] * instance.n
    for j, length in enumerate(instance.jobs):
        keys = [(loads[i] + length) * speeds[i] for i in range(instance.m)]
        # min keeps the first of equal keys: ties go to the lowest index
        winner = min(range(instance.m), key=keys.__getitem__)
        job_to_machine[j] = winner
        loads[winner] += length
    # Bundle reordering within each rounded-speed class.
    by_speed: dict[Fraction, list[int]] = {}
    for i, s in enumerate(speeds):
        by_speed.setdefault(s, []).append(i)
    for members in by_speed.values():
        if len(members) < 2:
            continue
        machines = sorted(members, key=lambda i: (instance.bids[i], i))
        bundles = sorted(
            (
                (loads[i], i, [j for j, mi in enumerate(job_to_machine) if mi == i])
                for i in members
            ),
            key=lambda t: (-t[0], t[1]),
        )
        for target, (_, _, jobs_in_bundle) in zip(machines, bundles):
            for j in jobs_in_bundle:
                job_to_machine[j] = target
    return Assignment.from_map(instance, job_to_machine)


def reference_vcg_payments(instance, assignment):
    expected = vcg_allocate(instance)
    if assignment.workloads != expected.workloads:
        raise DomainError("payments are defined on the rule's own allocation")
    L = instance.total_length
    if instance.m == 1:
        return (instance.bids[0] * L,)
    payments = []
    for i in range(instance.m):
        min_without = min(b for k, b in enumerate(instance.bids) if k != i) * L
        others_cost = sum(
            (
                instance.bids[k] * assignment.workloads[k]
                for k in range(instance.m)
                if k != i
            ),
            Fraction(0),
        )
        payments.append(min_without - others_cost)
    return tuple(payments)


def _jobs(rng, n):
    """Lengths with mixed denominators; small numerators make equal subset
    sums, and so tied keys, common."""
    return [F(rng.randint(1, 12), rng.choice((1, 1, 2, 3, 4, 6, 7, 12))) for _ in range(n)]


def _near_power_of_two(rng):
    """2**e itself or 2**e +- 2**-k, for e of either sign."""
    e = rng.randint(-4, 5)
    k = rng.randint(1, 8)
    b = F(2) ** e + rng.choice((0, 0, 1, -1)) * F(1, 2 ** k)
    return b if b > 0 else F(2) ** e


def _bid(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return _near_power_of_two(rng)
    if kind == 1:
        return F(rng.randint(1, 16), rng.randint(1, 6))
    return F(rng.randint(1, 4))


def _profile(rng, m):
    bids = [_bid(rng) for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        bids[rng.randrange(m)] = bids[rng.randrange(m)]  # a tie
    return bids


def _same_assignment(a, b):
    return a.job_to_machine == b.job_to_machine and a.workloads == b.workloads


@pytest.mark.parametrize("n", range(1, 11))
def test_two_machine_opt_matches_fraction_reference(n):
    rng = random.Random(f"two-opt:{n}")
    draws = 40 if n <= 7 else 12
    for _ in range(draws):
        inst = Instance(_jobs(rng, n), _profile(rng, 2))
        got = two_machine_opt(inst)
        want = reference_two_machine_opt(inst)
        assert _same_assignment(got, want), inst.to_json_dict()


def test_two_machine_opt_ties_go_to_the_lowest_mask():
    # Equal jobs on equal bids: every balanced split ties on both keys.
    for n in range(1, 9):
        inst = Instance([F(3, 2)] * n, (F(5, 4), F(5, 4)))
        assert _same_assignment(two_machine_opt(inst), reference_two_machine_opt(inst))


@pytest.mark.parametrize("m", range(1, 6))
def test_lpt_star_matches_fraction_reference(m):
    rng = random.Random(f"lpt-star:{m}")
    for _ in range(150):
        bids = [_near_power_of_two(rng) if rng.random() < 0.7 else _bid(rng) for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            bids[rng.randrange(m)] = bids[rng.randrange(m)]
        inst = Instance(_jobs(rng, rng.randint(1, 8)), bids)
        got = lpt_star(inst)
        want = reference_lpt_star(inst)
        assert _same_assignment(got, want), inst.to_json_dict()


def test_ceil_log2_matches_fraction_reference():
    rng = random.Random("ceil-log2")
    values = []
    for _ in range(400):
        e = rng.randint(-80, 80)
        power = F(2) ** e
        values += [power, power + F(1, 2 ** rng.randint(1, 90)), power * F(2 ** 64 + 1, 2 ** 64)]
        values.append(power - power / 2 ** rng.randint(1, 70))
        # numerators beyond 2**64
        values.append(F(rng.randint(2 ** 64, 2 ** 72), rng.randint(1, 2 ** 66)))
        values.append(F(rng.randint(1, 2 ** 10), rng.randint(2 ** 64, 2 ** 80)))
    values += [F(1), F(1, 2), F(3, 8), F(2 ** 64), F(2 ** 64 + 1), F(2 ** 64 - 1), F(1, 2 ** 64 + 1)]
    for b in values:
        assert b > 0
        assert ceil_log2(b) == reference_ceil_log2(b), rat_str(b)
    assert ceil_log2("3/8") == -1
    assert ceil_log2(F(1, 2 ** 64 + 1)) == -64


def test_vcg_payments_match_the_clarke_definition():
    rng = random.Random("vcg")
    for m in range(1, 6):
        for _ in range(60):
            bids = _profile(rng, m)
            if m > 1 and rng.random() < 0.3:
                low = min(bids)
                bids[rng.randrange(m)] = low  # tied minimum bids
            inst = Instance(_jobs(rng, rng.randint(1, 5)), bids)
            allocation = vcg_allocate(inst)
            got = vcg_payments(inst, allocation)
            assert got == reference_vcg_payments(inst, allocation), inst.to_json_dict()
