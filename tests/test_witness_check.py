"""The integer witness check against the ``Fraction`` check it replaced.

``certificates._verify_witness`` re-checks a feasible polytope witness on
ints over the rows' ``scale``, with each profile keyed by its tuple of grid
indices.  The oracle below is a verbatim copy of the earlier check, which
rebuilt every payment as a ``Fraction`` and keyed profiles by their bid
tuples (only the function name differs).  On seeded draws over every rule,
one to three machines and two to four grid values, each feasible witness
and seeded perturbations of it must be accepted or rejected by both checks
alike, with the same message.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from schedmech.allocations import RULES
from schedmech.certificates import (
    _polytope_rows,
    _verify_witness,
    payment_polytope_feasible,
)

F = Fraction


# ---------------------------------------------------------------------------
# Oracle: the earlier witness check, verbatim apart from the name.


def fraction_verify_witness(grid, profiles, machines, workloads, payments):
    """Substitute payments into every original constraint in payment space,
    reading a profile's workloads and payment vector by its bid tuple."""
    table = {
        b: (workloads[b], [payments[(i, b)] for i in range(machines)])
        for b in profiles
    }
    for b, (w, p) in table.items():
        for i in range(machines):
            utility = p[i] - b[i] * w[i]
            if not utility >= 0:
                raise AssertionError("IR violated by witness")
            for j in range(machines):
                if j != i and not utility >= p[j] - b[i] * w[j]:
                    raise AssertionError("EF violated by witness")
            for d in grid:
                if d == b[i]:
                    continue
                w_dev, p_dev = table[b[:i] + (d,) + b[i + 1:]]
                if not utility >= p_dev[i] - b[i] * w_dev[i]:
                    raise AssertionError("IC violated by witness")
        for kpos in range(machines):
            if b.count(b[kpos]) != 1:
                continue
            for lpos in range(machines):
                if lpos == kpos:
                    continue
                swapped = list(b)
                swapped[kpos], swapped[lpos] = swapped[lpos], swapped[kpos]
                if not table[tuple(swapped)][1][lpos] == p[kpos]:
                    raise AssertionError("anonymity violated by witness")


# ---------------------------------------------------------------------------


def rejection(check, *args):
    """The message ``check`` raises, or None if it accepts."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def feasible_witnesses(seed, draws):
    """``(rule, system, int payments)`` for each feasible draw: the witness as
    rendered in the certificate, read back as ints over the rows' scale."""
    rng = random.Random(seed)
    bid_pool = [F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2), F(2), F(3), F(4)]
    job_pool = [F(1, 2), F(1), F(2), F(3), F(4)]
    for trial in range(draws):
        machines = (1, 2, 3)[trial % 3]
        rule = rng.choice(
            [r for r in RULES.values() if getattr(r, "machine_count", machines) == machines]
        )
        grid = rng.sample(bid_pool, rng.randint(2, 4))
        jobs = [rng.choice(job_pool) for _ in range(rng.randint(1, 3))]
        result = payment_polytope_feasible(rule, grid, jobs, machines)
        if not result.feasible:
            continue
        system = _polytope_rows(rule, grid, jobs, machines, 4096)
        scaled = [F(x) * system.scale for x in result.witness.values()]
        assert all(x.denominator == 1 for x in scaled)
        yield rule, system, [int(x) for x in scaled]


def perturbations(rng, payments, machines, scale):
    """Seeded broken copies: one payment off by one unit of 1/scale either
    way, two payments swapped, and one profile's payments shifted."""
    for _ in range(3):
        for delta in (-1, 1):
            off = list(payments)
            off[rng.randrange(len(off))] += delta
            yield off
        swapped = list(payments)
        s, t = rng.sample(range(len(swapped)), 2)
        swapped[s], swapped[t] = swapped[t], swapped[s]
        yield swapped
        shifted = list(payments)
        start = rng.randrange(len(shifted) // machines) * machines
        delta = rng.choice((-1, 1)) * rng.randint(1, 2 * scale)
        for t in range(start, start + machines):
            shifted[t] += delta
        yield shifted


def test_integer_check_agrees_with_the_fraction_check():
    rng = random.Random(2111)
    seen = Counter()
    rules, machine_counts, grid_sizes = set(), set(), set()
    for rule, system, payments in feasible_witnesses(2110, 240):
        machines = len(system.profiles[0])
        rules.add(rule.name)
        machine_counts.add(machines)
        grid_sizes.add(len(system.grid))
        assert rejection(_verify_witness, system.grid, system.workloads, payments,
                         system.scale) is None
        for broken in perturbations(rng, payments, machines, system.scale):
            want = rejection(
                fraction_verify_witness, system.grid, system.profiles, machines,
                dict(zip(system.profiles, system.workloads)),
                {(t % machines, system.profiles[t // machines]): F(x, system.scale)
                 for t, x in enumerate(broken)},
            )
            got = rejection(_verify_witness, system.grid, system.workloads, broken,
                            system.scale)
            assert got == want
            seen[want] += 1
    assert rules == {rule.name for rule in RULES.values()}
    assert machine_counts == {1, 2, 3} and grid_sizes == {2, 3, 4}
    assert set(seen) == {
        None, "IR violated by witness", "EF violated by witness",
        "IC violated by witness", "anonymity violated by witness",
    }


def test_a_scale_that_clears_the_denominators_is_read_as_such():
    # Twice the rows' scale with every payment doubled is the same witness;
    # a scale the grid and workload denominators do not divide is refused.
    _, system, payments = next(w for w in feasible_witnesses(2112, 60) if w[1].scale % 2 == 0)
    _verify_witness(system.grid, system.workloads, [2 * x for x in payments], 2 * system.scale)
    with pytest.raises(AssertionError, match="witness scale or size"):
        _verify_witness(system.grid, system.workloads, payments, system.scale // 2)


def test_a_scale_that_does_not_clear_the_grid_is_refused():
    # At scale 1 the grid {1/2, 1} reads as ints only after a factor 2;
    # with that factor floored to 0, the zero payments would pass.
    with pytest.raises(AssertionError, match="witness scale or size"):
        _verify_witness((F(1, 2), F(1)), [(F(1),), (F(1),)], [0, 0], 1)


@pytest.mark.parametrize("cut", [1, -1])
def test_a_witness_of_the_wrong_size_is_refused(cut):
    _, system, payments = next(feasible_witnesses(2113, 30))
    payments = payments[:-1] if cut == 1 else payments + [payments[-1]]
    with pytest.raises(AssertionError, match="witness scale or size"):
        _verify_witness(system.grid, system.workloads, payments, system.scale)
