"""``two-opt`` on the shared subset-sum table gives what the mask loop gave.

``reference_two_machine_opt`` below is ``TwoMachineOpt.__call__`` as it was
when every call walked all 2^n assignment masks on ints, kept verbatim.
The package must return identical ``Assignment``s on seeded draws: n = 1-12,
tied bids (c0 = c1), repeated jobs, fractional lengths and bids far apart.
The table is built once per job vector and shared by every derived copy.
``TwoMachineOpt.key``, the balance index at int bids, read on one
machine's integer grid, must give the assignment ``__call__`` gives on a fresh instance at
every point of the default grid and of a grid of two-opt's region points,
the makespan ties among them; it refuses what ``__call__`` refuses.
"""

import bisect
import random
from fractions import Fraction

import pytest

from schedmech.allocations import TWO_MACHINE_BUDGET, _two_machine_points, two_machine_opt
from schedmech.core import Assignment, BudgetExceeded, DomainError, Instance, scaled_by

from test_deviation_oracle import grid_bids

# ---------------------------------------------------------------------------
# Reference: the mask loop, verbatim.


def reference_two_machine_opt(instance: Instance) -> Assignment:
    if instance.m != 2:
        raise DomainError("rule is defined for exactly two machines")
    if 2 ** instance.n > TWO_MACHINE_BUDGET:
        raise BudgetExceeded(
            f"2^{instance.n} assignments exceed budget {TWO_MACHINE_BUDGET}"
        )
    b0, b1 = instance.bids
    # Workloads are scaled by D (the jobs' common denominator) and the
    # bids by b0.denominator * b1.denominator, so every key is the exact
    # key times that positive constant, as ints.
    c0 = b0.numerator * b1.denominator
    c1 = b1.numerator * b0.denominator
    sums = [0]  # sums[mask]: machine 0's workload when it takes the mask's jobs
    denominator, lengths = instance.scaled_jobs
    for length in lengths:
        sums += [w0 + length for w0 in sums]
    total = sums[-1]
    best = None
    best_mask = 0
    for mask, w0 in enumerate(sums):
        t0 = w0 * c0
        t1 = (total - w0) * c1
        key = (t0 if t0 > t1 else t1, t0 + t1)
        if best is None or key < best:  # strict: ties keep the lowest mask
            best = key
            best_mask = mask
    w0 = sums[best_mask]
    return Assignment(
        tuple(0 if best_mask >> j & 1 else 1 for j in range(instance.n)),
        (Fraction(w0, denominator), Fraction(total - w0, denominator)),
    )


# ---------------------------------------------------------------------------
# Seeded draws.


def _jobs(rng, n):
    kind = rng.randrange(3)
    if kind == 0:  # repeated jobs
        pool = [Fraction(rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
        return [rng.choice(pool) for _ in range(n)]
    if kind == 1:  # fractional lengths
        return [Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)]
    return [Fraction(rng.randint(1, 20)) for _ in range(n)]


def _bids(rng):
    kind = rng.randrange(3)
    b0 = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
    if kind == 0:  # tied: c0 = c1
        return b0, b0
    if kind == 1:  # far apart
        far = b0 * Fraction(rng.randint(2, 9)) ** rng.randint(3, 12)
        return (b0, far) if rng.random() < 0.5 else (far, b0)
    return b0, Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))


def draw(seed):
    rng = random.Random(seed)
    n = 1 + seed % 12
    return Instance(_jobs(rng, n), _bids(rng))


SEEDS = range(1200)


def test_draws_cover_every_size_ties_repeats_fractions_and_far_bids():
    draws = [draw(seed) for seed in SEEDS]
    assert {inst.n for inst in draws} == set(range(1, 13))
    assert sum(inst.bids[0] == inst.bids[1] for inst in draws) > 200
    assert sum(len(set(inst.jobs)) < inst.n for inst in draws) > 300
    assert sum(inst.scaled_jobs[0] > 1 for inst in draws) > 200
    assert sum(max(inst.bids) / min(inst.bids) > 1000 for inst in draws) > 200


@pytest.mark.parametrize("chunk", range(12))
def test_assignments_equal_the_mask_loop(chunk):
    for seed in SEEDS[chunk::12]:
        inst = draw(seed)
        got = two_machine_opt(inst)
        expected = reference_two_machine_opt(inst)
        assert (got.job_to_machine, got.workloads) == (expected.job_to_machine, expected.workloads), seed
        # and at deviated bids of the same job vector, on the shared table
        for bid in grid_bids(inst)[::5]:
            copy = inst.with_bid(seed % 2, bid)
            assert two_machine_opt(copy) == reference_two_machine_opt(copy), (seed, bid)


@pytest.mark.parametrize("seed", range(0, 1200, 97))
def test_the_table_lists_each_distinct_sum_with_its_lowest_mask(seed):
    inst = draw(seed)
    lengths = inst.scaled_jobs[1]
    lowest = {}
    for mask in range(2 ** inst.n):
        lowest.setdefault(sum(l for j, l in enumerate(lengths) if mask >> j & 1), mask)
    sums, masks = inst.job_data.subset_sums
    assert sums == sorted(lowest) and masks == [lowest[s] for s in sums]


def test_every_derived_copy_shares_the_table():
    inst = Instance((5, 3, Fraction(3, 2), 1), (2, Fraction(7, 3)))
    table = inst.job_data.subset_sums
    copies = [
        inst.with_bid(1, 9),
        inst.with_bid(0, "1/8"),
        inst._with_bids([b * Fraction(5, 4) for b in inst.bids]),
        inst._with_bids(inst.bids[::-1]),
        inst.with_bid(0, 3)._with_bids([Fraction(14, 3), 6]),
    ]
    denominator, points = inst.deviation_grid()
    copies += [inst.with_bid(machine, Fraction(p, denominator)) for machine in range(inst.m) for p in points]
    assert len(copies) > 20
    for copy in copies:
        assert copy.job_data is inst.job_data
        assert copy.job_data.subset_sums is table
        assert two_machine_opt(copy) == reference_two_machine_opt(copy)
    # a copy built before the table gets it too
    fresh = Instance((5, 3, 1), (1, 2))
    early = fresh.with_bid(0, 4)
    two_machine_opt(early)
    assert "subset_sums" in vars(fresh.job_data) and fresh.job_data.subset_sums is early.job_data.subset_sums


def test_the_table_takes_no_part_in_equality_hashing_repr_or_json():
    built, unbuilt = Instance((4, 2, 1), (1, 3)), Instance((4, 2, 1), (1, 3))
    two_machine_opt(built)
    assert "subset_sums" in vars(built.job_data) and "subset_sums" not in vars(unbuilt.job_data)
    assert built == unbuilt and hash(built) == hash(unbuilt)
    assert repr(built) == repr(unbuilt) and built.to_json_dict() == unbuilt.to_json_dict()
    assert "job_data" not in repr(built) and "job_data" not in built.to_json_dict()


def test_instances_of_two_job_vectors_never_read_each_others_table():
    a = Instance((7, 5, 2), (1, 2))
    b = Instance((7, 5, 2, 2, 1), (1, 2))  # a is a prefix of b's job vector
    c = Instance((7, 5, 2), (1, 2))  # a's jobs, its own job data
    d = Instance((7, 4, 3), (1, 2))  # a's job count and total length
    assert a.job_data is not c.job_data
    rng = random.Random(11)
    for _ in range(40):
        for inst in (a, b, c, d):
            copy = inst.with_bid(rng.randrange(2), Fraction(rng.randint(1, 40), rng.randint(1, 8)))
            assert two_machine_opt(copy) == reference_two_machine_opt(copy)
    assert a.job_data.subset_sums == c.job_data.subset_sums
    assert a.job_data.subset_sums is not c.job_data.subset_sums
    assert b.job_data.subset_sums[0] == list(range(18))
    assert a.job_data.subset_sums[0] == [0, 2, 5, 7, 9, 12, 14]
    assert d.job_data.subset_sums[0] == [0, 3, 4, 7, 10, 11, 14]


def test_the_budget_guard_raises_before_any_table_is_built():
    inst = Instance([1] * 21, (1, 2))
    with pytest.raises(BudgetExceeded, match=r"2\^21 assignments exceed budget 1048576"):
        two_machine_opt(inst)
    assert "subset_sums" not in vars(inst.job_data)
    assert two_machine_opt(Instance([1] * 20, (1, 1))).workloads == (10, 10)


# ---------------------------------------------------------------------------
# The key on the integer grid.


def assignment_from_key(instance: Instance, k: int) -> Assignment:
    """Machine 0 takes the jobs of ``subset_sums`` entry k - 1."""
    sums, masks = instance.job_data.subset_sums
    denominator = instance.scaled_jobs[0]
    return Assignment(tuple(0 if masks[k - 1] >> j & 1 else 1 for j in range(instance.n)),
                      (Fraction(sums[k - 1], denominator), Fraction(sums[-1] - sums[k - 1], denominator)))


# at most 7 jobs, so the mask loop can check every tie point
KEY_SEEDS = [seed for seed in range(0, 1200, 17) if seed % 12 < 7]


def _key_grids(inst, machine):
    """The default grid, and a caller grid of the region points: the other
    bid b and b·(T − s)/s' (the makespan ties) and b·(T − s)/s."""
    return [(inst.deviation_grid(), False), (inst.deviation_grid(_two_machine_points(inst, machine)), True)]


def test_key_draws_cover_one_job_equal_bids_and_makespan_ties():
    draws = [draw(seed) for seed in KEY_SEEDS]
    assert sum(inst.n == 1 for inst in draws) >= 5 and sum(inst.bids[0] == inst.bids[1] for inst in draws) >= 10
    # points where the two sides of the balance point tie on makespan, so
    # the running time or the mask decides
    ties = 0
    for inst in draws:
        sums = inst.job_data.subset_sums[0]
        total = sums[-1]
        for machine in range(2):
            (denominator, points), _ = _key_grids(inst, machine)[1]
            for p in points:
                bids = list(inst.bids)
                bids[machine] = Fraction(p, denominator)
                c0, c1 = bids[0] * total, bids[1] * total
                k = bisect.bisect_right(sums, total * c1 / (c0 + c1))
                ties += (total - sums[k - 1]) * c1 == sums[k] * c0
    assert ties > 300


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_the_key_gives_the_rule_s_assignment_at_every_grid_point(seed):
    inst = draw(seed)
    for machine in range(2):
        by_key = {}
        for (denominator, points), tie_grid in _key_grids(inst, machine):
            ints = scaled_by(inst.bids, denominator)
            for p in points:
                bids = list(inst.bids)
                bids[machine], ints[machine] = Fraction(p, denominator), p
                fresh = Instance(inst.jobs, bids)
                k = two_machine_opt.key(inst, None)(ints)
                got = assignment_from_key(inst, k)
                assert got == two_machine_opt(fresh), (seed, machine, bids)
                if tie_grid:
                    assert got == reference_two_machine_opt(fresh), (seed, machine, bids)
                # equal keys on one machine's grid, equal assignments
                assert by_key.setdefault(k, got) == got
        # the grid point equal to the other bid is on both grids
        assert inst.bids[1 - machine] in grid_bids(inst)


@pytest.mark.parametrize("jobs, bids, error, text", [
    ((2, 1), (1, 2, 3), DomainError, "rule is defined for exactly two machines"),
    ((2, 1), (1,), DomainError, "rule is defined for exactly two machines"),
    ([1] * 21, (1, 2, 3), DomainError, "rule is defined for exactly two machines"),
    ([1] * 21, (1, 2), BudgetExceeded, "2^21 assignments exceed budget 1048576"),
], ids=["three-machines", "one-machine", "machines-before-budget", "budget"])
def test_the_key_refuses_what_the_rule_refuses_before_the_table(jobs, bids, error, text):
    inst = Instance(jobs, bids)
    for refused in (lambda: two_machine_opt(inst), lambda: two_machine_opt.key(inst, None),
                    lambda: two_machine_opt.decide(inst, 1)):
        with pytest.raises(error) as info:
            refused()
        assert str(info.value) == text
    assert "subset_sums" not in vars(inst.job_data)
