"""Allocation rules for related-machine makespan scheduling.

All rules are pure functions of the instance; the sampling rule takes an
explicit seeded random source so replays are deterministic.  Rules are
small callable objects so curve construction can ask them for breakpoint
hints and scalability metadata.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .core import (
    Assignment,
    BudgetExceeded,
    DomainError,
    ExpectedAllocation,
    Instance,
    ceil_log2,
)
from .workcurve import power_of_two_points, subset_ratio_points

OPT_STATE_BUDGET = 10 ** 7
TWO_MACHINE_BUDGET = 1 << 20


class LptStar:
    """Greedy longest-first assignment on power-of-two rounded speeds.

    Processes every job in nonincreasing length order onto the machine
    minimizing (current workload + length) * rounded speed, then reorders
    whole bundles within each rounded-speed class so that a strictly
    smaller raw bid never carries a strictly smaller workload.

    Ties are broken deterministically: greedy argmin ties go to the lowest
    machine index; within a rounded-speed class, machines are ordered by
    (bid, index) ascending and bundles by (workload descending, original
    machine index).
    """

    name = "lpt-star"
    scalable = False

    def __call__(self, instance: Instance) -> Assignment:
        # Machine i's rounded speed is 2**exps[i].  Every key
        # (load + length) * 2**exps[i] is scaled by D * 2**-min(exps), with D
        # the jobs' common denominator, which makes it an exact int.
        exps = [ceil_log2(b) for b in instance.bids]
        low = min(exps)
        shifts = [e - low for e in exps]
        loads = [0] * instance.m
        job_to_machine = [0] * instance.n
        for j, length in enumerate(_integer_jobs(instance.jobs)):
            keys = [(loads[i] + length) << shifts[i] for i in range(instance.m)]
            # index finds the first of equal keys: ties go to the lowest index
            winner = keys.index(min(keys))
            job_to_machine[j] = winner
            loads[winner] += length
        # Bundle reordering within each rounded-speed class.
        by_speed: dict[int, list[int]] = {}
        for i, e in enumerate(exps):
            by_speed.setdefault(e, []).append(i)
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

    def breakpoint_hints(self, others_bids, jobs, cap):
        """Powers of two (rounded-speed flips) plus raw competitor bids
        (bundle-reorder comparisons)."""
        if not others_bids:
            return set()  # a lone machine takes every job at any bid
        lo = min(others_bids) * min(jobs) / (2 * sum(jobs))
        return {b for b in others_bids if b <= cap} | power_of_two_points(lo, cap)


class VcgAllocate:
    """Everything to the machine with the minimum bid (total running time
    minimizer); ties go to the lowest index."""

    name = "vcg"
    scalable = True

    def __call__(self, instance: Instance) -> Assignment:
        winner = min(range(instance.m), key=lambda i: (instance.bids[i], i))
        return Assignment.from_map(instance, [winner] * instance.n)

    def breakpoint_hints(self, others_bids, jobs, cap):
        return {b for b in others_bids if b <= cap}


class TwoMachineOpt:
    """Minimum makespan on two machines, ties broken by minimum total
    running time, remaining ties by lowest assignment bitmask."""

    name = "two-opt"
    scalable = True
    machine_count = 2

    def __call__(
        self, instance: Instance, budget: int = TWO_MACHINE_BUDGET
    ) -> Assignment:
        if instance.m != 2:
            raise DomainError("rule is defined for exactly two machines")
        if 2 ** instance.n > budget:
            raise BudgetExceeded(f"2^{instance.n} assignments exceed budget {budget}")
        b0, b1 = instance.bids
        # Workloads are scaled by D (the jobs' common denominator) and the
        # bids by b0.denominator * b1.denominator, so every key is the exact
        # key times that positive constant, as ints.
        c0 = b0.numerator * b1.denominator
        c1 = b1.numerator * b0.denominator
        sums = [0]  # sums[mask]: machine 0's workload when it takes the mask's jobs
        for length in _integer_jobs(instance.jobs):
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
        return Assignment.from_map(
            instance,
            [0 if best_mask >> j & 1 else 1 for j in range(instance.n)],
        )

    def breakpoint_hints(self, others_bids, jobs, cap):
        return subset_ratio_points(others_bids, jobs, cap)


def _integer_jobs(jobs: Sequence[Fraction]) -> list[int]:
    """Job lengths times their common denominator: exact ints."""
    denominator = lcm(*(length.denominator for length in jobs))
    return [length.numerator * (denominator // length.denominator) for length in jobs]


lpt_star = LptStar()
vcg_allocate = VcgAllocate()
two_machine_opt = TwoMachineOpt()


def at_lower_bound(instance: Instance) -> Fraction:
    """Exact max-min makespan lower bound used to size the fractional bins.

    With bids in nondecreasing order and jobs nonincreasing, this is
    max over job prefixes of min over machine prefixes of
    max(per-job bound, averaged-load bound).
    """
    order = sorted(range(instance.m), key=lambda i: (instance.bids[i], i))
    bids = [instance.bids[i] for i in order]
    best = Fraction(0)
    prefix = Fraction(0)
    harmonics = list(itertools.accumulate(Fraction(1) / b for b in bids))
    for j, length in enumerate(instance.jobs):
        prefix += length
        inner = min(
            max(bids[i] * length, prefix / harmonics[i]) for i in range(instance.m)
        )
        best = max(best, inner)
    return best


class AtFractional:
    """Fractional binning: bins sized lower-bound/bid in nondecreasing bid
    order, jobs poured longest-first and split at bin boundaries; the split
    fractions double as each job's machine distribution."""

    name = "at-expected"
    scalable = True

    def __call__(self, instance: Instance) -> ExpectedAllocation:
        lower = at_lower_bound(instance)
        order = sorted(range(instance.m), key=lambda i: (instance.bids[i], i))
        sizes = [lower / instance.bids[i] for i in order]
        if sum(sizes, Fraction(0)) < instance.total_length:
            raise AssertionError(
                "bin capacity below total length; lower bound violated"
            )
        distributions: list[dict[int, Fraction]] = []
        bin_idx = 0
        room = sizes[0]
        for length in instance.jobs:
            remaining = length
            dist: dict[int, Fraction] = {}
            while remaining > 0:
                if room == 0:
                    bin_idx += 1
                    room = sizes[bin_idx]
                    continue
                piece = min(remaining, room)
                machine = order[bin_idx]
                dist[machine] = dist.get(machine, Fraction(0)) + piece / length
                remaining -= piece
                room -= piece
            distributions.append(dist)
        return ExpectedAllocation.from_distributions(instance, distributions)


at_fractional = AtFractional()


def at_sample(instance: Instance, rng) -> Assignment:
    """One exact draw from the fractional rule's job distributions.

    Each job lands on a machine with probability equal to its fractional
    share; sampling uses integer draws over the common denominator so the
    probabilities are honored exactly.  ``rng`` is any object exposing
    ``randrange`` (e.g. ``random.Random(seed)``).
    """
    expected = at_fractional(instance)
    job_to_machine = []
    for dist in expected.job_distributions:
        machines = [i for i, _ in dist]
        probs = [p for _, p in dist]
        if len(machines) == 1:
            job_to_machine.append(machines[0])
            continue
        denom = lcm(*(p.denominator for p in probs))
        draw = rng.randrange(denom)
        acc = 0
        for i, p in zip(machines, probs):
            acc += p.numerator * (denom // p.denominator)
            if draw < acc:
                job_to_machine.append(i)
                break
    return Assignment.from_map(instance, job_to_machine)


def _fractional_completion_bound(
    loads: list[Fraction], speeds: Sequence[Fraction], remaining: Fraction
) -> Fraction:
    """Water-filling lower bound: spread the remaining length fractionally."""
    costs = sorted(range(len(speeds)), key=lambda i: loads[i] * speeds[i])
    load_sum = Fraction(0)
    inv_sum = Fraction(0)
    best: Optional[Fraction] = None
    for rank, i in enumerate(costs):
        load_sum += loads[i]
        inv_sum += Fraction(1) / speeds[i]
        level = (remaining + load_sum) / inv_sum
        next_cost = (
            loads[costs[rank + 1]] * speeds[costs[rank + 1]]
            if rank + 1 < len(costs)
            else None
        )
        if next_cost is None or level <= next_cost:
            best = level
            break
    if best is None:
        raise AssertionError
    return best


def opt_makespan(
    instance: Instance, budget: int = OPT_STATE_BUDGET
) -> tuple[Assignment, Fraction]:
    """Exact minimum makespan by branch and bound over job placements.

    Prunes on the incumbent via the current partial makespan and a
    fractional water-filling completion bound, and skips machines that are
    indistinguishable (same speed, same current load) from one already
    tried for the job.  All arithmetic stays rational, so the returned
    makespan is exact.
    """
    m, n = instance.m, instance.n
    if m ** n > budget:
        raise BudgetExceeded(f"{m}^{n} assignments exceed state budget {budget}")
    speeds = instance.bids
    suffix_lengths = [Fraction(0)] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_lengths[j] = suffix_lengths[j + 1] + instance.jobs[j]

    # Greedy incumbent (assign each job where it finishes earliest).
    loads = [Fraction(0)] * m
    greedy_map = []
    for j in range(n):
        i = min(range(m), key=lambda i: ((loads[i] + instance.jobs[j]) * speeds[i], i))
        greedy_map.append(i)
        loads[i] += instance.jobs[j]
    best_assignment = list(greedy_map)
    best_makespan = max(loads[i] * speeds[i] for i in range(m))

    loads = [Fraction(0)] * m
    current = [0] * n

    def dfs(j: int, partial_makespan: Fraction):
        nonlocal best_makespan, best_assignment
        if partial_makespan >= best_makespan:
            return
        if j == n:
            best_makespan = partial_makespan
            best_assignment = current[:]
            return
        bound = _fractional_completion_bound(loads, speeds, suffix_lengths[j])
        if max(partial_makespan, bound) >= best_makespan:
            return
        length = instance.jobs[j]
        order = sorted(range(m), key=lambda i: ((loads[i] + length) * speeds[i], i))
        tried: set[tuple[Fraction, Fraction]] = set()
        for i in order:
            sig = (speeds[i], loads[i])
            if sig in tried:
                continue
            tried.add(sig)
            loads[i] += length
            current[j] = i
            dfs(j + 1, max(partial_makespan, loads[i] * speeds[i]))
            loads[i] -= length
        return

    dfs(0, Fraction(0))
    assignment = Assignment.from_map(instance, best_assignment)
    return assignment, best_makespan


class OptRule:
    """Adapter exposing the exact optimum as an allocation rule."""

    name = "opt"
    scalable = True

    def __init__(self, budget: int = OPT_STATE_BUDGET):
        self.budget = budget

    def __call__(self, instance: Instance) -> Assignment:
        assignment, _ = opt_makespan(instance, self.budget)
        return assignment


opt_rule = OptRule()

RULES = {
    "lpt-star": lpt_star,
    "vcg": vcg_allocate,
    "two-opt": two_machine_opt,
    "at-expected": at_fractional,
    "opt": opt_rule,
}
