"""Allocation rules for related-machine makespan scheduling.

All rules are pure functions of the instance; the sampling rule takes an
explicit seeded random source so replays are deterministic.  Rules are
small callable objects; each deterministic one declares its
``region_points``, the bids between which its decision cannot change, from
which ``workcurve`` builds its exact bid-response curves.  LPT*, VCG and
two-opt decide from a key: ``key(instance, (bid_order, bid_exponents))`` is
a function of the profile's int bids (over one scale; ``key_reads_bids`` ones
read them, VCG's the bid order only: ``key_reads_order_only``),
``decide(instance, key)`` gives ``(job_to_machine, loads)``, the loads ints
over the jobs' common denominator, and ``__call__`` gives what ``decide``
gives at its own key.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from math import lcm

from .core import (
    Assignment,
    BudgetExceeded,
    DomainError,
    ZERO,
    ExpectedAllocation,
    Instance,
    ceil_log2,
    scaled_to_ints,
)

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

    def __call__(self, instance: Instance) -> Assignment:
        return Assignment.from_decision(instance, self.decide(instance, instance.bid_data))

    def key(self, instance: Instance, bid_data):
        """The bid data: all the allocation reads of the bids."""
        return lambda bids: bid_data

    def decide(self, instance: Instance, key) -> tuple[tuple[int, ...], list[int]]:
        """``(job_to_machine, loads)`` at ``key``, the loads ints over
        ``instance.scaled_jobs[0]``; reads no bid of ``instance``."""
        # Machine i's rounded speed is 2**exps[i].  Every key
        # (load + length) * 2**exps[i] is scaled by D * 2**-min(exps), with D
        # the jobs' common denominator, which makes it an exact int.
        bid_order, exps = key
        low = min(exps)
        shifts = [e - low for e in exps]
        m = len(exps)
        loads = [0] * m
        greedy = []
        for length in instance.scaled_jobs[1]:
            keys = [(load + length) << shift for load, shift in zip(loads, shifts)]
            # index finds the first of equal keys: ties go to the lowest index
            winner = keys.index(min(keys))
            greedy.append(winner)
            loads[winner] += length
        # Bundle reordering: bid order lists the rounded-speed classes by
        # increasing exponent, and so does this sort of the bundles, so the
        # k-th bundle (heaviest first within its class) goes to the k-th
        # machine of the same class; its integer load moves with it.
        bundles = sorted(range(m), key=lambda i: (exps[i], -loads[i], i))
        target = [0] * m
        workloads = [0] * m
        for source, machine in zip(bundles, bid_order):
            target[source] = machine
            workloads[machine] = loads[source]
        return tuple([target[i] for i in greedy]), workloads

    def region_points(self, instance: Instance, machine: int, cap):
        """The other bids, and the powers of two in [lo, cap] with
        lo = b·l/(2L), for b the least other bid, l the shortest job and L
        the total length.

        The decision reads only ``key``: the varying bid x moves
        in the bid order only at another bid, and its exponent changes only
        at a power of two.  Below lo, x rounds to less than 2x < b·l/L, so
        it is alone in its rounded-speed class and its key with every job
        loaded stays below any other machine's first key, at least
        l·rounded(b): every job goes to x.  For p the least power of two
        not below lo, the bids in (p/2, p) share x's exponent and its place
        in the bid order with those in (p/2, lo), so the decision is that
        one on all of (0, p).  A lone machine takes every job at any bid.
        """
        fixed = instance.bids[:machine] + instance.bids[machine + 1:]
        if fixed:
            yield from fixed
            lo = min(fixed) * instance.jobs[-1] / (2 * instance.total_length)
            yield from (Fraction(2) ** e for e in range(ceil_log2(lo), ceil_log2(cap) + 1))


class VcgAllocate:
    """Everything to the machine with the minimum bid (total running time
    minimizer); ties go to the lowest index."""

    name = "vcg"
    key_reads_order_only = True

    def __call__(self, instance: Instance) -> Assignment:
        winner, workloads = instance.bid_order[0], [ZERO] * instance.m
        workloads[winner] = instance.total_length
        return Assignment((winner,) * instance.n, tuple(workloads))

    def key(self, instance: Instance, bid_data):
        """The winner."""
        return lambda bids: bid_data[0][0]

    def decide(self, instance: Instance, winner: int) -> tuple[tuple[int, ...], list[int]]:
        """``(job_to_machine, loads)`` with every job on ``winner`` (the
        key), the loads ints over ``instance.scaled_jobs[0]``."""
        lengths = instance.scaled_jobs[1]
        loads = [0] * instance.m
        loads[winner] = sum(lengths)
        return (winner,) * len(lengths), loads

    def region_points(self, instance: Instance, machine: int, cap):
        """The other bids: the winner changes only where the varying bid
        passes one of them."""
        return instance.bids[:machine] + instance.bids[machine + 1:]


class TwoMachineOpt:
    """Minimum makespan on two machines, ties broken by minimum total
    running time, remaining ties by lowest assignment bitmask."""

    name = "two-opt"
    machine_count = 2
    key_reads_bids = True

    def __call__(self, instance: Instance) -> Assignment:
        sums, masks = table = _two_machine_table(instance)
        b0, b1 = instance.bids
        k = _balance_index(sums, masks, b0.numerator * b1.denominator, b1.numerator * b0.denominator)
        return Assignment.from_decision(instance, self.decide(instance, k, table))

    def key(self, instance: Instance, bid_data):
        """``_balance_index`` at the two int bids: the assignment is machine
        0's ``subset_sums`` entry k - 1, so equal keys give equal ones."""
        sums, masks = _two_machine_table(instance)
        return lambda bids: _balance_index(sums, masks, *bids)

    def decide(self, instance: Instance, k: int, table=None) -> tuple[tuple[int, ...], list[int]]:
        """``(job_to_machine, loads)`` at the balance index k: machine 0 takes
        entry k - 1 of ``table``, ``subset_sums`` unless ``__call__`` read it."""
        sums, masks = table or _two_machine_table(instance)
        w0, mask = sums[k - 1], masks[k - 1]
        return tuple([0 if mask >> j & 1 else 1 for j in range(instance.n)]), [w0, sums[-1] - w0]

    def region_points(self, instance: Instance, machine: int, cap):
        """See ``_two_machine_points``."""
        return _two_machine_points(instance, machine)


def _two_machine_table(instance: Instance) -> tuple[list[int], list[int]]:
    """``subset_sums``, refused on other than two machines, then past the budget."""
    if instance.m != 2:
        raise DomainError("rule is defined for exactly two machines")
    return _budgeted_job_data(instance).subset_sums


def _balance_index(sums: list[int], masks: list[int], c0: int, c1: int) -> int:
    """Two-opt's k: machine 0 takes ``sums[k - 1]``, at bids proportional to
    the ints c0, c1.  sums[k - 1] <= total * c1 / (c0 + c1) < sums[k]; left
    of that point machine 1's time is the makespan, falling, right of it
    machine 0's, rising, so one side wins by (makespan, running time
    w0 * (c0 - c1) + constant, mask), exact keys times a positive constant."""
    total = sums[-1]
    k = bisect.bisect_right(sums, total * c1 // (c0 + c1))
    left, right = sums[k - 1], sums[k]
    if ((total - left) * c1, left * (c0 - c1), masks[k - 1]) > (right * c0, right * (c0 - c1), masks[k]):
        k += 1
    return k


def _two_machine_points(instance: Instance, machine: int):
    """b, and b·(T − s)/s and b·(T − s)/s' for adjacent distinct subset sums
    s < s' (``JobData.subset_sums``, scaled ints with total T), where b is
    the other machine's bid; after b, from the lowest point up.

    ``_balance_index`` reads the bids through three things: the index k
    before its tie step, which side of it wins on makespan, and, on a
    makespan tie, the sign of b0 − b1.  With machine 0 bidding x, k moves where
    x·s = b·(T − s) for a sum s, the makespans (T − s)·b and s'·x of the
    two sides tie at x = b·(T − s)/s', and the sign changes at x = b.
    With machine 1 bidding y, the same equations in the complementary sums
    u = T − s (adjacent exactly when s is) give the same points.  Between
    consecutive points machine 0's makespan-optimal workload is unique, so
    any exact optimum, ``opt`` on two machines included, has it.
    """
    if instance.m > 2:
        raise DomainError("region points are known for at most two machines")
    job_data = _budgeted_job_data(instance)
    if instance.m == 1:
        return
    b = instance.bids[1 - machine]
    yield b
    sums = job_data.subset_sums[0]
    total = sums[-1]
    for k in range(len(sums) - 1, 0, -1):
        s, s_next = sums[k - 1], sums[k]
        yield Fraction(b.numerator * (total - s), b.denominator * s_next)
        if s:
            yield Fraction(b.numerator * (total - s), b.denominator * s)


def _budgeted_job_data(instance: Instance):
    """``instance.job_data``, refused past ``TWO_MACHINE_BUDGET`` assignments."""
    if 2 ** instance.n > TWO_MACHINE_BUDGET:
        raise BudgetExceeded(f"2^{instance.n} assignments exceed budget {TWO_MACHINE_BUDGET}")
    return instance.job_data


lpt_star = LptStar()
vcg_allocate = VcgAllocate()
two_machine_opt = TwoMachineOpt()


def _at_lower_bound_ints(instance: Instance) -> tuple[int, int, int, list[int]]:
    """``(lower, denominator, unit, inverses)``: ``at_lower_bound`` is
    ``lower / denominator``, and the k-th machine in bid order gets a bin of
    ``lower * inverses[k]`` against the job lengths scaled by D * unit.

    D and E are the jobs' and the bids' common denominators, S the bids in
    bid order times E, Q = lcm(S), H the prefix sums of Q // S and K = lcm(H):
    each bound times D * E * K (the denominator) is an int; unit = K * Q.
    """
    denominator, lengths = instance.scaled_jobs
    scale, speeds = instance.scaled_bids[0], [instance.scaled_bids[1][i] for i in instance.bid_order]
    q = lcm(*speeds)
    inverses = [q // s for s in speeds]
    harmonics = list(itertools.accumulate(inverses))
    k = lcm(*harmonics)
    averages = [q * k // h for h in harmonics]
    lower = max(
        min(max(s * length * k, prefix * a) for s, a in zip(speeds, averages))
        for length, prefix in zip(lengths, itertools.accumulate(lengths))
    )
    return lower, denominator * scale * k, k * q, inverses


def at_lower_bound(instance: Instance) -> Fraction:
    """Exact max-min makespan lower bound used to size the fractional bins.

    With bids in nondecreasing order and jobs nonincreasing, this is
    max over job prefixes of min over machine prefixes of
    max(per-job bound, averaged-load bound).
    """
    lower, denominator, _, _ = _at_lower_bound_ints(instance)
    return Fraction(lower, denominator)


class AtFractional:
    """Fractional binning: bins sized lower-bound/bid in nondecreasing bid
    order, jobs poured longest-first and split at bin boundaries; the split
    fractions double as each job's machine distribution.  The pour runs on
    ints; shares and expected workloads become ``Fraction``s at the end."""

    name = "at-expected"

    def region_points(self, instance: Instance, machine: int, cap):
        """Refused: expected workloads are not step functions of a bid."""
        raise DomainError(
            "rule returns expected allocations; bid-response curves need "
            "deterministic workloads"
        )

    def __call__(self, instance: Instance) -> ExpectedAllocation:
        lower, _, unit, inverses = _at_lower_bound_ints(instance)
        denominator, lengths = instance.scaled_jobs
        lengths = [length * unit for length in lengths]
        sizes = [lower * inverse for inverse in inverses]
        if sum(sizes) < sum(lengths):
            raise AssertionError("bin capacity below total length; lower bound violated")
        bins = iter(zip(instance.bid_order, sizes))
        machine, room = next(bins)
        expected = [0] * instance.m
        distributions = []
        for length in lengths:
            remaining, pieces = length, []
            while remaining > 0:
                if room == 0:
                    machine, room = next(bins)
                    continue
                piece = min(remaining, room)
                pieces.append((machine, piece))
                expected[machine] += piece
                remaining -= piece
                room -= piece
            distributions.append(tuple(sorted((i, Fraction(p, length)) for i, p in pieces)))
        workloads = tuple(Fraction(w, denominator * unit) for w in expected)
        return ExpectedAllocation(workloads, tuple(distributions))


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
        denom, weights = scaled_to_ints(probs)
        draw = rng.randrange(denom)
        acc = 0
        for i, weight in zip(machines, weights):
            acc += weight
            if draw < acc:
                job_to_machine.append(i)
                break
    return Assignment.from_map(instance, job_to_machine)


def opt_makespan(
    instance: Instance, budget: int = OPT_STATE_BUDGET
) -> tuple[Assignment, Fraction]:
    """Exact minimum makespan by branch and bound over job placements.

    The first leaf is the greedy assignment, as machines are tried by
    (finish time, index).  Prunes on the incumbent via the partial makespan
    and a fractional water-filling completion bound, and skips machines
    indistinguishable (same speed, same load) from one already tried for
    the job.  Loads are ints over the jobs' common denominator D and speeds
    the bids times their common denominator E, so every finish time is the
    exact one times D * E and the makespan is exact.
    """
    m, n = instance.m, instance.n
    if budget < 1:
        raise DomainError("the state budget must be at least 1")
    if m ** n > budget:
        raise BudgetExceeded(f"{m}^{n} assignments exceed state budget {budget}")
    denominator, lengths = instance.scaled_jobs
    scale, speeds = instance.scaled_bids
    # The water-filling level over machines c is (remaining + loads) * Q /
    # sum(Q // S_c), with Q the lcm of the speeds S: compared cross-multiplied.
    q = lcm(*speeds)
    inverses = [q // s for s in speeds]
    suffix_lengths = list(itertools.accumulate(reversed(lengths), initial=0))[::-1]

    best = best_assignment = best_loads = None
    loads = [0] * m
    current = [0] * n

    def dfs(j: int, partial_makespan: int):
        nonlocal best, best_assignment, best_loads
        if best is not None and partial_makespan >= best:
            return
        if j == n:
            best, best_assignment, best_loads = partial_makespan, current[:], loads[:]
            return
        if best is not None:
            costs = [load * speed for load, speed in zip(loads, speeds)]
            costs_order = sorted(range(m), key=costs.__getitem__)
            poured, inv_sum = suffix_lengths[j], 0
            for rank, i in enumerate(costs_order, 1):
                poured += loads[i]
                inv_sum += inverses[i]
                if rank == m or poured * q <= costs[costs_order[rank]] * inv_sum:
                    break
            if poured * q >= best * inv_sum:
                return
        length = lengths[j]
        keys = [(load + length) * speed for load, speed in zip(loads, speeds)]
        tried: set[tuple[int, int]] = set()
        for i in sorted(range(m), key=keys.__getitem__):  # stable: ties by index
            sig = (speeds[i], loads[i])
            if sig in tried:
                continue
            tried.add(sig)
            loads[i] += length
            current[j] = i
            dfs(j + 1, max(partial_makespan, keys[i]))
            loads[i] -= length

    dfs(0, 0)
    del dfs  # it holds itself through its closure cell: a cycle only the collector would free
    workloads = tuple(Fraction(load, denominator) for load in best_loads)
    return Assignment(tuple(best_assignment), workloads), Fraction(best, denominator * scale)


class OptRule:
    """Adapter exposing the exact optimum as an allocation rule."""

    name = "opt"

    def __call__(self, instance: Instance) -> Assignment:
        assignment, _ = opt_makespan(instance)
        return assignment

    def region_points(self, instance: Instance, machine: int, cap):
        """Two-opt's points on two machines (see ``_two_machine_points``);
        none are known on three or more."""
        return _two_machine_points(instance, machine)


opt_rule = OptRule()

RULES = {
    "lpt-star": lpt_star,
    "vcg": vcg_allocate,
    "two-opt": two_machine_opt,
    "at-expected": at_fractional,
    "opt": opt_rule,
}
