import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from schedmech.allocations import (
    OPT_STATE_BUDGET,
    at_fractional,
    at_lower_bound,
    at_sample,
    lpt_star,
    opt_makespan,
    two_machine_opt,
    vcg_allocate,
)
from schedmech.core import Assignment, BudgetExceeded, DomainError, Instance, makespan
from schedmech.sampling import sample_instance


def tlb_reference(instance):
    """Direct evaluation of the max-min lower bound over all (job, machine)
    prefix pairs; independent of the production implementation's loop."""
    bids = sorted(instance.bids)
    best = Fraction(0)
    for j in range(1, instance.n + 1):
        prefix = sum(instance.jobs[:j])
        candidates = []
        for i in range(1, instance.m + 1):
            harmonic = sum(Fraction(1) / b for b in bids[:i])
            candidates.append(max(bids[i - 1] * instance.jobs[j - 1], prefix / harmonic))
        best = max(best, min(candidates))
    return best


def _fractional_completion_bound(
    loads: list[Fraction], speeds: Sequence[Fraction], remaining: Fraction
) -> Fraction:
    """Water-filling lower bound: spread the remaining length fractionally."""
    costs = sorted(range(len(speeds)), key=lambda i: loads[i] * speeds[i])
    load_sum = Fraction(0)
    inv_sum = Fraction(0)
    for rank, i in enumerate(costs, 1):
        load_sum += loads[i]
        inv_sum += Fraction(1) / speeds[i]
        level = (remaining + load_sum) / inv_sum
        if rank == len(costs) or level <= loads[costs[rank]] * speeds[costs[rank]]:
            return level


def fraction_opt_makespan(
    instance: Instance, budget: int = OPT_STATE_BUDGET
) -> tuple[Assignment, Fraction]:
    """The package's ``Fraction`` ``opt_makespan`` before its search ran on
    ints, kept verbatim (with ``_fractional_completion_bound`` above) as the
    oracle of the integer search."""
    m, n = instance.m, instance.n
    if budget < 1:
        raise DomainError("the state budget must be at least 1")
    if m ** n > budget:
        raise BudgetExceeded(f"{m}^{n} assignments exceed state budget {budget}")
    speeds = instance.bids
    suffix_lengths = [Fraction(0)] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_lengths[j] = suffix_lengths[j + 1] + instance.jobs[j]

    best_assignment: list[int] = []
    best_makespan: Optional[Fraction] = None
    loads = [Fraction(0)] * m
    current = [0] * n

    def dfs(j: int, partial_makespan: Fraction):
        nonlocal best_makespan, best_assignment
        if best_makespan is not None and partial_makespan >= best_makespan:
            return
        if j == n:
            best_makespan = partial_makespan
            best_assignment = current[:]
            return
        if best_makespan is not None:
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

    dfs(0, Fraction(0))
    assignment = Assignment.from_map(instance, best_assignment)
    return assignment, best_makespan


def reference_opt_makespan(instance, budget=OPT_STATE_BUDGET):
    """The package's earlier ``opt_makespan``, kept verbatim as an oracle:
    it seeds the search with a separately built greedy incumbent."""
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


class TestLptStar:
    def test_fast_bidder_takes_everything(self):
        # bid profile (a/4, a) at a = 8
        assert lpt_star(Instance((2, 1), (2, 8))).workloads == (3, 0)

    def test_slow_bidder_keeps_the_short_job(self):
        # bid profile (2a, a) at a = 8
        assert lpt_star(Instance((2, 1), (16, 8))).workloads == (1, 2)

    def test_equal_bids_tie_to_lowest_index(self):
        assert lpt_star(Instance((2, 1), (1, 1))).workloads == (2, 1)

    def test_bundle_reorder_within_rounded_class(self):
        # Both bids round to 4; the greedy leaves (2,1) but the lower raw
        # bid sits on machine 1, so the bundles must swap.
        assert lpt_star(Instance((2, 1), (Fraction(7, 2), 3))).workloads == (1, 2)

    def test_classic_seven_sixths_trace(self):
        inst = Instance((3, 3, 2, 2, 2), (1, 1))
        assert lpt_star(inst).workloads == (7, 5)
        _, opt = opt_makespan(inst)
        assert opt == 6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_locally_efficient_on_random_instances(self, seed):
        rng = random.Random(seed)
        inst = sample_instance(rng, m_max=4, n_max=6, straddle_pow2=True)
        loads = lpt_star(inst).workloads
        for i, k in itertools.permutations(range(inst.m), 2):
            if inst.bids[i] > inst.bids[k]:
                assert loads[i] <= loads[k]

    def test_monotone_along_own_bid_grid(self):
        inst = Instance((2, 1), (1, 8))
        prev = None
        for step in range(1, 65):
            bid = Fraction(step, 2)
            w = lpt_star(inst.with_bid(0, bid)).workloads[0]
            if prev is not None:
                assert w <= prev
            prev = w


class TestAtLowerBound:
    def test_examples(self):
        assert at_lower_bound(Instance((2, 1), (1, 2))) == 2
        assert at_lower_bound(Instance((1, 1), (1, 1))) == 1
        b = Fraction(5, 3)
        assert at_lower_bound(Instance((2, 1), (b,))) == 3 * b

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_matches_direct_reference(self, seed):
        rng = random.Random(seed)
        inst = sample_instance(rng)
        assert at_lower_bound(inst) == tlb_reference(inst)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
    )
    def test_homogeneous_in_the_bids(self, seed, c):
        rng = random.Random(seed)
        inst = sample_instance(rng)
        assert at_lower_bound(inst.scaled(c)) == c * at_lower_bound(inst)


class TestAtFractional:
    def test_distinct_bids_split_cleanly(self):
        e = at_fractional(Instance((2, 1), (1, 2)))
        assert e.expected_workloads == (2, 1)
        assert e.job_distributions == (((0, Fraction(1)),), ((1, Fraction(1)),))

    def test_equal_bids(self):
        # Lower bound 2 sizes both bins at 2: the long job exactly fills the
        # first bin and the short job lands wholly in the second.
        e = at_fractional(Instance((2, 1), (1, 1)))
        assert e.expected_workloads == (2, 1)

    def test_single_machine_takes_all(self):
        e = at_fractional(Instance((2, 1), (Fraction(3, 7),)))
        assert e.expected_workloads == (3,)

    def test_genuine_split(self):
        e = at_fractional(Instance((2, 1), (Fraction(2, 5), 1)))
        assert e.expected_workloads == (Fraction(5, 2), Fraction(1, 2))
        assert e.job_distributions[1] == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_bins_full_except_possibly_last(self, seed):
        rng = random.Random(seed)
        inst = sample_instance(rng)
        lower = at_lower_bound(inst)
        e = at_fractional(inst)
        assert sum(e.expected_workloads) == inst.total_length
        order = sorted(range(inst.m), key=lambda i: (inst.bids[i], i))
        loads = [e.expected_workloads[i] for i in order]
        nonempty = [pos for pos in range(inst.m) if loads[pos] > 0]
        last = nonempty[-1] if nonempty else -1
        for pos in range(last):
            i = order[pos]
            assert e.expected_workloads[i] == lower / inst.bids[i]
        assert all(a >= b for a, b in zip(loads, loads[1:]))


class TestAtSample:
    def test_degenerate_distributions_reproduce_the_support(self):
        inst = Instance((2, 1), (1, 2))
        assignment = at_sample(inst, random.Random(0))
        assert assignment.workloads == (2, 1)

    def test_seeded_replay_is_deterministic(self):
        inst = Instance((2, 1), (Fraction(2, 5), 1))
        a = at_sample(inst, random.Random(42))
        b = at_sample(inst, random.Random(42))
        assert a == b

    def test_empirical_mean_tracks_expectation(self):
        inst = Instance((2, 1), (Fraction(2, 5), 1))
        expected = at_fractional(inst).expected_workloads[0]  # 5/2
        rng = random.Random(7)
        trials = 10 ** 4
        total = sum(at_sample(inst, rng).workloads[0] for _ in range(trials))
        mean = Fraction(total, trials)
        # the only randomness is a half/half unit job: sd = 1/2 per draw
        three_sigma = Fraction(3, 2) / int(trials ** 0.5)
        assert abs(mean - expected) <= three_sigma


class TestVcgAllocate:
    def test_unique_fastest_takes_all(self):
        assert vcg_allocate(Instance((2, 1), (1, 3))).workloads == (3, 0)
        assert vcg_allocate(Instance((2, 1), (3, 1))).workloads == (0, 3)

    def test_adversarial_instance_goes_to_the_unique_fast_machine(self):
        m, alpha = 3, Fraction(1)
        inst = Instance([1] * (m - 1) + [m], [m * alpha] * (m - 1) + [alpha])
        loads = vcg_allocate(inst).workloads
        assert loads == (0, 0, 2 * m - 1)
        assert makespan(loads, inst.bids) == (2 * m - 1) * alpha


class TestOptMakespan:
    def test_small_examples(self):
        _, mk = opt_makespan(Instance((2, 1), (1, 2)))
        assert mk == 2
        _, mk = opt_makespan(Instance((1, 1, 3), (3, 3, 1)))
        assert mk == 3
        b = Fraction(4, 3)
        _, mk = opt_makespan(Instance((2, 1), (b,)))
        assert mk == 3 * b

    def test_exhaustive_reference_on_random_instances(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = sample_instance(rng, m_max=3, n_max=5)
            _, mk = opt_makespan(inst)
            brute = min(
                makespan(
                    [
                        sum(
                            (inst.jobs[j] for j in range(inst.n) if combo[j] == i),
                            Fraction(0),
                        )
                        for i in range(inst.m)
                    ],
                    inst.bids,
                )
                for combo in itertools.product(range(inst.m), repeat=inst.n)
            )
            assert mk == brute

    def test_never_beaten_by_other_rules(self):
        rng = random.Random(11)
        for _ in range(30):
            inst = sample_instance(rng, m_max=3, n_max=5)
            _, opt = opt_makespan(inst)
            assert opt <= makespan(lpt_star(inst), inst.bids)
            assert opt <= makespan(vcg_allocate(inst), inst.bids)

    def test_returns_the_same_optimum_as_the_greedy_seeded_reference(self):
        # Which optimal assignment comes back decides the opt rule's
        # workloads, so ties must resolve as before: bids often tie or sit
        # at powers of two, and jobs often repeat.
        rng = random.Random("opt-makespan")
        bid_pool = [Fraction(1), Fraction(2), Fraction(4), Fraction(3, 2), Fraction(5, 3)]
        job_pool = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]
        for _ in range(300):
            m = rng.randint(1, 5)
            jobs = [rng.choice(job_pool[: rng.randint(1, 4)]) for _ in range(rng.randint(1, 8))]
            inst = Instance(jobs, [rng.choice(bid_pool) for _ in range(m)])
            assert opt_makespan(inst) == reference_opt_makespan(inst), inst.to_json_dict()

    def test_integer_search_matches_the_fraction_search(self):
        # Loads and speeds are rescaled to ints, so every key, signature,
        # water level and prune must compare as the Fraction ones did.
        rng = random.Random("opt-makespan-ints")
        extremes = [Fraction(10 ** 12, 7), Fraction(1, 10 ** 9), Fraction(10 ** 9 + 1, 3)]

        def bid():
            kind = rng.randrange(5)
            if kind == 0:  # at a power of two, or just either side of it
                step = rng.choice((0, 0, 1, -1)) * Fraction(1, 2 ** rng.randint(2, 9))
                return Fraction(2) ** rng.randint(-4, 5) * (1 + step)
            if kind == 1:
                return Fraction(rng.randint(1, 12), rng.randint(1, 7))
            if kind == 2:
                return rng.choice(extremes)
            return Fraction(rng.randint(1, 4))

        def job():
            if rng.random() < 0.1:
                return rng.choice(extremes)
            return Fraction(rng.randint(1, 9), rng.randint(1, 7))

        for _ in range(600):
            m, n = rng.randint(1, 5), rng.randint(1, 8)
            bids = [bid() for _ in range(m)]
            if m > 1 and rng.random() < 0.4:
                bids[rng.randrange(m)] = bids[rng.randrange(m)]  # a tie
            jobs = [job() for _ in range(n)]
            if n > 1 and rng.random() < 0.4:
                jobs[rng.randrange(n)] = jobs[rng.randrange(n)]
            inst = Instance(jobs, bids)
            assert opt_makespan(inst) == fraction_opt_makespan(inst), inst.to_json_dict()

    def test_budget_guard(self):
        inst = Instance([1] * 12, [1] * 4)
        with pytest.raises(BudgetExceeded):
            opt_makespan(inst, budget=1000)


class TestTwoMachineOpt:
    def test_examples(self):
        assert two_machine_opt(Instance((2, 1), (1, 2))).workloads == (2, 1)
        assert two_machine_opt(Instance((1, 1), (1, 1))).workloads == (1, 1)
        assert two_machine_opt(Instance((3,), (1, 5))).workloads == (3, 0)

    def test_requires_two_machines(self):
        with pytest.raises(DomainError):
            two_machine_opt(Instance((1,), (1, 1, 1)))

    def test_matches_enumeration_on_makespan_then_running_time(self):
        rng = random.Random(3)
        for _ in range(60):
            inst = sample_instance(rng, m_min=2, m_max=2, n_max=6)
            loads = two_machine_opt(inst).workloads
            keys = []
            for combo in itertools.product((0, 1), repeat=inst.n):
                w0 = sum(
                    (inst.jobs[j] for j in range(inst.n) if combo[j] == 0),
                    Fraction(0),
                )
                w1 = inst.total_length - w0
                keys.append(
                    (
                        max(w0 * inst.bids[0], w1 * inst.bids[1]),
                        w0 * inst.bids[0] + w1 * inst.bids[1],
                        (w0, w1),
                    )
                )
            best = min(keys)
            assert max(loads[0] * inst.bids[0], loads[1] * inst.bids[1]) == best[0]
            if inst.bids[0] != inst.bids[1]:
                # unique workload vector at distinct bids
                assert loads == best[2]

    def test_splits_where_all_to_fastest_would_not(self):
        inst = Instance((2, 1), (1, Fraction(3, 2)))
        assert two_machine_opt(inst).workloads == (2, 1)
        assert vcg_allocate(inst).workloads == (3, 0)


class TestScalability:
    def test_vcg_and_two_machine_opt_are_scale_invariant(self):
        rng = random.Random(9)
        for _ in range(20):
            inst = sample_instance(rng, m_min=2, m_max=2, n_max=5)
            for c in (2, Fraction(1, 3), Fraction(7, 5)):
                assert (
                    two_machine_opt(inst.scaled(c)).workloads
                    == two_machine_opt(inst).workloads
                )
                assert (
                    vcg_allocate(inst.scaled(c)).workloads
                    == vcg_allocate(inst).workloads
                )

    def test_rounding_breaks_scale_invariance(self):
        inst = Instance((2, 1), (3, 8))
        scaled = inst.scaled(Fraction(2, 3))
        assert lpt_star(inst).workloads != lpt_star(scaled).workloads
