import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schedmech import core, properties

from schedmech.allocations import (
    at_fractional,
    lpt_star,
    opt_makespan,
    two_machine_opt,
    vcg_allocate,
)
from schedmech.core import Assignment, DomainError, Instance, makespan
from schedmech.payments import (
    Mechanism,
    extract_h,
    vcg_mechanism,
    vcg_payments,
)
from schedmech.properties import (
    approx_ratio,
    check_anonymous,
    check_envy_free,
    check_ir,
    check_local_efficiency,
    check_monotone,
    check_scalable,
    check_truthful,
)
from schedmech.sampling import sample_instance

from specimens import bid_proportional_mechanism
from test_deviation_oracle import grid_bids

F = Fraction


class SlowestTakesAll:
    """Counterexample rule: everything to the highest bidder."""

    name = "slowest-takes-all"
    scalable = True

    def __call__(self, instance):
        loser = max(range(instance.m), key=lambda i: (instance.bids[i], -i))
        return Assignment.from_map(instance, [loser] * instance.n)


class TestLocalEfficiency:
    def test_greedy_output_passes(self):
        assert check_local_efficiency((2, 8), (3, 0)).passed

    def test_fail_carries_both_dot_products(self):
        verdict = check_local_efficiency((1, 2), (1, 2))
        assert not verdict.passed
        ce = verdict.counterexample
        assert (ce.lhs, ce.rhs) == (5, 4)
        assert ce.violation_holds()

    def test_equal_workloads_pass_for_any_bids(self):
        assert check_local_efficiency((5, 1, 3), (2, 2, 2)).passed

    def test_unequal_lengths_are_refused(self):
        with pytest.raises(DomainError, match="^bids and workloads must have equal length$"):
            check_local_efficiency((1, 2), (1, 2, 3))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_pairwise_matches_permutation_enumeration(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 6)
        bids = [F(rng.randint(1, 10), rng.choice((1, 2))) for _ in range(m)]
        workloads = [F(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(m)]
        pairwise = check_local_efficiency(bids, workloads)
        base = sum(b * w for b, w in zip(bids, workloads))
        brute = all(
            sum(bids[i] * workloads[p] for i, p in enumerate(perm)) >= base
            for perm in itertools.permutations(range(m))
        )
        assert pairwise.passed == brute

    def test_seven_machines_report_the_pairwise_counterexample(self):
        verdict = check_local_efficiency((1, 2, 3, 4, 5, 6, 7), (0, 1, 0, 0, 0, 0, 0))
        ce = verdict.counterexample
        assert ce.description == "slower machine carries more workload"
        assert (ce.lhs, ce.relation, ce.rhs) == (1, "<=", 0)
        assert ce.context == {"i": 1, "k": 0, "bid_i": "2", "bid_k": "1"}

    def test_six_machines_report_the_permutation_counterexample(self):
        verdict = check_local_efficiency((1, 2, 3, 4, 5, 6), (0, 1, 0, 0, 0, 0))
        ce = verdict.counterexample
        assert ce.description == "a permutation of the bundles lowers the total running time"
        assert (ce.lhs, ce.relation, ce.rhs) == (2, "<=", 1)
        assert ce.context == {"permutation": [1, 0, 2, 3, 4, 5]}

    def test_permutation_cross_check_catches_a_wrong_pairwise_verdict(self, monkeypatch):
        monkeypatch.setattr(properties, "local_efficiency_violation", lambda b, w: None)
        with pytest.raises(AssertionError, match="disagree"):
            check_local_efficiency((1, 2), (1, 2))


class TestEnvyFree:
    def test_chain_example(self):
        assert check_envy_free((2, 1), (1, 2), (2, 3)).passed

    def test_pivot_example_tight_at_zero(self):
        assert check_envy_free((1, 3), (3, 0), (9, 0)).passed

    def test_zero_payments_with_unequal_workloads_fail(self):
        verdict = check_envy_free((1, 2), (3, 0), (0, 0))
        assert not verdict.passed
        assert verdict.counterexample.violation_holds()

    def test_misaligned_vectors_are_refused(self):
        with pytest.raises(DomainError, match="^bids, workloads and payments must align$"):
            check_envy_free((1, 2), (3, 0), (0,))


class TestIr:
    def test_examples(self):
        assert check_ir((2, 1), (1, 2), (2, 3)).passed
        assert check_ir((2, 1), (0, 0), (0, 0)).passed
        assert not check_ir((2,), (1,), (1,)).passed

    @pytest.mark.parametrize("bids, workloads, payments", [
        ((1, 2), (1,), (1,)),  # once an IndexError
        ((1,), (1, 2), (5, 0)),  # once a silent pass
    ])
    def test_misaligned_vectors_are_refused(self, bids, workloads, payments):
        with pytest.raises(DomainError, match="^bids, workloads and payments must align$"):
            check_ir(bids, workloads, payments)


class TestTruthful:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_pivot_mechanism_on_random_instances(self, seed):
        inst = sample_instance(random.Random(seed), m_max=3, n_max=4)
        assert check_truthful(vcg_mechanism, inst).passed

    def test_bid_proportional_greedy_is_manipulable(self):
        mech = bid_proportional_mechanism(lpt_star)
        inst = Instance((2, 1), (3, 8))
        verdict = check_truthful(mech, inst)
        assert not verdict.passed
        ce = verdict.counterexample
        # overbidding within the same rounded-speed class raises the payment
        assert ce.context["machine"] == 0
        assert ce.violation_holds()

    def test_single_machine_constant_payment_is_truthful(self):
        # with one machine the workload is pinned at L, so the truthful
        # payment identity degenerates to a bid-independent constant; a
        # bid-proportional payment would invite unbounded overbidding
        pay_constant = Mechanism(
            "pay-constant", vcg_allocate, lambda inst, alloc: (F(10),)
        )
        inst = Instance((2, 1), (F(7, 3),))
        assert check_truthful(pay_constant, inst).passed
        pay_reported_cost = bid_proportional_mechanism(vcg_allocate)
        assert not check_truthful(pay_reported_cost, inst).passed


class TestMonotone:
    def test_greedy_rule_response_steps_down(self):
        inst = Instance((2, 1), (1, 8))
        grid = [F(j, 2) for j in range(1, 41)]
        assert check_monotone(lpt_star, inst, grid).passed

    def test_all_to_fastest_is_monotone(self):
        inst = Instance((2, 1), (1, 2))
        assert check_monotone(vcg_allocate, inst).passed

    def test_rule_rewarding_high_bids_fails(self):
        inst = Instance((2, 1), (1, 2))
        verdict = check_monotone(SlowestTakesAll(), inst)
        assert not verdict.passed
        assert verdict.counterexample.violation_holds()


class TestAnonymous:
    def test_pivot_mechanism_is_anonymous(self):
        inst = Instance((2, 1), (1, 3))
        assert check_anonymous(vcg_mechanism, inst).passed

    def test_bare_rules_are_accepted(self):
        inst = Instance((2, 1), (1, 3))
        assert check_anonymous(vcg_allocate, inst).passed
        assert check_anonymous(two_machine_opt, inst).passed

    def test_index_bonus_breaks_payment_anonymity(self):
        biased = Mechanism(
            "biased",
            vcg_allocate,
            lambda inst, alloc: tuple(
                p + (1 if i == 0 else 0)
                for i, p in enumerate(vcg_payments(inst, alloc))
            ),
        )
        verdict = check_anonymous(biased, Instance((2, 1), (1, 3)))
        assert not verdict.passed

    def test_single_machine_vacuous(self):
        assert check_anonymous(vcg_mechanism, Instance((2, 1), (1,))).passed

    def test_equal_bids_vacuous(self):
        assert check_anonymous(vcg_mechanism, Instance((2, 1), (2, 2))).passed


class TestScalable:
    def test_two_machine_opt_and_vcg(self):
        inst = Instance((2, 1), (1, F(3, 2)))
        scalars = (2, F(1, 3), F(7, 5))
        assert check_scalable(two_machine_opt, inst, scalars).passed
        assert check_scalable(vcg_allocate, inst, scalars).passed

    def test_rounding_rule_fails_at_two_thirds(self):
        inst = Instance((2, 1), (3, 8))
        verdict = check_scalable(lpt_star, inst, (F(2, 3),))
        assert not verdict.passed
        assert verdict.counterexample.context["scale"] == "2/3"


class TestApproxRatio:
    def test_adversarial_instance_ratio(self):
        m, alpha = 3, F(1)
        inst = Instance([1] * (m - 1) + [m], [m * alpha] * (m - 1) + [alpha])
        assert approx_ratio(vcg_allocate, inst) == F(5, 3)

    def test_single_machine_is_always_optimal(self):
        inst = Instance((2, 1), (F(9, 4),))
        assert approx_ratio(lpt_star, inst) == 1

    def test_greedy_on_tiny_instance_is_optimal(self):
        # greedy assigns (2,1) against bids (1,2): workloads (2,1), which is
        # optimal here (enumeration gives makespan 2 for both)
        inst = Instance((2, 1), (1, 2))
        assert approx_ratio(lpt_star, inst) == 1

    def test_greedy_seven_sixths_instance(self):
        inst = Instance((3, 3, 2, 2, 2), (1, 1))
        assert approx_ratio(lpt_star, inst) == F(7, 6)

    def test_expected_workloads_have_no_ratio(self):
        # their makespan is no schedule's: here 256/259 of the optimum
        inst = Instance((20, 19, 18, 4, 3), (F(16, 3), 4))
        assert makespan(at_fractional(inst), inst.bids) / opt_makespan(inst)[1] == F(256, 259)
        with pytest.raises(DomainError, match="^at-expected returns expected workloads, not an assignment"):
            approx_ratio(at_fractional, inst)


class TestGridAndConsistency:
    def test_default_grid_spans_and_includes_bids(self):
        inst = Instance((2, 1), (3, 8))
        grid = grid_bids(inst)
        assert 3 in grid and 8 in grid
        assert max(grid) == 64 and min(grid) == 1

    @staticmethod
    def set_and_sort_grid(instance, points):
        """The grid as first written: a set of the steps and bids, sorted."""
        scale = max(instance.bids)
        grid = {scale * F(j, 8) for j in range(1, points + 1)}
        grid.update(instance.bids)
        return tuple(sorted(grid))

    def test_default_grid_equals_set_and_sort_oracle(self, monkeypatch):
        rng = random.Random(13)
        for trial in range(300):
            m = rng.randint(1, 5)
            scale = F(rng.randint(1, 24), rng.randint(1, 6))
            bids = []
            for _ in range(m):
                kind = rng.randrange(3)
                if kind == 0:  # on a grid point (j/8 of the scale, j up to 72)
                    bids.append(scale * F(rng.randint(1, 72), 8))
                elif kind == 1 and bids:  # a duplicate
                    bids.append(rng.choice(bids))
                else:
                    bids.append(F(rng.randint(1, 40), rng.randint(1, 7)))
            inst = Instance((3, 1), bids)
            for points in (0, 1, 7, 8, 20, 64, 65):
                monkeypatch.setattr(core, "GRID_STEPS", points)
                assert tuple(grid_bids(inst)) == self.set_and_sort_grid(inst, points), (bids, points)
                denominator, grid = inst.deviation_grid()
                assert all(type(p) is int for p in grid)
                assert all(denominator % b.denominator == 0 for b in inst.bids)

    def test_grid_truthful_mechanism_has_probe_invariant_term(self):
        # consistency between the grid checker and term extraction
        inst = Instance((2, 1), (2, 5))
        assert check_truthful(vcg_mechanism, inst).passed
        for probe in (F(1, 2), 1, 3, 7):
            assert extract_h(vcg_mechanism, (2, 1), (5,), probe) == 3 * 5
