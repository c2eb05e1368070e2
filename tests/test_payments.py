import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schedmech.allocations import lpt_star, vcg_allocate
from schedmech.core import Assignment, DomainError, Instance
from schedmech.payments import (
    HFunction,
    Mechanism,
    NotTruthfulEvidence,
    ef_chain_mechanism,
    ef_chain_payments,
    extract_h,
    truthful_payment,
    vcg_mechanism,
    vcg_payments,
)
from schedmech.properties import check_envy_free, check_ir
from schedmech.workcurve import CurveResolutionError, WorkCurve, build_workcurve, integrate

from specimens import bid_proportional_mechanism, sample_locally_efficient
from test_curve_points_oracle import parent_build_workcurve

F = Fraction


class TestEfChainPayments:
    def test_two_machine_chain(self):
        payments = ef_chain_payments((2, 1), (1, 2))
        assert payments == (2, 3)
        assert check_envy_free((2, 1), (1, 2), payments).passed

    def test_three_machine_chain(self):
        payments = ef_chain_payments((3, 2, 1), (0, 1, 3))
        assert payments == (0, 2, 4)
        assert check_envy_free((3, 2, 1), (0, 1, 3), payments).passed

    def test_equal_workloads_pay_top_bid_times_load(self):
        payments = ef_chain_payments((5, 2, 3), (4, 4, 4))
        assert payments == (20, 20, 20)

    def test_rejects_non_locally_efficient_workloads(self):
        with pytest.raises(DomainError, match="^chain payments require locally efficient workloads$"):
            ef_chain_payments((1, 2), (1, 2))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(DomainError, match="^bids and workloads must have equal length$"):
            ef_chain_payments((2, 1), (1,))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_chain_is_always_envy_free(self, seed):
        bids, workloads = sample_locally_efficient(random.Random(seed))
        payments = ef_chain_payments(bids, workloads)
        assert check_envy_free(bids, workloads, payments).passed


class TestTruthfulPayment:
    def test_all_to_fastest_clarke_pivot_value(self):
        curve = WorkCurve((F(1),), (F(3),), F(0))
        assert truthful_payment(3, F(1, 2), 3, curve) == 3

    def test_tight_term_beyond_support_pays_nothing(self):
        curve = WorkCurve((F(1),), (F(3),), F(0))
        assert truthful_payment(3, 2, 0, curve) == 0

    def test_constant_region_pays_the_term_itself(self):
        curve = WorkCurve((F(5),), (F(4),), F(0))
        assert truthful_payment(F(7, 3), 2, 4, curve) == F(7, 3)

    def test_approximate_curve_is_refused(self):
        curve = WorkCurve((F(1),), (F(3),), F(0), approximate=True)
        with pytest.raises(CurveResolutionError):
            truthful_payment(3, F(1, 2), 3, curve)

    def test_workload_must_match_curve(self):
        curve = WorkCurve((F(1),), (F(3),), F(0))
        with pytest.raises(DomainError, match="^curve value 3 at bid 1/2 does not match workload 2$"):
            truthful_payment(3, F(1, 2), 2, curve)


class TestVcgPayments:
    def test_two_machine_pivot(self):
        inst = Instance((2, 1), (1, 3))
        payments = vcg_payments(inst, vcg_allocate(inst))
        assert payments == (9, 0)
        workloads = vcg_allocate(inst).workloads
        assert check_envy_free(inst.bids, workloads, payments).passed
        assert check_ir(inst.bids, workloads, payments).passed

    def test_symmetry(self):
        inst = Instance((2, 1), (3, 1))
        assert vcg_payments(inst, vcg_allocate(inst)) == (0, 9)

    def test_tie_break_winner_paid_own_class_bid(self):
        inst = Instance((2, 1), (2, 2))
        assert vcg_payments(inst, vcg_allocate(inst)) == (6, 0)

    def test_single_machine_paid_at_cost(self):
        inst = Instance((2, 1), (F(5, 2),))
        assert vcg_payments(inst, vcg_allocate(inst)) == (F(15, 2),)

    def test_rejects_foreign_assignment(self):
        inst = Instance((2, 1), (1, 3))
        from schedmech.core import Assignment

        other = Assignment.from_map(inst, (1, 1))
        with pytest.raises(DomainError):
            vcg_payments(inst, other)

    def test_rejects_work_on_the_second_tied_lowest_bidder(self):
        inst = Instance((2, 1), (1, 1, 3))
        with pytest.raises(DomainError):
            vcg_payments(inst, Assignment.from_map(inst, (1, 1)))

    def test_rejects_split_work(self):
        inst = Instance((2, 1), (1, 3))
        with pytest.raises(DomainError):
            vcg_payments(inst, Assignment.from_map(inst, (0, 1)))
        with pytest.raises(DomainError):
            vcg_payments(inst, Assignment.from_map(inst, (1, 0)))


class _Threshold:
    """All work to machine 0 while its bid is below the threshold."""

    def __init__(self, threshold):
        self.threshold = threshold

    def __call__(self, instance):
        target = 0 if instance.bids[0] < self.threshold else 1
        return Assignment.from_map(instance, [target] * instance.n)

    def region_points(self, instance, machine, cap):
        return (self.threshold,)


class _IrrationalThreshold:
    """All work to machine 0 iff b0 < sqrt(2)*b1: a jump at no rational bid."""

    def __call__(self, instance):
        b0, b1 = instance.bids
        target = 0 if b0 * b0 < 2 * b1 * b1 else 1
        return Assignment.from_map(instance, [target] * instance.n)


class TestExtractH:
    def test_irrational_jump_raises_instead_of_an_inexact_term(self):
        # The discovery oracle cannot place the jump at sqrt(2) and flags
        # the curve approximate (its best-effort breakpoint is 13/8); h read
        # off it would be 39/8, which no exact integral gives.  The package
        # refuses the rule, which declares no region points.
        zero = Mechanism("sqrt2", _IrrationalThreshold(), lambda inst, alloc: (F(0),) * inst.m)
        curve = parent_build_workcurve(zero.rule, (1,), (2, 1), 12)
        assert curve.approximate
        with pytest.raises(CurveResolutionError):
            integrate(curve, 0, 3)
        with pytest.raises(DomainError, match="declares no region_points"):
            extract_h(zero, (2, 1), (1,), 3)

    def test_a_jump_2_to_the_minus_70_past_a_bid_is_placed_exactly(self):
        # All work to machine 0 iff b0 < b1 + 1/(2^70 + 1), paid that
        # threshold times the total length: a truthful mechanism.  The
        # probing discovery read the jump at 1 against b1 = 1, unflagged,
        # and extract_h raised NotTruthfulEvidence at probes 1/2 and 3.
        eps = F(1, 2 ** 70 + 1)

        class NearThreshold:
            def __call__(self, instance):
                b0, b1 = instance.bids
                return Assignment.from_map(instance, [0 if b0 < b1 + eps else 1] * instance.n)

            def region_points(self, instance, machine, cap):
                b = instance.bids[1 - machine]
                return (b + eps if machine == 0 else b - eps,)

        def pay(instance, allocation):
            return (instance.total_length * (instance.bids[1] + eps) if allocation.workloads[0] else F(0), F(0))

        mechanism = Mechanism("near-threshold", NearThreshold(), pay)
        curve = build_workcurve(mechanism.rule, (1,), (2, 1), 8)
        assert (curve.breakpoints, curve.values, curve.tail) == ((1 + eps,), (3,), 0)
        assert extract_h(mechanism, (2, 1), (1,), F(1, 2), 3) == 3 * (1 + eps)

    def test_probe_invariant_on_all_to_fastest(self):
        assert extract_h(vcg_mechanism, (2, 1), (2,), 1) == 6
        assert extract_h(vcg_mechanism, (2, 1), (2,), F(1, 2)) == 6
        assert extract_h(vcg_mechanism, (2, 1), (2,), 1, F(1, 2)) == 6

    @settings(max_examples=30, deadline=None)
    @given(
        st.fractions(min_value=F(1, 4), max_value=8, max_denominator=12),
        st.fractions(min_value=F(1, 8), max_value=1, max_denominator=12),
        st.fractions(min_value=F(1, 8), max_value=1, max_denominator=12),
    )
    def test_term_is_total_length_times_competitor(self, a, f1, f2):
        # probes above and below the competitor's bid must agree
        probes = {a * f1, a * f2, a * 2, a * 3}
        for probe in probes:
            assert extract_h(vcg_mechanism, (2, 1), (a,), probe) == 3 * a

    def test_constant_payments_yield_probe_disagreement(self):
        flat = Mechanism(
            "flat", vcg_allocate, lambda inst, alloc: (F(1),) * inst.m
        )
        with pytest.raises(NotTruthfulEvidence) as exc:
            extract_h(flat, (2, 1), (2,), 1, 4)
        evidence = exc.value
        assert evidence.h_a != evidence.h_b
        assert {evidence.probe_a, evidence.probe_b} == {1, 4}

    def test_curve_cache_never_serves_a_freed_rules_curve(self):
        def h_of(rule):
            zero = Mechanism("threshold", rule, lambda inst, alloc: (F(0),) * inst.m)
            return extract_h(zero, (2, 1), (4,), 8)

        rule_a = _Threshold(F(1))
        assert h_of(rule_a) == 3
        alive = weakref.ref(rule_a)
        freed_id = id(rule_a)
        two = F(2)
        del rule_a
        gc.collect()
        # The cache must not keep a rule alive.
        assert alive() is None
        # A is gone, so CPython may hand its id to a new object:
        # allocate rules until B carries A's old id.
        rule_b = _Threshold(two)
        spares = []
        while id(rule_b) != freed_id and len(spares) < 100_000:
            spares.append(rule_b)
            rule_b = _Threshold(two)
        if id(rule_b) != freed_id:
            pytest.skip("CPython did not reuse the freed rule's id")
        assert h_of(rule_b) == 6

    def test_probe_must_be_positive(self):
        with pytest.raises(DomainError):
            extract_h(vcg_mechanism, (2, 1), (2,), 0)
        with pytest.raises(DomainError):
            extract_h(vcg_mechanism, (2, 1), (2,), 1, 0)

    def test_needs_a_probe(self):
        with pytest.raises(DomainError):
            extract_h(vcg_mechanism, (2, 1), (2,))

    def test_needs_a_competitor(self):
        with pytest.raises(DomainError, match="^h needs at least one competitor bid$"):
            extract_h(vcg_mechanism, (2, 1), (), 1)


class TestHFunction:
    def test_repeated_calls_match_direct_extraction(self):
        h = HFunction(vcg_mechanism, (F(2), F(1)))
        assert h((2,)) == 6
        assert h((2,)) == 6

    def test_needs_a_competitor(self):
        h = HFunction(vcg_mechanism, (F(2), F(1)))
        with pytest.raises(DomainError, match="^h needs at least one competitor bid$"):
            h(())

    def test_one_curve_per_competitor_profile(self, monkeypatch):
        built = []

        def counting_build(*args, **kwargs):
            built.append(args)
            return build_workcurve(*args, **kwargs)

        monkeypatch.setattr("schedmech.payments.build_workcurve", counting_build)
        h = HFunction(vcg_mechanism, (2, 1))
        assert h((F(7, 3),)) == 7
        assert len(built) == 1
        assert h((F(7, 3),)) == 7
        assert len(built) == 2

    def test_ten_random_probe_pairs_agree(self):
        rng = random.Random(17)
        for _ in range(10):
            others = (F(rng.randint(2, 16), rng.choice((1, 2))),)
            probes = sorted(
                {F(rng.randint(1, 12), rng.randint(1, 8)) for _ in range(4)}
            )[:2]
            if len(probes) < 2:
                continue
            value = extract_h(vcg_mechanism, (2, 1), others, *probes)
            assert value == 3 * others[0]


class TestIrBoundOnTheAdditiveTerm:
    @settings(max_examples=25, deadline=None)
    @given(st.fractions(min_value=F(1, 4), max_value=8, max_denominator=12))
    def test_pivot_term_meets_the_full_integral(self, a):
        # an IR mechanism's additive term must cover the whole response
        # integral; for the all-to-fastest rule the two are equal
        h = extract_h(vcg_mechanism, (2, 1), (a,), a / 2)
        curve = build_workcurve(vcg_allocate, (a,), (2, 1), cap=4 * a)
        assert h >= integrate(curve, 0, None)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=F(1, 4), max_value=8, max_denominator=8),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.lists(
            st.fractions(min_value=0, max_value=6, max_denominator=6),
            min_size=4,
            max_size=4,
        ),
        st.fractions(min_value=0, max_value=5, max_denominator=6),
        st.fractions(min_value=F(1, 8), max_value=16, max_denominator=8),
    )
    def test_covering_term_keeps_truthful_utility_nonnegative(
        self, bps, raw_vals, slack, bid
    ):
        # workcurve values must be nonincreasing to model a monotone rule
        from schedmech.workcurve import WorkCurve, integrate

        bps = tuple(sorted(bps))
        vals = tuple(sorted(raw_vals[: len(bps)], reverse=True))
        curve = WorkCurve(bps, vals, F(0))
        h = integrate(curve, 0, None) + slack
        workload = curve.value_at(bid)
        payment = truthful_payment(h, bid, workload, curve)
        # truthful report: utility is h minus the integral up to the bid
        assert payment - bid * workload >= 0


class TestMechanismWrappers:
    def test_ef_chain_mechanism_is_envy_free_on_greedy_rule(self):
        mech = ef_chain_mechanism(lpt_star)
        inst = Instance((2, 1), (2, 8))
        outcome = mech.run(inst)
        assert check_envy_free(
            inst.bids, outcome.allocation.workloads, outcome.payments
        ).passed

    def test_bid_proportional_pays_cost(self):
        mech = bid_proportional_mechanism(lpt_star)
        inst = Instance((2, 1), (3, 8))
        outcome = mech.run(inst)
        assert outcome.payments == tuple(
            b * w for b, w in zip(inst.bids, outcome.allocation.workloads)
        )
