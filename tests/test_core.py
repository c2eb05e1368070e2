from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schedmech.core import (
    Assignment,
    DimensionMismatch,
    DomainError,
    ExpectedAllocation,
    Instance,
    Outcome,
    ceil_log2,
    makespan,
    rat,
    rat_str,
    rounded_speed,
    utility,
)

positive_fractions = st.fractions(
    min_value=Fraction(1, 64), max_value=64, max_denominator=64
)


class TestRat:
    def test_parses_integer_fraction_and_decimal_strings(self):
        assert rat("3") == 3
        assert rat("3/4") == Fraction(3, 4)
        assert rat("0.25") == Fraction(1, 4)
        assert rat(Fraction(7, 2)) == Fraction(7, 2)
        assert rat(5) == 5

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(DomainError):
            rat(0.1)
        with pytest.raises(DomainError):
            rat("abc")
        with pytest.raises(DomainError):
            rat("1/0")
        with pytest.raises(DomainError):
            rat(True)

    def test_rat_str_roundtrip(self):
        for text in ("3", "3/4", "-7/5", "0"):
            assert rat_str(rat(text)) == text


class TestRoundedSpeed:
    def test_examples(self):
        assert rounded_speed(8) == 8  # exact power of two
        assert rounded_speed(3) == 4  # 2 < 3 <= 4
        assert rounded_speed(Fraction(3, 8)) == Fraction(1, 2)  # 1/4 < 3/8 <= 1/2

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            rounded_speed(0)
        with pytest.raises(DomainError):
            rounded_speed(Fraction(-1, 2))

    @given(positive_fractions)
    def test_ratio_in_unit_to_two(self, b):
        s = rounded_speed(b)
        assert 1 <= s / b < 2

    @given(positive_fractions, positive_fractions)
    def test_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert rounded_speed(lo) <= rounded_speed(hi)

    @given(st.integers(min_value=-20, max_value=20))
    def test_fixed_points_are_powers_of_two(self, e):
        p = Fraction(2) ** e
        assert rounded_speed(p) == p
        assert ceil_log2(p) == e


class TestInstance:
    def test_sorts_jobs_nonincreasing(self):
        inst = Instance((1, 3, 2), (1,))
        assert inst.jobs == (3, 2, 1)
        assert inst.total_length == 6

    def test_validation(self):
        with pytest.raises(DomainError):
            Instance((), (1,))
        with pytest.raises(DomainError):
            Instance((1,), ())
        with pytest.raises(DomainError):
            Instance((0,), (1,))
        with pytest.raises(DomainError):
            Instance((1,), (0,))

    def test_with_bid_and_scaled(self):
        inst = Instance((2, 1), (1, 2))
        assert inst.with_bid(0, 5).bids == (5, 2)
        assert inst.scaled(Fraction(1, 2)).bids == (Fraction(1, 2), 1)
        assert inst.with_swapped_bids(0, 1).bids == (2, 1)

    @pytest.mark.parametrize("bid", [0, -1, Fraction(-1, 2), "0", 0.5, True, False])
    def test_with_bid_rejects_bad_bids(self, bid):
        inst = Instance((2, 1), (1, 2))
        with pytest.raises(DomainError):
            inst.with_bid(1, bid)

    def test_derived_instances_equal_fresh_ones(self):
        inst = Instance((1, Fraction(5, 2), 2), (Fraction(3, 4), 2, 1))
        assert inst.total_length == Fraction(11, 2)  # cached before deriving
        derived = [
            (inst.with_bid(0, "7/3"), (Fraction(7, 3), 2, 1)),
            (inst.with_bid(2, 5), (Fraction(3, 4), 2, 5)),
            (inst.with_swapped_bids(0, 2), (1, 2, Fraction(3, 4))),
            (inst.scaled(Fraction(2, 3)), (Fraction(1, 2), Fraction(4, 3), Fraction(2, 3))),
        ]
        for got, bids in derived:
            fresh = Instance((1, Fraction(5, 2), 2), bids)
            assert got == fresh
            assert hash(got) == hash(fresh)
            assert got.jobs == fresh.jobs and got.bids == fresh.bids
            assert all(type(b) is Fraction for b in got.bids)
            assert got.total_length == fresh.total_length

    def test_json_roundtrip_rejects_floats(self):
        inst = Instance((2, 1), (Fraction(1, 3), 2))
        again = Instance.from_json_dict(inst.to_json_dict())
        assert again == inst
        with pytest.raises(DomainError):
            Instance.from_json_dict({"jobs": [2.0], "bids": ["1"]})


class TestAssignment:
    def test_workloads_derived(self):
        inst = Instance((2, 1), (1, 2))
        a = Assignment.from_map(inst, (0, 0))
        assert a.workloads == (3, 0)
        assert a.machine_jobs(0) == (0, 1)

    @given(st.data())
    def test_conservation(self, data):
        jobs = data.draw(st.lists(positive_fractions, min_size=1, max_size=6))
        m = data.draw(st.integers(min_value=1, max_value=4))
        mapping = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=m - 1),
                min_size=len(jobs),
                max_size=len(jobs),
            )
        )
        inst = Instance(jobs, [1] * m)
        a = Assignment.from_map(inst, mapping)
        assert sum(a.workloads) == inst.total_length

    def test_bad_machine_index(self):
        inst = Instance((1,), (1, 1))
        with pytest.raises(DomainError):
            Assignment.from_map(inst, (2,))


class TestExpectedAllocation:
    def test_distributions_must_sum_to_one(self):
        inst = Instance((2, 1), (1, 1))
        with pytest.raises(DomainError):
            ExpectedAllocation.from_distributions(
                inst, [{0: Fraction(1, 2)}, {0: Fraction(1)}]
            )

    def test_expected_workloads(self):
        inst = Instance((2, 1), (1, 1))
        e = ExpectedAllocation.from_distributions(
            inst, [{0: Fraction(1, 2), 1: Fraction(1, 2)}, {1: Fraction(1)}]
        )
        assert e.expected_workloads == (1, 2)
        assert sum(e.expected_workloads) == inst.total_length


class TestMakespan:
    def test_examples(self):
        assert makespan((3, 0), (1, 2)) == 3
        # max(2*1, 1*2) = 2
        assert makespan((2, 1), (1, 2)) == 2
        # all short jobs on fast-ish machines, long job on the slow one
        assert makespan((1, 1, 3), (3, 3, 1)) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            makespan((1, 2), (1,))

    @given(
        st.lists(positive_fractions, min_size=1, max_size=5),
        st.lists(positive_fractions, min_size=5, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_relabel_invariance(self, loads, speeds, rng):
        speeds = speeds[: len(loads)]
        perm = list(range(len(loads)))
        rng.shuffle(perm)
        assert makespan(loads, speeds) == makespan(
            [loads[p] for p in perm], [speeds[p] for p in perm]
        )


def test_utility_examples():
    assert utility(2, 1, 2) == 0
    assert utility(3, 1, 2) == 1
    assert utility(9, 3, 0) == 9
    assert utility(1, 2, 2) == -3  # may go negative


def test_outcome_requires_matching_payment_vector():
    inst = Instance((1,), (1, 1))
    a = Assignment.from_map(inst, (0,))
    with pytest.raises(DimensionMismatch):
        Outcome(a, (Fraction(1),))
