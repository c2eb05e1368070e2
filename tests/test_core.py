import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schedmech.core import (
    Assignment,
    DomainError,
    Instance,
    Outcome,
    ceil_log2,
    makespan,
    rat,
    rat_str,
    rounded_speed,
    utility,
)
from test_integer_kernels import reference_from_distributions


def reference_rat(value):
    """``rat`` as it was before ``"p"`` and ``"p/q"`` tokens were parsed
    with ``int()``, kept verbatim as the oracle of the fast path."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if "e" in value.lower():
                # Fraction("1e999999999") would compute 10**999999999.
                raise ValueError("exponent notation")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    raise DomainError(f"refusing inexact type {type(value).__name__!r}: {value!r}")


def _parsed(parse, text):
    """The value, or the DomainError text, of ``parse(text)``."""
    try:
        value = parse(text)
    except DomainError as exc:
        return "error", str(exc)
    return type(value), value

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

    def test_rejects_exponent_notation(self):
        for text in ("1e3", "2E-1"):
            with pytest.raises(DomainError):
                rat(text)

    @pytest.mark.parametrize("text", ["3/0", "1" * 4301, "1e5", "", "1/-2"])
    def test_bad_tokens_keep_their_error_text(self, text):
        with pytest.raises(DomainError) as info:
            rat(text)
        assert str(info.value) == f"cannot parse rational from {text!r}"
        assert _parsed(rat, text) == _parsed(reference_rat, text)

    @pytest.mark.parametrize("text", [
        "7", "-7/5", " +12/8 ", "\t0/3\n", "00012/0004", "9" * 4300, "٣", "٣/4", "\u00a03", "1/+2",
        "--3", "+-3", "3/", "/4", "3 / 4", "1_000", "1/2/3", "0x10", "²", "0.25", "-.5", "3/4.0"])
    def test_tokens_parse_or_fail_as_before(self, text):
        assert _parsed(rat, text) == _parsed(reference_rat, text)

    def test_seeded_tokens_parse_or_fail_as_before(self):
        rng = random.Random(29)
        alphabet = "0123456789" * 3 + "/+- ._e٣\t"
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            assert _parsed(rat, text) == _parsed(reference_rat, text), text

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
        assert inst._with_bids([b / 2 for b in inst.bids]).bids == (Fraction(1, 2), 1)
        assert inst._with_bids(inst.bids[::-1]).bids == (2, 1)

    @pytest.mark.parametrize("bid", [0, -1, Fraction(-1, 2), "0", 0.5, True, False])
    def test_with_bid_rejects_bad_bids(self, bid):
        inst = Instance((2, 1), (1, 2))
        with pytest.raises(DomainError):
            inst.with_bid(1, bid)

    def test_derived_instances_equal_fresh_ones(self):
        inst = Instance((1, Fraction(5, 2), 2), (Fraction(3, 4), 2, 1))
        assert inst.total_length == Fraction(11, 2)
        assert inst.scaled_jobs == (2, (5, 4, 2))
        assert (inst.bid_order, inst.bid_exponents) == ((0, 2, 1), (0, 1, 0))
        assert inst.scaled_bids == (4, [3, 8, 4])  # cached before any copy is built
        denominator, points = inst.deviation_grid(["7/3", 2, Fraction(1, 4), 2])
        # a grid check's copies: ``with_bid`` at a grid point's Fraction
        deviated = {bid: inst.with_bid(0, bid) for bid in (Fraction(p, denominator) for p in points)}
        derived = [
            (inst.with_bid(0, "7/3"), (Fraction(7, 3), 2, 1)),
            (inst.with_bid(2, 5), (Fraction(3, 4), 2, 5)),
            (inst._with_bids(inst.bids[::-1]), (1, 2, Fraction(3, 4))),
            (inst._with_bids([b * Fraction(2, 3) for b in inst.bids]),
             (Fraction(1, 2), Fraction(4, 3), Fraction(2, 3))),
            (deviated[Fraction(7, 3)], (Fraction(7, 3), 2, 1)),
            (deviated[2], (2, 2, 1)),
            (deviated[Fraction(1, 4)], (Fraction(1, 4), 2, 1)),
        ]
        for got, bids in derived:
            fresh = Instance((1, Fraction(5, 2), 2), bids)
            assert got == fresh
            assert hash(got) == hash(fresh)
            assert repr(got) == repr(fresh)
            assert got.jobs == fresh.jobs and got.bids == fresh.bids
            assert all(type(b) is Fraction for b in got.bids)
            assert got.total_length == fresh.total_length
            assert got.scaled_jobs == fresh.scaled_jobs
            # the job data is shared with the base, not computed again
            assert got.total_length is inst.total_length
            assert got.scaled_jobs is inst.scaled_jobs
            # the bid data is the copy's own, never the base's
            assert got.bid_order == fresh.bid_order
            assert got.bid_exponents == fresh.bid_exponents
            assert got.scaled_bids == fresh.scaled_bids
            assert got != inst  # equality reads the jobs and bids only
            # equality, hashing and repr ignore the bid data, read or not
            unread = Instance((1, Fraction(5, 2), 2), bids)
            assert (got == unread, hash(got), repr(got)) == (True, hash(unread), repr(unread))

    def test_deviation_runs_cut_the_sorted_grid_by_bid_order_and_exponent(self):
        inst = Instance((3, 1), (2, 2, Fraction(1, 2)))
        grid = ["3", 2, Fraction(1, 2), 2, 8, Fraction(1, 2)]  # unsorted, repeated
        denominator, points = cut = inst.deviation_grid(grid)
        # sorted, repeats kept, on one denominator that clears every bid
        assert (denominator, points) == (2, [1, 1, 4, 4, 6, 16])
        runs = list(inst.deviation_runs(cut, [4, 4, 1]))  # the bids over D
        # machine 0 bids 1/2 as machine 2 does, and goes first (the lower
        # index); 2 ties machine 1 and still goes first; 3 rounds to 4,
        # after machine 1; 8 rounds to 8
        assert [(machine, lo, hi) for machine, lo, hi, _ in runs][:4] == [(0, 0, 2), (0, 2, 4), (0, 4, 5), (0, 5, 6)]
        # machine 1 ties machine 0 at 2 and goes after it: 1/2 .. 2 is one run
        assert [(lo, hi) for machine, lo, hi, _ in runs if machine == 1] == [(0, 2), (2, 4), (4, 5), (5, 6)]
        for machine, lo, hi, bid_data in runs:
            for k in range(lo, hi):
                got = inst.with_bid(machine, Fraction(points[k], denominator))
                fresh = Instance(got.jobs, got.bids)
                # the run's bid data is the copy's, computed afresh
                assert (got.bid_order, got.bid_exponents) == (fresh.bid_order, fresh.bid_exponents) == bid_data
        # a bad bid raises before any run is cut, wherever it stands
        for bad in ([0], ["3/2", "5/4", -1, 3]):
            with pytest.raises(DomainError, match="^bids must be strictly positive$"):
                inst.deviation_grid(bad)
        # the default grid: j/8 of the largest bid for j = 1..64, which hold
        # the bids 1/2 = 4/8 and 2 = 16/8 already
        assert inst.deviation_grid() == (8, list(range(2, 130, 2)))
        assert list(inst.deviation_runs((2, []), [4, 4, 1])) == []

    def test_json_roundtrip_rejects_floats(self):
        inst = Instance((2, 1), (Fraction(1, 3), 2))
        again = Instance.from_json_dict(inst.to_json_dict())
        assert again == inst
        with pytest.raises(DomainError):
            Instance.from_json_dict({"jobs": [2.0], "bids": ["1"]})

    @pytest.mark.parametrize("obj, message", [
        ({"jobs": ["2", "1/x"], "bids": ["1"]}, "cannot parse rational from '1/x'"),
        ({"jobs": ["2"], "bids": ["1", "3e2"]}, "cannot parse rational from '3e2'"),
        ({"jobs": ["z"], "bids": ["y"]}, "cannot parse rational from 'z'"),  # jobs are read first
        ({"jobs": [2.0], "bids": ["1"]}, "instance JSON field 'jobs' contains a float; "
                                         "rationals must be strings or integers"),
        ({"jobs": ["1"]}, "instance JSON missing 'bids'"),
        ({"jobs": "1", "bids": ["1"]}, "instance JSON field 'jobs' must be a list"),
    ])
    def test_json_errors_name_the_bad_field_or_token(self, obj, message):
        with pytest.raises(DomainError) as info:
            Instance.from_json_dict(obj)
        assert str(info.value) == message


class TestAssignment:
    def test_workloads_derived(self):
        inst = Instance((2, 1), (1, 2))
        a = Assignment.from_map(inst, (0, 0))
        assert a.workloads == (3, 0)
        assert a.job_to_machine == (0, 0)

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
    # The earlier ``ExpectedAllocation.from_distributions``, now the oracle of
    # the binning rule's pour in tests/test_integer_kernels.py.
    def test_distributions_must_sum_to_one(self):
        inst = Instance((2, 1), (1, 1))
        with pytest.raises(DomainError):
            reference_from_distributions(
                inst, [{0: Fraction(1, 2)}, {0: Fraction(1)}]
            )

    def test_expected_workloads(self):
        inst = Instance((2, 1), (1, 1))
        e = reference_from_distributions(
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
        with pytest.raises(DomainError, match="^2 workloads vs 1 speeds$"):
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
    with pytest.raises(DomainError, match="^one payment per machine required$"):
        Outcome(a, (Fraction(1),))
