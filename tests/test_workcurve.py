import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from schedmech.allocations import (
    TWO_MACHINE_BUDGET,
    at_fractional,
    lpt_star,
    opt_rule,
    two_machine_opt,
    vcg_allocate,
)
from schedmech.core import Assignment, BudgetExceeded, DomainError, Instance, rat_str
from schedmech.workcurve import (
    MAX_REGIONS,
    CurvePiece,
    CurveResolutionError,
    LogLinearValue,
    WorkCurve,
    _fit_piece,
    _rational_roots,
    build_workcurve,
    expected_workcurve,
    integrate,
    ln_enclosure,
    piecewise_integral,
)

from test_curve_points_oracle import parent_build_workcurve

F = Fraction


def piecewise_value_at(pieces, x):
    """The value at x of the piece whose (lo, hi] covers it."""
    for p in pieces:
        if p.lo < x and (p.hi is None or x <= p.hi):
            return p.value_at(x)
    raise DomainError(f"{rat_str(x)} not covered by pieces")


class TestWorkCurveBasics:
    def curve(self):
        return WorkCurve((F(2), F(8), F(16)), (F(3), F(2), F(1)), F(0))

    def test_value_at_reads_from_the_right_at_breakpoints(self):
        c = self.curve()
        assert c.value_at(F(1)) == 3
        assert c.value_at(F(2)) == 2
        assert c.value_at(F(8)) == 1
        assert c.value_at(F(16)) == 0
        assert c.value_at(F(100)) == 0
        with pytest.raises(DomainError):
            c.value_at(0)

    def test_value_at_each_breakpoint_just_left_of_it_between_and_beyond(self):
        c = self.curve()
        after = c.values[1:] + (c.tail,)
        for bp, before, right in zip(c.breakpoints, c.values, after):
            assert c.value_at(bp) == right
            assert c.value_at(bp - F(1, 2 ** 70)) == before
        for lo, hi, v in zip((F(0), *c.breakpoints), c.breakpoints, c.values):
            assert c.value_at((lo + hi) / 2) == v
        assert c.value_at(c.breakpoints[-1] + F(1, 2 ** 70)) == c.tail
        assert c.value_at("1/3") == 3
        assert WorkCurve((), (), F(5)).value_at(F(7)) == 5
        for x in (F(0), F(-1), -F(1, 2 ** 70)):
            with pytest.raises(DomainError, match="positive bids only"):
                c.value_at(x)

    def test_integrals(self):
        c = self.curve()
        assert integrate(c, 0, None) == 26
        assert integrate(c, 0, F(1, 2)) == F(3, 2)
        assert integrate(c, 2, 8) == 12
        assert integrate(c, 20, 30) == 0
        assert integrate(c, 20, None) == 0  # starts past the last breakpoint

    def test_divergent_tail(self):
        c = WorkCurve((F(1),), (F(3),), F(1))
        with pytest.raises(DomainError, match="^tail value 1 is nonzero; integral diverges$"):
            integrate(c, 0, None)
        assert integrate(c, 0, 4) == 3 + 3

    def test_approximate_curve_is_never_integrated(self):
        c = WorkCurve((F(13, 8),), (F(3),), F(0), approximate=True)
        for hi in (None, F(1), F(3)):
            with pytest.raises(CurveResolutionError):
                integrate(c, 0, hi)

    def test_breakpoints_must_increase(self):
        with pytest.raises(DomainError):
            WorkCurve((F(2), F(2)), (F(1), F(1)), F(0))

    @given(
        st.lists(
            st.fractions(min_value=F(1, 8), max_value=16, max_denominator=16),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        st.lists(
            st.fractions(min_value=0, max_value=8, max_denominator=8),
            min_size=6,
            max_size=6,
        ),
        st.fractions(min_value=0, max_value=20, max_denominator=8),
        st.fractions(min_value=0, max_value=20, max_denominator=8),
        st.fractions(min_value=0, max_value=20, max_denominator=8),
    )
    def test_integrate_is_additive(self, bps, vals, a, b, c):
        bps = tuple(sorted(bps))
        curve = WorkCurve(bps, tuple(vals[: len(bps)]), F(0))
        lo, mid, hi = sorted((a, b, c))
        assert integrate(curve, lo, mid) + integrate(curve, mid, hi) == integrate(
            curve, lo, hi
        )


def two_machine_opt_reference_value(x, a):
    """Closed-form case analysis for jobs (2,1): the own-bid response is 3
    below a/3, 2 up to a, 1 up to 3a, then 0 (boundary values by enumeration)."""
    candidates = [
        (max(3 * x, 0 * a), 3 * x, F(3)),
        (max(2 * x, a), 2 * x + a, F(2)),
        (max(x, 2 * a), x + 2 * a, F(1)),
        (3 * a, 3 * a, F(0)),
    ]
    best = min(candidates, key=lambda t: (t[0], t[1]))
    return best[2]


class TestRegionPoints:
    def points(self, rule, bids, jobs, cap, machine=0):
        return set(rule.region_points(Instance(jobs, bids), machine, F(cap)))

    def test_lpt_star_takes_the_other_bids_and_the_powers_of_two_from_its_bound(self):
        # Bound 8 * 1 / (2 * 3) = 4/3, so the powers of two run 2, 4, ..., 32.
        assert self.points(lpt_star, (1, 8), (2, 1), 32) == {F(8), F(2), F(4), F(16), F(32)}
        assert self.points(lpt_star, (1, 1), (2, 1), 2, machine=1) == {
            F(1), F(1, 4), F(1, 2), F(2)
        }
        assert self.points(lpt_star, (5,), (2, 1), 32) == set()

    def test_vcg_takes_the_other_bids(self):
        assert self.points(vcg_allocate, (1, 3, 5), (2, 1), 4) == {F(3), F(5)}

    def test_two_machine_points_are_the_same_for_either_machine(self):
        # Sums 0, 1, 2, 3 of jobs (2, 1) against bid 1: the balance points
        # (3 - s)/s, the makespan ties (3 - s)/s' and the bid 1 itself.
        want = {F(1, 3), F(1, 2), F(1), F(2), F(3)}
        for rule in (two_machine_opt, opt_rule):
            assert self.points(rule, (1, 1), (2, 1), 6) == want
            assert self.points(rule, (1, 1), (2, 1), 6, machine=1) == want

    def test_opt_on_three_machines_is_refused(self):
        with pytest.raises(DomainError, match="^region points are known for at most two machines$"):
            build_workcurve(opt_rule, (1, 2), (2, 1), 4)

    def test_two_machine_points_check_the_budget_before_the_sum_table(self):
        n = TWO_MACHINE_BUDGET.bit_length()  # 2^n exceeds the budget
        instance = Instance([1] * n, (1, 1))
        with pytest.raises(BudgetExceeded, match=f"^2\\^{n} assignments exceed budget"):
            list(opt_rule.region_points(instance, 0, F(4)))
        assert "subset_sums" not in vars(instance.job_data)


class TestBuildWorkcurve:
    def test_lpt_star_shape_against_power_of_two(self):
        c = build_workcurve(lpt_star, (8,), (2, 1), cap=32)
        assert c.breakpoints == (2, 8, 16)
        assert c.values == (3, 2, 1)
        assert c.tail == 0 and not c.approximate
        assert integrate(c, 0, None) == F(13, 4) * 8

    def test_vcg_all_or_nothing(self):
        c = build_workcurve(vcg_allocate, (1,), (2, 1), cap=4)
        assert c.breakpoints == (1,)
        assert c.values == (3,)
        assert c.tail == 0
        assert integrate(c, 0, None) == 3

    def test_lpt_star_without_competitors_is_the_flat_curve(self):
        jobs = (F(2), F(1), F(1, 2))
        c = build_workcurve(lpt_star, (), jobs, cap=8)
        assert c == build_workcurve(vcg_allocate, (), jobs, cap=8)
        assert c.breakpoints == () and c.tail == sum(jobs)

    def test_two_machine_opt_shape(self):
        a = F(1)
        c = build_workcurve(two_machine_opt, (a,), (2, 1), cap=6)
        assert c.breakpoints == (a / 3, a, 3 * a)
        assert c.values == (3, 2, 1)
        assert c.tail == 0

    @settings(max_examples=25, deadline=None)
    @given(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=12))
    def test_two_machine_opt_matches_case_analysis(self, x):
        a = F(1)
        c = build_workcurve(two_machine_opt, (a,), (2, 1), cap=6)
        if x in c.breakpoints:
            return  # breakpoint values are a right-limit convention
        assert c.value_at(x) == two_machine_opt_reference_value(x, a)

    def test_cross_validation_against_direct_evaluation(self):
        rng = random.Random(13)
        cases = [
            (lpt_star, (F(8),), (2, 1), F(40)),
            (vcg_allocate, (F(3), F(5)), (2, 1, 1), F(12)),
            (two_machine_opt, (F(2),), (3, 1), F(16)),
        ]
        for rule, others, jobs, cap in cases:
            curve = build_workcurve(rule, others, jobs, cap)
            for _ in range(100):
                x = F(rng.randint(1, 64 * int(cap)), 64)
                if x in curve.breakpoints or x > cap:
                    continue
                direct = rule(Instance(jobs, (x, *others))).workloads[0]
                assert curve.value_at(x) == direct

    def test_scalable_rule_curves_scale(self):
        jobs = (2, 1)
        base = build_workcurve(two_machine_opt, (F(1),), jobs, cap=6)
        c = F(5, 3)
        scaled = build_workcurve(two_machine_opt, (c,), jobs, cap=10)
        assert scaled.breakpoints == tuple(c * x for x in base.breakpoints)
        assert scaled.values == base.values

    def test_refinement_finds_unseeded_breakpoints(self):
        # The discovery oracle finds these; the package refuses a rule
        # without region points.  Machine 0's workload against competitor
        # bid 1, jobs (2, 1); the samples between candidates 1 and 3/2 are
        # 9/8, 5/4 and 11/8.
        cases = [
            (lambda b: 3 if b < F(22, 7) else 0, (F(22, 7),), (3,)),
            # a jump on a sample, closed on the right: the bracket
            # (9/8, 5/4) steps only at its right end
            (lambda b: 3 if b < F(5, 4) else 0, (F(5, 4),), (3,)),
            # closed on the left: (5/4, 11/8) steps right after its left end
            (lambda b: 3 if b <= F(5, 4) else 0, (F(5, 4),), (3,)),
            # two jumps in the bracket (9/8, 5/4): its midpoint 19/16 reads
            # the middle value, so the bracket is split there
            (
                lambda b: 3 if b < F(23, 20) else 2 if b < F(6, 5) else 0,
                (F(23, 20), F(6, 5)),
                (3, 2),
            ),
        ]
        maps = {3: [0, 0], 2: [0, 1], 0: [1, 1]}

        class NoHints:
            # no breakpoint_hints attribute: forces the oracle's generic path
            def __init__(self, workload):
                self.workload = workload

            def __call__(self, instance):
                return Assignment.from_map(instance, maps[self.workload(instance.bids[0])])

        for workload, breakpoints, values in cases:
            c = parent_build_workcurve(NoHints(workload), (F(1),), (2, 1), cap=8)
            assert c.breakpoints == breakpoints
            assert c.values == values
            assert c.tail == 0
            assert not c.approximate
            with pytest.raises(DomainError, match="declares no region_points"):
                build_workcurve(NoHints(workload), (F(1),), (2, 1), cap=8)

    def test_jumps_nested_past_the_depth_cap_leave_the_curve_approximate(self):
        # Machine 0's workload is #{j <= 29 : b0 < 1 + 3^-j}: thirty jumps
        # crowd toward 1, and each bisection split recurses one level deeper
        # until the depth cap gives up and the split passes None up.
        class Nested:
            def __call__(self, instance):
                b0 = instance.bids[0]
                count = sum(1 for j in range(30) if b0 < 1 + F(1, 3 ** j))
                return Assignment((0, 0), (F(count), F(0)))

        c = parent_build_workcurve(Nested(), (F(5),), (2, 1), cap=4)
        assert c.approximate
        with pytest.raises(CurveResolutionError):
            integrate(c, 0, None)
        with pytest.raises(DomainError, match="declares no region_points"):
            build_workcurve(Nested(), (F(5),), (2, 1), cap=4)

    @pytest.mark.parametrize("count", [MAX_REGIONS, MAX_REGIONS + 1])
    def test_too_many_regions_raise_before_any_rule_call(self, count):
        # Points k/count for k = 1, ..., count + 1 cut (0, 1] into count
        # regions; a step at each, so every region is its own value.
        class Steps:
            calls = 0

            def region_points(self, instance, machine, cap):
                return (F(k, count) for k in range(1, count + 2))

            def __call__(self, instance):
                self.calls += 1
                x = instance.bids[0]
                return Assignment((0, 0), (F(count - x.numerator * count // x.denominator), F(0)))

        rule = Steps()
        if count > MAX_REGIONS:
            with pytest.raises(BudgetExceeded, match=f"^more than {MAX_REGIONS} regions on \\(0, 1\\]$"):
                build_workcurve(rule, (F(2),), (2, 1), cap=1)
            assert rule.calls == 0
        else:
            curve = build_workcurve(rule, (F(2),), (2, 1), cap=1)
            assert rule.calls == len(curve.breakpoints) + 1 == count

    def test_non_monotone_rule_is_reported_not_rejected(self):
        class Bump:
            def region_points(self, instance, machine, cap):
                return (F(1), F(2), F(3))

            def __call__(self, instance):
                x = instance.bids[0]
                target = 0 if (x < 1 or 2 < x < 3) else 1
                return Assignment.from_map(instance, [target] * instance.n)

        c = build_workcurve(Bump(), (F(1),), (2, 1), cap=8)
        assert c.monotonicity_violations()

    def test_expected_allocation_rules_are_rejected(self):
        with pytest.raises(DomainError):
            build_workcurve(at_fractional, (F(1),), (2, 1), cap=4)


class TestExpectedWorkcurve:
    def test_pieces_for_unit_competitor(self):
        pieces = expected_workcurve(at_fractional, (1,), (2, 1), cap=4)
        assert pieces == [
            CurvePiece(F(0), F(1, 3), (F(3), F(0), F(1), F(0))),
            CurvePiece(F(1, 3), F(1, 2), (F(1), F(0), F(0), F(1))),
            CurvePiece(F(1, 2), F(1), (F(2), F(0), F(1), F(0))),
            CurvePiece(F(1), F(2), (F(1), F(0), F(1), F(0))),
            CurvePiece(F(2), F(3), (F(3), F(-1), F(1), F(0))),
            CurvePiece(F(3), None, (F(0), F(0), F(1), F(0))),
        ]

    def test_integral_is_seven_halves_plus_log(self):
        pieces = expected_workcurve(at_fractional, (1,), (2, 1), cap=4)
        total = piecewise_integral(pieces)
        assert total.rational == F(7, 2)
        assert total.logs == ((F(1), F(3, 2)),)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=F(1, 16), max_value=5, max_denominator=48))
    def test_pieces_match_direct_evaluation(self, x):
        pieces = expected_workcurve(at_fractional, (1,), (2, 1), cap=4)
        direct = at_fractional(Instance((2, 1), (x, F(1)))).expected_workloads[0]
        assert piecewise_value_at(pieces, x) == direct

    def test_single_machine_is_a_divergent_constant(self):
        pieces = expected_workcurve(at_fractional, (), (2, 1), cap=4)
        assert pieces == [CurvePiece(F(0), None, (F(3), F(0), F(1), F(0)))]
        with pytest.raises(DomainError, match="^unbounded nonzero piece$"):
            piecewise_integral(pieces)

    def test_a_linear_fractional_piece_integrates_to_one_log_atom(self):
        # (3 + 2x)/(1 + x) = 2 + 1/(1 + x) on (1, 2].
        piece = CurvePiece(F(1), F(2), (F(3), F(2), F(1), F(1)))
        assert piece.integral() == LogLinearValue(F(2), ((F(1), F(3, 2)),))
        # A pole at lo, a denominator d0 + x negative on the whole piece, and
        # an unbounded piece with a pole in it are refused when built.
        for lo, hi, d0 in ((F(0), F(1), F(0)), (F(1), F(2), F(-3)), (F(1), None, F(-2))):
            with pytest.raises(DomainError, match="denominator d0 \\+ x must be positive on it"):
                CurvePiece(lo, hi, (F(1), F(0), d0, F(1)))

    def test_a_fit_with_a_pole_between_its_samples_is_refused_when_fit(self):
        # 1/(x - 1/12) at x = k/18 fits (1, 0, -1/12, 1) exactly, with its
        # pole between the first two samples.
        samples = [(F(k, 18), 1 / (F(k, 18) - F(1, 12))) for k in range(1, 7)]
        with pytest.raises(DomainError, match="denominator d0 \\+ x must be positive on it"):
            _fit_piece(F(0), F(1, 3), samples)

    @pytest.mark.parametrize("params", [(2, 0, 2, 0), (1, 0, 0, 2), (3, 1, 0, 0), (1, 0, -1, 0)])
    def test_a_piece_refuses_params_that_are_not_normalised(self, params):
        # (2, 0, 2, 0) is the constant 1, whose params are (1, 0, 1, 0).
        with pytest.raises(DomainError, match="need d1 = 1, or d0 = 1 when d1 = 0"):
            CurvePiece(F(0), F(1), tuple(map(F, params)))
        for normalised in ((F(1), F(0), F(1), F(0)), (F(1), F(0), F(1, 2), F(1))):
            assert CurvePiece(F(0), F(1), normalised).params == normalised

    @pytest.mark.parametrize("jobs", [[-1], [], [0, 2]])
    def test_single_machine_validates_its_jobs(self, jobs):
        with pytest.raises(DomainError):
            expected_workcurve(at_fractional, (), jobs, cap=4)

    @pytest.mark.parametrize(
        "workload",
        [
            lambda x: x * x,
            # Collinear at the first three samples 1/18, 1/9 and 1/6 of the
            # first regime (0, 1/3], bent at the fourth.
            lambda x: min(x, F(1, 6)),
            # Zero except at the regime's right edge, which its piece owns.
            lambda x: F(1) if x == F(1, 3) else F(0),
            # 1 except at the third sample: the form (x - 1/6)/(x - 1/6)
            # meets every sample by cross-multiplication, with a hole there.
            lambda x: F(2) if x == F(1, 6) else F(1),
        ],
        ids=["square", "bent-line", "right-edge", "spike"],
    )
    def test_a_workload_of_no_linear_fractional_form_is_refused(self, workload):
        class Stub:
            name = "at-expected"

            def __call__(self, instance):
                return SimpleNamespace(expected_workloads=(workload(instance.bids[0]),))

        with pytest.raises(CurveResolutionError, match=r"\(0, 1/3\] fits no linear-fractional form"):
            expected_workcurve(Stub(), (1,), (2, 1), cap=4)

    def test_rejects_other_rules_and_many_machines(self):
        with pytest.raises(DomainError):
            expected_workcurve(vcg_allocate, (1,), (2, 1), cap=4)
        with pytest.raises(DomainError):
            expected_workcurve(at_fractional, (1, 2), (2, 1), cap=4)

    def test_scaled_competitor_scales_the_pieces(self):
        a = F(4)
        pieces = expected_workcurve(at_fractional, (a,), (2, 1), cap=16)
        unit = expected_workcurve(at_fractional, (1,), (2, 1), cap=4)
        assert len(pieces) == len(unit)
        for scaled, base in zip(pieces, unit):
            assert scaled.lo == base.lo * a
            assert (scaled.hi is None) == (base.hi is None)
            if base.hi is not None:
                assert scaled.hi == base.hi * a


class TestLogEnclosures:
    @pytest.mark.parametrize(
        "arg", [F(3, 2), F(2), F(3), F(10), F(7, 5), F(1)]
    )
    def test_brackets_the_float_log(self, arg):
        lo, hi = ln_enclosure(arg, F(1, 10 ** 9))
        assert hi - lo < F(1, 10 ** 9)
        assert float(lo) <= math.log(arg) <= float(hi)

    def test_loglinear_combination(self):
        v = LogLinearValue(F(1), ((F(2), F(3, 2)),)) + LogLinearValue(
            F(1, 2), ((F(-2), F(3, 2)), (F(1), F(2)))
        )
        assert v.rational == F(3, 2)
        assert v.logs == ((F(1), F(2)),)
        lo, hi = v.enclosure(F(1, 10 ** 6))
        assert float(lo) <= 1.5 + math.log(2) <= float(hi)

    def test_enclosure_of_a_rational_value_is_that_value(self):
        assert LogLinearValue(F(7, 3), ()).enclosure(F(1, 10)) == (F(7, 3), F(7, 3))

    def test_enclosure_with_a_negative_coefficient(self):
        # 1 - ln(3/2) ~ 0.594535: the log's upper end bounds the value below
        lo, hi = LogLinearValue(F(1), ((F(-1), F(3, 2)),)).enclosure(F(1, 10 ** 9))
        assert 0 < hi - lo < F(1, 10 ** 9)
        assert float(lo) <= 1 - math.log(1.5) <= float(hi)


def test_rational_roots_skip_complex_and_irrational_crossings():
    assert _rational_roots(F(1), F(0), F(1)) == []  # x^2 + 1: negative discriminant
    assert _rational_roots(F(1), F(0), F(-2)) == []  # x^2 - 2: roots +-sqrt(2)
    assert _rational_roots(F(1), F(0), F(-9, 16)) == [F(3, 4)]  # the positive root only
