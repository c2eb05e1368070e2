import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from schedmech.allocations import (
    at_fractional,
    lpt_star,
    two_machine_opt,
    vcg_allocate,
)
from schedmech.core import Assignment, DomainError, Instance, rat_str
from schedmech.workcurve import (
    MAX_BREAKPOINTS,
    CurvePiece,
    CurveResolutionError,
    DivergentIntegral,
    LogLinearValue,
    WorkCurve,
    _rational_roots,
    build_workcurve,
    discover_step_function,
    expected_workcurve,
    integrate,
    ln_enclosure,
    piecewise_integral,
    power_of_two_points,
    simplest_between,
    subset_ratio_points,
)

F = Fraction


def piecewise_value_at(pieces, x):
    """The value at x of the piece whose (lo, hi] covers it."""
    for p in pieces:
        if p.lo < x and (p.hi is None or x <= p.hi):
            return p.value_at(x)
    raise DomainError(f"{rat_str(x)} not covered by pieces")


class TestSimplestBetween:
    def test_known_intervals(self):
        assert simplest_between(F(0), F(1)) == F(1, 2)
        assert simplest_between(F(1, 3), F(1, 2)) == F(2, 5)
        assert simplest_between(F(1, 2), F(3)) == 1
        assert simplest_between(F(5, 2), F(7, 2)) == 3
        assert simplest_between(F(22, 7) - F(1, 1000), F(22, 7) + F(1, 1000)) == F(22, 7)

    @given(
        st.fractions(min_value=0, max_value=50, max_denominator=200),
        st.fractions(min_value=F(1, 200), max_value=2, max_denominator=200),
    )
    def test_lands_inside_and_is_minimal(self, lo, width):
        hi = lo + width
        z = simplest_between(lo, hi)
        assert lo < z < hi
        # nothing with a smaller denominator fits in the interval
        for q in range(1, z.denominator):
            p_lo = lo.numerator * q // lo.denominator
            for p in range(p_lo, p_lo + 3):
                assert not lo < F(p, q) < hi


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

    def test_integrals(self):
        c = self.curve()
        assert integrate(c, 0, None) == 26
        assert integrate(c, 0, F(1, 2)) == F(3, 2)
        assert integrate(c, 2, 8) == 12
        assert integrate(c, 20, 30) == 0
        assert integrate(c, 20, None) == 0  # starts past the last breakpoint

    def test_divergent_tail(self):
        c = WorkCurve((F(1),), (F(3),), F(1))
        with pytest.raises(DivergentIntegral):
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


class TestCandidateSeeding:
    def test_subset_ratio_points_scale_every_sum_ratio_within_cap(self):
        # subset sums of (2, 1) are 1, 2, 3; the ratios times 2, up to 4
        points = subset_ratio_points((F(2),), (F(2), F(1)), F(4))
        assert points == {F(2, 3), F(1), F(4, 3), F(2), F(3), F(4)}

    def test_above_twelve_jobs_only_prefix_sums_and_single_jobs(self):
        jobs = tuple(F(2) ** e for e in range(13))  # 8191 distinct subset sums
        sums = {F(2) ** (e + 1) - 1 for e in range(13)} | set(jobs)
        points = subset_ratio_points((F(1),), jobs, F(10) ** 9)
        assert points == {s1 / s2 for s1 in sums for s2 in sums}

    def test_power_of_two_points_include_both_ends(self):
        assert power_of_two_points(F(3, 16), F(5)) == {
            F(1, 4), F(1, 2), F(1), F(2), F(4)
        }
        assert power_of_two_points(F(1, 4), F(1)) == {F(1, 4), F(1, 2), F(1)}


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
        # Machine 0's workload against competitor bid 1, jobs (2, 1); the
        # samples between candidates 1 and 3/2 are 9/8, 5/4 and 11/8.
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
            # no breakpoint_hints attribute: forces the generic path
            def __init__(self, workload):
                self.workload = workload

            def __call__(self, instance):
                return Assignment.from_map(instance, maps[self.workload(instance.bids[0])])

        for workload, breakpoints, values in cases:
            c = build_workcurve(NoHints(workload), (F(1),), (2, 1), cap=8)
            assert c.breakpoints == breakpoints
            assert c.values == values
            assert c.tail == 0
            assert not c.approximate

    def test_jumps_nested_past_the_depth_cap_leave_the_curve_approximate(self):
        # Machine 0's workload is #{j <= 29 : b0 < 1 + 3^-j}: thirty jumps
        # crowd toward 1, and each bisection split recurses one level deeper
        # until the depth cap gives up and the split passes None up.
        class Nested:
            def __call__(self, instance):
                b0 = instance.bids[0]
                count = sum(1 for j in range(30) if b0 < 1 + F(1, 3 ** j))
                return Assignment((0, 0), (F(count), F(0)))

        c = build_workcurve(Nested(), (F(5),), (2, 1), cap=4)
        assert c.approximate
        with pytest.raises(CurveResolutionError):
            integrate(c, 0, None)

    def test_too_many_jumps_raise(self):
        # 600 steps on (0, 1], each at a candidate
        def steps(x):
            return F(600 - x.numerator * 600 // x.denominator)

        with pytest.raises(CurveResolutionError, match=f"more than {MAX_BREAKPOINTS} jumps"):
            discover_step_function(steps, [F(k, 600) for k in range(1, 601)], 1)

    def test_non_monotone_rule_is_reported_not_rejected(self):
        class Bump:
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
        with pytest.raises(DivergentIntegral):
            piecewise_integral(pieces)

    def test_a_linear_fractional_piece_integrates_to_one_log_atom(self):
        # (3 + 2x)/(1 + x) = 2 + 1/(1 + x) on (1, 2].
        piece = CurvePiece(F(1), F(2), (F(3), F(2), F(1), F(1)))
        assert piece.integral() == LogLinearValue(F(2), ((F(1), F(3, 2)),))
        # A pole at lo, and a denominator d0 + x negative on the whole piece.
        for lo, hi, d0 in ((F(0), F(1), F(0)), (F(1), F(2), F(-3))):
            with pytest.raises(DomainError):
                CurvePiece(lo, hi, (F(1), F(0), d0, F(1))).integral()

    @pytest.mark.parametrize("params", [(2, 0, 2, 0), (1, 0, 0, 2), (3, 1, 0, 0), (1, 0, -1, 0)])
    def test_a_piece_refuses_params_that_are_not_normalised(self, params):
        # (2, 0, 2, 0) is the constant 1, whose params are (1, 0, 1, 0).
        with pytest.raises(DomainError, match="need d1 = 1, or d0 = 1 when d1 = 0"):
            CurvePiece(F(0), F(1), tuple(map(F, params)))
        for normalised in ((F(1), F(0), F(1), F(0)), (F(1), F(0), F(-1), F(1))):
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
