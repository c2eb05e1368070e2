"""The curve kernels on ints against the ``Fraction`` loops they replaced.

Each ``reference_*`` below is the package's earlier ``Fraction``
implementation, kept verbatim as an oracle: the step integral, the
ln(1+t) series behind every log enclosure and the root solver behind the
expected curve's regimes.  Draws come from seeded ``random.Random``
streams and are aimed at what the rescaling has to get exactly right:
mixed denominators, bounds on, between and past the breakpoints, zero-width
bounds, tolerances on either side of the 4096-term cap, arguments that
are exact powers of 3/2 and coefficients with a square discriminant.
"""

import random
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

import pytest

from schedmech.core import BudgetExceeded, DomainError, RationalLike, rat, rat_str
from schedmech.workcurve import (
    CurveResolutionError,
    WorkCurve,
    _linfrac_equal_roots,
    _rational_roots,
    integrate,
    ln_enclosure,
)

F = Fraction


def reference_integrate(
    curve: WorkCurve, lo: RationalLike, hi: Optional[RationalLike]
) -> Fraction:
    """Exact integral of the step function over [lo, hi]; hi=None means
    infinity.  The one gate of every curve integral: refuses approximate curves."""
    if curve.approximate:
        raise CurveResolutionError("a jump of the curve was not located exactly")
    lo = rat(lo)
    if lo < 0:
        raise DomainError("integration starts at a nonnegative bound")
    if hi is None:
        if curve.tail != 0:
            raise DomainError(
                f"tail value {rat_str(curve.tail)} is nonzero; integral diverges"
            )
        hi = max(curve.breakpoints, default=Fraction(0))
        if hi <= lo:
            return Fraction(0)
    else:
        hi = rat(hi)
    if hi < lo:
        raise DomainError("upper bound below lower bound")
    total = Fraction(0)
    prev = Fraction(0)
    for bp, v in zip(curve.breakpoints, curve.values):
        seg_lo = max(prev, lo)
        seg_hi = min(bp, hi)
        if seg_hi > seg_lo:
            total += v * (seg_hi - seg_lo)
        prev = bp
    if hi > max(prev, lo):
        total += curve.tail * (hi - max(prev, lo))
    return total



def reference_ln_enclosure(arg: RationalLike, eps: RationalLike) -> tuple[Fraction, Fraction]:
    """Bracket ln(arg) for rational arg >= 1 to width < eps.

    Uses the alternating series ln(1+t) = t - t^2/2 + ... after factoring
    the argument into powers of 3/2 so that t <= 1/2; consecutive partial
    sums of an alternating series with decreasing terms bracket the limit.
    A factor that needs more than 4096 terms raises ``BudgetExceeded``.
    """
    arg = rat(arg)
    eps = rat(eps)
    if arg < 1:
        raise DomainError("ln_enclosure expects an argument >= 1")
    if eps <= 0:
        raise DomainError("enclosure width must be positive")
    base = Fraction(3, 2)
    k = 0
    while arg > base:
        arg /= base
        k += 1
    pieces = [base] * k + ([arg] if arg > 1 else [])
    if not pieces:
        return Fraction(0), Fraction(0)
    lo = hi = Fraction(0)
    share = eps / len(pieces)
    for r in pieces:
        t = r - 1  # 0 < t <= 1/2
        term = t
        partial = Fraction(0)
        j = 1
        sign = 1
        while term >= share / 2 or j <= 2:
            partial += sign * term / j
            j += 1
            sign = -sign
            term *= t
            if j > 4096:
                raise BudgetExceeded("log series needs more than 4096 terms for this enclosure width")
        # partial ends after an even or odd number of terms; the next term
        # bounds the remainder with the sign of `sign`.
        tail = term / j
        if sign > 0:
            lo += partial
            hi += partial + tail
        else:
            lo += partial - tail
            hi += partial
    return lo, hi



def reference_rational_roots(a2: Fraction, a1: Fraction, a0: Fraction) -> list[Fraction]:
    """Positive rational roots of a2*x^2 + a1*x + a0 = 0."""
    if a2 == 0:
        if a1 == 0:
            return []
        r = -a0 / a1
        return [r] if r > 0 else []
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    n, d = disc.numerator, disc.denominator
    sn, sd = isqrt(n), isqrt(d)
    if sn * sn != n or sd * sd != d:
        return []  # irrational crossing; the fit verification would catch it
    s = Fraction(sn, sd)
    return [r for r in ((-a1 + s) / (2 * a2), (-a1 - s) / (2 * a2)) if r > 0]


def _outcome(fn, *args):
    """The value, or the refusal's type and text."""
    try:
        return fn(*args)
    except (DomainError, BudgetExceeded, CurveResolutionError) as exc:
        return type(exc), str(exc)


def _rational(rng, hi=20):
    return F(rng.randint(0, hi * 12), rng.choice([1, 1, 2, 3, 4, 7, 12, 36, 1024]))


def _curve(rng):
    points = sorted({_rational(rng) for _ in range(rng.randint(0, 8))} - {0})
    values = [_rational(rng, 6) * rng.choice([1, 1, 1, -1]) for _ in points]
    tail = rng.choice([F(0), F(0), _rational(rng, 3)])
    return WorkCurve(tuple(points), tuple(values), tail, approximate=rng.random() < 0.02)


def _bounds(rng, curve):
    """Bounds on, between and past the breakpoints, equal ones and hi=None."""
    marks = [F(0), *curve.breakpoints, _rational(rng, 30)]
    lo = rng.choice([rng.choice(marks), _rational(rng, 30), marks[-2] + 1])
    hi = rng.choice([None, lo, rng.choice(marks), _rational(rng, 30), lo + _rational(rng, 2)])
    return lo, hi


def test_integrate_equals_the_fraction_loop_on_5000_random_curves():
    rng = random.Random(3701)
    seen = {"none": 0, "past": 0, "zero_width": 0, "value": 0}
    for _ in range(5000):
        curve = _curve(rng)
        for lo, hi in [_bounds(rng, curve) for _ in range(3)]:
            got = _outcome(integrate, curve, lo, hi)
            assert got == _outcome(reference_integrate, curve, lo, hi), (curve, lo, hi)
            assert type(got) is tuple or type(got) is Fraction
            seen["none"] += hi is None
            seen["past"] += lo > max(curve.breakpoints, default=F(0))
            seen["zero_width"] += lo == hi
            seen["value"] += type(got) is Fraction and got != 0
    assert min(seen.values()) > 500, seen


def test_integrate_accepts_int_and_string_bounds_and_int_values():
    curve = WorkCurve((F(1, 3), F(2)), (3, F(1, 2)), 0)
    for lo, hi in [(0, 2), ("1/6", "5/2"), (F(1, 3), None), (0, "0.5")]:
        assert integrate(curve, lo, hi) == reference_integrate(curve, lo, hi)


def test_ln_enclosure_equals_the_fraction_series():
    rng = random.Random(3702)
    draws = [(F(n), 10 ** e) for n, e in [(1, 3), (2, 60), (50, 60), (50, 3), (F(3, 2) ** 4, 20)]]
    draws += [(F(rng.randint(1, 50 * d), d), 10 ** rng.randint(3, 60))
              for d in (1, 2, 3, 7, 16, 81) for _ in range(15)]
    draws += [(F(3, 2) ** k, 10 ** rng.randint(3, 40)) for k in range(1, 10)]
    for arg, q in draws:
        if arg < 1:
            arg = 1 / arg
        for eps in (F(1, q), F(7, 3 * q)):
            assert ln_enclosure(arg, eps) == reference_ln_enclosure(arg, eps), (arg, eps)


@pytest.mark.parametrize("arg", [F(3, 2), F(7, 5), F(9, 4), F(50)])
def test_ln_enclosure_refuses_at_exactly_the_tolerances_the_fraction_series_refused(arg):
    # Each series of t <= 1/2 is capped at 4096 terms: it is refused while
    # its 4096th term is still needed, t^4096 >= share/2 for share = eps
    # over the number of factors.  Around that width both refuse or agree.
    pieces = 0
    rest = arg
    while rest > F(3, 2):
        rest /= F(3, 2)
        pieces += 1
    pieces += rest > 1
    t = F(1, 2) if arg > F(3, 2) else arg - 1
    edge = 2 * pieces * t ** 4096  # the widest eps that is refused
    for eps in (edge * F(999, 1000), edge, edge * F(1001, 1000)):
        got = _outcome(ln_enclosure, arg, eps)
        if pieces <= 2 and eps >= edge:  # the Fraction series takes seconds a factor here
            assert got == _outcome(reference_ln_enclosure, arg, eps)
        assert (type(got) is tuple and got[0] is BudgetExceeded) == (eps <= edge)


def test_ln_enclosure_of_one_and_its_refusals():
    assert ln_enclosure(1, F(1, 10)) == reference_ln_enclosure(1, F(1, 10)) == (0, 0)
    for arg, eps in [(F(1, 2), F(1, 10)), (2, 0), (2, F(-1, 10))]:
        assert _outcome(ln_enclosure, arg, eps) == _outcome(reference_ln_enclosure, arg, eps)


def test_rational_roots_equal_the_fraction_solver():
    rng = random.Random(3703)
    forms = 0
    for _ in range(4000):
        # A quadratic with two chosen rational roots, or random coefficients.
        if rng.random() < 0.5:
            r1, r2 = (_rational(rng, 5) * rng.choice([1, -1]) for _ in range(2))
            c = F(rng.randint(-9, 9), rng.choice([1, 2, 5, 6]))
            coefs = (c, -c * (r1 + r2), c * r1 * r2)
        else:
            coefs = tuple(F(rng.randint(-30, 30), rng.choice([1, 2, 3, 5, 8])) for _ in range(3))
        assert _rational_roots(*coefs) == reference_rational_roots(*coefs), coefs
        ints = tuple(c.numerator for c in coefs)
        assert _rational_roots(*ints) == reference_rational_roots(*map(F, ints))
        forms += bool(reference_rational_roots(*coefs))
    assert forms > 1000


def test_linear_fractional_pairs_on_ints_have_the_roots_of_their_fraction_forms():
    rng = random.Random(3704)
    for _ in range(3000):
        e1, e2 = ([_rational(rng, 8) * rng.choice([1, -1]) for _ in range(4)] for _ in range(2))
        # Each form on ints, as expected_workcurve scales it: one lcm.
        scaled = [tuple(c * lcm(*(x.denominator for x in e)) for c in e) for e in (e1, e2)]
        assert all(c.denominator == 1 for e in scaled for c in e)
        scaled = [tuple(map(int, e)) for e in scaled]
        a2 = e1[1] * e2[3] - e2[1] * e1[3]
        a1 = e1[0] * e2[3] + e1[1] * e2[2] - e2[0] * e1[3] - e2[1] * e1[2]
        a0 = e1[0] * e2[2] - e2[0] * e1[2]
        expected = reference_rational_roots(a2, a1, a0)
        assert _linfrac_equal_roots(e1, e2) == expected
        assert _linfrac_equal_roots(*scaled) == expected
