"""Bid-response curves: exact step functions of one machine's bid.

For a deterministic allocation rule and fixed other bids, the first
machine's workload as a function of one machine's bid is a step function
with rational breakpoints.  Each rule declares ``region_points``, a finite
set of bids between which it proves its decision constant, so the curve
follows from one rule call per region, with no probing.  This module
builds those curves, integrates them exactly, and, for the fractional
binning rule, derives the piecewise closed form of the *expected*
workload, whose integral picks up logarithmic terms that are kept
symbolic with rational enclosures.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

from .core import (
    BudgetExceeded,
    DomainError,
    Instance,
    RationalLike,
    Record,
    rat,
    rat_str,
    rats,
    scaled_to_ints,
)

# Most regions a bid-response curve may have on (0, cap]: one rule call each.
MAX_REGIONS = 4096


class CurveResolutionError(RuntimeError):
    """A curve or an integral could not be resolved exactly."""


class WorkCurve(Record):
    """Piecewise-constant bid response.

    ``values[j]`` holds on the open interval (breakpoints[j-1], breakpoints[j])
    with the left edge of the first interval at 0; ``tail`` holds beyond the
    last breakpoint.
    Values at the breakpoints themselves are taken from the right: they are
    measure zero and never affect an integral.  A nonzero tail means the
    underlying rule was still allocating work at the curve's cap, so
    integrals to infinity diverge (or the cap was simply too small -- that
    is the caller's promise to keep).  ``approximate`` marks a curve whose
    breakpoints are not exact; the builders here never set it, and
    ``integrate`` refuses such a curve.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    tail: Fraction
    approximate: bool = False

    def __init__(self, breakpoints: tuple[Fraction, ...], values: tuple[Fraction, ...], tail: Fraction,
                 approximate: bool = False):
        if len(values) != len(breakpoints):
            raise DomainError("need one value per breakpoint interval")
        prev = Fraction(0)
        for x in breakpoints:
            if x <= prev:
                raise DomainError("breakpoints must be strictly increasing and positive")
            prev = x
        self.__dict__.update(breakpoints=breakpoints, values=values, tail=tail, approximate=approximate)

    def value_at(self, x: RationalLike) -> Fraction:
        x = rat(x)
        if x <= 0:
            raise DomainError("curves are defined on positive bids only")
        j = bisect_right(self.breakpoints, x)
        return self.values[j] if j < len(self.values) else self.tail

    def monotonicity_violations(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """(breakpoint, value before, value after) wherever the curve rises."""
        seq = list(self.values) + [self.tail]
        out = []
        for k, (a, b) in enumerate(zip(seq, seq[1:])):
            if b > a:
                out.append((self.breakpoints[k], a, b))
        return out


def integrate(
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
    # Bids as ints over D, values as ints over V: the integral is an int over D*V.
    D, (L, H, *breakpoints) = scaled_to_ints((lo, hi, *curve.breakpoints))
    V, (tail, *values) = scaled_to_ints((curve.tail, *curve.values))
    total = prev = 0
    for b, v in zip(breakpoints, values):
        if min(b, H) > max(prev, L):
            total += v * (min(b, H) - max(prev, L))
        prev = b
    if H > max(prev, L):
        total += tail * (H - max(prev, L))
    return Fraction(total, D * V)


# ---------------------------------------------------------------------------
# Region curves


def _between(lo: Fraction, hi: Fraction, k: int, d: int) -> Fraction:
    """lo + (hi - lo)*k/d from the ints of both ends."""
    p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return Fraction(p * s * (d - k) + r * q * k, q * s * d)


def region_curve(rule, base: Instance, machine: int, cap: Fraction) -> WorkCurve:
    """Machine 0's workload under ``rule`` as ``machine``'s bid varies over
    (0, cap]: one rule call at the midpoint of each region between
    consecutive points of ``rule.region_points``, equal neighbours merged.

    Exact because each rule's ``region_points`` docstring proves its
    decision constant on every region; a value at a point itself is read
    from the right, as ``WorkCurve`` reads it.
    """
    if cap <= 0:
        raise DomainError("cap must be positive")
    region_points = getattr(rule, "region_points", None)
    if region_points is None:
        raise DomainError(
            f"rule {getattr(rule, 'name', 'rule')!r} declares no region_points; "
            "bid-response curves are built from them"
        )
    points: set[Fraction] = set()
    for x in region_points(base, machine, cap):
        if 0 < x < cap:
            points.add(x)
            if len(points) >= MAX_REGIONS:
                raise BudgetExceeded(f"more than {MAX_REGIONS} regions on (0, {rat_str(cap)}]")
    edges = [Fraction(0), *sorted(points), cap]
    breakpoints, values = [], []
    for lo, hi in zip(edges, edges[1:]):
        value = rule(base.with_bid(machine, _between(lo, hi, 1, 2))).workloads[0]
        if not values or value != values[-1]:
            breakpoints.append(lo)
            values.append(value)
    return WorkCurve(tuple(breakpoints[1:]), tuple(values[:-1]), values[-1])


def build_workcurve(
    rule,
    others_bids: Sequence[RationalLike],
    jobs: Sequence[RationalLike],
    cap: RationalLike,
) -> WorkCurve:
    """Exact bid-response step function of ``rule`` for the first machine.

    The caller promises that ``cap`` lies beyond the last breakpoint whenever
    the rule's support is bounded; a nonzero tail in the result means that
    promise could not be confirmed at the cap.
    """
    return region_curve(rule, Instance(jobs, (1, *others_bids)), 0, rat(cap))


def build_response_curve(
    rule,
    own_bid: RationalLike,
    jobs: Sequence[RationalLike],
    cap: RationalLike,
) -> WorkCurve:
    """The first machine's workload at bid ``own_bid`` as the competitor's
    bid varies over (0, cap]: the curves the certificate for scalable
    two-machine rules (``lemma6_g``) integrates, on a fresh instance."""
    own_bid = rat(own_bid)
    return region_curve(rule, Instance(jobs, (own_bid, own_bid)), 1, rat(cap))


# ---------------------------------------------------------------------------
# Symbolic expected curves (fractional binning rule)


class CurvePiece(Record):
    """One regime of an expected-workload curve on (lo, hi]: the
    linear-fractional form (n0 + n1*x)/(d0 + d1*x), with ``params`` =
    (n0, n1, d0, d1) scaled so that d1 = 1, or d0 = 1 when d1 = 0; equal
    forms thus have equal params.  hi=None encodes an unbounded final piece,
    whose integral is finite only when the form is 0.
    """

    lo: Fraction
    hi: Optional[Fraction]
    params: tuple[Fraction, Fraction, Fraction, Fraction]

    def __init__(self, lo: Fraction, hi: Optional[Fraction], params: tuple[Fraction, Fraction, Fraction, Fraction]):
        if params[3] != 1 and params[2:] != (1, 0):
            shown = [rat_str(p) for p in params]
            raise DomainError(f"piece params {shown} need d1 = 1, or d0 = 1 when d1 = 0")
        if params[3] == 1 and params[2] + lo <= 0:
            raise DomainError("a piece's denominator d0 + x must be positive on it")
        self.__dict__.update(lo=lo, hi=hi, params=params)

    def value_at(self, x: Fraction) -> Fraction:
        n0, n1, d0, d1 = self.params
        return (n0 + n1 * x) / (d0 + d1 * x)

    def integral(self) -> "LogLinearValue":
        """Exact integral over (lo, hi): rational when d1 = 0, else
        n1*(hi - lo) plus one (n0 - n1*d0)*ln((d0 + hi)/(d0 + lo)) atom."""
        n0, n1, d0, d1 = self.params
        if self.hi is None:
            if n0 == n1 == 0:
                return LogLinearValue(Fraction(0), ())
            raise DomainError("unbounded nonzero piece")
        lo, hi = self.lo, self.hi
        if d1 == 0:
            return LogLinearValue((n0 + n1 * (hi + lo) / 2) * (hi - lo), ())
        return LogLinearValue(n1 * (hi - lo), ((n0 - n1 * d0, (d0 + hi) / (d0 + lo)),))

    def to_json_dict(self) -> dict:
        n0, n1, d0, d1 = self.params
        kind, shown = "linfrac", self.params
        if d1 == 0:
            kind, shown = ("affine", (n0, n1)) if n1 else ("const", (n0,))
        elif n1 == d0 == 0:
            kind, shown = "recip", (n0,)
        return {
            "lo": rat_str(self.lo),
            "hi": None if self.hi is None else rat_str(self.hi),
            "kind": kind,
            "params": [rat_str(p) for p in shown],
        }


class LogLinearValue(Record):
    """rational + sum of coef*ln(arg) with rational coefs and args > 1."""

    rational: Fraction
    logs: tuple[tuple[Fraction, Fraction], ...]

    def __add__(self, other: "LogLinearValue") -> "LogLinearValue":
        merged: dict[Fraction, Fraction] = {}
        for coef, a in self.logs + other.logs:
            merged[a] = merged.get(a, Fraction(0)) + coef
        logs = tuple(sorted((c, a) for a, c in merged.items() if c != 0))
        return LogLinearValue(self.rational + other.rational, logs)

    def enclosure(self, eps: RationalLike) -> tuple[Fraction, Fraction]:
        """Rational interval of width < eps containing the exact value."""
        eps = rat(eps)
        if eps <= 0:
            raise DomainError("enclosure width must be positive")
        lo = hi = self.rational
        if not self.logs:
            return lo, hi
        share = eps / len(self.logs)
        for coef, a in self.logs:
            llo, lhi = ln_enclosure(a, share / (2 * max(abs(coef), Fraction(1))))
            if coef >= 0:
                lo += coef * llo
                hi += coef * lhi
            else:
                lo += coef * lhi
                hi += coef * llo
        return lo, hi

    def to_json_dict(self) -> dict:
        return {
            "rational": rat_str(self.rational),
            "logs": [
                {"coef": rat_str(c), "arg": rat_str(a)} for c, a in self.logs
            ],
        }


def ln_enclosure(arg: RationalLike, eps: RationalLike) -> tuple[Fraction, Fraction]:
    """Bracket ln(arg) for rational arg >= 1 to width < eps.

    Uses the alternating series ln(1+t) = t - t^2/2 + ... after factoring
    the argument into k powers of 3/2 and a rest so that t <= 1/2;
    consecutive partial sums of an alternating series with decreasing terms
    bracket the limit.  The k equal factors share one series, summed on ints.
    A factor that needs more than 4096 terms raises ``BudgetExceeded``.
    """
    arg = rat(arg)
    eps = rat(eps)
    if arg < 1:
        raise DomainError("ln_enclosure expects an argument >= 1")
    if eps <= 0:
        raise DomainError("enclosure width must be positive")
    n, d, k = arg.numerator, arg.denominator, 0
    while 2 * n > 3 * d:  # arg / (3/2)^k > 3/2
        n, d, k = 2 * n, 3 * d, k + 1
    rest = Fraction(n - d, d)
    lo = hi = Fraction(0)
    for t, count in [(Fraction(1, 2), k)] * (k > 0) + [(rest, 1)] * (rest > 0):
        llo, lhi = _log1p_bounds(t, eps / (k + (rest > 0)))
        lo, hi = lo + count * llo, hi + count * lhi
    return lo, hi


def _log1p_bounds(t: Fraction, share: Fraction) -> tuple[Fraction, Fraction]:
    """Consecutive partial sums of ln(1 + t), 0 < t = p/q <= 1/2: the series
    runs while its term t^j is at least share/2, and for at least 2 terms."""
    p, q, sn, sd = t.numerator, t.denominator, share.numerator, 2 * share.denominator
    j, pj, qj = 1, p, q  # (p/q)^j = pj/qj
    while pj * sd >= sn * qj or j <= 2:
        j, pj, qj = j + 1, pj * p, qj * q
        if j > 4096:
            raise BudgetExceeded("log series needs more than 4096 terms for this enclosure width")
    # t - t^2/2 + ... +- t^J/J for J = j - 1, over q^J * lcm(1..J), by
    # Horner in q; the next term, pj/(qj*j), bounds the remainder.
    scale = lcm(*range(1, j))
    num, pi = 0, 1
    for i in range(1, j):
        pi *= p
        num = num * q + (pi if i % 2 else -pi) * (scale // i)
    partial, tail = Fraction(num, qj // q * scale), Fraction(pj, qj * j)
    return (partial, partial + tail) if j % 2 else (partial - tail, partial)


def piecewise_integral(pieces: Sequence[CurvePiece]) -> LogLinearValue:
    total = LogLinearValue(Fraction(0), ())
    for p in pieces:
        total = total + p.integral()
    return total


def _rational_roots(a2: Fraction, a1: Fraction, a0: Fraction) -> list[Fraction]:
    """Positive rational roots of a2*x^2 + a1*x + a0 = 0, solved on the
    coefficients scaled to ints."""
    a2, a1, a0 = scaled_to_ints((a2, a1, a0))[1]
    if a2 == 0:
        if a1 == 0:
            return []
        r = Fraction(-a0, a1)
        return [r] if r > 0 else []
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []  # irrational crossing; the fit verification would catch it
    return [r for r in (Fraction(-a1 + s, 2 * a2), Fraction(-a1 - s, 2 * a2)) if r > 0]


def _linfrac_equal_roots(e1, e2) -> list[Fraction]:
    """Roots of (n0+n1*x)/(d0+d1*x) == (N0+N1*x)/(D0+D1*x)."""
    n0, n1, d0, d1 = e1
    N0, N1, D0, D1 = e2
    a0 = n0 * D0 - N0 * d0
    a1 = n0 * D1 + n1 * D0 - N0 * d1 - N1 * d0
    a2 = n1 * D1 - N1 * d1
    return _rational_roots(a2, a1, a0)


def _fit_piece(lo: Fraction, hi: Fraction, samples: list[tuple[Fraction, Fraction]]) -> CurvePiece:
    """Fit (n0 + n1*x)/(d0 + d1*x) through exact samples: an affine form
    (d1 = 0) through the first two, else d1 = 1 and (n1, d0) from the 2x2
    system y*(d0 + x) = n0 + n1*x at the first three.  Every other sample
    is verified."""
    (x0, y0), (x1, y1), (x2, y2) = samples[:3]
    q = (y1 - y0) / (x1 - x0)
    p = y0 - q * x0
    if all(p + q * x == y for x, y in samples[2:]):
        return CurvePiece(lo, hi, (p, q, Fraction(1), Fraction(0)))
    # n1*(xi - x0) - d0*(yi - y0) = xi*yi - x0*y0 for i = 1, 2.
    det = (x2 - x0) * (y1 - y0) - (x1 - x0) * (y2 - y0)
    if det != 0:
        c1, c2 = x1 * y1 - x0 * y0, x2 * y2 - x0 * y0
        n1 = (c2 * (y1 - y0) - c1 * (y2 - y0)) / det
        d0 = ((x1 - x0) * c2 - (x2 - x0) * c1) / det
        n0 = y0 * (d0 + x0) - n1 * x0
        # n0 = n1*d0 would be the constant n1 with a hole at a sample.
        if n0 != n1 * d0 and all(y * (d0 + x) == n0 + n1 * x for x, y in samples[3:]):
            return CurvePiece(lo, hi, (n0, n1, d0, Fraction(1)))
    raise CurveResolutionError(
        f"expected workload on ({rat_str(lo)}, {rat_str(hi)}] fits no "
        "linear-fractional form"
    )


def expected_workcurve(
    rule,
    others_bids: Sequence[RationalLike],
    jobs: Sequence[RationalLike],
    cap: RationalLike,
) -> list[CurvePiece]:
    """Symbolic expected workload of the fractional binning rule vs own bid.

    Supported for at most one competitor (the two-machine analysis); each
    regime of the underlying max-min lower bound and of the bin pour is
    bounded by a root of a linear or bilinear rational equation, all of
    which are enumerated and solved exactly, and the expected workload on
    each regime is fit to one linear-fractional form (n0 + n1*x)/(d0 + d1*x):
    const, c/x and affine pieces, and P*a/(a+x) where the two-machine
    harmonic bound P*a*x/(a+x) sets the regime.
    """
    if getattr(rule, "name", None) != "at-expected":
        raise DomainError("expected curves are defined for the binning rule only")
    others_bids = rats(others_bids)
    cap = rat(cap)
    if len(others_bids) > 1:
        raise DomainError("symbolic expected curves support two machines only")
    base = Instance(jobs, (1, *others_bids))
    L, l_min = base.total_length, base.jobs[-1]
    zero, one = Fraction(0), Fraction(1)
    if not others_bids:
        return [CurvePiece(zero, None, (L, zero, one, zero))]
    a = others_bids[0]

    # Candidate expressions the lower bound can equal, as (n0,n1,d0,d1)
    # encoding (n0+n1*x)/(d0+d1*x).
    exprs: set[tuple[Fraction, Fraction, Fraction, Fraction]] = set()
    for l, P in zip(base.jobs, itertools.accumulate(base.jobs)):
        exprs.add((a * l, zero, one, zero))  # competitor per-job bound
        exprs.add((zero, l, one, zero))  # own per-job bound
        exprs.add((zero, P, one, zero))  # own-first average bound
        exprs.add((P * a, zero, one, zero))  # competitor-first average bound
        exprs.add((zero, P * a, a, one))  # two-machine harmonic bound
    candidates: set[Fraction] = {a, cap, a * L / l_min}
    # Each form on ints (both halves times one lcm), so the roots come from
    # int coefficients.  Pour boundaries are among these roots: the capacity
    # forms are in exprs.
    forms = [scaled_to_ints(e)[1] for e in exprs]
    for e1, e2 in itertools.combinations(forms, 2):
        candidates.update(_linfrac_equal_roots(e1, e2))
    support_end = a * L / l_min
    hi_end = max(cap, support_end)
    points = sorted({c for c in candidates if 0 < c <= hi_end})

    def eval_expected(x: Fraction) -> Fraction:
        return rule(base.with_bid(0, x)).expected_workloads[0]

    pieces: list[CurvePiece] = []
    edges = [Fraction(0)] + points
    for lo, hi in zip(edges, edges[1:]):
        # Each closed interval end belongs to its piece: hi is a sample too.
        sample_xs = [_between(lo, hi, k, 6) for k in range(1, 7)]
        pieces.append(_fit_piece(lo, hi, [(x, eval_expected(x)) for x in sample_xs]))
    # Beyond the last candidate the competitor bin swallows everything.
    final_val = eval_expected(hi_end * 2)
    if final_val != 0:
        raise CurveResolutionError("expected workload does not vanish beyond support")
    pieces.append(CurvePiece(points[-1], None, (zero, zero, one, zero)))
    # Merge adjacent pieces that are restrictions of the same form.
    merged: list[CurvePiece] = []
    for p in pieces:
        if merged and merged[-1].params == p.params:
            prev = merged.pop()
            p = CurvePiece(prev.lo, p.hi, p.params)
        merged.append(p)
    return merged
