"""Bid-response curves: exact step functions of one machine's own bid.

For a deterministic allocation rule and fixed competitor bids, the first
machine's workload as a function of its own bid is a nonincreasing step
function with rational breakpoints.  This module discovers those
breakpoints exactly (candidate seeding, each candidate tested as a jump,
simplest-rational bisection as the fallback), integrates the curve
exactly, and, for the fractional binning rule, derives the piecewise
closed form of the *expected* workload, whose integral picks up
logarithmic terms that are kept symbolic with rational enclosures.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    DomainError,
    ExpectedAllocation,
    Instance,
    JobData,
    RationalLike,
    ceil_log2,
    rat,
    rat_str,
    rats,
    scaled_to_ints,
)

# Largest denominator a jump hypothesis may have before bisection goes on.
MAX_DENOMINATOR = 2 ** 64


class CurveResolutionError(RuntimeError):
    """Breakpoint discovery exhausted its budget; the curve is not exact."""


class DivergentIntegral(ArithmeticError):
    """The integral to infinity of a curve with nonzero tail."""


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in the open interval (lo, hi).

    Ties on denominator are broken toward the smaller numerator, which is
    what the Stern-Brocot descent below produces.  Requires 0 <= lo < hi.
    """
    if lo < 0:
        raise DomainError("simplest_between only supports nonnegative bounds")
    if not lo < hi:
        raise DomainError("empty interval")
    floor_lo = lo.numerator // lo.denominator
    if lo == floor_lo:
        if hi > floor_lo + 1:
            return Fraction(floor_lo + 1)
        # (integer, hi) with hi <= integer+1: smallest k with floor+1/k < hi
        inv = 1 / (hi - lo)
        k = inv.numerator // inv.denominator + 1
        return floor_lo + Fraction(1, k)
    if Fraction(floor_lo + 1) < hi:
        return Fraction(floor_lo + 1)
    return floor_lo + 1 / simplest_between(1 / (hi - floor_lo), 1 / (lo - floor_lo))


@dataclass(frozen=True)
class WorkCurve:
    """Piecewise-constant bid response.

    ``values[j]`` holds on the open interval (breakpoints[j-1], breakpoints[j])
    with the left edge of the first interval at 0; ``tail`` holds beyond the
    last breakpoint.
    Values at the breakpoints themselves are taken from the right: they are
    measure zero and never affect an integral.  A nonzero tail means the
    underlying rule was still allocating work where sampling stopped, so
    integrals to infinity diverge (or the sampling cap was simply too small
    -- that is the caller's promise to keep).
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    tail: Fraction
    approximate: bool = False

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints):
            raise DomainError("need one value per breakpoint interval")
        prev = Fraction(0)
        for x in self.breakpoints:
            if x <= prev:
                raise DomainError("breakpoints must be strictly increasing and positive")
            prev = x

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
            raise DivergentIntegral(
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


# ---------------------------------------------------------------------------
# Step-function discovery


def _between(lo: Fraction, hi: Fraction, k: int, d: int) -> Fraction:
    """lo + (hi - lo)*k/d from the ints of both ends: each point discovery places."""
    p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return Fraction(p * s * (d - k) + r * q * k, q * s * d)


def _steps_at(
    f: Callable[[Fraction], Fraction],
    lo: Fraction,
    vlo: Fraction,
    z: Fraction,
    hi: Fraction,
    vhi: Fraction,
) -> bool:
    """Jump hypothesis: f steps from vlo to vhi at z inside (lo, hi).

    Probes at z - (z-lo)/2^k and z + (hi-z)/2^k for k in (1, 16, 40) must
    read vlo and vhi, and f(z) itself must be one of the two values.
    """
    return (
        all(f(_between(lo, z, (1 << k) - 1, 1 << k)) == vlo for k in (1, 16, 40))
        and all(f(_between(z, hi, 1, 1 << k)) == vhi for k in (1, 16, 40))
        and f(z) in (vlo, vhi)
    )


def _locate_jumps(
    f: Callable[[Fraction], Fraction],
    x1: Fraction,
    v1: Fraction,
    x2: Fraction,
    v2: Fraction,
    candidates: Sequence[Fraction],
    depth: int = 0,
) -> Optional[list[tuple[Fraction, Fraction]]]:
    """Exact jump points of a step function in [x1, x2], given f(x1) != f(x2),
    each with the value just right of it.

    Each candidate strictly inside the bracket is first tested as the
    jump under the same hypothesis test the bisection uses.  Failing that, a
    simplest-rational hypothesis test alternates with plain bisection.
    Bisection shrinks the bracket geometrically; once it is tight enough
    that the true jump is the simplest rational inside (any two rationals
    with denominator at most q are at least 1/q^2 apart), the hypothesis
    test confirms it exactly.  Steps closed on either side are caught by
    endpoint probes.  Returns None when the budgets run out, in which case
    the caller flags the curve approximate.
    """
    if depth > 8:
        return None
    lo, vlo, hi, vhi = x1, v1, x2, v2
    for z in candidates:
        if lo < z < hi and _steps_at(f, lo, vlo, z, hi, vhi):
            return [(z, vhi)]
    for _ in range(260):
        # Endpoint hypotheses: the value changes immediately after lo
        # (breakpoint lo itself), or only at hi.
        if all(f(_between(lo, hi, 1, 1 << k)) == vhi for k in (14, 34, 54)):
            return [(lo, vhi)]
        if all(f(_between(lo, hi, (1 << k) - 1, 1 << k)) == vlo for k in (14, 34, 54)):
            return [(hi, vhi)]
        z = simplest_between(lo, hi)
        if z.denominator <= MAX_DENOMINATOR and _steps_at(f, lo, vlo, z, hi, vhi):
            return [(z, vhi)]
        mid = _between(lo, hi, 1, 2)
        vm = f(mid)
        if vm == vlo:
            lo = mid
        elif vm == vhi:
            hi = mid
        else:
            left = _locate_jumps(f, lo, vlo, mid, vm, candidates, depth + 1)
            right = _locate_jumps(f, mid, vm, hi, vhi, candidates, depth + 1)
            if left is None or right is None:
                return None
            return left + right
    return None


MAX_BREAKPOINTS = 512


def discover_step_function(
    f: Callable[[Fraction], Fraction],
    candidates: Iterable[RationalLike],
    cap: RationalLike,
) -> WorkCurve:
    """Recover a piecewise-constant f on (0, cap] exactly.

    ``candidates`` delimit the initial sampling grid (three quantiles per
    candidate interval, placed like every probe by ``_between`` from the
    ints of its two ends); every jump is then located exactly between
    adjacent samples that disagree.  A candidate between them is tested
    first, and accepted as the jump only under the probe test a
    simplest-rational hypothesis must pass; otherwise simplest-rational
    bisection finds it.  The curve's tail is the value on the final interval
    ending at cap, and it is flagged approximate when a jump could not be
    located exactly.  A jump hiding between two equal-valued samples is
    invisible; candidate sets must be dense enough to expose one sign of
    every change.

    Curves are exact when every jump is a candidate, which holds for the
    package's rules.  A jump nearer to a tested point than 2^-40 of its
    bracket is read at that point, and the curve is not flagged: a rule
    giving machine 0 all the work iff b0 < b1 + 1/(2^70+1) yields
    breakpoint 1 against competitor bid 1, not approximate.
    """
    cap = rat(cap)
    if cap <= 0:
        raise DomainError("cap must be positive")
    points = sorted({c for c in map(rat, candidates) if 0 < c < cap})
    edges = [Fraction(0)] + points + [cap]
    samples: list[Fraction] = []
    for lo, hi in zip(edges, edges[1:]):
        samples.extend(_between(lo, hi, k, 4) for k in (1, 2, 3))
    values = [f(q) for q in samples]
    approximate = False
    jumps: dict[Fraction, Fraction] = {}
    for (xa, va), (xb, vb) in zip(zip(samples, values), zip(samples[1:], values[1:])):
        if va != vb:
            inside = points[bisect_right(points, xa):bisect_left(points, xb)]
            found = _locate_jumps(f, xa, va, xb, vb, inside)
            if found is None:
                approximate = True
                jumps[xb] = vb  # best effort: split at the right sample
            else:
                jumps.update(found)
            if len(jumps) > MAX_BREAKPOINTS:
                raise CurveResolutionError(
                    f"more than {MAX_BREAKPOINTS} jumps on (0, {rat_str(cap)}]; "
                    "the response does not look like a bounded step function"
                )
    breakpoints: list[Fraction] = []
    vals = [values[0]]
    for x, v in sorted(jumps.items()):
        if v != vals[-1]:
            breakpoints.append(x)
            vals.append(v)
    tail = vals.pop()
    return WorkCurve(tuple(breakpoints), tuple(vals), tail, approximate)


def _response_eval(rule, bids, jobs, machine: int) -> Callable[[Fraction], Fraction]:
    """Machine 0's workload under ``rule`` as ``machine``'s bid varies."""
    base = Instance(jobs, bids)

    def f(x: Fraction) -> Fraction:
        result = rule(base.with_bid(machine, x))
        if isinstance(result, ExpectedAllocation):
            raise DomainError(
                "rule returns expected allocations; bid-response curves need "
                "deterministic workloads"
            )
        return result.workloads[0]

    return f


def subset_ratio_points(
    scales: Sequence[Fraction], jobs: Sequence[Fraction], cap: Fraction
) -> set[Fraction]:
    """Points where exact makespan or running-time comparisons can flip.

    Each positive scale times s1/s2 over the nonzero job subset sums (s1 = s2
    gives the scale itself), limited to (0, cap], on the jobs' scaled ints.
    Up to 12 jobs every sum of ``JobData.subset_sums`` is used; above that,
    prefix sums plus single jobs keep the set small.
    """
    if len(jobs) <= 12:
        sums = JobData(tuple(jobs)).subset_sums[0][1:]
    else:
        lengths = scaled_to_ints(jobs)[1]
        sums = {*itertools.accumulate(lengths), *lengths}
    return {Fraction(b.numerator * s1, b.denominator * s2)
            for b in scales if b.numerator > 0 for s1 in sums for s2 in sums
            if b.numerator * s1 * cap.denominator <= cap.numerator * b.denominator * s2}


def power_of_two_points(lo: Fraction, cap: Fraction) -> set[Fraction]:
    """Every power of two in [lo, cap]: where rounded speeds change."""
    powers = (Fraction(2) ** e for e in range(ceil_log2(lo), ceil_log2(cap) + 1))
    return {p for p in powers if p <= cap}


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
    others_bids, jobs, cap = rats(others_bids), rats(jobs), rat(cap)
    f = _response_eval(rule, (1, *others_bids), jobs, 0)
    hints = getattr(rule, "breakpoint_hints", None)
    if hints is not None:
        # A rule that knows its own comparison structure supplies a complete
        # candidate set; the quantile verification still guards it.
        candidates = hints(others_bids, jobs, cap)
    else:
        # Bid-comparison thresholds plus rounded-speed flips: good for the
        # rules in this package.
        lo = min((*others_bids, cap)) * min(jobs) / (2 * sum(jobs))
        candidates = subset_ratio_points(others_bids, jobs, cap)
        candidates |= power_of_two_points(lo, cap)
    return discover_step_function(f, candidates, cap)


def build_response_curve(
    rule,
    own_bid: RationalLike,
    jobs: Sequence[RationalLike],
    cap: RationalLike,
) -> WorkCurve:
    """The first machine's workload at bid ``own_bid`` as the competitor's
    bid varies over (0, cap]: the curves the certificate for scalable
    two-machine rules integrates on both sides of its inequality."""
    own_bid, jobs, cap = rat(own_bid), rats(jobs), rat(cap)
    f = _response_eval(rule, (own_bid, own_bid), jobs, 1)
    return discover_step_function(f, subset_ratio_points((own_bid,), jobs, cap), cap)


# ---------------------------------------------------------------------------
# Symbolic expected curves (fractional binning rule)


@dataclass(frozen=True)
class CurvePiece:
    """One regime of an expected-workload curve on (lo, hi]: the
    linear-fractional form (n0 + n1*x)/(d0 + d1*x), with ``params`` =
    (n0, n1, d0, d1) scaled so that d1 = 1, or d0 = 1 when d1 = 0; equal
    forms thus have equal params.  hi=None encodes an unbounded final piece,
    whose integral is finite only when the form is 0.
    """

    lo: Fraction
    hi: Optional[Fraction]
    params: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if self.params[3] != 1 and self.params[2:] != (1, 0):
            shown = [rat_str(p) for p in self.params]
            raise DomainError(f"piece params {shown} need d1 = 1, or d0 = 1 when d1 = 0")
        if self.params[3] == 1 and self.params[2] + self.lo <= 0:
            raise DomainError("a piece's denominator d0 + x must be positive on it")

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
            raise DivergentIntegral("unbounded nonzero piece")
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


@dataclass(frozen=True)
class LogLinearValue:
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
    the argument into powers of 3/2 so that t <= 1/2; consecutive partial
    sums of an alternating series with decreasing terms bracket the limit.
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
                raise CurveResolutionError("log series failed to converge")
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


def piecewise_integral(pieces: Sequence[CurvePiece]) -> LogLinearValue:
    total = LogLinearValue(Fraction(0), ())
    for p in pieces:
        total = total + p.integral()
    return total


def _rational_roots(a2: Fraction, a1: Fraction, a0: Fraction) -> list[Fraction]:
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
    # Pour boundaries are among these roots: the capacity forms are in exprs.
    for e1, e2 in itertools.combinations(exprs, 2):
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
