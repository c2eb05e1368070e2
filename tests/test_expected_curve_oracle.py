"""``expected_workcurve`` against the enumeration it replaced.

The oracle below is a verbatim copy of the earlier function, except for
its name and its ``CurvePiece`` calls and merge test, which use the one
``(n0, n1, d0, d1)`` piece form.  After the pairwise roots of the candidate
expressions it solved a second pass of "pour boundaries": the roots of each
expression against the forms (0, P, 1, 0), (P*a, 0, 1, 0) and
(0, P*a, a, 1) of every prefix P.  Those forms are candidate expressions
themselves, so that pass can add no root.  On seeded draws both must give the same pieces, or raise
``CurveResolutionError`` with the same message; both share the package's
root solver and piece fit, which this file does not re-derive.
"""

import itertools
import random
from fractions import Fraction
from typing import Sequence

from schedmech.allocations import at_fractional
from schedmech.core import DomainError, Instance, RationalLike, rat, rat_str, rats
from schedmech.workcurve import (
    CurvePiece,
    CurveResolutionError,
    LogLinearValue,
    _fit_piece,
    _linfrac_equal_roots,
    expected_workcurve,
    piecewise_integral,
)

F = Fraction


def parent_expected_workcurve(
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
    each regime is fit to one of the closed forms const, c/x or affine.
    """
    if getattr(rule, "name", None) != "at-expected":
        raise DomainError("expected curves are defined for the binning rule only")
    others_bids = rats(others_bids)
    jobs = rats(jobs)
    cap = rat(cap)
    if len(others_bids) == 0:
        L = sum(jobs, Fraction(0))
        return [CurvePiece(Fraction(0), None, (L, Fraction(0), Fraction(1), Fraction(0)))]
    if len(others_bids) > 1:
        raise DomainError("symbolic expected curves support two machines only")
    a = others_bids[0]
    jobs_sorted = tuple(sorted(jobs, reverse=True))
    prefixes = list(itertools.accumulate(jobs_sorted))
    L = prefixes[-1]
    l_min = jobs_sorted[-1]

    # Candidate expressions the lower bound can equal, as (n0,n1,d0,d1)
    # encoding (n0+n1*x)/(d0+d1*x).
    exprs: set[tuple[Fraction, Fraction, Fraction, Fraction]] = set()
    zero, one = Fraction(0), Fraction(1)
    for l, P in zip(jobs_sorted, prefixes):
        exprs.add((a * l, zero, one, zero))  # competitor per-job bound
        exprs.add((zero, l, one, zero))  # own per-job bound
        exprs.add((zero, P, one, zero))  # own-first average bound
        exprs.add((P * a, zero, one, zero))  # competitor-first average bound
        exprs.add((zero, P * a, a, one))  # two-machine harmonic bound
    candidates: set[Fraction] = {a, cap, a * L / l_min}
    expr_list = sorted(exprs)
    for e1, e2 in itertools.combinations(expr_list, 2):
        candidates.update(_linfrac_equal_roots(e1, e2))
    # Pour boundaries: prefix sums crossing bin-capacity sums under any
    # candidate value of the lower bound.
    for e in expr_list:
        for P in prefixes:
            candidates.update(_linfrac_equal_roots((zero, P, one, zero), e))
            candidates.update(_linfrac_equal_roots((P * a, zero, one, zero), e))
            candidates.update(_linfrac_equal_roots((zero, P * a, a, one), e))
    support_end = a * L / l_min
    hi_end = max(cap, support_end)
    points = sorted({c for c in candidates if 0 < c <= hi_end})

    def eval_expected(x: Fraction) -> Fraction:
        return rule(Instance(jobs_sorted, (x, a))).expected_workloads[0]

    pieces: list[CurvePiece] = []
    edges = [Fraction(0)] + points
    for lo, hi in zip(edges, edges[1:]):
        span = hi - lo
        sample_xs = [lo + span * Fraction(k, 6) for k in (1, 2, 3, 4, 5)]
        piece = _fit_piece(lo, hi, [(x, eval_expected(x)) for x in sample_xs])
        # Each closed interval end belongs to its piece; verify at hi too.
        if piece.value_at(hi) != eval_expected(hi):
            raise CurveResolutionError(
                f"piece on ({rat_str(lo)}, {rat_str(hi)}] fails at its right edge"
            )
        pieces.append(piece)
    # Beyond the last candidate the competitor bin swallows everything.
    final_val = eval_expected(hi_end * 2)
    if final_val != 0:
        raise CurveResolutionError("expected workload does not vanish beyond support")
    pieces.append(CurvePiece(points[-1], None, (zero, zero, one, zero)))
    # Merge adjacent pieces that are restrictions of the same closed form.
    merged: list[CurvePiece] = []
    for p in pieces:
        if merged and merged[-1].params == p.params:
            prev = merged.pop()
            p = CurvePiece(prev.lo, p.hi, p.params)
        merged.append(p)
    return merged


def _outcome(curve_fn, a, jobs, cap):
    try:
        return curve_fn(at_fractional, (a,), jobs, cap)
    except CurveResolutionError as exc:
        return str(exc)


def _expected_at(jobs, a, x):
    return at_fractional(Instance(jobs, (x, a))).expected_workloads[0]


def test_pieces_equal_the_two_pass_enumeration():
    rng = random.Random(1414)
    fitted = 0
    for _ in range(200):
        jobs = [F(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))]
        a = F(rng.randint(1, 8), rng.choice((1, 2, 3)))
        cap = a * rng.randint(1, 4)
        got = _outcome(expected_workcurve, a, jobs, cap)
        assert got == _outcome(parent_expected_workcurve, a, jobs, cap), (jobs, a, cap)
        if isinstance(got, str):
            continue
        fitted += 1
        for piece in got:
            hi = piece.hi if piece.hi is not None else 2 * piece.lo
            for _ in range(3):
                x = piece.lo + (hi - piece.lo) * F(rng.randint(1, 64), 64)
                assert piece.value_at(x) == _expected_at(jobs, a, x), (jobs, a, x)
    # Every draw fits, harmonic regimes included.
    assert fitted == 200


def test_harmonic_regime_fits():
    # Machine 0 expects 15/(1+x) on (2/3, 7/8], where the two-machine
    # harmonic bound sets the regime.
    for x in (F(2, 3) + F(1, 100), F(7, 10), F(7, 8)):
        assert _expected_at((8, 6, 1), 1, x) == 15 / (1 + x)
    pieces = expected_workcurve(at_fractional, (1,), (8, 6, 1), cap=4)
    (piece,) = [p for p in pieces if p.lo == F(2, 3)]
    assert piece == CurvePiece(F(2, 3), F(7, 8), (F(15), F(0), F(1), F(1)))
    assert piece.to_json_dict()["kind"] == "linfrac"
    assert piece.integral() == LogLinearValue(F(0), ((F(15), F(9, 8)),))
    assert (F(15), F(9, 8)) in piecewise_integral(pieces).logs


def test_integrals_lie_between_the_riemann_sums():
    # On a piece without a pole, a linear-fractional function is monotone,
    # so the left and right sums of at_fractional over 16 equal cells
    # bracket its exact integral; the sums read the rule only, not the fit.
    # The cells cover [lo + w, hi] for a cell width w, since the value at lo
    # belongs to the piece before (lo may also be 0, where no bid exists).
    rng = random.Random(1414)
    for _ in range(20):
        jobs = [F(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))]
        a = F(rng.randint(1, 8), rng.choice((1, 2, 3)))
        cap = a * rng.randint(1, 4)
        for piece in expected_workcurve(at_fractional, (a,), jobs, cap):
            if piece.hi is None:
                continue
            width = (piece.hi - piece.lo) / 17
            ys = [_expected_at(jobs, a, piece.lo + k * width) for k in range(1, 18)]
            left, right = width * sum(ys[:-1]), width * sum(ys[1:])
            inner = CurvePiece(piece.lo + width, piece.hi, piece.params)
            lo, hi = inner.integral().enclosure(F(1, 10**9))
            assert lo <= max(left, right) and min(left, right) <= hi, (jobs, a, piece)
