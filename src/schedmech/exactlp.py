"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

Certificates must not depend on floating tolerance, so the tableau is exact
on Python ints: each row is scaled by the lcm of its denominators, and a
pivot multiplies by the (positive) pivot, subtracts and divides out the
row's gcd, fraction-free as in Bareiss (1968).  Every row stays a positive
multiple of its ``Fraction`` form, so the pivots are those of a ``Fraction``
tableau.  Bland's rule guarantees termination.  The solver minimizes the sum
of artificial variables and reports a witness, re-checked on ints against
every row, when that optimum is zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .core import WEAK_RELATIONS, DomainError, Record, compare

MAX_PIVOTS = 200_000


class Constraint(Record):
    """coeffs . x  (relation)  rhs over nonnegative variables."""

    coeffs: tuple[tuple[int, Fraction], ...]
    relation: str  # '<=', '>=', '=='
    rhs: Fraction
    label: str = ""

    def __init__(self, coeffs: tuple[tuple[int, Fraction], ...], relation: str, rhs: Fraction, label: str = ""):
        if relation not in WEAK_RELATIONS:
            raise DomainError(f"unknown relation {relation!r}")
        self.__dict__.update(coeffs=coeffs, relation=relation, rhs=rhs, label=label)


def solve_feasibility(
    n_vars: int, constraints: Sequence[Constraint]
) -> Optional[list[Fraction]]:
    """A nonnegative solution satisfying every constraint, or None.

    Builds the phase-1 problem (slack per inequality, artificial per row
    that a slack basis cannot satisfy) and drives the artificial sum to
    zero with Bland's smallest-index rule.  Only the variables the rows
    mention get a column, in index order; the others are nonnegative and
    unconstrained, so they stay 0.  Raises ``DomainError`` when a row
    names a variable outside ``range(n_vars)``.
    """
    used = sorted({i for con in constraints for i, _ in con.coeffs})
    if used and (used[0] < 0 or used[-1] >= n_vars):
        raise DomainError(f"variables must lie in range({n_vars}), got {used[0]}..{used[-1]}")
    column = {i: k for k, i in enumerate(used)}
    n_cols = len(used)
    rows = []  # (int coeffs, rhs, slack sign, needs artificial, scale), rhs >= 0
    given = []  # (int coeffs, relation, rhs): each row times its scale, as given
    for con in constraints:
        scale = lcm(con.rhs.denominator, *(c.denominator for _, c in con.coeffs))
        dense = [0] * n_cols
        for i, c in con.coeffs:
            dense[column[i]] += c.numerator * (scale // c.denominator)
        rhs = con.rhs.numerator * (scale // con.rhs.denominator)
        rel = con.relation
        given.append((dense, rel, rhs))
        if rel == ">=":
            dense = [-c for c in dense]
            rhs = -rhs
            rel = "<="
        if rel == "<=":
            # slack column added later; rhs must be nonnegative for the
            # slack to start basic
            if rhs >= 0:
                rows.append((dense, rhs, 1, False, scale))
            else:
                rows.append(([-c for c in dense], -rhs, -1, True, scale))
        else:  # '=='
            if rhs < 0:
                dense = [-c for c in dense]
                rhs = -rhs
            rows.append((dense, rhs, 0, True, scale))
    n_slack = sum(1 for _, _, s, _, _ in rows if s != 0)
    n_art = sum(1 for _, _, _, a, _ in rows if a)
    width = n_cols + n_slack + n_art
    tableau: list[list[int]] = []
    basis, art_cols = [], []
    slack_at = art_at = 0
    for dense, rhs, slack_sign, needs_art, scale in rows:
        row = dense + [0] * (n_slack + n_art) + [rhs]
        if slack_sign != 0:
            row[n_cols + slack_at] = slack_sign * scale
            slack_col = n_cols + slack_at
            slack_at += 1
        if needs_art:
            col = n_cols + n_slack + art_at
            row[col] = scale
            art_cols.append(col)
            basis.append(col)
            art_at += 1
        else:
            basis.append(slack_col)
        tableau.append(row)
    # Phase-1 objective: minimize sum of artificials.  Each row is its
    # Fraction form times its scale, so weighting it by common / scale makes
    # the reduced costs common times the negated artificial-row sums.
    common = lcm(*(scale for *_, needs_art, scale in rows if needs_art))
    obj = [0] * (width + 1)
    for (*_, needs_art, scale), row in zip(rows, tableau):
        if needs_art:
            obj = [o - common // scale * v for o, v in zip(obj, row)]
    for c in art_cols:
        obj[c] = 0

    pivots = 0
    while True:
        entering = next((c for c in range(width) if obj[c] < 0), None)
        if entering is None:
            break
        leaving = None
        for r, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                if leaving is not None:
                    # rhs / a against the best ratio so far, cross-multiplied
                    best = tableau[leaving]
                    diff = row[width] * best[entering] - best[width] * a
                    if diff > 0 or (diff == 0 and basis[r] > basis[leaving]):
                        continue
                leaving = r
        if leaving is None:
            raise ArithmeticError("phase-1 objective unbounded; encoding bug")
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise ArithmeticError("pivot budget exhausted")
        pivot_row = tableau[leaving]
        piv = pivot_row[entering]  # > 0: multiplying by it keeps signs
        for r, row in enumerate(tableau):
            factor = row[entering]
            if r != leaving and factor != 0:
                tableau[r] = _primitive([piv * v - factor * w for v, w in zip(row, pivot_row)])
        factor = obj[entering]
        if factor != 0:
            obj = _primitive([piv * v - factor * w for v, w in zip(obj, pivot_row)])
        basis[leaving] = entering

    if obj[width] != 0:
        return None  # artificials cannot all vanish: infeasible
    # Basic variable b is rhs / pivot in its row: an int over the lcm of the pivots.
    basic = {b: row for b, row in zip(basis, tableau) if b < n_cols}
    denominator = lcm(*(row[b] for b, row in basic.items()))
    values = [basic[b][width] * (denominator // basic[b][b]) if b in basic else 0 for b in range(n_cols)]
    _check_witness(given, values, denominator)
    x = [Fraction(0)] * n_vars
    for b, value in enumerate(values):
        x[used[b]] = Fraction(value, denominator)
    return x


def _check_witness(given, values, denominator):
    """Substitute ``values / denominator`` into each ``given`` row, as given."""
    for dense, relation, rhs in given:
        if not compare(sum(map(mul, dense, values)), relation, rhs * denominator, WEAK_RELATIONS):
            raise AssertionError("witness fails a constraint; solver bug")


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries, a positive factor."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def irreducible_infeasible_subset(
    n_vars: int, constraints: Sequence[Constraint]
) -> list[Constraint]:
    """Deletion filter: drop constraints whose removal keeps infeasibility.

    The result is irreducible (removing any single member restores
    feasibility) and infeasible: it is the input or the last accepted
    trial, and both were already solved infeasible.
    """
    if solve_feasibility(n_vars, constraints) is not None:
        raise DomainError("constraint system is feasible")
    kept = list(constraints)
    idx = 0
    while idx < len(kept):
        trial = kept[:idx] + kept[idx + 1 :]
        if solve_feasibility(n_vars, trial) is None:
            kept = trial
        else:
            idx += 1
    return kept
