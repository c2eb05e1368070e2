"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

Certificates must not depend on floating tolerance, so the tableau is pure
``fractions.Fraction`` arithmetic; Bland's pivoting rule guarantees
termination.  Only feasibility is needed (no objective): the solver
minimizes the sum of artificial variables and reports a witness when that
optimum is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import WEAK_RELATIONS, DomainError, compare

MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (relation)  rhs over nonnegative variables."""

    coeffs: tuple[tuple[int, Fraction], ...]
    relation: str  # '<=', '>=', '=='
    rhs: Fraction
    label: str = ""

    def __post_init__(self):
        if self.relation not in WEAK_RELATIONS:
            raise DomainError(f"unknown relation {self.relation!r}")

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        lhs = sum((c * x[i] for i, c in self.coeffs), Fraction(0))
        return compare(lhs, self.relation, self.rhs, WEAK_RELATIONS)


def solve_feasibility(
    n_vars: int, constraints: Sequence[Constraint]
) -> Optional[list[Fraction]]:
    """A nonnegative solution satisfying every constraint, or None.

    Builds the phase-1 problem (slack per inequality, artificial per row
    that a slack basis cannot satisfy) and drives the artificial sum to
    zero with Bland's smallest-index rule.  Only the variables the rows
    mention get a column, in index order; the others are nonnegative and
    unconstrained, so they stay 0.
    """
    used = sorted({i for con in constraints for i, _ in con.coeffs})
    column = {i: k for k, i in enumerate(used)}
    n_cols = len(used)
    rows = []  # (dense coeffs, rhs) with rhs >= 0, equality form
    for con in constraints:
        dense = [Fraction(0)] * n_cols
        for i, c in con.coeffs:
            dense[column[i]] += c
        rhs = con.rhs
        rel = con.relation
        if rel == ">=":
            dense = [-c for c in dense]
            rhs = -rhs
            rel = "<="
        if rel == "<=":
            # slack column added later; rhs must be nonnegative for the
            # slack to start basic
            if rhs >= 0:
                rows.append((dense, rhs, 1, False))
            else:
                rows.append(([-c for c in dense], -rhs, -1, True))
        else:  # '=='
            if rhs < 0:
                dense = [-c for c in dense]
                rhs = -rhs
            rows.append((dense, rhs, 0, True))
    n_rows = len(rows)
    n_slack = sum(1 for _, _, s, _ in rows if s != 0)
    n_art = sum(1 for _, _, _, a in rows if a)
    width = n_cols + n_slack + n_art
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = 0
    art_at = 0
    art_cols = []
    for dense, rhs, slack_sign, needs_art in rows:
        row = list(dense) + [Fraction(0)] * (n_slack + n_art) + [rhs]
        if slack_sign != 0:
            row[n_cols + slack_at] = Fraction(slack_sign)
            slack_col = n_cols + slack_at
            slack_at += 1
        if needs_art:
            col = n_cols + n_slack + art_at
            row[col] = Fraction(1)
            art_cols.append(col)
            basis.append(col)
            art_at += 1
        else:
            basis.append(slack_col)
        tableau.append(row)
    # Phase-1 objective: minimize sum of artificials. Reduced costs start as
    # the negated column sums over artificial rows.
    art_set = set(art_cols)
    obj = [Fraction(0)] * (width + 1)
    for r, b in enumerate(basis):
        if b in art_set:
            for c in range(width + 1):
                obj[c] -= tableau[r][c]
    for c in art_cols:
        obj[c] = Fraction(0)

    pivots = 0
    while True:
        entering = None
        for c in range(width):
            if obj[c] < 0:
                entering = c
                break
        if entering is None:
            break
        ratio = None
        leaving = None
        for r in range(n_rows):
            a = tableau[r][entering]
            if a > 0:
                cand = tableau[r][width] / a
                if ratio is None or cand < ratio or (
                    cand == ratio and basis[r] < basis[leaving]
                ):
                    ratio = cand
                    leaving = r
        if leaving is None:
            raise ArithmeticError("phase-1 objective unbounded; encoding bug")
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise ArithmeticError("pivot budget exhausted")
        piv = tableau[leaving][entering]
        tableau[leaving] = [v / piv for v in tableau[leaving]]
        for r in range(n_rows):
            if r != leaving and tableau[r][entering] != 0:
                factor = tableau[r][entering]
                tableau[r] = [
                    v - factor * w for v, w in zip(tableau[r], tableau[leaving])
                ]
        if obj[entering] != 0:
            factor = obj[entering]
            obj = [v - factor * w for v, w in zip(obj, tableau[leaving] + [])]
        basis[leaving] = entering

    if -obj[width] != 0:
        return None  # artificials cannot all vanish: infeasible
    x = [Fraction(0)] * n_vars
    for r, b in enumerate(basis):
        if b < n_cols:
            x[used[b]] = tableau[r][width]
    for con in constraints:
        if not con.satisfied_by(x):
            raise AssertionError("witness fails a constraint; solver bug")
    return x


def irreducible_infeasible_subset(
    n_vars: int, constraints: Sequence[Constraint]
) -> list[Constraint]:
    """Deletion filter: drop constraints whose removal keeps infeasibility.

    The result is irreducible (removing any single member restores
    feasibility) and is re-verified infeasible before returning.
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
    if solve_feasibility(n_vars, kept) is not None:
        raise AssertionError
    return kept
