import random
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from schedmech import exactlp
from schedmech.core import WEAK_RELATIONS, DomainError, compare
from schedmech.exactlp import (
    MAX_PIVOTS,
    Constraint,
    irreducible_infeasible_subset,
    solve_feasibility,
)

F = Fraction


# The package's earlier witness check, ``Constraint.satisfied_by``, moved
# here when the simplex began to re-check its witness on ints: the
# ``Fraction`` re-substitution that the integer check must agree with.
def satisfied_by(con: Constraint, x: Sequence[Fraction]) -> bool:
    lhs = sum((c * x[i] for i, c in con.coeffs), Fraction(0))
    return compare(lhs, con.relation, con.rhs, WEAK_RELATIONS)


# The simplex on a Fraction tableau, verbatim but for its name: the oracle
# the integer tableau must match pivot for pivot, witness for witness.
def fraction_solve_feasibility(
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
        if not satisfied_by(con, x):
            raise AssertionError("witness fails a constraint; solver bug")
    return x



def con(coeffs, rel, rhs, label=""):
    return Constraint(tuple(coeffs), rel, F(rhs), label)


class TestSolveFeasibility:
    def test_simple_feasible_system(self):
        x = solve_feasibility(
            2,
            [
                con([(0, F(1)), (1, F(1))], ">=", 3),
                con([(0, F(1))], "<=", 2),
                con([(1, F(1))], "<=", 2),
            ],
        )
        assert x is not None  # the solver self-checks the witness

    def test_simple_infeasible_system(self):
        x = solve_feasibility(
            1,
            [con([(0, F(1))], ">=", 2), con([(0, F(1))], "<=", 1)],
        )
        assert x is None

    def test_equalities(self):
        x = solve_feasibility(
            2,
            [
                con([(0, F(1)), (1, F(2))], "==", 4),
                con([(0, F(1)), (1, F(-1))], "==", 1),
            ],
        )
        assert x == [F(2), F(1)]

    def test_negative_rhs_paths(self):
        x = solve_feasibility(
            1,
            [con([(0, F(-1))], "<=", -2)],  # means x >= 2
        )
        assert x is not None and x[0] >= 2

    def test_nonnegativity_is_implicit(self):
        assert solve_feasibility(1, [con([(0, F(1))], "<=", -3)]) is None

    @pytest.mark.parametrize("index", [3, -1])
    def test_variable_outside_range_is_a_domain_error(self, index):
        # past the end, and negative, which list indexing would wrap round
        with pytest.raises(DomainError, match=r"range\(1\)"):
            solve_feasibility(1, [con([(index, F(1))], ">=", 1)])

    def test_relation_validation(self):
        with pytest.raises(DomainError):
            Constraint(((0, F(1)),), "<", F(1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_systems_built_around_a_point_are_feasible(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        target = [F(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 10)):
            coeffs = [
                (i, F(rng.randint(-4, 4))) for i in range(n) if rng.random() < 0.7
            ]
            value = sum((c * target[i] for i, c in coeffs), F(0))
            rel = rng.choice(("<=", ">=", "=="))
            slack = F(rng.randint(0, 3))
            rhs = value + slack if rel == "<=" else value - slack
            if rel == "==":
                rhs = value
            rows.append(con(coeffs, rel, rhs))
        assert solve_feasibility(n, rows) is not None


class TestIrreducibleSubset:
    def test_filter_drops_redundant_rows(self):
        rows = [
            con([(0, F(1))], "<=", 10, "loose-upper"),
            con([(0, F(1))], ">=", 5, "conflicting-lower"),
            con([(0, F(1))], "<=", 1, "tight-upper"),
            con([(1, F(1))], "<=", 7, "unrelated"),
        ]
        subset = irreducible_infeasible_subset(2, rows)
        labels = {c.label for c in subset}
        assert labels == {"conflicting-lower", "tight-upper"}
        # irreducible: removing any member restores feasibility
        for i in range(len(subset)):
            rest = list(subset[:i]) + list(subset[i + 1 :])
            assert solve_feasibility(2, rest) is not None

    def test_rejects_feasible_input(self):
        with pytest.raises(DomainError):
            irreducible_infeasible_subset(1, [con([(0, F(1))], "<=", 1)])

    @pytest.mark.parametrize("k", range(2, 6))
    def test_simple_cycle_costs_one_solve_per_row_and_one_more(self, k, monkeypatch):
        # x[i+1] - x[i] >= 1 round a cycle sums to 0 >= k; dropping any row
        # leaves a path, which is feasible, so every row stays.
        rows = [con([((i + 1) % k, F(1)), (i, F(-1))], ">=", 1, str(i)) for i in range(k)]
        calls = []

        def counting_solve(n_vars, constraints):
            calls.append(len(constraints))
            return solve_feasibility(n_vars, constraints)

        monkeypatch.setattr(exactlp, "solve_feasibility", counting_solve)
        assert irreducible_infeasible_subset(k, rows) == rows
        assert calls == [k] + [k - 1] * k


def _random_system(rng):
    """1-5 variables and 0-8 rows with Fraction, zero and repeated
    coefficients, empty rows, all three relations and right-hand sides of
    both signs; a third of the systems are built around a point, so they are
    feasible."""
    n = rng.randint(1, 5)
    point = None
    if rng.random() < 1 / 3:
        point = [F(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(n)]
    rows = []
    for k in range(rng.randint(0, 8)):
        coeffs = [
            (i, F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 6))))
            for i in range(n)
            if rng.random() < 0.6
        ]
        if coeffs and rng.random() < 0.15:
            coeffs.append((coeffs[0][0], F(rng.randint(-3, 3), 4)))
        rel = rng.choice(("<=", ">=", "=="))
        if point is None:
            rhs = F(rng.randint(-6, 6), rng.choice((1, 2, 5)))
        else:
            rhs = sum((c * point[i] for i, c in coeffs), F(0))
            slack = F(rng.randint(0, 3), rng.choice((1, 2)))
            rhs += slack if rel == "<=" else -slack if rel == ">=" else 0
        rows.append(con(coeffs, rel, rhs, f"r{k}"))
    return n, rows


def test_integer_tableau_returns_what_the_fraction_tableau_returns():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(2400):
        n, rows = _random_system(rng)
        x = solve_feasibility(n, rows)
        assert x == fraction_solve_feasibility(n, rows), rows
        seen["infeasible" if x is None else "feasible"] += 1
        seen["no rows"] += not rows
        seen["empty row"] += any(not c.coeffs for c in rows)
        seen["zero coefficient"] += any(v == 0 for c in rows for _, v in c.coeffs)
        seen["negative equality"] += any(c.relation == "==" and c.rhs < 0 for c in rows)
    assert min(seen["feasible"], seen["infeasible"]) >= 800
    assert min(seen.values()) >= 20, seen


def _deletion_filter(n_vars, rows, solve):
    kept = list(rows)
    idx = 0
    while idx < len(kept):
        trial = kept[:idx] + kept[idx + 1:]
        if solve(n_vars, trial) is None:
            kept = trial
        else:
            idx += 1
    return kept


def test_infeasible_subset_is_the_fraction_tableau_deletion_filter():
    rng = random.Random(15)
    checked = 0
    while checked < 150:
        n, rows = _random_system(rng)
        if fraction_solve_feasibility(n, rows) is None:
            expected = _deletion_filter(n, rows, fraction_solve_feasibility)
            assert irreducible_infeasible_subset(n, rows) == expected
            checked += 1


def _difference_cycle(rng):
    """Rows ``x[head] - x[tail] (>=|<=|==) c`` round a 2-5 variable cycle,
    shaped like the polytope's negative cycles, over a spare variable that
    no row names; about four in five of them are feasible."""
    k = rng.randint(2, 5)
    rows = []
    for i in range(k):
        head, tail = (i + 1) % k, i
        rel = rng.choice((">=", ">=", "<=", "=="))
        rhs = F(rng.randint(-6, 4), rng.choice((1, 2, 3, 4)))
        rows.append(con([(head, F(1)), (tail, F(-1))], rel, rhs, f"c{i}"))
    return k + 1, rows


def test_integer_witness_check_agrees_with_the_fraction_resubstitution(monkeypatch):
    """Every witness the simplex checks, and each copy of it with one column
    moved by one unit (1 over the lcm of the basic pivots), passes the
    integer check exactly when the ``Fraction`` re-substitution of the
    removed ``Constraint.satisfied_by`` accepts it."""
    check = exactlp._check_witness
    seen = Counter()
    system = {}

    def compared(given, values, denominator):
        n, rows = system["n"], system["rows"]
        used = sorted({i for c in rows for i, _ in c.coeffs})
        for column, step in [(None, 0)] + [(b, s) for b in range(len(values)) for s in (-1, 1)]:
            moved = list(values)
            if column is not None:
                moved[column] += step
            x = [F(0)] * n
            for b, value in enumerate(moved):
                x[used[b]] = F(value, denominator)
            try:
                check(given, moved, denominator)
                accepted = True
            except AssertionError:
                accepted = False
            assert accepted == all(satisfied_by(c, x) for c in rows), (rows, moved, denominator)
            if column is None:
                assert accepted
                seen["witness"] += 1
            else:
                seen["moved, accepted" if accepted else "moved, refused"] += 1
        seen["denominator > 1"] += denominator > 1
        check(given, values, denominator)

    monkeypatch.setattr(exactlp, "_check_witness", compared)
    rng = random.Random(33)
    for draw in range(900):
        n, rows = _random_system(rng) if draw % 3 else _difference_cycle(rng)
        system.update(n=n, rows=rows)
        solve_feasibility(n, rows)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize(
    "n, rows",
    [
        (2, [con([(0, F(1)), (1, F(2))], "==", 4), con([(0, F(1)), (1, F(-1))], "==", 1)]),
        (1, [con([(0, F(3))], "==", 2)]),  # x = 2/3: one unit is 1/3
        (3, [con([(1, F(1)), (0, F(-1))], "==", F(1, 2)), con([(2, F(1)), (1, F(-1))], "==", F(5, 3)),
             con([(0, F(2))], "==", F(3, 4))]),
    ],
)
def test_a_basic_value_off_by_one_unit_is_refused(monkeypatch, n, rows):
    check = exactlp._check_witness
    x = solve_feasibility(n, rows)
    assert x is not None and all(satisfied_by(c, x) for c in rows)
    for column in range(n):
        for step in (-1, 1):
            def moved(given, values, denominator):
                shifted = list(values)
                shifted[column] += step
                check(given, shifted, denominator)

            monkeypatch.setattr(exactlp, "_check_witness", moved)
            with pytest.raises(AssertionError, match="witness fails a constraint"):
                solve_feasibility(n, rows)
