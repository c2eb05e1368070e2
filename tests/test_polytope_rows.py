"""The payment-polytope rows against the row code they replaced.

``_polytope_rows`` numbers the profiles, keeps integer rows and renders a
row as a ``Constraint`` only on request.  The oracle below is a verbatim
copy of the earlier ``Fraction``-keyed row code, which spelt out the ANON,
EF and IC rows separately and summed coefficients in ``_combine`` (only
the two function names differ).  On seeded grids every draw must give the
same grid, profiles, workloads, variable map, variable count, rendered rows
in the same order, and notes; the one difference allowed is that a row
whose two variables merged is a self-loop instead of empty.
"""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

from schedmech.allocations import RULES, two_machine_opt
from schedmech.certificates import _polytope_rows
from schedmech.core import BudgetExceeded, DomainError, Instance, rat, rat_str, rats
from schedmech.exactlp import Constraint

from test_certificates import FirstTakesAll

F = Fraction


# ---------------------------------------------------------------------------
# Oracle: the earlier row code, verbatim apart from the names, with its own
# union-find so that it shares no code with the rows it checks.


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def parent_polytope_rows(rule, bid_grid, jobs, machines, profile_budget):
    """The grid, its profiles, the rule's workloads, the merged variable of
    each (machine, profile), the variable count, the labelled rows and the
    notes on broken anonymity swaps."""
    grid = tuple(sorted({rat(b) for b in bid_grid}))
    if not grid or grid[0] <= 0:
        raise DomainError("grid bids must be positive")
    jobs = rats(jobs)
    profiles = list(itertools.product(grid, repeat=machines))
    if len(profiles) > profile_budget:
        raise BudgetExceeded(
            f"{len(grid)}^{machines} profiles exceed budget {profile_budget}"
        )
    workloads: dict[tuple, tuple] = {}
    for b in profiles:
        allocation = rule(Instance(jobs, b))
        workloads[b] = allocation.workloads
    notes: list[str] = []
    var_index = {(i, b): t for t, (b, i) in enumerate(
        (b, i) for b in profiles for i in range(machines)
    )}
    n_vars = len(var_index)
    uf = _UnionFind(n_vars)
    broken_swaps = []
    for b in profiles:
        for kpos in range(machines):
            if b.count(b[kpos]) != 1:
                continue
            for lpos in range(machines):
                if lpos == kpos:
                    continue
                swapped = list(b)
                swapped[kpos], swapped[lpos] = swapped[lpos], swapped[kpos]
                swapped = tuple(swapped)
                if workloads[swapped][lpos] == workloads[b][kpos]:
                    uf.union(var_index[(kpos, b)], var_index[(lpos, swapped)])
                else:
                    notes.append(
                        f"rule workloads break anonymity at profile "
                        f"{tuple(rat_str(x) for x in b)} swap ({kpos},{lpos})"
                    )
                    broken_swaps.append((b, kpos, swapped, lpos))
    var = {key: uf.find(t) for key, t in var_index.items()}

    # Payment anonymity at a broken workload swap stays an explicit row;
    # built after the union pass so it names final representatives.
    constraints: list[Constraint] = []
    for b, kpos, swapped, lpos in broken_swaps:
        rhs = b[kpos] * (workloads[b][kpos] - workloads[swapped][lpos])
        constraints.append(
            Constraint(
                parent_combine(((var[(lpos, swapped)], 1), (var[(kpos, b)], -1))),
                "==",
                rhs,
                label=(
                    f"ANON profile={tuple(rat_str(x) for x in b)} "
                    f"swap=({kpos},{lpos})"
                ),
            )
        )
    for b in profiles:
        w = workloads[b]
        for i in range(machines):
            for j in range(machines):
                if i == j:
                    continue
                # utility_i >= utility_j's bundle at bid_i, in shifted vars
                coeffs = parent_combine(((var[(i, b)], 1), (var[(j, b)], -1)))
                constraints.append(
                    Constraint(
                        coeffs,
                        ">=",
                        (b[j] - b[i]) * w[j],
                        label=(
                            f"EF profile={tuple(rat_str(x) for x in b)} i={i} j={j}"
                        ),
                    )
                )
        for i in range(machines):
            for d in grid:
                if d == b[i]:
                    continue
                deviated = list(b)
                deviated[i] = d
                deviated = tuple(deviated)
                w_dev = workloads[deviated][i]
                coeffs = parent_combine(((var[(i, b)], 1), (var[(i, deviated)], -1)))
                constraints.append(
                    Constraint(
                        coeffs,
                        ">=",
                        (d - b[i]) * w_dev,
                        label=(
                            f"IC profile={tuple(rat_str(x) for x in b)} "
                            f"i={i} dev={rat_str(d)}"
                        ),
                    )
                )
    return grid, profiles, workloads, var, n_vars, constraints, notes


def parent_combine(pairs) -> tuple[tuple[int, Fraction], ...]:
    acc: dict[int, Fraction] = {}
    for idx, coef in pairs:
        acc[idx] = acc.get(idx, Fraction(0)) + Fraction(coef)
    return tuple((i, c) for i, c in acc.items() if c != 0)


# ---------------------------------------------------------------------------


class Blurred(Fraction):
    """A workload equal to every value within 1 of it, so not transitively."""

    __hash__ = Fraction.__hash__

    def __eq__(self, other):
        return abs(self - other) <= 1


class BlurredByPosition:
    """Machine i carries workload i, compared with the blur above.

    A merge needs equal workloads, so with exact workloads the two sides of
    a broken swap are never one variable.  Here the swaps (0,1) and (1,2)
    merge while (0,2) is broken, which leaves rows with no coefficients.
    """

    name = "blurred-by-position"

    def __call__(self, instance):
        return SimpleNamespace(workloads=tuple(Blurred(i) for i in range(instance.m)))


def _self_loops_as_empty(rows):
    """The earlier row code wrote a row whose two variables anonymity had
    merged with no coefficients; the helper writes it as a self-loop."""
    return [
        Constraint((), r.relation, r.rhs, r.label)
        if len({v for v, _ in r.coeffs}) == 1 else r
        for r in rows
    ]


def test_rows_match_the_earlier_row_code():
    rng = random.Random(808)
    rules = [*RULES.values(), FirstTakesAll(), BlurredByPosition()]
    bid_pool = [F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(3), F(4), F(8)]
    job_pool = [F(1, 2), F(1), F(2), F(3), F(4)]
    seen_rules, seen_machines = set(), set()
    broken = merged = 0
    for trial in range(300):
        machines = (1, 2, 2, 3)[trial % 4]
        rule = rng.choice(
            [r for r in rules if machines == 2 or r is not two_machine_opt]
        )
        grid = rng.sample(bid_pool, rng.randint(2, 3))
        jobs = [rng.choice(job_pool) for _ in range(rng.randint(1, 3))]
        got = _polytope_rows(rule, grid, jobs, machines, 4096)
        want = parent_polytope_rows(rule, grid, jobs, machines, 4096)
        workloads = dict(zip(got.profiles, got.workloads))
        var = {
            (i, b): got.var[p * machines + i]
            for p, b in enumerate(got.profiles)
            for i in range(machines)
        }
        rows = [got.constraint(row) for row in got.rows]
        assert (
            got.grid, got.profiles, workloads, var, got.n_vars,
            _self_loops_as_empty(rows), got.notes,
        ) == want
        seen_rules.add(rule.name)
        seen_machines.add(machines)
        broken += len(got.notes)
        merged += sum(1 for row in want[5] if not row.coeffs)
    assert seen_rules == {r.name for r in rules}
    assert seen_machines == {1, 2, 3}
    assert broken > 0 and merged > 0
