"""Independent re-derivations used to check every benchmark op.

Nothing here calls the package under test except where a docstring says so:
wire strings are parsed with this module's own rational parser, and the
sweep rules, the exhaustive optimum, the negative-cycle test for the payment
polytope and the g(k) integral are implemented from their definitions.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

_RAT = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class OracleError(ValueError):
    """An output string does not have the wire format the check expects."""


def q(text) -> Fraction:
    """Parse the wire format ``"p"`` or ``"p/q"`` (integers pass through)."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise OracleError(f"not a rational string: {text!r}")
    m = _RAT.match(text)
    if not m:
        raise OracleError(f"not a rational string: {text!r}")
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise OracleError(f"zero denominator in {text!r}")
    return Fraction(int(m.group(1)), den)


def qs(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def relation_holds(lhs: Fraction, rel: str, rhs: Fraction) -> bool:
    if rel == "==":
        return lhs == rhs
    if rel == "!=":
        return lhs != rhs
    if rel == ">=":
        return lhs >= rhs
    if rel == "<=":
        return lhs <= rhs
    if rel == ">":
        return lhs > rhs
    if rel == "<":
        return lhs < rhs
    raise OracleError(f"unknown relation {rel!r}")


def violation_holds(ce: dict) -> bool:
    """A reported counterexample ``lhs rel rhs`` must be violated."""
    return not relation_holds(q(ce["lhs"]), ce["relation"], q(ce["rhs"]))


# ---------------------------------------------------------------------------
# Sweep rules, from their definitions


def pow2_ceil(b: Fraction) -> Fraction:
    """Smallest power of two (any integer exponent) that is >= b > 0."""
    p = Fraction(1)
    while p < b:
        p *= 2
    while p / 2 >= b:
        p /= 2
    return p


def lpt_star(jobs, bids) -> tuple[Fraction, ...]:
    """Workloads of greedy LPT on rounded speeds plus in-class bundle reorder."""
    jobs = sorted(jobs, reverse=True)
    m = len(bids)
    speeds = [pow2_ceil(b) for b in bids]
    loads = [Fraction(0)] * m
    for length in jobs:
        best = min(range(m), key=lambda i: ((loads[i] + length) * speeds[i], i))
        loads[best] += length
    out = list(loads)
    for s in set(speeds):
        members = [i for i in range(m) if speeds[i] == s]
        machines = sorted(members, key=lambda i: (bids[i], i))
        bundles = sorted(members, key=lambda i: (-loads[i], i))
        for target, source in zip(machines, bundles):
            out[target] = loads[source]
    return tuple(out)


def vcg_workloads(jobs, bids) -> tuple[Fraction, ...]:
    winner = min(range(len(bids)), key=lambda i: (bids[i], i))
    total = sum(jobs, Fraction(0))
    return tuple(total if i == winner else Fraction(0) for i in range(len(bids)))


def two_opt(jobs, bids) -> tuple[Fraction, ...]:
    """Two machines: min makespan, then min total time, then lowest mask."""
    jobs = sorted(jobs, reverse=True)
    b0, b1 = bids
    total = sum(jobs, Fraction(0))
    best = None
    for mask in range(1 << len(jobs)):
        w0 = sum((l for j, l in enumerate(jobs) if mask >> j & 1), Fraction(0))
        w1 = total - w0
        key = (max(w0 * b0, w1 * b1), w0 * b0 + w1 * b1)
        if best is None or key < best[0]:
            best = (key, (w0, w1))
    return best[1]


def exhaustive_opt(jobs, bids) -> Fraction:
    """Minimum makespan over all m**n assignments."""
    m = len(bids)
    best = None
    for assign in itertools.product(range(m), repeat=len(jobs)):
        loads = [Fraction(0)] * m
        for l, i in zip(jobs, assign):
            loads[i] += l
        ms = max(w * b for w, b in zip(loads, bids))
        if best is None or ms < best:
            best = ms
    return best


def chain_payments_by_index(bids, workloads) -> tuple[Fraction, ...]:
    """The chain as the package implements it: bid ties kept in index order."""
    order = sorted(range(len(bids)), key=lambda i: (-bids[i], i))
    pay = [Fraction(0)] * len(bids)
    prev_p = prev_w = None
    for i in order:
        pay[i] = bids[i] * workloads[i] if prev_p is None else prev_p + bids[i] * (workloads[i] - prev_w)
        prev_p, prev_w = pay[i], workloads[i]
    return tuple(pay)


def envy_pairs(bids, workloads, payments) -> list[tuple[int, int]]:
    out = []
    for i in range(len(bids)):
        own = payments[i] - bids[i] * workloads[i]
        for j in range(len(bids)):
            if j != i and own < payments[j] - bids[i] * workloads[j]:
                out.append((i, j))
    return out


def locally_efficient(bids, workloads) -> bool:
    """No permutation of the bundles lowers sum(bid * workload)."""
    base = sum((b * w for b, w in zip(bids, workloads)), Fraction(0))
    return all(
        sum((bids[i] * workloads[p] for i, p in enumerate(perm)), Fraction(0)) >= base
        for perm in itertools.permutations(range(len(bids)))
    )


def tied_bids_unequal_loads(bids, workloads) -> bool:
    """The trigger of the index-ordered chain defect."""
    return any(
        bids[i] == bids[k] and workloads[i] != workloads[k]
        for i in range(len(bids))
        for k in range(i + 1, len(bids))
    )


# ---------------------------------------------------------------------------
# Payment polytope as a difference-constraint system


def _ptuple(b) -> str:
    return "(" + ", ".join(repr(qs(x)) for x in b) + ("," if len(b) == 1 else "") + ")"


def polytope_rows(grid, workloads, machines=2):
    """Rows of the truthful + envy-free + anonymous system in utility space.

    ``workloads`` maps each profile to the rule's workload vector.  Returns
    (profiles, labelled, implicit): labelled rows carry the package's labels and
    ``implicit`` holds the anonymity equalities whose workloads swap
    correctly (rhs 0), which the package merges instead of emitting.  A row
    ``(a, b, rel, c)`` reads ``u[a] - u[b] rel c``; nodes are (machine,
    profile) pairs.  Individual rationality is ``u >= 0`` on every node.
    """
    profiles = list(itertools.product(grid, repeat=machines))
    labelled, implicit = [], []
    for b in profiles:
        for k in range(machines):
            if b.count(b[k]) != 1:
                continue
            for l in range(machines):
                if l == k:
                    continue
                s = list(b)
                s[k], s[l] = s[l], s[k]
                s = tuple(s)
                rhs = b[k] * (workloads[b][k] - workloads[s][l])
                row = ((l, s), (k, b), "==", rhs)
                if rhs == 0:
                    implicit.append(row)
                else:
                    labelled.append((f"ANON profile={_ptuple(b)} swap=({k},{l})", row))
    for b in profiles:
        w = workloads[b]
        for i in range(machines):
            for j in range(machines):
                if i != j:
                    labelled.append(
                        (f"EF profile={_ptuple(b)} i={i} j={j}", ((i, b), (j, b), ">=", (b[j] - b[i]) * w[j]))
                    )
        for i in range(machines):
            for d in grid:
                if d == b[i]:
                    continue
                dev = list(b)
                dev[i] = d
                dev = tuple(dev)
                labelled.append(
                    (
                        f"IC profile={_ptuple(b)} i={i} dev={qs(d)}",
                        ((i, b), (i, dev), ">=", (d - b[i]) * workloads[dev][i]),
                    )
                )
    return profiles, labelled, implicit


def has_negative_cycle(nodes, rows) -> bool:
    """Bellman-Ford over Fraction on u[a] - u[b] (>=|==) c plus u >= 0.

    ``u[a] - u[b] >= c`` is ``u[b] <= u[a] - c``: an edge a -> b of weight
    -c.  A zero node Z with edges v -> Z of weight 0 encodes ``Z <= u[v]``,
    i.e. ``u >= 0`` once Z is pinned at 0.  Feasible iff no negative cycle.
    """
    zero = ("Z",)
    edges = []
    for a, b, rel, c in rows:
        edges.append((a, b, -c))
        if rel == "==":
            edges.append((b, a, c))
    edges.extend((v, zero, Fraction(0)) for v in nodes)
    dist = {v: Fraction(0) for v in list(nodes) + [zero]}
    for _ in range(len(dist)):
        changed = False
        for a, b, w in edges:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            return False
    return True


def witness_violations(grid, profiles, workloads, pay, machines=2) -> list[str]:
    """Re-substitute payments ``pay[(i, b)]`` into IR, EF, IC and anonymity."""
    bad = []
    for b in profiles:
        w = workloads[b]
        for i in range(machines):
            u = pay[(i, b)] - b[i] * w[i]
            if u < 0:
                bad.append(f"IR {b} {i}")
            for j in range(machines):
                if j != i and u < pay[(j, b)] - b[i] * w[j]:
                    bad.append(f"EF {b} {i} {j}")
            for d in grid:
                if d == b[i]:
                    continue
                dev = list(b)
                dev[i] = d
                dev = tuple(dev)
                if u < pay[(i, dev)] - b[i] * workloads[dev][i]:
                    bad.append(f"IC {b} {i} {d}")
        for k in range(machines):
            if b.count(b[k]) != 1:
                continue
            for l in range(machines):
                if l != k:
                    s = list(b)
                    s[k], s[l] = s[l], s[k]
                    if pay[(l, tuple(s))] != pay[(k, b)]:
                        bad.append(f"ANON {b} {k} {l}")
    return bad


# ---------------------------------------------------------------------------
# Curve constants


def subset_sums(jobs) -> set[Fraction]:
    sums = {Fraction(0)}
    for l in jobs:
        sums |= {s + l for s in sums}
    sums.discard(Fraction(0))
    return sums


def lemma6_g_two_opt(k: Fraction, jobs) -> Fraction:
    """g(k) for the two-machine optimum, from its exact step response.

    The unit-bid machine's workload against competitor bid y can change
    only where a makespan comparison flips (y a ratio of subset sums) or
    where the running-time tie-break flips (y = 1); between consecutive
    such points it is constant, so midpoint evaluation integrates exactly.
    """
    lo, hi = 1 / k, (k + 1) / (2 * k)
    sums = subset_sums(jobs)
    cuts = {s1 / s2 for s1 in sums for s2 in sums} | {Fraction(1)}
    edges = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    integral = Fraction(0)
    for a, b in zip(edges, edges[1:]):
        integral += two_opt(jobs, (Fraction(1), (a + b) / 2))[0] * (b - a)
    return (4 * k * k / ((k + 1) * (k + 1)) - 1) * integral


def ln_three_halves_bounds(width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bounds on ln(3/2) = 2*atanh(1/5), narrower than ``width``."""
    t2 = Fraction(1, 25)
    term = Fraction(1, 5)
    partial = Fraction(0)
    n = 0
    while True:
        partial += term / (2 * n + 1)
        n += 1
        term *= t2
        # Remaining terms are below term/(2n+1) * 1/(1 - t2).
        tail = term / (2 * n + 1) * Fraction(25, 24)
        if 2 * tail < width:
            return 2 * partial, 2 * (partial + tail)
