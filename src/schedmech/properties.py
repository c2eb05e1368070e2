"""Checkers for the mechanism properties: local efficiency, envy-freeness,
individual rationality, truthfulness, monotonicity, anonymity, scalability,
and the exact approximation ratio.

Every failed check carries a counterexample with both sides of the violated
inequality as exact rationals, so verdicts can be re-checked independently.
Truthfulness and monotonicity are grid checks: a grid gives counterexample
power, but a rule that misbehaves only between grid points passes.  The
four checks that read other profiles read them through one ``_reader``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .allocations import OPT_STATE_BUDGET, opt_makespan
from .core import (
    WEAK_RELATIONS,
    ZERO,
    DomainError,
    ExpectedAllocation,
    Instance,
    RationalLike,
    bid_data_of,
    compare,
    makespan,
    rat_str,
    ratio_str,
    rats,
    scaled_by,
    scaled_to_ints,
)

PERMUTATION_CHECK_LIMIT = 6
# The bid scalings every scalability check in the package tries.
SCALING_FACTORS = (Fraction(2), Fraction(1, 3), Fraction(7, 5))


@dataclass(frozen=True)
class Counterexample:
    """A violated inequality, reproducible from its exact pieces."""

    description: str
    lhs: Fraction
    relation: str
    rhs: Fraction
    context: dict

    def violation_holds(self) -> bool:
        """True when the recorded comparison is indeed violated."""
        return not compare(self.lhs, self.relation, self.rhs, WEAK_RELATIONS)

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "lhs": rat_str(self.lhs),
            "relation": self.relation,
            "rhs": rat_str(self.rhs),
            "context": self.context,
        }


@dataclass(frozen=True)
class PropertyVerdict:
    prop: str
    counterexample: Optional[Counterexample] = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        out = {"property": self.prop, "pass": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json_dict()
        return out


def _verdict(prop: str, ce: Optional[Counterexample]) -> PropertyVerdict:
    if ce is not None and not ce.violation_holds():
        raise AssertionError("counterexample must re-evaluate to a violation")
    return PropertyVerdict(prop, ce)


def aligned(*vectors: Sequence[RationalLike]) -> tuple[tuple[Fraction, ...], ...]:
    """Bids, workloads and maybe payments as ``Fraction`` tuples of one length."""
    vectors = tuple(map(rats, vectors))
    if len({len(v) for v in vectors}) > 1:
        raise DomainError("bids and workloads must have equal length" if len(vectors) == 2
                          else "bids, workloads and payments must align")
    return vectors


def on_one_scale(bids: Sequence[Fraction], workloads: Sequence[Fraction],
                 payments: Sequence[Fraction] = ()) -> tuple[int, list[int], list[int], list[int]]:
    """``(S, B, W, P)``: ints over one scale S > 0, with bid i times workload
    j equal to ``B[i] * W[j] / S`` and payment i to ``P[i] / S``.  Scaling
    by S keeps every comparison and tie, so the checkers compare these."""
    work_scale, scaled_workloads = scaled_to_ints(workloads)
    scale = lcm(lcm(*[b.denominator for b in bids]) * work_scale, *[p.denominator for p in payments])
    return scale, scaled_by(bids, scale // work_scale), scaled_workloads, scaled_by(payments, scale)


def local_efficiency_violation(
    bids: Sequence[Fraction], workloads: Sequence[Fraction]
) -> Optional[tuple[int, int]]:
    """First (i, k) where machine i bids more than machine k yet carries
    strictly more work, or None for locally efficient workloads."""
    for i in range(len(bids)):
        for k in range(len(bids)):
            if bids[i] > bids[k] and workloads[i] > workloads[k]:
                return i, k
    return None


def check_local_efficiency(
    bids: Sequence[RationalLike],
    workloads: Sequence[RationalLike],
) -> PropertyVerdict:
    """No bid-workload dot product can be reduced by permuting the bundles.

    Uses the pairwise criterion (a strictly slower machine never carries a
    strictly larger workload); for up to six machines the full permutation
    definition is cross-checked, which must agree by the rearrangement
    inequality, and its counterexample is the one reported.
    """
    bids, workloads = aligned(bids, workloads)
    scale, B, W, _ = on_one_scale(bids, workloads)
    pair = local_efficiency_violation(B, W)
    ce = None
    if len(bids) <= PERMUTATION_CHECK_LIMIT:
        base = sum(map(mul, B, W))
        # permutations of the indices and of W come in the same order
        for perm, loads in zip(itertools.permutations(range(len(W))), itertools.permutations(W)):
            value = sum(map(mul, B, loads))
            if value < base:
                ce = Counterexample(
                    "a permutation of the bundles lowers the total running time",
                    Fraction(base, scale),
                    "<=",
                    Fraction(value, scale),
                    {"permutation": list(perm)},
                )
                break
        if (ce is None) != (pair is None):
            raise AssertionError(
                "pairwise criterion and permutation enumeration disagree"
            )
    elif pair is not None:
        i, k = pair
        ce = Counterexample(
            "slower machine carries more workload",
            workloads[i],
            "<=",
            workloads[k],
            {
                "i": i,
                "k": k,
                "bid_i": rat_str(bids[i]),
                "bid_k": rat_str(bids[k]),
            },
        )
    return _verdict("local-efficiency", ce)


def check_envy_free(
    bids: Sequence[RationalLike],
    workloads: Sequence[RationalLike],
    payments: Sequence[RationalLike],
) -> PropertyVerdict:
    """No machine prefers another's workload-payment bundle at its own bid."""
    scale, B, W, P = on_one_scale(*aligned(bids, workloads, payments))
    for i, b in enumerate(B):
        own = P[i] - b * W[i]
        for j, (p, w) in enumerate(zip(P, W)):  # j == i swaps own for own
            swapped = p - b * w
            if own < swapped:
                return _verdict(
                    "envy-freeness",
                    Counterexample(
                        f"machine {i} envies machine {j}",
                        Fraction(own, scale),
                        ">=",
                        Fraction(swapped, scale),
                        {"i": i, "j": j},
                    ),
                )
    return _verdict("envy-freeness", None)


def check_ir(
    bids: Sequence[RationalLike],
    workloads: Sequence[RationalLike],
    payments: Sequence[RationalLike],
) -> PropertyVerdict:
    """Payment covers cost at the reported profile for every machine,
    compared on each machine's own cross-multiplied ints."""
    for i, (b, w, p) in enumerate(zip(*aligned(bids, workloads, payments))):
        if p.numerator * b.denominator * w.denominator < b.numerator * w.numerator * p.denominator:
            return _verdict(
                "individual-rationality",
                Counterexample(f"machine {i} runs at a loss", p - b * w, ">=", ZERO, {"i": i}),
            )
    return _verdict("individual-rationality", None)


def _grid_reads(check, instance: Instance, deviation_grid: Optional[Sequence[RationalLike]]):
    """First ``((D, points), own, loads, payments)``: the sorted
    ``Instance.deviation_grid``, the instance's bids over D and its outcome,
    from ``_reader``.  Then ``(machine, k, loads, payments)`` at each point of
    ``Instance.deviation_runs`` (``order_only`` if ``key_reads_order_only``)
    whose key is None or differs from the machine's last (equal keys, equal
    outcomes): the instance's outcome at its own bid, else ``_reader``'s
    read.  The key is ``check.key`` of the run's bid data at the point's int
    bids, else None, read once a run unless it reads them (``key_reads_bids``)."""
    denominator, points = grid = instance.deviation_grid(deviation_grid)
    own = [b * (denominator // instance.scaled_bids[0]) for b in instance.scaled_bids[1]]  # E divides D
    read, *outcome = _reader(check, instance, denominator, own)
    yield grid, own, *outcome
    key_of = getattr(check, "key", lambda instance, bid_data: lambda bids: None)
    per_point, last = getattr(check, "key_reads_bids", False), None
    for i, lo, hi, bid_data in instance.deviation_runs(grid, own, getattr(check, "key_reads_order_only", False)):
        bids, key_at = own[:], key_of(instance, bid_data)
        for k in range(lo, hi):
            bids[i] = points[k]
            if per_point or k == lo:
                key = key_at(bids)
            if key is None or (i, key) != last:
                copy = lambda: instance.with_bid(i, Fraction(points[k], denominator))
                yield i, k, *(outcome if points[k] == own[i] else read(bids, key, copy))
                last = i, key
            if key is not None and not per_point:
                break


def _reader(check, instance: Instance, denominator: int, bids: list[int]):
    """``(read, loads, payments)``: ``read(bids, key, copy)`` is ``check``'s
    loads over D and payments over D times ``denominator`` (None for a rule)
    at the int ``bids`` (any scale for a rule) and their ``key``; without
    ``decide``, on ``copy()``.  A rule's ``decide`` reads no bids, so its
    loads are kept per key.  The rest are the instance's, at its ``bids``
    over ``denominator``: one run of ``check``, which ``decide`` must match."""
    scale, is_mechanism, has_decide = instance.scaled_jobs[0], hasattr(check, "run"), hasattr(check, "decide")
    base = check.run(instance) if is_mechanism else check(instance)
    loads_at = {}

    def scaled(result):
        payments = [p * scale * denominator for p in result.payments] if is_mechanism else None
        return [w * scale for w in getattr(result, "allocation", result).workloads], payments

    def read(bids, key, copy):
        if not has_decide:
            return scaled(check.run(copy()) if is_mechanism else check(copy()))
        if is_mechanism:
            return check.decide(instance, key, bids)
        if key not in loads_at:
            loads_at[key] = check.decide(instance, key)[1]
        return loads_at[key], None

    if not has_decide:
        return read, *scaled(base)
    loads, payments = read(bids, check.key(instance, instance.bid_data)(bids), None)
    exact = getattr(base, "allocation", base).workloads + (base.payments if is_mechanism else ())
    ints, scales = loads + (payments or []), [scale] * len(loads) + [scale * denominator] * len(exact)
    if len(exact) != len(ints) or any(f.numerator * s != v * f.denominator for f, v, s in zip(exact, ints, scales)):
        raise AssertionError(f"{check.name}: decide at the instance's own key disagrees with the run")
    return read, loads, payments


def check_truthful(
    mechanism,
    instance: Instance,
    deviation_grid: Optional[Sequence[RationalLike]] = None,
) -> PropertyVerdict:
    """Grid check: no machine gains by deviating from its profile bid.

    The profile bid is treated as the true speed; every deviation of every
    machine on the sorted ``Instance.deviation_grid`` must not beat truthful
    reporting, compared at each read of ``_grid_reads``."""
    reads = _grid_reads(mechanism, instance, deviation_grid)
    (denominator, points), own, loads, payments = next(reads)
    honest = [p - b * w for p, b, w in zip(payments, own, loads)]
    for i, k, loads, payments in reads:
        gained = payments[i] - own[i] * loads[i]
        if honest[i] < gained:
            dev, scale = ratio_str(points[k], denominator), instance.scaled_jobs[0] * denominator
            return _verdict("truthfulness", Counterexample(
                f"machine {i} profits by bidding {dev}", Fraction(honest[i], scale), ">=", Fraction(gained, scale),
                {"machine": i, "true_speed": rat_str(instance.bids[i]), "deviation": dev}))
    return _verdict("truthfulness", None)


def check_monotone(
    rule,
    instance: Instance,
    deviation_grid: Optional[Sequence[RationalLike]] = None,
) -> PropertyVerdict:
    """Raising one's own bid never increases one's workload, on the sorted
    ``Instance.deviation_grid``: each read of ``_grid_reads`` is compared
    with the point below it, whose workload is the previous read's."""
    reads = _grid_reads(rule, instance, deviation_grid)
    (denominator, points), *_ = next(reads)
    for i, k, loads, _ in reads:
        if k and loads[i] > prev_w:
            scale = instance.scaled_jobs[0]
            return _verdict(
                "monotonicity",
                Counterexample(
                    f"machine {i} gains workload by raising its bid",
                    Fraction(loads[i], scale),
                    "<=",
                    Fraction(prev_w, scale),
                    {"machine": i, "bid_low": rat_str(Fraction(points[k - 1], denominator)),
                     "bid_high": rat_str(Fraction(points[k], denominator))},
                ),
            )
        prev_w = loads[i]
    return _verdict("monotonicity", None)


def check_anonymous(mechanism, instance: Instance) -> PropertyVerdict:
    """Swapping a unique bid with any other swaps workloads (and payments).

    Accepts either a mechanism (payments included in the check) or a bare
    allocation rule.  Profiles without a unique bid are vacuously fine.  The
    mechanism or rule runs once, on the instance, and ``_reader`` reads each
    swap of the int bids, at the key of its ``bid_data_of`` (relabelling the
    old order is wrong where bids tie).
    """
    denominator, bids = instance.scaled_bids
    read, base_w, base_p = _reader(mechanism, instance, denominator, bids)
    key_of, scales = getattr(mechanism, "key", None), (instance.scaled_jobs[0], instance.scaled_jobs[0] * denominator)
    for k in range(instance.m):
        if bids.count(bids[k]) != 1:
            continue
        for l in range(instance.m):
            if l == k:
                continue
            swapped = bids[:]
            swapped[k], swapped[l] = swapped[l], swapped[k]
            key = key_of and key_of(instance, bid_data_of(denominator, swapped))(swapped)
            swapped_w, swapped_p = read(swapped, key, lambda: instance.with_swapped_bids(k, l))
            checks = [("workload", base_w[k], swapped_w[l], scales[0])]
            if base_p is not None:
                checks.append(("payment", base_p[k], swapped_p[l], scales[1]))
            for label, expected, actual, scale in checks:
                if expected != actual:
                    return _verdict("anonymity", Counterexample(
                        f"{label} does not follow the bid swap ({k},{l})", Fraction(actual, scale), "==",
                        Fraction(expected, scale), {"k": k, "l": l}))
    return _verdict("anonymity", None)


def check_scalable(
    rule, instance: Instance, scalars: Sequence[RationalLike]
) -> PropertyVerdict:
    """Workloads are unchanged when all bids are scaled by each constant,
    read by ``_reader`` at the scaled int bids and the key of their ``bid_data_of``."""
    scale, bids = instance.scaled_bids
    read, base, _ = _reader(rule, instance, scale, bids)
    key_of = getattr(rule, "key", None)
    for c in rats(scalars):
        if c <= 0:
            raise DomainError("scaling factor must be positive")
        scaled_bids = [b * c.numerator for b in bids]
        key = key_of and key_of(instance, bid_data_of(scale * c.denominator, scaled_bids))(scaled_bids)
        scaled = read(scaled_bids, key, lambda: instance.scaled(c))[0]
        if scaled != base:
            idx, load_scale = next(i for i in range(len(base)) if base[i] != scaled[i]), instance.scaled_jobs[0]
            return _verdict("scalability", Counterexample(
                f"workload of machine {idx} changes under scaling by {rat_str(c)}", Fraction(scaled[idx], load_scale),
                "==", Fraction(base[idx], load_scale), {"scale": rat_str(c), "machine": idx}))
    return _verdict("scalability", None)


def approx_ratio(rule, instance: Instance, budget: int = OPT_STATE_BUDGET) -> Fraction:
    """Exact ratio of the rule's makespan to the optimum, with bids as speeds;
    the rule must return an assignment, as expected workloads have no makespan."""
    allocation = rule(instance)
    if isinstance(allocation, ExpectedAllocation):
        raise DomainError(f"{rule.name} returns expected workloads, not an assignment: it has no makespan ratio")
    _, opt = opt_makespan(instance, budget)
    return makespan(allocation, instance.bids) / opt
