"""Payment schemes and the additive-term extraction for truthful mechanisms.

A truthful mechanism's payment is pinned down, up to a bid-independent
additive term h, by the identity p = h + b*w(b) - integral of the bid
response from 0 to b.  This module implements that identity, the Clarke
pivot payments for the total-running-time minimizer, the envy-free payment
chain for locally efficient workloads, and the extraction of h from any
outcome-producing mechanism (probe disagreement is constructive evidence
the mechanism is not truthful).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .allocations import vcg_allocate
from .core import (
    Assignment,
    DomainError,
    Instance,
    Outcome,
    RationalLike,
    lowest_bidder,
    rat,
    rat_str,
    rats,
)
from .properties import _local_efficiency_violation
from .workcurve import WorkCurve, build_workcurve, integrate


class NotLocallyEfficient(DomainError):
    """Workloads violate the faster-machine-gets-no-less ordering."""


class PaymentInconsistency(ValueError):
    """A supplied workload disagrees with the bid-response curve."""


class NotTruthfulEvidence(RuntimeError):
    """Two probe bids extracted different additive terms.

    Carries both probes and both extracted values: re-evaluating them is a
    constructive witness that the mechanism violates the truthful payment
    identity, on the curve as discovered.  Discovery reads a jump nearer to
    a tested point than 2^-40 of its bracket at that point, unflagged (see
    ``discover_step_function``), so a truthful mechanism can raise this
    too: threshold payments for the rule giving machine 0 all the work iff
    b0 < b1 + 1/(2^70+1) read 3 + 3/(2^70+1) at probe 1/2 and 3 at probe 3.
    """

    def __init__(self, others_bids, probe_a, h_a, probe_b, h_b):
        self.others_bids = tuple(others_bids)
        self.probe_a = probe_a
        self.h_a = h_a
        self.probe_b = probe_b
        self.h_b = h_b
        super().__init__(
            f"h({', '.join(rat_str(b) for b in others_bids)}) resolves to "
            f"{rat_str(h_a)} at probe {rat_str(probe_a)} but {rat_str(h_b)} "
            f"at probe {rat_str(probe_b)}"
        )


def ef_chain_payments(
    bids: Sequence[RationalLike], workloads: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Envy-free payments for locally efficient workloads.

    With indices ordered by nonincreasing bid, the slowest machine is paid
    its full cost and each faster machine is paid the previous payment plus
    its own bid times the workload increment.  Bid ties keep their original
    relative order.
    """
    bids = rats(bids)
    workloads = rats(workloads)
    if len(bids) != len(workloads):
        raise DomainError("bids and workloads must have equal length")
    if _local_efficiency_violation(bids, workloads) is not None:
        raise NotLocallyEfficient(
            "chain payments require locally efficient workloads"
        )
    order = sorted(range(len(bids)), key=lambda i: (-bids[i], i))
    payments = [Fraction(0)] * len(bids)
    prev_payment = None
    prev_workload = None
    for i in order:
        if prev_payment is None:
            payments[i] = bids[i] * workloads[i]
        else:
            payments[i] = prev_payment + bids[i] * (workloads[i] - prev_workload)
        prev_payment, prev_workload = payments[i], workloads[i]
    return tuple(payments)


def truthful_payment(
    h_value: RationalLike,
    bid: RationalLike,
    workload: RationalLike,
    curve: WorkCurve,
) -> Fraction:
    """Payment from the truthful identity: h + bid*workload - curve integral."""
    h_value, bid, workload = rat(h_value), rat(bid), rat(workload)
    at_bid = curve.value_at(bid)
    if at_bid != workload:
        raise PaymentInconsistency(
            f"curve value {rat_str(at_bid)} at bid {rat_str(bid)} does not "
            f"match workload {rat_str(workload)}"
        )
    return h_value + bid * workload - integrate(curve, 0, bid)


def vcg_payments(
    instance: Instance, assignment: Assignment
) -> tuple[Fraction, ...]:
    """Clarke pivot payments for the total-running-time minimizer.

    Each machine is paid the externality it imposes: the minimum total
    running time without it, minus the running time the others actually
    incur.  The rule gives all the work L to the lowest bid (ties to the
    lowest index), so in closed form the winner is paid the runner-up bid
    times L and every other machine 0.  A single machine is paid its cost
    (the pivot is vacuous, so utility is pinned at zero).
    """
    bids = instance.bids
    L = instance.total_length
    winner = lowest_bidder(bids)

    def winner_only(value: Fraction) -> tuple[Fraction, ...]:
        return tuple(value if i == winner else Fraction(0) for i in range(len(bids)))

    if assignment.workloads != winner_only(L):
        raise DomainError("payments are defined on the rule's own allocation")
    if instance.m == 1:
        return (bids[0] * L,)
    return winner_only(min(bids[:winner] + bids[winner + 1:]) * L)


@dataclass
class Mechanism:
    """An allocation rule paired with a payment scheme."""

    name: str
    rule: Callable[[Instance], Assignment]
    payment_fn: Callable[[Instance, Assignment], Sequence[Fraction]]

    def run(self, instance: Instance) -> Outcome:
        allocation = self.rule(instance)
        payments = tuple(self.payment_fn(instance, allocation))
        return Outcome(allocation, payments)


vcg_mechanism = Mechanism("vcg", vcg_allocate, vcg_payments)


def ef_chain_mechanism(rule) -> Mechanism:
    """Pair any locally efficient rule with its envy-free chain payments."""

    def pay(instance: Instance, allocation) -> Sequence[Fraction]:
        return ef_chain_payments(instance.bids, allocation.workloads)

    return Mechanism(f"{getattr(rule, 'name', 'rule')}+ef-chain", rule, pay)


def bid_proportional_mechanism(rule) -> Mechanism:
    """Pays bid times workload; useful as a known-untruthful specimen."""

    def pay(instance: Instance, allocation) -> Sequence[Fraction]:
        return tuple(
            b * w for b, w in zip(instance.bids, allocation.workloads)
        )

    return Mechanism(f"{getattr(rule, 'name', 'rule')}+bid-cost", rule, pay)


def _mechanism_curve(mechanism: Mechanism, jobs, others_bids, probes) -> WorkCurve:
    """The bid response against ``others_bids``, out to twice the larger of
    twice the highest probe and the highest competitor bid."""
    cap = max(max(probes) * 2, *others_bids) * 2
    return build_workcurve(mechanism.rule, others_bids, jobs, cap)


def extract_h(
    mechanism: Mechanism,
    jobs: Sequence[RationalLike],
    others_bids: Sequence[RationalLike],
    *probes: RationalLike,
) -> Fraction:
    """Evaluate the additive term h at one competitor profile.

    Rearranges the truthful payment identity at each probe bid:
    h = p - probe*w + integral of the bid response from 0 to the probe,
    with every probe read off one response curve.  For a truthful mechanism
    the result is independent of the probe; two probes that disagree raise
    NotTruthfulEvidence.
    """
    jobs = rats(jobs)
    others_bids = _competitor_bids(others_bids)
    probes = rats(probes)
    if not probes:
        raise DomainError("need at least one probe bid")
    if min(probes) <= 0:
        raise DomainError("probe bid must be positive")
    outcomes = [mechanism.run(Instance(jobs, (b, *others_bids))) for b in probes]
    curve = _mechanism_curve(mechanism, jobs, others_bids, probes)
    values = [
        out.payments[0] - b * out.allocation.workloads[0] + integrate(curve, 0, b)
        for b, out in zip(probes, outcomes)
    ]
    for probe, value in zip(probes[1:], values[1:]):
        if value != values[0]:
            raise NotTruthfulEvidence(
                others_bids, probes[0], values[0], probe, value
            )
    return values[0]


def _competitor_bids(others_bids: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """The competitor profile, which h needs at least one bid of."""
    bids = rats(others_bids)
    if not bids:
        raise DomainError("h needs at least one competitor bid")
    return bids


# HFunction probes below the lowest competitor bid and above the highest.
LOW_PROBE_FACTORS = (Fraction(1, 2), Fraction(1, 3))
HIGH_PROBE_FACTOR = Fraction(2)


@dataclass
class HFunction:
    """Additive-term evaluations for an (assumed) truthful mechanism.

    Values are represented extensionally: certificates only ever need h at
    finitely many competitor profiles.  Every evaluation is cross-checked
    at probes below the lowest competitor bid and above the highest (the
    response curve differs across that range, which is what exposes
    untruthful payments).
    """

    mechanism: Mechanism
    jobs: tuple[Fraction, ...]

    def __call__(self, others_bids: Sequence[RationalLike]) -> Fraction:
        key = _competitor_bids(others_bids)
        probes = [min(key) * f for f in LOW_PROBE_FACTORS]
        probes.append(max(key) * HIGH_PROBE_FACTOR)
        return extract_h(self.mechanism, self.jobs, key, *probes)
