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

from fractions import Fraction
from typing import Callable, Sequence

from .allocations import vcg_allocate
from .core import (
    Assignment,
    DomainError,
    Instance,
    Outcome,
    RationalLike,
    Record,
    rat,
    rat_str,
    rats,
)
from .properties import aligned, local_efficiency_violation, on_one_scale
from .workcurve import WorkCurve, build_workcurve, integrate


class NotTruthfulEvidence(RuntimeError):
    """Two probe bids extracted different additive terms.

    Carries both probes and both extracted values: re-evaluating them is a
    constructive witness that the mechanism violates the truthful payment
    identity, on the rule's exact region curve.
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

    With indices ordered by nonincreasing bid, each machine is paid the
    previous payment plus its own bid times the workload increment, from
    payment 0 at workload 0, so the slowest machine is paid its full cost.
    Bid ties keep their original relative order.
    """
    scale, B, W, _ = on_one_scale(*aligned(bids, workloads))
    return tuple(Fraction(p, scale) for p in _chain(B, W))


def _chain(B: Sequence[int], W: Sequence[int]) -> list[int]:
    """``ef_chain_payments`` on ints, over the scale of B[i] * W[i]."""
    if local_efficiency_violation(B, W) is not None:
        raise DomainError("chain payments require locally efficient workloads")
    payments = [0] * len(B)
    prev_payment = prev_workload = 0
    for i in sorted(range(len(B)), key=lambda i: (-B[i], i)):
        prev_payment += B[i] * (W[i] - prev_workload)
        payments[i], prev_workload = prev_payment, W[i]
    return payments


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
        raise DomainError(
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
    order = instance.bid_order
    winner_only = [Fraction(0)] * len(order)  # the workloads, then the payments
    winner_only[order[0]] = instance.total_length
    if assignment.workloads != tuple(winner_only):
        raise DomainError("payments are defined on the rule's own allocation")
    if len(order) == 1:
        return (instance.bids[0] * instance.total_length,)
    winner_only[order[0]] *= instance.bids[order[1]]
    return tuple(winner_only)


class Mechanism(Record, frozen=False):
    """An allocation rule paired with a payment scheme.  A keyed one has a
    rule's ``key`` (equal keys where only machine i's bid differs: equal
    workload and payment for i; None promises nothing) and ``decide(instance,
    key, bids)``: int loads over D and payments over D times the bids' scale."""

    name: str
    rule: Callable[[Instance], Assignment]
    payment_fn: Callable[[Instance, Assignment], Sequence[Fraction]]

    def run(self, instance: Instance) -> Outcome:
        allocation = self.rule(instance)
        payments = tuple(self.payment_fn(instance, allocation))
        return Outcome(allocation, payments)


class VcgMechanism(Mechanism):
    """``vcg_payments`` on the winner (None: a lone machine, paid its bid): a
    deviating winner gets the lowest other bid, fixed on its grid; a loser 0."""

    key_reads_order_only = True

    def key(self, instance: Instance, bid_data):
        return self.rule.key(instance, bid_data) if instance.m > 1 else lambda bids: None

    def decide(self, instance: Instance, winner, bids) -> tuple[list[int], list[int]]:
        winner = winner or 0  # None: the lone machine
        loads = self.rule.decide(instance, winner)[1]
        payments = [0] * len(bids)
        payments[winner] = min(bids[:winner] + bids[winner + 1:] or bids) * loads[winner]
        return loads, payments


vcg_mechanism = VcgMechanism("vcg", vcg_allocate, vcg_payments)


def _ef_chain_pay(instance: Instance, allocation) -> Sequence[Fraction]:
    return ef_chain_payments(instance.bids, allocation.workloads)


class EfChainMechanism(Mechanism):
    """A rule with ``decide`` and its chain payments, which move with every
    bid, so the key holds the bids too."""

    key_reads_bids = True

    def key(self, instance: Instance, bid_data):
        rule_key = self.rule.key(instance, bid_data)
        return lambda bids: (rule_key(bids), tuple(bids))

    def decide(self, instance: Instance, key, bids) -> tuple[list[int], list[int]]:
        loads = self.rule.decide(instance, key[0])[1]
        return loads, _chain(bids, loads)


def ef_chain_mechanism(rule) -> Mechanism:
    """Pair any locally efficient rule with its envy-free chain payments
    (a module-level payment function, so the mechanism pickles), keyed when
    the rule has ``decide``."""
    kind = EfChainMechanism if hasattr(rule, "decide") else Mechanism
    return kind(f"{getattr(rule, 'name', 'rule')}+ef-chain", rule, _ef_chain_pay)


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
    base = Instance(jobs, (probes[0], *others_bids))
    outcomes = [mechanism.run(base.with_bid(0, b)) for b in probes]
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


class HFunction(Record, frozen=False):
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
