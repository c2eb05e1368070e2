"""Test inputs the package itself never builds: random locally efficient
profiles, a mechanism known to be untruthful, and two rules and a mechanism
that fail the grid checks while carrying a ``key``, one of them with a
``decide``."""

import random
from fractions import Fraction
from typing import Sequence

from schedmech.allocations import two_machine_opt, vcg_allocate
from schedmech.core import Assignment, Instance
from schedmech.payments import Mechanism


def sample_locally_efficient(
    rng: random.Random, m_max: int = 6
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Random bids with workloads arranged so faster machines get no less."""
    m = rng.randint(2, m_max)
    bids = [Fraction(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(m)]
    loads = sorted(
        Fraction(rng.randint(0, 20), rng.choice((1, 2))) for _ in range(m)
    )
    # Slowest (largest bid) machines take the smallest workloads; ties in
    # bids may take either order, which local efficiency permits.
    order = sorted(range(m), key=lambda i: (-bids[i], i))
    workloads = [Fraction(0)] * m
    for rank, i in enumerate(order):
        workloads[i] = loads[rank]
    return tuple(bids), tuple(workloads)


def bid_proportional_mechanism(rule) -> Mechanism:
    """Pays bid times workload; useful as a known-untruthful specimen."""

    def pay(instance: Instance, allocation) -> Sequence[Fraction]:
        return tuple(
            b * w for b, w in zip(instance.bids, allocation.workloads)
        )

    return Mechanism(f"{getattr(rule, 'name', 'rule')}+bid-cost", rule, pay)


class SlowestTakesAll:
    """Everything to the highest bid, ties to the highest index: far from
    monotone, and keyed on the bid order, so the keyed path of
    ``check_monotone`` must report the per-point counterexamples.  It has a
    ``decide`` too, so ``check_monotone`` reads it on ints, with no copy,
    and its counterexamples there are pinned against the copy path's."""

    name = "slowest-takes-all"

    def __call__(self, instance: Instance) -> Assignment:
        winner = instance.bid_order[-1]
        workloads = [Fraction(0)] * instance.m
        workloads[winner] = instance.total_length
        return Assignment((winner,) * instance.n, tuple(workloads))

    def key(self, instance: Instance, bid_data):
        return lambda bids: bid_data[0][-1]

    def decide(self, instance: Instance, winner: int):
        lengths = instance.scaled_jobs[1]
        loads = [0] * instance.m
        loads[winner] = sum(lengths)
        return (winner,) * len(lengths), loads


slowest_takes_all = SlowestTakesAll()


class SwappedTwoOpt:
    """Two machines only: two-opt's assignment at the swapped bids.  Machine
    0 takes what two-opt gives machine 0 when the machines trade bids, so
    raising its own bid never takes work from it and gives it more wherever
    the balance moves.  Keyed per grid point by two-opt's ``key`` at the
    swapped bids, so ``check_monotone`` reads it only where that key changes."""

    name = "swapped-two-opt"
    key_reads_bids = True

    def __call__(self, instance: Instance) -> Assignment:
        return two_machine_opt(instance._with_bids(instance.bids[::-1]))

    def key(self, instance: Instance, bid_data):
        swapped = two_machine_opt.key(instance, None)
        return lambda bids: swapped(bids[::-1])


swapped_two_opt = SwappedTwoOpt()


def _rounded_runner_up_payments(instance: Instance, allocation) -> Sequence[Fraction]:
    """The VCG winner is paid the lowest other bid rounded up to a power of
    two, times the total length; a lone machine is paid nothing.  A loser
    whose bid lies between the winner's and its rounding profits by
    underbidding."""
    order, payments = instance.bid_order, [Fraction(0)] * instance.m
    if instance.m > 1:
        payments[order[0]] = Fraction(2) ** instance.bid_exponents[order[1]] * instance.total_length
    return tuple(payments)


class BidDataKeyed(Mechanism):
    """Keyed on all the bid data, with no ``decide``, so ``check_truthful``
    runs it once per run."""

    def key(self, instance: Instance, bid_data):
        return lambda bids: bid_data


rounded_vcg_mechanism = BidDataKeyed("vcg-rounded", vcg_allocate, _rounded_runner_up_payments)
