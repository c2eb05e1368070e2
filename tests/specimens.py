"""Test inputs the package itself never builds: random locally efficient
profiles and a mechanism known to be untruthful."""

import random
from fractions import Fraction
from typing import Sequence

from schedmech.core import Instance
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
