"""Deterministic random instances for the CLI's batch checks and prop12.

Everything draws through an explicit ``random.Random`` so batch runs with a
fixed seed are byte-identical across invocations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import Instance


def sample_instance(
    rng: random.Random,
    m_max: int = 4,
    n_max: int = 6,
    m_min: int = 2,
    straddle_pow2: bool = False,
) -> Instance:
    """A random instance with small-denominator lengths and bids.

    With ``straddle_pow2`` the bids cluster at, just below and just above
    powers of two, the regime boundaries of rounded-speed rules.
    """
    m = rng.randint(m_min, m_max)
    n = rng.randint(1, n_max)
    jobs = [Fraction(rng.randint(1, 24), rng.choice((1, 2, 4))) for _ in range(n)]
    bids = []
    for _ in range(m):
        if straddle_pow2:
            power = Fraction(2) ** rng.randint(-2, 4)
            jitter = rng.choice(
                (
                    Fraction(0),
                    Fraction(0),
                    Fraction(1, 16),
                    Fraction(-1, 16),
                    Fraction(1, 3),
                )
            )
            bid = power * (1 + jitter)
        else:
            bid = Fraction(rng.randint(1, 16), rng.choice((1, 2, 3, 4)))
        bids.append(bid)
    return Instance(jobs, bids)

