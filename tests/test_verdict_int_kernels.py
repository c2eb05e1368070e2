"""The vector checkers and the EF chain on ints against the ``Fraction``
loops they replaced.

Each ``reference_*`` below is the package's earlier ``Fraction``
implementation, kept verbatim as an oracle: local efficiency (the pairwise
criterion and, up to ``PERMUTATION_CHECK_LIMIT`` machines, the permutation
cross-check), envy-freeness, individual rationality and the envy-free
payment chain.  Draws come from seeded ``random.Random`` streams, m = 1..8,
and are aimed at what one common scale has to get exactly right: tied bids,
tied and zero workloads, negative payments, payments one unit of 1/10^30
off a tie, and denominators from 1/10^30 to 10^30 in one vector.
"""

import itertools
import random
from fractions import Fraction
from typing import Sequence

import pytest

from schedmech.core import DomainError, RationalLike, rat_str
from schedmech.payments import ef_chain_payments
from schedmech.properties import (
    PERMUTATION_CHECK_LIMIT,
    Counterexample,
    PropertyVerdict,
    _verdict,
    aligned,
    check_envy_free,
    check_ir,
    check_local_efficiency,
    local_efficiency_violation,
)


def reference_check_local_efficiency(
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
    pair = local_efficiency_violation(bids, workloads)
    ce = None
    if len(bids) <= PERMUTATION_CHECK_LIMIT:
        base = sum((b * w for b, w in zip(bids, workloads)), Fraction(0))
        for perm in itertools.permutations(range(len(bids))):
            value = sum(
                (bids[i] * workloads[p] for i, p in enumerate(perm)), Fraction(0)
            )
            if value < base:
                ce = Counterexample(
                    "a permutation of the bundles lowers the total running time",
                    base,
                    "<=",
                    value,
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


def reference_check_envy_free(
    bids: Sequence[RationalLike],
    workloads: Sequence[RationalLike],
    payments: Sequence[RationalLike],
) -> PropertyVerdict:
    """No machine prefers another's workload-payment bundle at its own bid."""
    bids, workloads, payments = aligned(bids, workloads, payments)
    for i in range(len(bids)):
        own = payments[i] - bids[i] * workloads[i]
        for j in range(len(bids)):
            if j == i:
                continue
            swapped = payments[j] - bids[i] * workloads[j]
            if own < swapped:
                return _verdict(
                    "envy-freeness",
                    Counterexample(
                        f"machine {i} envies machine {j}",
                        own,
                        ">=",
                        swapped,
                        {"i": i, "j": j},
                    ),
                )
    return _verdict("envy-freeness", None)


def reference_check_ir(
    bids: Sequence[RationalLike],
    workloads: Sequence[RationalLike],
    payments: Sequence[RationalLike],
) -> PropertyVerdict:
    """Payment covers cost at the reported profile for every machine."""
    bids, workloads, payments = aligned(bids, workloads, payments)
    for i in range(len(bids)):
        u = payments[i] - bids[i] * workloads[i]
        if u < 0:
            return _verdict(
                "individual-rationality",
                Counterexample(
                    f"machine {i} runs at a loss",
                    u,
                    ">=",
                    Fraction(0),
                    {"i": i},
                ),
            )
    return _verdict("individual-rationality", None)


def reference_ef_chain_payments(
    bids: Sequence[RationalLike], workloads: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Envy-free payments for locally efficient workloads.

    With indices ordered by nonincreasing bid, each machine is paid the
    previous payment plus its own bid times the workload increment, from
    payment 0 at workload 0, so the slowest machine is paid its full cost.
    Bid ties keep their original relative order.
    """
    bids, workloads = aligned(bids, workloads)
    if local_efficiency_violation(bids, workloads) is not None:
        raise DomainError(
            "chain payments require locally efficient workloads"
        )
    order = sorted(range(len(bids)), key=lambda i: (-bids[i], i))
    payments = [Fraction(0)] * len(bids)
    prev_payment = prev_workload = Fraction(0)
    for i in order:
        payments[i] = prev_payment + bids[i] * (workloads[i] - prev_workload)
        prev_payment, prev_workload = payments[i], workloads[i]
    return tuple(payments)


# (function, its oracle, how many vectors it reads)
PAIRS = [
    (check_local_efficiency, reference_check_local_efficiency, 2),
    (check_envy_free, reference_check_envy_free, 3),
    (check_ir, reference_check_ir, 3),
    (ef_chain_payments, reference_ef_chain_payments, 2),
]
# Units one vector mixes: a value is a small int times one of these.
UNITS = (Fraction(1), Fraction(1, 10**30), Fraction(10**30), Fraction(1, 7), Fraction(3, 10))
TINY = Fraction(1, 10**30)


def outcome(fn, *vectors):
    """What a caller sees: a verdict's JSON, the payments (type-checked as
    exact ``Fraction``s) or a ``DomainError``'s text."""
    try:
        result = fn(*vectors)
    except DomainError as exc:
        return "refused", str(exc)
    if isinstance(result, PropertyVerdict):
        return "verdict", result.to_json_dict()
    assert all(type(p) is Fraction for p in result)
    return "payments", [rat_str(p) for p in result]


def draw_values(rng, m, low):
    """m values from a pool of at most m, so ties are common; ``low`` 0
    admits zeros."""
    pool = [rng.randint(low, 9) * rng.choice(UNITS) for _ in range(rng.randint(1, m))]
    return [rng.choice(pool) for _ in range(m)]


def locally_efficient(bids, workloads):
    """The workloads reordered so a lower bid never carries less work."""
    order = sorted(range(len(bids)), key=bids.__getitem__)
    out = [Fraction(0)] * len(bids)
    for i, w in zip(order, sorted(workloads, reverse=True)):
        out[i] = w
    return out


def draw(rng, m):
    """(bids, workloads, payments): half of the workloads locally
    efficient, payments random (negatives included) or the chain's, some
    moved by one unit of 1/10^30, and half passed as strings."""
    bids = draw_values(rng, m, 1)
    workloads = draw_values(rng, m, 0)
    if rng.random() < 0.5:
        workloads = locally_efficient(bids, workloads)
    if local_efficiency_violation(bids, workloads) is None and rng.random() < 0.6:
        payments = list(reference_ef_chain_payments(bids, workloads))
        if rng.random() < 0.5:
            payments[rng.randrange(m)] += rng.choice((TINY, -TINY))
    else:
        payments = [rng.randint(-9, 9) * rng.choice(UNITS) for _ in range(m)]
    vectors = bids, workloads, payments
    if rng.random() < 0.5:
        vectors = tuple([rat_str(v) for v in vector] for vector in vectors)
    return vectors


@pytest.mark.parametrize("m", range(1, 9))
def test_int_kernels_equal_the_fraction_loops(m):
    rng = random.Random(f"verdict-ints:{m}")
    seen = {}
    for _ in range(120 if m <= PERMUTATION_CHECK_LIMIT else 300):
        vectors = draw(rng, m)
        for fn, reference, arity in PAIRS:
            got = outcome(fn, *vectors[:arity])
            assert got == outcome(reference, *vectors[:arity]), (fn.__name__, vectors)
            passed = got[0] == "payments" or got[0] == "verdict" and got[1]["pass"]
            seen.setdefault(fn.__name__, set()).add(passed)
    # Every function both passes and fails (or refuses) on these draws;
    # one machine is always locally efficient.
    assert all(kinds == {True, False} for kinds in seen.values()) or m == 1, seen


@pytest.mark.parametrize(
    "vectors",
    [
        ((1, 2), (1, 2, 3)),
        ((1,), ()),
        ((Fraction(1, 3), 2), (1, Fraction(1, 10**30)), (0,)),
        ((1, 2), (1,), (0, 0)),
        ((1,), (1, 2), (0, 0)),
    ],
)
def test_misaligned_vectors_are_refused_with_the_same_text(vectors):
    for fn, reference, arity in PAIRS:
        if arity != len(vectors):
            continue
        got = outcome(fn, *vectors)
        assert got[0] == "refused"
        assert got == outcome(reference, *vectors)


def test_chain_refuses_workloads_that_are_not_locally_efficient():
    for bids, workloads in [
        ((1, 2), (1, 2)),
        ((Fraction(3, 4), Fraction(2, 3)), (Fraction(5, 6), Fraction(1, 10))),
        ((10**30, Fraction(1, 10**30)), (TINY, 0)),
    ]:
        got = outcome(ef_chain_payments, bids, workloads)
        assert got == ("refused", "chain payments require locally efficient workloads")
        assert got == outcome(reference_ef_chain_payments, bids, workloads)
