"""Exact data model for strategic scheduling on related machines.

Machines bid a speed (time per unit of length, so smaller means faster),
jobs have lengths, and an allocation maps jobs to machines.  The API takes
and returns exact ``fractions.Fraction``s, and inside, ints over the common
denominators of ``Instance.scaled_jobs`` and ``Instance.scaled_bids``:
tie-breaking, the breakpoints of bid-response step functions and the
certificate arithmetic all rely on exact comparisons, so floats are rejected
at the boundary.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

# Every exact comparison a verdict, certificate or constraint records.
RELATIONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}
# The relations of a linear constraint or a counterexample inequality.
WEAK_RELATIONS = ("<=", ">=", "==")
GRID_STEPS = 64  # the default deviation grid: j/8 of the largest bid, j = 1..GRID_STEPS
ZERO = Fraction(0)


class DomainError(Exception):
    """A scalar, argument or input is outside the domain an operation supports."""


class BudgetExceeded(RuntimeError):
    """A search or series would exceed its budget of states, regions or terms."""


def rat(value: RationalLike) -> Fraction:
    """Convert to an exact Fraction.

    Accepts Fraction, int, or strings like ``"3"``, ``"3/4"`` and ``"0.25"``
    (finite decimal expansions only, no exponent notation).  Floats are
    rejected: binary floats would silently break exactness.
    """
    if type(value) is Fraction:  # exact types first: isinstance(value, Fraction) goes through ABCMeta
        return value
    if isinstance(value, str):
        try:
            num, slash, den = value.strip().partition("/")
            if value.isascii() and num[num[:1] in "+-":].isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))  # no regex parse
            if "e" in value.lower():
                # Fraction("1e999999999") would compute 10**999999999.
                raise ValueError("exponent notation")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, bool):
        raise DomainError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise DomainError(f"refusing inexact type {type(value).__name__!r}: {value!r}")


def rat_str(value: Fraction) -> str:
    """Render a Fraction or int as ``"p"`` or ``"p/q"`` (the wire format)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def ratio_str(numerator: int, denominator: int) -> str:
    """``rat_str(Fraction(numerator, denominator))`` for ints, denominator > 0."""
    g = gcd(numerator, denominator)
    return str(numerator // g) if g == denominator else f"{numerator // g}/{denominator // g}"


def rats(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(map(rat, values))


def scaled_to_ints(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The values' common denominator D and each value times D: exact ints."""
    denominator = lcm(*(v.denominator for v in values))
    return denominator, scaled_by(values, denominator)


def scaled_by(values: Iterable[Fraction], denominator: int) -> list[int]:
    """Each value times ``denominator``, a multiple of its denominator."""
    return [v.numerator * (denominator // v.denominator) for v in values]


def ceil_log2(b: RationalLike) -> int:
    """Smallest integer e with 2**e >= b, for rational b > 0.

    Computed by exact comparison against powers of two, never via a
    floating logarithm.
    """
    b = rat(b)
    if b.numerator <= 0:
        raise DomainError(f"ceil_log2 requires a positive argument, got {rat_str(b)}")
    return ceil_log2_ints(b.numerator, b.denominator)


def ceil_log2_ints(p: int, q: int) -> int:
    """``ceil_log2(p/q)`` for ints p, q > 0."""
    # With P, Q the bit lengths of p, q, p/q lies strictly between
    # 2**(P-Q-1) and 2**(P-Q+1), so the answer is P-Q or P-Q+1.
    e = p.bit_length() - q.bit_length()
    if (p > q << e) if e >= 0 else (p << -e > q):  # 2**e < p/q
        e += 1
    return e


def bid_data_of(denominator: int, bids: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(bid_order, bid_exponents)`` of the bids ``bids[i]/denominator``: the machines
    by nondecreasing bid, ties to the lower index (a stable sort), and ``ceil_log2`` of each."""
    return tuple(sorted(range(len(bids)), key=bids.__getitem__)), tuple([ceil_log2_ints(b, denominator) for b in bids])


def compare(lhs, relation: str, rhs, accepted=RELATIONS) -> bool:
    """``lhs relation rhs``; DomainError for a relation outside ``accepted``."""
    if relation not in accepted:
        raise DomainError(f"unknown relation {relation!r}")
    return RELATIONS[relation](lhs, rhs)


def rounded_speed(b: RationalLike) -> Fraction:
    """Round a positive bid up to the nearest integer power of two.

    Exact powers of two round to themselves; exponents may be negative
    (e.g. 3/8 rounds to 1/2).
    """
    return Fraction(2) ** ceil_log2(b)


class _Cached:
    """``functools.cached_property`` without the lock Python 3.11 takes on each
    first read: the value goes into the object's ``vars``, which later reads find."""

    def __init__(self, derive):
        self.derive, self.__doc__ = derive, derive.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else vars(obj).setdefault(self.derive.__name__, self.derive(obj))


class JobData:
    """A canonical job vector's ``scaled_jobs`` (``(D, lengths)``, the ints
    the constructor sorted), ``total_length`` and, built on first use,
    ``subset_sums``; held by reference by an instance and its copies."""

    def __init__(self, denominator: int, lengths: tuple[int, ...]):
        self.scaled_jobs = denominator, lengths
        self.total_length = Fraction(sum(lengths), denominator)

    @_Cached
    def subset_sums(self) -> tuple[list[int], list[int]]:
        """``(sums, masks)``: the distinct subset sums of the scaled lengths,
        ascending, each with the lowest bitmask (bit j for job j) reaching
        it.  Built job by job in O(n·S) for S sums: a sum reached without
        job j keeps its mask, which is lower than any mask with bit j."""
        table = {0: 0}
        for j, length in enumerate(self.scaled_jobs[1]):
            for total, mask in list(table.items()):
                table.setdefault(total + length, mask | 1 << j)
        sums = sorted(table)
        return sums, [table[total] for total in sums]


@dataclass(frozen=True)
class Instance:
    """Job lengths plus a bid profile; the universe every rule acts on.

    Jobs are canonicalized to nonincreasing order at construction; job
    indices throughout the package refer to positions in that sorted
    tuple.  All lengths and bids must be strictly positive; both are scaled
    to ints once, and checked and sorted on those.  The job data every rule
    reads (``job_data``) is built once here and shared by reference with
    every derived instance.  Its bid data (``scaled_bids``, primed here,
    then ``bid_data``: ``bid_order`` and ``bid_exponents``) is its own,
    cached without a lock, and outside equality, hashing, ``repr`` and JSON.
    """

    jobs: tuple[Fraction, ...]
    bids: tuple[Fraction, ...]
    scaled_jobs = property(lambda self: self.job_data.scaled_jobs)
    total_length = property(lambda self: self.job_data.total_length)

    def __init__(self, jobs: Sequence[RationalLike], bids: Sequence[RationalLike]):
        jobs, bids = rats(jobs), rats(bids)
        if not jobs:
            raise DomainError("instance needs at least one job")
        if not bids:
            raise DomainError("instance needs at least one machine")
        denominator, lengths = scaled_to_ints(jobs)
        if min(lengths) <= 0:
            raise DomainError("job lengths must be strictly positive")
        vars(self)["bids"] = bids
        if min(self.scaled_bids[1]) <= 0:
            raise DomainError("bids must be strictly positive")
        lengths, jobs = zip(*sorted(zip(lengths, jobs), key=operator.itemgetter(0), reverse=True))  # stable
        vars(self).update(jobs=jobs, job_data=JobData(denominator, lengths))

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def m(self) -> int:
        return len(self.bids)

    @_Cached
    def scaled_bids(self) -> tuple[int, list[int]]:
        """``scaled_to_ints`` of the bids: E, their common denominator (derived only here), and each times E."""
        return scaled_to_ints(self.bids)

    @_Cached
    def bid_data(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``bid_data_of`` the ``scaled_bids``: what every rule key reads of the bids."""
        return bid_data_of(*self.scaled_bids)

    bid_order = property(lambda self: self.bid_data[0])  # machines by bid, ties to the lower index
    bid_exponents = property(lambda self: self.bid_data[1])  # machine i's rounded speed is 2**e_i

    def _with_bids(self, bids: list[Fraction]) -> "Instance":
        """Same (already canonical) jobs with new, already validated bids;
        skips ``__init__``.  The job data is shared with this instance, not
        computed again; the bid data (``scaled_bids``, ``bid_data``) is the
        copy's own, derived from its bids on first read."""
        new = object.__new__(Instance)
        vars(new).update(jobs=self.jobs, job_data=self.job_data, bids=tuple(bids))
        return new

    def with_bid(self, machine: int, bid: RationalLike) -> "Instance":
        """Same jobs, with machine's bid replaced (for deviation checks)."""
        bid = rat(bid)
        if bid.numerator <= 0:
            raise DomainError("bids must be strictly positive")
        new_bids = list(self.bids)
        new_bids[machine] = bid
        return self._with_bids(new_bids)

    def deviation_grid(self, bids: Optional[Iterable[RationalLike]] = None) -> tuple[int, list[int]]:
        """``(D, points)``: deviation bids ``points[k]/D``, sorted, over a D
        that clears every bid too.  By default j/8 of the largest bid for
        j = 1..GRID_STEPS plus the bids, each value once; a caller's ``bids``
        keep their repeats, and a non-positive one raises here."""
        if bids is None:
            scale, (bid_scale, own) = max(self.bids), self.scaled_bids
            denominator = lcm(8 * scale.denominator, bid_scale)
            step = scale.numerator * (denominator // (8 * scale.denominator))
            points = {*range(step, (GRID_STEPS + 1) * step, step), *(b * (denominator // bid_scale) for b in own)}
        else:
            bids = rats(bids)
            denominator = lcm(self.scaled_bids[0], *(b.denominator for b in bids))
            points = scaled_by(bids, denominator)
            if points and min(points) <= 0:
                raise DomainError("bids must be strictly positive")
        return denominator, sorted(points)

    def deviation_runs(
        self, grid: tuple[int, Sequence[int]], own: Sequence[int], order_only: bool = False
    ) -> Iterator[tuple[int, int, int, tuple[tuple[int, ...], Optional[tuple[int, ...]]]]]:
        """``(machine, lo, hi, bid_data)`` for every machine, machine 0's runs
        first, over a ``deviation_grid`` ``(D, points)`` and ``own``, the bids
        over D (``scaled_bids`` times D // E): ``with_bid(machine,
        points[k]/D)`` has the bid data ``(bid_order, bid_exponents)`` for
        ``lo <= k < hi`` and other data on the machine's next run; no copy is
        built here.
        Cut by bisection: the bid order changes at each other bid, ties to the
        lower index (``bisect_left`` of a lower-indexed machine's bid,
        ``bisect_right`` of a higher one's), the exponent just above each
        2**e (``bisect_right`` of floor(2**e * D), as ceil_log2(2**e) = e);
        with ``order_only``, at the other bids alone, the exponents None."""
        denominator, points = grid
        starts, k = {0}, 0  # where each exponent's points start
        while k < len(points) and not order_only:
            e = ceil_log2_ints(points[k], denominator)
            k = bisect.bisect_right(points, denominator << e if e >= 0 else denominator >> -e, k)
            starts.add(k)
        left = [bisect.bisect_left(points, s) for s in own]
        right = [bisect.bisect_right(points, s) for s in own]
        for machine in range(self.m):
            others = [j for j in self.bid_order if j != machine]
            cuts = [left[j] if j < machine else right[j] for j in others]  # nondecreasing
            edges = sorted({*starts, *cuts, len(points)})
            exponents = list(self.bid_exponents)
            for lo, hi in zip(edges, edges[1:]):
                pos = bisect.bisect_right(cuts, lo)  # the others placed before the machine
                exponents[machine] = ceil_log2_ints(points[lo], denominator)
                order = (*others[:pos], machine, *others[pos:])
                yield machine, lo, hi, (order, None if order_only else tuple(exponents))

    def with_swapped_bids(self, k: int, l: int) -> "Instance":
        new_bids = list(self.bids)
        new_bids[k], new_bids[l] = new_bids[l], new_bids[k]
        return self._with_bids(new_bids)

    def scaled(self, c: RationalLike) -> "Instance":
        c = rat(c)
        if c <= 0:
            raise DomainError("scaling factor must be positive")
        return self._with_bids([b * c for b in self.bids])

    def to_json_dict(self) -> dict:
        return {
            "jobs": [rat_str(l) for l in self.jobs],
            "bids": [rat_str(b) for b in self.bids],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "Instance":
        for key in ("jobs", "bids"):
            if key not in obj:
                raise DomainError(f"instance JSON missing {key!r}")
            if not isinstance(obj[key], list):
                raise DomainError(f"instance JSON field {key!r} must be a list")
            for v in obj[key]:
                if isinstance(v, float):
                    raise DomainError(
                        f"instance JSON field {key!r} contains a float; "
                        "rationals must be strings or integers"
                    )
        return cls(obj["jobs"], obj["bids"])


@dataclass(frozen=True)
class Assignment:
    """A deterministic job-to-machine map with derived workloads."""

    job_to_machine: tuple[int, ...]
    workloads: tuple[Fraction, ...]

    @classmethod
    def from_map(
        cls, instance: Instance, job_to_machine: Sequence[int]
    ) -> "Assignment":
        if len(job_to_machine) != instance.n:
            raise DomainError("one machine index per job required")
        loads = [Fraction(0)] * instance.m
        for j, i in enumerate(job_to_machine):
            if not 0 <= i < instance.m:
                raise DomainError(f"machine index {i} out of range")
            loads[i] += instance.jobs[j]
        return cls(tuple(job_to_machine), tuple(loads))

    @classmethod
    def from_decision(cls, instance: Instance, decision: tuple[tuple[int, ...], Sequence[int]]) -> "Assignment":
        """A rule's ``decide`` result ``(job_to_machine, loads)``, its int
        loads over the jobs' common denominator D as ``Fraction`` workloads."""
        job_to_machine, loads = decision
        denominator = instance.scaled_jobs[0]
        # an idle machine's workload is one shared zero, built without a gcd
        return cls(job_to_machine, tuple([Fraction(w, denominator) if w else ZERO for w in loads]))

    @property
    def m(self) -> int:
        return len(self.workloads)

    def to_json_dict(self) -> dict:
        return {
            "job_to_machine": list(self.job_to_machine),
            "workloads": [rat_str(w) for w in self.workloads],
        }


@dataclass(frozen=True)
class ExpectedAllocation:
    """Per-machine expected workloads with per-job machine distributions."""

    expected_workloads: tuple[Fraction, ...]
    job_distributions: tuple[tuple[tuple[int, Fraction], ...], ...]

    @property
    def m(self) -> int:
        return len(self.expected_workloads)

    # Expected allocations expose .workloads too so makespan-style helpers
    # can consume either allocation kind.
    @property
    def workloads(self) -> tuple[Fraction, ...]:
        return self.expected_workloads

    def to_json_dict(self) -> dict:
        return {
            "expected_workloads": [rat_str(w) for w in self.expected_workloads],
            "job_distributions": [
                {str(i): rat_str(p) for i, p in dist}
                for dist in self.job_distributions
            ],
        }


Allocation = Union[Assignment, ExpectedAllocation]


@dataclass(frozen=True)
class Outcome:
    """What a mechanism hands back: an allocation plus payments."""

    allocation: Allocation
    payments: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.payments) != self.allocation.m:
            raise DomainError("one payment per machine required")


def makespan(
    allocation: Union[Allocation, Sequence[RationalLike]],
    speeds: Sequence[RationalLike],
) -> Fraction:
    """Maximum over machines of workload times speed."""
    workloads = getattr(allocation, "workloads", allocation)
    speeds = rats(speeds)
    if len(workloads) != len(speeds):
        raise DomainError(
            f"{len(workloads)} workloads vs {len(speeds)} speeds"
        )
    return max(rat(w) * s for w, s in zip(workloads, speeds))


def utility(
    payment: RationalLike, true_speed: RationalLike, workload: RationalLike
) -> Fraction:
    """Payment minus cost; the one quantity allowed to go negative."""
    return rat(payment) - rat(true_speed) * rat(workload)
