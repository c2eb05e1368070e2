"""Exact data model for strategic scheduling on related machines.

Machines bid a speed (time per unit of length, so smaller means faster),
jobs have lengths, and an allocation maps jobs to machines.  Every scalar
in this package is an exact ``fractions.Fraction``: tie-breaking, the
breakpoints of bid-response step functions and the certificate arithmetic
all rely on exact comparisons, so floats are rejected at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str]


class DomainError(ValueError):
    """A scalar or argument is outside the domain an operation supports."""


class DimensionMismatch(ValueError):
    """Two vectors that must have equal length do not."""


class BudgetExceeded(RuntimeError):
    """An exhaustive search would exceed its configured state budget."""


def rat(value: RationalLike) -> Fraction:
    """Convert to an exact Fraction.

    Accepts Fraction, int, or strings like ``"3"``, ``"3/4"`` and ``"0.25"``
    (finite decimal expansions only).  Floats are rejected: binary floats
    would silently break exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    raise DomainError(f"refusing inexact type {type(value).__name__!r}: {value!r}")


def rat_str(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (the wire format)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rats(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def ceil_log2(b: RationalLike) -> int:
    """Smallest integer e with 2**e >= b, for rational b > 0.

    Computed by exact comparison against powers of two, never via a
    floating logarithm.
    """
    b = rat(b)
    if b <= 0:
        raise DomainError(f"ceil_log2 requires a positive argument, got {rat_str(b)}")
    p, q = b.numerator, b.denominator
    # With P, Q the bit lengths of p, q, p/q lies strictly between
    # 2**(P-Q-1) and 2**(P-Q+1), so the answer is P-Q or P-Q+1.
    e = p.bit_length() - q.bit_length()
    if (p > q << e) if e >= 0 else (p << -e > q):  # 2**e < p/q
        e += 1
    return e


def rounded_speed(b: RationalLike) -> Fraction:
    """Round a positive bid up to the nearest integer power of two.

    Exact powers of two round to themselves; exponents may be negative
    (e.g. 3/8 rounds to 1/2).
    """
    return Fraction(2) ** ceil_log2(b)


@dataclass(frozen=True)
class Instance:
    """Job lengths plus a bid profile; the universe every rule acts on.

    Jobs are canonicalized to nonincreasing order at construction; job
    indices throughout the package refer to positions in that sorted
    tuple.  All lengths and bids must be strictly positive.
    """

    jobs: tuple[Fraction, ...]
    bids: tuple[Fraction, ...]

    def __init__(self, jobs: Sequence[RationalLike], bids: Sequence[RationalLike]):
        jobs_t = tuple(sorted(rats(jobs), reverse=True))
        bids_t = rats(bids)
        if not jobs_t:
            raise DomainError("instance needs at least one job")
        if not bids_t:
            raise DomainError("instance needs at least one machine")
        if jobs_t[-1] <= 0:
            raise DomainError("job lengths must be strictly positive")
        if min(bids_t) <= 0:
            raise DomainError("bids must be strictly positive")
        object.__setattr__(self, "jobs", jobs_t)
        object.__setattr__(self, "bids", bids_t)

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def m(self) -> int:
        return len(self.bids)

    @cached_property
    def total_length(self) -> Fraction:
        return sum(self.jobs, Fraction(0))

    def _with_bids(self, bids: list[Fraction]) -> "Instance":
        """Same (already canonical) jobs with new, already validated bids;
        skips ``__init__``.  A cached job total carries over with the jobs."""
        new = object.__new__(Instance)
        state = vars(new)
        state["jobs"] = self.jobs
        state["bids"] = tuple(bids)
        if "total_length" in vars(self):
            state["total_length"] = self.total_length
        return new

    def with_bid(self, machine: int, bid: RationalLike) -> "Instance":
        """Same jobs, with machine's bid replaced (for deviation checks)."""
        bid = rat(bid)
        if bid <= 0:
            raise DomainError("bids must be strictly positive")
        new_bids = list(self.bids)
        new_bids[machine] = bid
        return self._with_bids(new_bids)

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
            for v in obj[key]:
                if isinstance(v, float):
                    raise DomainError(
                        f"instance JSON field {key!r} contains a float; "
                        "rationals must be strings or integers"
                    )
        return cls(rats(obj["jobs"]), rats(obj["bids"]))


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
            raise DimensionMismatch("one machine index per job required")
        loads = [Fraction(0)] * instance.m
        for j, i in enumerate(job_to_machine):
            if not 0 <= i < instance.m:
                raise DomainError(f"machine index {i} out of range")
            loads[i] += instance.jobs[j]
        return cls(tuple(job_to_machine), tuple(loads))

    @property
    def m(self) -> int:
        return len(self.workloads)

    def machine_jobs(self, machine: int) -> tuple[int, ...]:
        return tuple(j for j, i in enumerate(self.job_to_machine) if i == machine)

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

    @classmethod
    def from_distributions(
        cls,
        instance: Instance,
        job_distributions: Sequence[Mapping[int, Fraction]],
    ) -> "ExpectedAllocation":
        if len(job_distributions) != instance.n:
            raise DimensionMismatch("one distribution per job required")
        expected = [Fraction(0)] * instance.m
        dists = []
        for j, dist in enumerate(job_distributions):
            total = sum(dist.values(), Fraction(0))
            if total != 1:
                raise DomainError(f"job {j} distribution sums to {rat_str(total)}")
            for i, p in dist.items():
                if p < 0 or not 0 <= i < instance.m:
                    raise DomainError("invalid distribution entry")
                expected[i] += instance.jobs[j] * p
            dists.append(tuple(sorted((i, p) for i, p in dist.items() if p > 0)))
        return cls(tuple(expected), tuple(dists))

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
            raise DimensionMismatch("one payment per machine required")


def makespan(
    allocation: Union[Allocation, Sequence[RationalLike]],
    speeds: Sequence[RationalLike],
) -> Fraction:
    """Maximum over machines of workload times speed."""
    workloads = getattr(allocation, "workloads", allocation)
    speeds = rats(speeds)
    if len(workloads) != len(speeds):
        raise DimensionMismatch(
            f"{len(workloads)} workloads vs {len(speeds)} speeds"
        )
    return max(rat(w) * s for w, s in zip(workloads, speeds))


def utility(
    payment: RationalLike, true_speed: RationalLike, workload: RationalLike
) -> Fraction:
    """Payment minus cost; the one quantity allowed to go negative."""
    return rat(payment) - rat(true_speed) * rat(workload)
