"""The package's 15 record classes as they were when ``@dataclass`` built
their methods: each decorator, class line, docstring and field list
verbatim, with the ``__init__`` or ``__post_init__`` that checked or built
them and the few members those read (``Instance.scaled_bids``, the
allocations' ``m``) or that a test compares (``FeasibilityResult.to_json_dict``).
Other methods are left out: ``tests/test_record_oracle.py`` compares what
the decorator generated, ``==``, ``hash``, ``repr``, assignment, pickling
and copying, and those read the fields alone.  The names are the package's,
so that ``repr`` texts compare equal; this module is imported by its own
name, so that pickle finds these classes here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from schedmech.core import (
    WEAK_RELATIONS,
    DomainError,
    JobData,
    RationalLike,
    _Cached,
    rat_str,
    rats,
    scaled_to_ints,
)

# ---------------------------------------------------------------------------
# core


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

    @_Cached
    def scaled_bids(self) -> tuple[int, list[int]]:
        """``scaled_to_ints`` of the bids: E, their common denominator (derived only here), and each times E."""
        return scaled_to_ints(self.bids)


@dataclass(frozen=True)
class Assignment:
    """A deterministic job-to-machine map with derived workloads."""

    job_to_machine: tuple[int, ...]
    workloads: tuple[Fraction, ...]

    @property
    def m(self) -> int:
        return len(self.workloads)


@dataclass(frozen=True)
class ExpectedAllocation:
    """Per-machine expected workloads with per-job machine distributions."""

    expected_workloads: tuple[Fraction, ...]
    job_distributions: tuple[tuple[tuple[int, Fraction], ...], ...]

    @property
    def m(self) -> int:
        return len(self.expected_workloads)


Allocation = Union[Assignment, ExpectedAllocation]


@dataclass(frozen=True)
class Outcome:
    """What a mechanism hands back: an allocation plus payments."""

    allocation: Allocation
    payments: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.payments) != self.allocation.m:
            raise DomainError("one payment per machine required")


# ---------------------------------------------------------------------------
# properties


@dataclass(frozen=True)
class Counterexample:
    """A violated inequality, reproducible from its exact pieces."""

    description: str
    lhs: Fraction
    relation: str
    rhs: Fraction
    context: dict


@dataclass(frozen=True)
class PropertyVerdict:
    prop: str
    counterexample: Optional[Counterexample] = None


# ---------------------------------------------------------------------------
# payments


@dataclass
class Mechanism:
    """An allocation rule paired with a payment scheme.  A keyed one has a
    rule's ``key`` (equal keys where only machine i's bid differs: equal
    workload and payment for i; None promises nothing) and ``decide(instance,
    key, bids)``: int loads over D and payments over D times the bids' scale."""

    name: str
    rule: Callable[[Instance], Assignment]
    payment_fn: Callable[[Instance, Assignment], Sequence[Fraction]]


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


# ---------------------------------------------------------------------------
# workcurve


@dataclass(frozen=True)
class WorkCurve:
    """Piecewise-constant bid response.

    ``values[j]`` holds on the open interval (breakpoints[j-1], breakpoints[j])
    with the left edge of the first interval at 0; ``tail`` holds beyond the
    last breakpoint.
    Values at the breakpoints themselves are taken from the right: they are
    measure zero and never affect an integral.  A nonzero tail means the
    underlying rule was still allocating work at the curve's cap, so
    integrals to infinity diverge (or the cap was simply too small -- that
    is the caller's promise to keep).  ``approximate`` marks a curve whose
    breakpoints are not exact; the builders here never set it, and
    ``integrate`` refuses such a curve.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    tail: Fraction
    approximate: bool = False

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints):
            raise DomainError("need one value per breakpoint interval")
        prev = Fraction(0)
        for x in self.breakpoints:
            if x <= prev:
                raise DomainError("breakpoints must be strictly increasing and positive")
            prev = x


@dataclass(frozen=True)
class CurvePiece:
    """One regime of an expected-workload curve on (lo, hi]: the
    linear-fractional form (n0 + n1*x)/(d0 + d1*x), with ``params`` =
    (n0, n1, d0, d1) scaled so that d1 = 1, or d0 = 1 when d1 = 0; equal
    forms thus have equal params.  hi=None encodes an unbounded final piece,
    whose integral is finite only when the form is 0.
    """

    lo: Fraction
    hi: Optional[Fraction]
    params: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if self.params[3] != 1 and self.params[2:] != (1, 0):
            shown = [rat_str(p) for p in self.params]
            raise DomainError(f"piece params {shown} need d1 = 1, or d0 = 1 when d1 = 0")
        if self.params[3] == 1 and self.params[2] + self.lo <= 0:
            raise DomainError("a piece's denominator d0 + x must be positive on it")


@dataclass(frozen=True)
class LogLinearValue:
    """rational + sum of coef*ln(arg) with rational coefs and args > 1."""

    rational: Fraction
    logs: tuple[tuple[Fraction, Fraction], ...]


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CheckRecord:
    """One exact comparison; ``holds`` is recomputed, never stored."""

    label: str
    lhs: Fraction
    relation: str
    rhs: Fraction


@dataclass
class CertificateReport:
    name: str
    inputs: dict
    constants: dict
    checks: list[CheckRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class FeasibilityResult:
    """Outcome of the grid polytope solve.

    Grid feasibility is one-directional evidence: the constraints on a grid
    are a strict subset of the continuum constraints, so only infeasibility
    transfers.  Witnesses and infeasible subsets are re-verified exactly.
    """

    feasible: bool
    witness: Optional[dict]
    infeasible_subset: Optional[list[str]]
    n_profiles: int
    n_constraints: int
    notes: list[str]

    def to_json_dict(self) -> dict:
        # Not ``dataclasses.asdict``: it deep-copies every witness entry.
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# exactlp


@dataclass(frozen=True)
class Constraint:
    """coeffs . x  (relation)  rhs over nonnegative variables."""

    coeffs: tuple[tuple[int, Fraction], ...]
    relation: str  # '<=', '>=', '=='
    rhs: Fraction
    label: str = ""

    def __post_init__(self):
        if self.relation not in WEAK_RELATIONS:
            raise DomainError(f"unknown relation {self.relation!r}")
