"""``Instance.__init__`` builds an instance on ints, in one pass, and builds
what the constructor before it built.

The reference below is ``Instance.__init__`` verbatim as it was when it
sorted the ``Fraction`` jobs, checked the ``Fraction``s for positivity and
handed the sorted jobs to ``JobData``, which scaled them to ints again;
with that ``JobData.__init__``, the ``rat`` and ``rats`` of that time and
the two bid data caches, then ``functools.cached_property``s, verbatim but
for their names (``scaled_to_ints`` and ``bid_data_of`` are the package's,
unchanged).  The constructor now scales the jobs and the bids once,
checks and sorts on those ints, and primes ``scaled_bids``.  On seeded and
hypothesis inputs (text, ints and ``Fraction``s, tied and equal values,
unreduced spellings such as ``2/4``, decimals such as ``0.25``, 1-8 jobs on
1-4 machines) both must give the same ``jobs``, ``bids``, ``scaled_jobs``,
``total_length``, ``scaled_bids``, ``bid_data``, equality, hash and
``repr``, and on empty, zero, negative, ``float`` and ``bool`` inputs the
same ``DomainError`` text.
"""

import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from schedmech.core import DomainError, Instance, RationalLike, bid_data_of, scaled_to_ints

# ---------------------------------------------------------------------------
# Reference: the constructor before construction on ints, verbatim.


def rat(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            num, slash, den = value.strip().partition("/")
            if value.isascii() and num[num[:1] in "+-":].isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den or 1))  # "p" or "p/q": no regex parse
            if "e" in value.lower():
                # Fraction("1e999999999") would compute 10**999999999.
                raise ValueError("exponent notation")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    raise DomainError(f"refusing inexact type {type(value).__name__!r}: {value!r}")


def rats(values):
    return tuple(rat(v) for v in values)


class ReferenceJobData:
    def __init__(self, jobs):
        denominator, lengths = scaled_to_ints(jobs)
        self.scaled_jobs = denominator, tuple(lengths)
        self.total_length = Fraction(sum(lengths), denominator)


@dataclass(frozen=True)
class ReferenceInstance:
    jobs: tuple
    bids: tuple
    scaled_jobs = property(lambda self: self.job_data.scaled_jobs)
    total_length = property(lambda self: self.job_data.total_length)

    def __init__(self, jobs, bids):
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
        vars(self).update(jobs=jobs_t, bids=bids_t, job_data=ReferenceJobData(jobs_t))

    @cached_property
    def scaled_bids(self):
        return scaled_to_ints(self.bids)

    @cached_property
    def bid_data(self):
        return bid_data_of(*self.scaled_bids)


# ---------------------------------------------------------------------------
# Comparison.

VIEWS = ("jobs", "bids", "scaled_jobs", "total_length", "scaled_bids", "bid_data")


def _shape(value):
    """A value with the type of each container and scalar spelled out."""
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [_shape(v) for v in value]
    return type(value).__name__, value


def _built(cls, jobs, bids):
    try:
        return cls(jobs, bids)
    except DomainError as exc:
        return f"DomainError: {exc}"


def assert_built_as_the_reference(jobs, bids):
    got, expected = _built(Instance, jobs, bids), _built(ReferenceInstance, jobs, bids)
    if isinstance(expected, str):
        assert got == expected
        return
    for view in VIEWS:
        assert _shape(getattr(got, view)) == _shape(getattr(expected, view)), view
    assert repr(got) == repr(expected).replace("ReferenceInstance", "Instance", 1)
    assert hash(got) == hash(expected)
    twin = object.__new__(Instance)
    vars(twin).update(jobs=expected.jobs, bids=expected.bids)
    assert got == twin
    return got, expected


# ---------------------------------------------------------------------------
# Inputs.


def spellings(value: Fraction, rng: random.Random):
    """``value`` as a ``Fraction``, and as an int, "p", "p/q", an unreduced
    "kp/kq" and a decimal where those spell it exactly."""
    forms = [value, f"{value.numerator}/{value.denominator}", f"{3 * value.numerator}/{3 * value.denominator}"]
    if value.denominator == 1:
        forms += [value.numerator, str(value.numerator), f" {value.numerator} "]
    if value.denominator in (2, 4, 5, 8, 10, 20, 25):
        forms.append(str(Decimal(value.numerator) / value.denominator))
    return rng.choice(forms)


POOL = [Fraction(n, d) for n in range(1, 13) for d in (1, 2, 4, 5)]


def draw(seed):
    """1-8 jobs on 1-4 machines, about half of each drawn from a small pool
    of values so that equal values, spelt differently, repeat."""
    rng = random.Random(seed)
    pool = rng.sample(POOL, rng.randint(1, 4))

    def values(count):
        return [spellings(rng.choice(pool) if rng.random() < 0.5 else rng.choice(POOL), rng) for _ in range(count)]

    return values(rng.randint(1, 8)), values(rng.randint(1, 4))


def test_the_seeded_inputs_cover_ties_spellings_and_sizes():
    inputs = [draw(seed) for seed in range(400)]
    values = [v for jobs, bids in inputs for v in (*jobs, *bids)]
    assert {len(jobs) for jobs, _ in inputs} == set(range(1, 9))
    assert {len(bids) for _, bids in inputs} == set(range(1, 5))
    assert sum(len(set(map(rat, jobs))) < len(jobs) for jobs, _ in inputs) > 150
    assert sum(len(set(map(rat, bids))) < len(bids) for _, bids in inputs) > 100
    # the same value spelt two ways in one vector
    assert sum(any(rat(a) == rat(b) and a != b for a in jobs for b in jobs) for jobs, _ in inputs) > 100
    for kind in (Fraction, int, str):
        assert sum(type(v) is kind for v in values) > 200
    assert any(isinstance(v, str) and "." in v for v in values)
    assert any(isinstance(v, str) and "/" in v and rat(v).denominator != int(v.split("/")[1]) for v in values)


@pytest.mark.parametrize("seed", range(400))
def test_the_constructor_builds_what_the_reference_built(seed):
    assert_built_as_the_reference(*draw(seed))


def test_equal_instances_spelt_differently_are_equal_as_in_the_reference():
    rng = random.Random(7)
    for seed in range(200):
        jobs, bids = draw(seed)
        respelt = [spellings(rat(v), rng) for v in jobs][::-1], [spellings(rat(v), rng) for v in bids]
        got, expected = assert_built_as_the_reference(jobs, bids)
        again, reference_again = assert_built_as_the_reference(*respelt)
        assert got == again and hash(got) == hash(again) and repr(got) == repr(again)
        assert expected == reference_again


rationals = st.fractions(min_value=Fraction(1, 16), max_value=64, max_denominator=16)
vectors = st.builds(lambda values, seed: [spellings(v, random.Random(seed + k)) for k, v in enumerate(values)],
                    st.lists(rationals, min_size=1, max_size=8), st.integers(0, 2 ** 16))


@settings(max_examples=300, deadline=None)
@given(vectors, vectors.map(lambda bids: bids[:4]))
def test_hypothesis_inputs_build_what_the_reference_built(jobs, bids):
    assert_built_as_the_reference(jobs, bids)


REFUSED = [
    ([], [1]), ([1], []), ([], []), ([], [0]), ([0], []),
    ([0], [1]), ([1, "0"], [1]), (["0/3"], [1]), ([-1], [1]), (["-1/2", 2], [1]), ([1], [0]), ([1], [2, "-3"]),
    ([0], [0]), ([-1], [-1]), ([1, 0], [-2, 1]),
    ([1.5], [1]), ([1], [0.5]), ([], [0.5]), ([0.5], []), ([0], [1.0]),
    ([True], [1]), ([1], [False]), ([], [True]), ([0], [True]),
    (["1e3"], [1]), (["x"], [1]), ([1], ["1/0"]), ([None], [1]), ([0], ["abc"]),
]


@pytest.mark.parametrize("jobs, bids", REFUSED)
def test_refused_inputs_give_the_reference_text(jobs, bids):
    assert isinstance(_built(ReferenceInstance, jobs, bids), str)
    assert_built_as_the_reference(jobs, bids)
