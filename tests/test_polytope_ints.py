"""The payment polytope's witness text, rendered from ints, against the text
it replaced.

The witness text is rendered from each payment's int over the scale and
from per-grid-value texts; it must be the text that ``rat_str`` of a
``Fraction`` gave, with ``parent_rat_str`` below the earlier ``rat_str``
verbatim but for its name.
"""

import itertools
import random
from fractions import Fraction

import pytest

from schedmech import certificates
from schedmech.allocations import RULES, vcg_allocate
from schedmech.certificates import payment_polytope_feasible
from schedmech.core import rat_str, ratio_str

F = Fraction


def parent_rat_str(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (the wire format)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def test_ratio_str_and_rat_str_give_the_parent_strings():
    rng = random.Random(3302)
    values = [(0, 1), (0, 7), (12, 4), (-12, 4), (-3, 6), (1, 1), (-1, 1), (10 ** 30 + 1, 10 ** 15)]
    values += [(rng.randint(-60, 60), rng.randint(1, 36)) for _ in range(600)]
    for p, q in values:
        want = parent_rat_str(F(p, q))
        assert ratio_str(p, q) == want == rat_str(F(p, q)), (p, q)
        assert rat_str(p) == parent_rat_str(p)
    assert [ratio_str(*v) for v in values[:6]] == ["0", "0", "3", "-3", "-1/2", "1"]


@pytest.mark.parametrize(
    "rule, grid, jobs, machines",
    [
        (vcg_allocate, "1", "2,1", 1),
        (vcg_allocate, "1,3/2,2", "2,1", 1),
        (RULES["two-opt"], "1,3/2,2,3", "3,2,1", 2),
        (RULES["at-expected"], "5/8,1,5", "2,1", 2),
        (RULES["opt"], "1,2", "2,1", 3),
        (vcg_allocate, "3/4,5/4,2", "5/2,4/3,1", 3),
    ],
)
def test_witness_text_is_the_parent_text(monkeypatch, rule, grid, jobs, machines):
    """Keys from per-grid-value texts, values from ints over the scale, as
    ``rat_str`` of each profile bid and of each payment's ``Fraction``."""
    pairs = []

    def recorded(numerator, denominator):
        pairs.append((numerator, denominator))
        return ratio_str(numerator, denominator)

    monkeypatch.setattr(certificates, "ratio_str", recorded)
    values = [F(v) for v in grid.split(",")]
    result = payment_polytope_feasible(rule, values, [F(v) for v in jobs.split(",")], machines)
    assert result.feasible and len(pairs) == machines * len(values) ** machines
    texts = [",".join(map(parent_rat_str, b)) for b in itertools.product(sorted(values), repeat=machines)]
    parent = {
        f"p[{t % machines}]({texts[t // machines]})": parent_rat_str(Fraction(x, scale))
        for t, (x, scale) in enumerate(pairs)
    }
    assert list(result.witness.items()) == list(parent.items())
    if machines == 1 and grid == "1":
        assert list(result.witness) == ["p[0](1)"]
