"""The bid data has one derivation: ``core.bid_data_of``.

Every rule key reads a profile's bid data, ``(bid_order, bid_exponents)``:
the machines in nondecreasing bid order, ties to the lower index, and
``ceil_log2`` of each bid.  ``core.bid_data_of(E, ints)`` derives it from
the int bids over their scale E; ``Instance.bid_data`` is that of
``scaled_bids``, and ``check_anonymous`` and ``check_scalable`` call it on
their swapped and scaled ints.  No module other than ``core.py`` names
``ceil_log2_ints``, neither ``properties.py`` nor ``certificates.py`` sorts
machine indices by a list's ``__getitem__``, and no call hands bid data to
the copy constructor ``Instance._with_bids`` as keyword arguments.

``bid_data_of`` is checked against the derivation it replaced, kept below
verbatim but for its names: each ``Instance`` sorted its ``Fraction`` bids
and took ``ceil_log2`` of each.
"""

import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import schedmech
from schedmech.core import Instance, bid_data_of, ceil_log2, scaled_to_ints

PACKAGE = Path(schedmech.__file__).resolve().parent
F = Fraction


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _owners(tree, matches):
    """The innermost function (``<module>`` outside any) around each node that ``matches``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "<module>")
    return found


def _names_ceil_log2_ints(node):
    """A read, an import or a definition of ``ceil_log2_ints``."""
    return "ceil_log2_ints" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))


def _sorts_indices_by_a_list(node):
    """``sorted(range(...), key=<list>.__getitem__)``."""
    return (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted" and bool(node.args)
        and isinstance(node.args[0], ast.Call) and getattr(node.args[0].func, "id", None) == "range"
        and any(kw.arg == "key" and getattr(kw.value, "attr", None) == "__getitem__" for kw in node.keywords)
    )


def _seeds_a_copy(node):
    """A call of ``_with_bids`` with keyword arguments, ``**`` ones included."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_with_bids" and bool(node.keywords)


def exponent_derivations(trees):
    return [f"{module}:{owner}" for module, tree in trees.items() if module != "core.py"
            for owner in _owners(tree, _names_ceil_log2_ints)]


def order_derivations(trees):
    return [f"{module}:{owner}" for module, tree in trees.items() if module in ("properties.py", "certificates.py")
            for owner in _owners(tree, _sorts_indices_by_a_list)]


def seeded_copies(trees):
    return [f"{module}:{owner}" for module, tree in trees.items() for owner in _owners(tree, _seeds_a_copy)]


def test_only_core_derives_bid_exponents():
    assert exponent_derivations(_trees()) == []


def test_the_checks_and_the_polytope_sort_no_bid_order_of_their_own():
    assert order_derivations(_trees()) == []


def test_no_call_hands_bid_data_to_the_copy_constructor():
    assert seeded_copies(_trees()) == []


# The lines of the three derivations this guard removed, verbatim in cut-down
# functions, and near misses it allows.
PROPERTIES = '''
from .core import (
    ceil_log2_ints,
)

def check_anonymous(mechanism, instance):
    for k in range(instance.m):
        for l in range(instance.m):
            swapped, exponents = bids[:], list(instance.bid_exponents)
            swapped[k], swapped[l], exponents[k], exponents[l] = swapped[l], swapped[k], exponents[l], exponents[k]
            order = tuple(sorted(range(instance.m), key=swapped.__getitem__))
            key = key_of and key_of(instance, (order, tuple(exponents)))(swapped)

def check_scalable(rule, instance, scalars):
    for c in rats(scalars):
        scaled_bids = [b * c.numerator for b in bids]
        exponents = tuple(ceil_log2_ints(b, scale * c.denominator) for b in scaled_bids)
        key = key_of and key_of(instance, (instance.bid_order, exponents))(scaled_bids)

def allowed(instance, bids):
    return sorted(range(len(bids)), key=lambda i: bids[i]), sorted(bids), instance._with_bids(bids)
'''
CERTIFICATES = '''
def _polytope_rows(rule, bid_grid, jobs, machines, profile_budget):
    base, exponents = Instance(jobs, profiles[0]), [ceil_log2(v) for v in grid]
    workloads = [rule(base._with_bids(b, bid_order=tuple(sorted(range(machines), key=idx.__getitem__)),
                                      bid_exponents=tuple(map(exponents.__getitem__, idx)))).workloads
                 for b, idx in zip(profiles, points)]

def seeded(base, bids, data):
    return base._with_bids(bids, **data)
'''
ALLOCATIONS = '''
def opt_makespan(instance, budget):
    return sorted(range(m), key=keys.__getitem__)
'''


def test_the_guards_see_the_patterns_they_forbid():
    trees = {name: ast.parse(source) for name, source in
             (("properties.py", PROPERTIES), ("certificates.py", CERTIFICATES), ("allocations.py", ALLOCATIONS))}
    trees["core.py"] = ast.parse("from math import ceil_log2_ints\ne = ceil_log2_ints(3, 2)\n")
    assert exponent_derivations(trees) == ["properties.py:<module>", "properties.py:check_scalable"]
    assert order_derivations(trees) == ["properties.py:check_anonymous", "certificates.py:_polytope_rows"]
    assert seeded_copies(trees) == ["certificates.py:_polytope_rows", "certificates.py:seeded"]


# ---------------------------------------------------------------------------
# ``bid_data_of`` against the derivation it replaced.


def parent_bid_order(self) -> tuple[int, ...]:
    """Machine indices in nondecreasing bid order, ties to the lower
    index (the sort is stable)."""
    return tuple(sorted(range(self.m), key=self.bids.__getitem__))


def parent_bid_exponents(self) -> tuple[int, ...]:
    """``ceil_log2`` of each bid: machine i's rounded speed is 2**e_i."""
    return tuple(map(ceil_log2, self.bids))


def parent_bid_data(instance):
    return parent_bid_order(instance), parent_bid_exponents(instance)


HUGE = 2 ** 64
POWERS = [F(2) ** e for e in range(-6, 7)] + [F(1, 2 ** 70), F(2 ** 70)]


def draw_bid(rng):
    """``(kind, bid)``."""
    kind = rng.choice(("a power of two", "a neighbour of a power of two", "a denominator above 2^64", "small"))
    if kind == "a power of two":
        return kind, rng.choice(POWERS)
    if kind == "a neighbour of a power of two":  # 2^e ± 1/q
        p, q = rng.choice(POWERS), rng.choice((3, 64, 1000, HUGE + 1, 2 ** 80))
        return kind, p + F(1, q) if rng.random() < 0.5 or p <= F(1, q) else p - F(1, q)
    if kind == "a denominator above 2^64":
        return kind, F(rng.randint(1, 2 ** 72), HUGE + rng.randint(1, 2 ** 20))
    return kind, F(rng.randint(1, 40), rng.randint(1, 12))


def test_bid_data_of_is_the_earlier_derivation():
    rng = random.Random(4501)
    seen = Counter()
    for trial in range(1200):
        m = trial % 6 + 1
        kinds, bids = map(list, zip(*(draw_bid(rng) for _ in range(m))))
        for _ in range(rng.randrange(m)):  # ties
            bids[rng.randrange(m)] = rng.choice(bids)
        instance = Instance([3, F(1, 2)], bids)
        want = parent_bid_data(instance)
        scale, ints = scaled_to_ints(instance.bids)
        assert bid_data_of(scale, ints) == want, bids
        assert instance.bid_data == want == (instance.bid_order, instance.bid_exponents), bids
        # over a multiple of the scale, as a scalability check reads scaled ints
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = instance._with_bids([b * c for b in instance.bids])
        assert bid_data_of(scale * c.denominator, [b * c.numerator for b in ints]) == parent_bid_data(scaled)
        # and every copy derives its own
        k, l = rng.randrange(m), rng.randrange(m)
        for copy in (instance._with_bids([instance.bids[{k: l, l: k}.get(i, i)] for i in range(m)]),
                     instance.with_bid(k, draw_bid(rng)[1]), scaled):
            assert copy.bid_data == parent_bid_data(copy), copy.bids
        seen[f"m = {m}"] += 1
        seen["tied bids"] += len(set(bids)) < m
        seen.update(set(kinds))
    assert min(seen.values()) >= 100, seen
