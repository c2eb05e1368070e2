"""The helpers that several modules share: the exact relation table, the
instance's bid order and the VCG winner."""

import operator
import random
from fractions import Fraction as F

import pytest

from schedmech.allocations import vcg_allocate
from schedmech.certificates import CheckRecord
from schedmech.core import DomainError, Instance
from schedmech.exactlp import Constraint
from schedmech.payments import vcg_payments
from schedmech.properties import Counterexample

from test_exactlp import satisfied_by

OPERATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}


def _pairs(seed, count=200):
    """Seeded Fraction pairs, a third of them equal."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = F(rng.randint(-6, 6), rng.randint(1, 4))
        b = a if rng.random() < 1 / 3 else F(rng.randint(-6, 6), rng.randint(1, 4))
        pairs.append((a, b))
    return pairs


class TestRelationTable:
    def test_seeded_pairs_include_equal_values(self):
        pairs = _pairs(1)
        assert any(a == b for a, b in pairs) and any(a < b for a, b in pairs)
        assert any(a > b for a, b in pairs)

    @pytest.mark.parametrize("relation", sorted(OPERATORS))
    def test_check_record_holds_matches_operator(self, relation):
        for a, b in _pairs(2):
            assert CheckRecord("x", a, relation, b).holds == OPERATORS[relation](a, b)

    @pytest.mark.parametrize("relation", ["<=", ">=", "=="])
    def test_counterexample_violation_is_the_negation(self, relation):
        for a, b in _pairs(3):
            ce = Counterexample("x", a, relation, b, {})
            assert ce.violation_holds() == (not OPERATORS[relation](a, b))

    @pytest.mark.parametrize("relation", ["<=", ">=", "=="])
    def test_constraint_satisfied_by_matches_operator(self, relation):
        for a, b in _pairs(4):
            con = Constraint(((0, F(1)),), relation, b)
            assert satisfied_by(con, [a]) == OPERATORS[relation](a, b)

    @pytest.mark.parametrize("relation", ["!=", "<", ">", "=<", ""])
    def test_counterexample_rejects_other_relations(self, relation):
        with pytest.raises(DomainError):
            Counterexample("x", F(1), relation, F(2), {}).violation_holds()

    @pytest.mark.parametrize("relation", ["!=", "<", ">", "=<", ""])
    def test_constraint_rejects_other_relations(self, relation):
        with pytest.raises(DomainError):
            Constraint(((0, F(1)),), relation, F(2))

    @pytest.mark.parametrize("relation", ["=<", "=", "<>", ""])
    def test_check_record_rejects_unknown_relations(self, relation):
        with pytest.raises(DomainError):
            CheckRecord("x", F(1), relation, F(2)).holds


def _tied_bids(rng, m):
    """m bids from a four-value pool, so ties are common."""
    return [rng.choice((F(1, 2), F(1), F(3, 2), F(2))) for _ in range(m)]


class TestBidOrderAndWinner:
    """``Instance.bid_order`` against the ``(bid, index)`` lambdas it replaces."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_bid_order_matches_bid_index_sort(self, m):
        rng = random.Random(m)
        for _ in range(200):
            bids = _tied_bids(rng, m)
            order = Instance((F(1),), bids).bid_order
            assert order == tuple(sorted(range(m), key=lambda i: (bids[i], i)))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_lowest_bidder_matches_bid_index_min(self, m):
        rng = random.Random(10 + m)
        for _ in range(200):
            bids = tuple(_tied_bids(rng, m))
            winner = Instance((F(1),), bids).bid_order[0]
            assert winner == min(range(m), key=lambda i: (bids[i], i))

    def test_draws_tie_at_the_minimum(self):
        rng = random.Random(99)
        draws = [tuple(_tied_bids(rng, 4)) for _ in range(200)]
        assert sum(b.count(min(b)) > 1 for b in draws) > 20

    @pytest.mark.parametrize("m", range(1, 7))
    def test_vcg_rule_and_payments_use_the_lowest_index_at_a_tie(self, m):
        rng = random.Random(20 + m)
        for _ in range(100):
            bids = _tied_bids(rng, m)
            instance = Instance((F(3), F(1, 2)), bids)
            winner = min(range(m), key=lambda i: (bids[i], i))
            assignment = vcg_allocate(instance)
            assert assignment.job_to_machine == (winner, winner)
            payments = vcg_payments(instance, assignment)
            others = [bids[i] for i in range(m) if i != winner]
            paid = min(others) if others else bids[winner]
            expected = [F(0)] * m
            expected[winner] = paid * instance.total_length
            assert payments == tuple(expected)

    def test_vcg_payments_at_an_explicit_tie(self):
        instance = Instance((F(2), F(1)), (F(3), F(1), F(1), F(2)))
        assignment = vcg_allocate(instance)
        assert assignment.workloads == (F(0), F(3), F(0), F(0))
        # The runner-up bid is the tied 1, so the winner's utility is 0.
        assert vcg_payments(instance, assignment) == (F(0), F(3), F(0), F(0))
