"""Keyed rules decide from their key, on ints.

``LptStar``, ``VcgAllocate`` and ``TwoMachineOpt`` each have
``decide(instance, key) -> (job_to_machine, loads)``: the key is the value
of ``decision_key`` (LPT*, VCG) or of ``grid_key`` (two-opt), the loads are
ints over the jobs' common denominator D, and nothing else of the bids is
read.  ``check_monotone`` reads such a rule at each read's key on the base
instance, with no copy.  On seeded chains (tied bids, bids straddling powers
of two, unsorted caller grids with repeats, and large coprime edge bids),
``decide`` at every grid point's key must give what the rule, and its
``Fraction`` reference from before ``decide``, give on a fresh ``Instance``
at that point; and ``check_monotone`` must give the verdict and JSON it
gives with ``decide`` hidden, where it runs the rule on copies.
"""

import random
from fractions import Fraction

import pytest

from schedmech.allocations import lpt_star, two_machine_opt, vcg_allocate
from schedmech.core import Instance
from schedmech.properties import check_monotone
from schedmech.sampling import sample_instance

from specimens import slowest_takes_all
from test_deviation_oracle import (
    EDGE_SEEDS,
    SEEDS,
    _Counting,
    draw_chain,
    draw_edge_chain,
    reference_lpt_star,
    reference_vcg_allocate,
)
from test_two_opt_table import reference_two_machine_opt


def draw_straddle_chain(seed):
    """2-4 machines bidding at, just below and just above powers of two,
    on the default grid or on a caller grid of such bids with repeats."""
    rng = random.Random(seed)
    inst = sample_instance(rng, m_max=4, n_max=6, straddle_pow2=True)
    if seed % 2:
        return inst, None
    grid = list(sample_instance(rng, m_min=6, m_max=8, straddle_pow2=True).bids)
    grid += rng.sample(grid, 3) + rng.sample(inst.bids, 1)
    rng.shuffle(grid)
    return inst, grid


STRADDLE_SEEDS = range(40)
CHAINS = ([pytest.param(draw_chain, seed, id=f"chain-{seed}") for seed in SEEDS]
          + [pytest.param(draw_edge_chain, seed, id=f"edge-{seed}") for seed in EDGE_SEEDS]
          + [pytest.param(draw_straddle_chain, seed, id=f"straddle-{seed}") for seed in STRADDLE_SEEDS])


def _rules(inst):
    """Each rule with ``decide`` that applies to the instance, with its
    reference from before ``decide``."""
    rules = [(lpt_star, reference_lpt_star), (vcg_allocate, reference_vcg_allocate)]
    if inst.m == 2:
        rules.append((two_machine_opt, reference_two_machine_opt))
    return rules


def test_chains_cover_ties_straddles_repeats_and_two_machines():
    chains = [draw(seed) for draw, seed in (param.values for param in CHAINS)]
    assert sum(len(set(inst.bids)) < inst.m for inst, _ in chains) > 60
    straddling = [b for inst, _ in chains for b in inst.bids
                  if any(abs(b - Fraction(2) ** e) <= Fraction(1, 3) for e in range(-2, 5))]
    assert len(straddling) > 150
    assert sum(grid is not None and len(set(grid)) < len(grid) for _, grid in chains) > 40
    assert sum(inst.m == 2 for inst, _ in chains) > 50


@pytest.mark.parametrize("draw, seed", CHAINS)
def test_decide_at_each_points_key_equals_the_rule_on_a_fresh_instance(draw, seed):
    inst, grid = draw(seed)
    denominator, points = inst.deviation_grid(grid)
    scale = inst.scaled_jobs[0]
    for rule, reference in _rules(inst):
        for machine in range(inst.m):
            key_at = rule.grid_key(inst, machine, denominator) if rule is two_machine_opt else None
            for p in points:
                bids = list(inst.bids)
                bids[machine] = Fraction(p, denominator)
                fresh = Instance(inst.jobs, bids)
                key = key_at(p) if key_at else rule.decision_key(fresh.bid_order, fresh.bid_exponents)
                job_to_machine, loads = rule.decide(inst, key)
                assert all(type(w) is int for w in loads)
                expected = rule(fresh)
                assert expected == reference(fresh)
                assert job_to_machine == expected.job_to_machine
                assert [Fraction(w, scale) for w in loads] == list(expected.workloads)


@pytest.mark.parametrize("draw, seed", CHAINS)
def test_check_monotone_on_ints_equals_the_copy_path(draw, seed):
    inst, grid = draw(seed)
    for rule in [rule for rule, _ in _rules(inst)] + [slowest_takes_all]:
        copied = check_monotone(_Counting(rule, keyed=True), inst, grid)
        verdict = check_monotone(rule, inst, grid)
        assert verdict == copied and verdict.to_json_dict() == copied.to_json_dict()


def test_the_int_path_reports_counterexamples():
    """The specimen fails wherever a machine has a competitor, so the int
    path's counterexamples are compared with the copy path's above."""
    failed = sum(not check_monotone(slowest_takes_all, *draw(seed))
                 for draw, seed in (param.values for param in CHAINS))
    assert failed >= 200
