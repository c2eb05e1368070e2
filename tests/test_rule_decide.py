"""Keyed rules and mechanisms decide from their key, on ints.

``LptStar``, ``VcgAllocate`` and ``TwoMachineOpt`` each have
``decide(instance, key) -> (job_to_machine, loads)``: the key is the value
of ``key(instance, bid_data)`` at the int bids, the loads are ints over the jobs'
common denominator D, and nothing else of the bids is read.  The VCG
mechanism and the EF chain on such a rule have ``decide(instance, key,
bids) -> (loads, payments)``, the payments ints over D times the scale of
the int bids.  ``check_monotone`` reads a rule at each read's key on the base
instance, with no copy, and ``check_truthful``, ``check_anonymous`` and
``check_scalable`` read a rule or mechanism so after one run on the
instance.  On seeded chains (tied bids, bids straddling powers of two,
unsorted caller grids with repeats, and large coprime edge bids), ``decide``
at every grid point's key, and at the key of the swapped and of the scaled
bids, must give what the rule or mechanism, and a rule's ``Fraction``
reference from before ``decide``, give on a fresh ``Instance`` at that
profile, a refusal included; and each checker must give the verdict and JSON
it gives with ``decide`` hidden, where it runs on copies.
"""

import random
from fractions import Fraction

import pytest

from schedmech.allocations import lpt_star, two_machine_opt, vcg_allocate
from schedmech.core import DomainError, Instance, scaled_by
from schedmech.payments import EfChainMechanism, Mechanism, ef_chain_mechanism, vcg_mechanism
from schedmech.properties import (
    SCALING_FACTORS,
    check_anonymous,
    check_monotone,
    check_scalable,
    check_truthful,
)
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


def _key(check, fresh, denominator):
    """``check``'s key at a fresh instance's bids over ``denominator``."""
    return check.key(fresh, (fresh.bid_order, fresh.bid_exponents))(scaled_by(fresh.bids, denominator))


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
            for p in points:
                bids = list(inst.bids)
                bids[machine] = Fraction(p, denominator)
                fresh = Instance(inst.jobs, bids)
                key = _key(rule, fresh, denominator)
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


def _mechanisms(inst):
    """The VCG mechanism and the EF chain on each rule with ``decide`` that
    applies to the instance."""
    return [vcg_mechanism] + [ef_chain_mechanism(rule) for rule, _ in _rules(inst)]


def _profiles(inst, grid):
    """``(bids, denominator)``: each grid point of each machine, each swap of
    a unique bid with another and each scaling the checkers read."""
    denominator, points = inst.deviation_grid(grid)
    for machine in range(inst.m):
        for p in points:
            bids = list(inst.bids)
            bids[machine] = Fraction(p, denominator)
            yield bids, denominator
    for k in range(inst.m):
        for l in range(inst.m):
            if l != k and inst.bids.count(inst.bids[k]) == 1:
                bids = list(inst.bids)
                bids[k], bids[l] = bids[l], bids[k]
                yield bids, denominator
    for c in SCALING_FACTORS:
        yield [b * c for b in inst.bids], denominator * c.denominator


def _decided(mechanism, inst, fresh, denominator):
    """``decide`` on the base instance at the fresh profile's key, or the
    text of its refusal."""
    try:
        return mechanism.decide(inst, _key(mechanism, fresh, denominator), scaled_by(fresh.bids, denominator))
    except DomainError as exc:
        return str(exc)


def _ran(mechanism, fresh, denominator):
    """``run`` on the fresh profile, its loads over D and payments over D
    times ``denominator`` as ints, or the text of its refusal."""
    try:
        outcome = mechanism.run(fresh)
    except DomainError as exc:
        return str(exc)
    scale = fresh.scaled_jobs[0]
    loads = [w * scale for w in outcome.allocation.workloads]
    payments = [p * scale * denominator for p in outcome.payments]
    assert all(v.denominator == 1 for v in loads + payments)
    return [int(w) for w in loads], [int(p) for p in payments]


@pytest.mark.parametrize("draw, seed", CHAINS)
def test_mechanism_decide_at_each_profile_s_key_equals_the_run_on_a_fresh_instance(draw, seed):
    inst, grid = draw(seed)
    for mechanism in _mechanisms(inst):
        for bids, denominator in _profiles(inst, grid):
            fresh = Instance(inst.jobs, bids)
            assert _decided(mechanism, inst, fresh, denominator) == _ran(mechanism, fresh, denominator)


@pytest.mark.parametrize("draw, seed", CHAINS)
def test_rule_decide_at_the_swapped_and_scaled_keys_equals_the_rule_on_a_fresh_instance(draw, seed):
    inst, grid = draw(seed)
    swaps_and_scalings = list(_profiles(inst, []))  # an empty grid: no deviations
    for rule, reference in _rules(inst):
        for bids, denominator in swaps_and_scalings:
            fresh = Instance(inst.jobs, bids)
            job_to_machine, loads = rule.decide(inst, _key(rule, fresh, denominator))
            expected = reference(fresh)
            assert job_to_machine == expected.job_to_machine
            assert [Fraction(w, inst.scaled_jobs[0]) for w in loads] == list(expected.workloads)


def _without_decide(subject):
    """The same rule or mechanism, unkeyed, so the checkers run it on copies."""
    if hasattr(subject, "run"):
        return Mechanism(subject.name, subject.rule, subject.payment_fn)
    return lambda instance: subject(instance)


@pytest.mark.parametrize("draw, seed", CHAINS)
def test_truthful_anonymous_and_scalable_on_ints_equal_the_copy_path(draw, seed):
    inst, grid = draw(seed)
    checks = [(check_truthful, mechanism, (grid,)) for mechanism in _mechanisms(inst)]
    checks += [(check_anonymous, subject, ()) for subject in _mechanisms(inst) + [r for r, _ in _rules(inst)]]
    checks += [(check_scalable, rule, (SCALING_FACTORS,)) for rule, _ in _rules(inst)]
    for check, subject, args in checks:
        assert hasattr(subject, "decide")
        verdict = check(subject, inst, *args)
        copied = check(_without_decide(subject), inst, *args)
        assert verdict == copied and verdict.to_json_dict() == copied.to_json_dict()


def test_the_chains_reach_failing_truthful_and_anonymous_verdicts():
    """A lone VCG machine profits by overbidding, LPT* and two-opt with the
    EF chain are not truthful everywhere, and LPT* breaks key ties by index,
    so the int paths' counterexamples are compared above."""
    failed = {"lone vcg": 0, "ef chain": 0, "anonymous": 0}
    for draw, seed in (param.values for param in CHAINS):
        inst, grid = draw(seed)
        if inst.m == 1:
            failed["lone vcg"] += not check_truthful(vcg_mechanism, inst, grid)
        failed["ef chain"] += not all(check_truthful(m, inst, grid) for m in _mechanisms(inst)[1:])
        failed["anonymous"] += not all(check_anonymous(s, inst) for s in _mechanisms(inst) + [lpt_star])
    assert failed["lone vcg"] >= 15 and failed["ef chain"] >= 100 and failed["anonymous"] >= 4, failed


def test_anonymous_counterexamples_on_ints_equal_the_copy_path_on_equal_jobs():
    """Equal jobs tie LPT*'s greedy keys, which go to the lowest index, so a
    swap of unique bids moves work: the int path's counterexamples, for the
    rule and for its EF chain, are the copy path's."""
    failed = 0
    for seed in range(200):
        rng = random.Random(seed)
        bids = [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(rng.randint(2, 4))]
        inst = Instance([rng.randint(1, 3)] * rng.randint(1, 5), bids)
        for subject in (lpt_star, ef_chain_mechanism(lpt_star)):
            verdict, copied = check_anonymous(subject, inst), check_anonymous(_without_decide(subject), inst)
            assert verdict == copied and verdict.to_json_dict() == copied.to_json_dict()
            failed += not verdict
    assert failed >= 40, failed


def test_a_lone_vcg_machine_is_keyed_none_and_decides_its_own_bid():
    inst = Instance((3, 2), (2,))
    assert vcg_mechanism.key(inst, ((0,), (2,)))([9]) is None
    # paid its own bid 9/4 times L = 5 over D = 1 and the bid scale 4
    assert vcg_mechanism.decide(inst, None, [9]) == ([5], [45])
    assert not check_truthful(vcg_mechanism, inst)


def test_an_ef_chain_off_local_efficiency_refuses_at_the_read_the_run_refuses():
    """The EF chain on the slowest-takes-all specimen is keyed, and its
    workloads are locally efficient only where the bids tie: ``decide``
    refuses at the same profiles as ``run``, with the same text."""
    mechanism = ef_chain_mechanism(slowest_takes_all)
    assert isinstance(mechanism, EfChainMechanism)
    inst = Instance((3, 2), (1, 1))
    denominator, points = inst.deviation_grid()
    outcomes = []
    for p in points:
        fresh = Instance(inst.jobs, (Fraction(p, denominator), 1))
        outcomes.append(_decided(mechanism, inst, fresh, denominator))
        assert outcomes[-1] == _ran(mechanism, fresh, denominator)
    refusals = [o for o in outcomes if isinstance(o, str)]
    assert set(refusals) == {"chain payments require locally efficient workloads"}
    assert len(refusals) == len(points) - 1
    # the base profile ties, so the check reads the grid and refuses at the
    # first profile off it, where the copy path refuses too
    for subject in (mechanism, _without_decide(mechanism)):
        with pytest.raises(DomainError, match="^chain payments require locally efficient workloads$"):
            check_truthful(subject, inst)
