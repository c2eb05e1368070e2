"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked as derived are recomputed here by
independent oracles (full enumeration, direct formula evaluation, explicit
case analysis) rather than trusted from the implementation under test.
"""

import itertools
import random
import time
from fractions import Fraction
from math import lcm
from operator import mul

from schedmech.allocations import (
    at_lower_bound,
    lpt_star,
    two_machine_opt,
    vcg_allocate,
)
from schedmech.certificates import (
    _polytope_rows,
    lemma6_g,
    payment_polytope_feasible,
    prop12_verify,
    theorem1_harness,
    theorem7_certificate,
)
from schedmech.core import Assignment, Instance, rat, rat_str
from schedmech.exactlp import solve_feasibility
from schedmech.payments import ef_chain_payments, vcg_mechanism
from schedmech.properties import (
    check_anonymous,
    check_envy_free,
    check_ir,
    check_local_efficiency,
    check_monotone,
    check_truthful,
)
from schedmech.sampling import sample_instance
from schedmech.workcurve import build_workcurve, integrate

from specimens import sample_locally_efficient

F = Fraction


def announce(criterion, elapsed, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail}; {elapsed:.2f}s)")


def test_criterion_01_greedy_response_integral_is_13a_over_4():
    start = time.monotonic()
    for a in (F(8), F(16), F(32)):
        curve = build_workcurve(lpt_star, (a,), (2, 1), cap=4 * a)
        assert integrate(curve, 0, None) == F(13, 4) * a  # exact, zero tolerance
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    announce(1, elapsed, "integral equals 13a/4 for a in {8,16,32}")


def test_criterion_02_greedy_anchor_values():
    start = time.monotonic()
    for a in (F(8), F(16), F(32), F(64), F(256)):
        assert lpt_star(Instance((2, 1), (a / 4, a))).workloads[0] == 3
        assert lpt_star(Instance((2, 1), (2 * a, a))).workloads[0] == 1
    elapsed = time.monotonic() - start
    announce(2, elapsed, "w(a/4,a)=3 and w(2a,a)=1 at powers of two >= 8")


def test_criterion_03_binning_expected_integral():
    start = time.monotonic()
    report = theorem7_certificate(F(1, 10 ** 6))
    assert report.verified
    pieces = report.constants["pieces"]
    assert [(p["kind"], p["params"]) for p in pieces] == [
        ("const", ["3"]),
        ("recip", ["1"]),
        ("const", ["2"]),
        ("const", ["1"]),
        ("affine", ["3", "-1"]),
        ("const", ["0"]),
    ]
    assert [p["lo"] for p in pieces[1:]] == ["1/3", "1/2", "1", "2", "3"]
    assert report.constants["integral"]["rational"] == "7/2"
    lo, hi = (F(s) for s in report.constants["enclosure"])
    assert hi - lo < F(1, 10 ** 6)
    # reference value 3.5 + ln 3 - ln 2 = 3.9054651081... as a decimal check
    reference = F("3.9054651081")
    assert abs((lo + hi) / 2 - reference) < F(1, 10 ** 6)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    announce(3, elapsed, "pieces, 7/2 rational part, total within 1e-6")


def _over_one_scale(values):
    """``(S, ints)``: the values' least common denominator S and each times S."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def test_criterion_04_harness_ratio_two_m_minus_one_over_m():
    start = time.monotonic()
    for m in range(2, 7):
        report = theorem1_harness(vcg_mechanism, m, 1, F(1, 2))
        assert report.verified
        assert F(report.constants["ratio"]) == F(2 * m - 1, m)
        # independent brute force over every job placement, on int lengths
        # over the jobs' scale D and int bids over theirs, E: each makespan
        # is its int over D * E, so the ints compare as the makespans do
        alpha = F(report.constants["alpha"])
        inst = Instance([m] + [1] * (m - 1), [m * alpha] * (m - 1) + [alpha])
        (D, lengths), (E, speeds) = map(_over_one_scale, (inst.jobs, inst.bids))
        spans = []
        for combo in itertools.product(range(m), repeat=inst.n):
            loads = [0] * m
            for j, i in enumerate(combo):
                loads[i] += lengths[j]
            spans.append(max(map(mul, loads, speeds)))
        brute = F(min(spans), D * E)
        assert F(report.constants["opt"]) == brute == m * alpha
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(4, elapsed, "ratio (2m-1)/m for m in 2..6, optimum cross-checked")


def test_criterion_05_pivot_mechanism_property_suite():
    start = time.monotonic()
    rng = random.Random(2025)
    failures = 0
    for _ in range(1000):
        inst = sample_instance(rng, m_max=4, n_max=6)
        outcome = vcg_mechanism.run(inst)
        verdicts = (
            check_truthful(vcg_mechanism, inst),
            check_envy_free(
                inst.bids, outcome.allocation.workloads, outcome.payments
            ),
            check_ir(inst.bids, outcome.allocation.workloads, outcome.payments),
            check_anonymous(vcg_mechanism, inst),
            check_monotone(vcg_allocate, inst),
        )
        failures += sum(0 if v else 1 for v in verdicts)
    assert failures == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce(5, elapsed, "1000 instances, 64-point grids, zero failures")


def test_criterion_06_chain_payments_round_trip():
    start = time.monotonic()
    rng = random.Random(424242)
    for _ in range(1000):
        bids, workloads = sample_locally_efficient(rng)
        payments = ef_chain_payments(bids, workloads)
        assert check_envy_free(bids, workloads, payments).passed
    elapsed = time.monotonic() - start
    announce(6, elapsed, "1000 locally efficient vectors, all envy-free")


def test_criterion_07_pairwise_criterion_equals_permutation_oracle():
    start = time.monotonic()
    rng = random.Random(777)
    for _ in range(1000):
        m = rng.randint(2, 6)
        bids = [F(rng.randint(1, 10), rng.choice((1, 2))) for _ in range(m)]
        workloads = [F(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(m)]
        pairwise = check_local_efficiency(bids, workloads).passed
        base = sum(b * w for b, w in zip(bids, workloads))
        brute = all(
            sum(bids[i] * workloads[p] for i, p in enumerate(perm)) >= base
            for perm in itertools.permutations(range(m))
        )
        assert pairwise == brute
    elapsed = time.monotonic() - start
    announce(7, elapsed, "1000 instances with up to 6 machines, exact agreement")


def test_criterion_08_greedy_rule_is_locally_efficient():
    start = time.monotonic()
    rng = random.Random(31337)
    for trial in range(1000):
        inst = sample_instance(rng, m_max=4, n_max=6, straddle_pow2=True)
        loads = lpt_star(inst).workloads
        assert check_local_efficiency(inst.bids, loads).passed
    elapsed = time.monotonic() - start
    announce(8, elapsed, "1000 instances incl. power-of-two straddling bids")


def test_criterion_09_lower_bound_homogeneity():
    start = time.monotonic()
    rng = random.Random(99)
    for _ in range(100):
        inst = sample_instance(rng)
        c = F(rng.randint(1, 24), rng.randint(1, 24))
        assert at_lower_bound(Instance(inst.jobs, [b * c for b in inst.bids])) == c * at_lower_bound(inst)
    elapsed = time.monotonic() - start
    announce(9, elapsed, "100 random (bids, scale) pairs, exact equality")


def test_criterion_10_g_of_three_is_five_twelfths():
    start = time.monotonic()
    # Independent oracle: the unit-bid machine's workload against a
    # competitor bid y is found by enumerating all four assignments; on
    # (1/3, 2/3) the candidate flip points are ratios of job subset sums,
    # so sampling each sub-interval determines the step values exactly.
    def unit_workload(y):
        best = None
        for w0 in (F(0), F(1), F(2), F(3)):
            w1 = 3 - w0
            key = (max(w0 * 1, w1 * y), w0 * 1 + w1 * y, w0)
            if best is None or key < best:
                best = key
        return best[2]

    lo_end, hi_end = F(1, 3), F(2, 3)
    flips = sorted(
        {F(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}
        | {F(b, a) for a in (1, 2, 3) for b in (1, 2, 3)}
    )
    cuts = [lo_end] + [x for x in flips if lo_end < x < hi_end] + [hi_end]
    oracle_integral = F(0)
    for seg_lo, seg_hi in zip(cuts, cuts[1:]):
        quarters = [seg_lo + (seg_hi - seg_lo) * F(k, 4) for k in (1, 2, 3)]
        vals = {unit_workload(q) for q in quarters}
        assert len(vals) == 1, "oracle expects a constant segment"
        oracle_integral += vals.pop() * (seg_hi - seg_lo)
    oracle_g = (F(4 * 9, 16) - 1) * oracle_integral
    assert oracle_g == F(5, 12)

    g, report = lemma6_g(two_machine_opt, 3, (2, 1), inequality_samples=(1, 2, 5))
    assert g == F(5, 12) == oracle_g
    assert report.verified  # includes the transfer inequality at a in {1,2,5}
    elapsed = time.monotonic() - start
    announce(10, elapsed, "g(3)=5/12 against the enumeration oracle")


def test_criterion_11_two_machine_rule_sweep():
    start = time.monotonic()
    report = prop12_verify(sample_budget=1000, seed=20250809)
    assert report.verified
    assert report.constants["separating_workloads"] == ["2", "1"]
    assert report.constants["vcg_workloads"] == ["3", "0"]
    elapsed = time.monotonic() - start
    announce(11, elapsed, "1000 samples pass all four properties; differs from"
                          " the all-to-fastest rule")


class _HighestBidderTakesAll:
    name = "highest-takes-all"

    def __call__(self, instance):
        loser = max(range(instance.m), key=lambda i: (instance.bids[i], -i))
        return Assignment.from_map(instance, [loser] * instance.n)


def test_criterion_12_polytope_solver_self_consistency():
    start = time.monotonic()
    rng = random.Random(1234)
    rules = [vcg_allocate, lpt_star, two_machine_opt, _HighestBidderTakesAll()]
    bid_pool = [F(1), F(3, 2), F(2), F(3), F(4), F(8)]
    job_pool = [F(1), F(2), F(3), F(1, 2)]
    feasible_seen = infeasible_seen = 0
    for trial in range(100):
        rule = rules[trial % len(rules)]
        grid = sorted(rng.sample(bid_pool, rng.choice((2, 2, 3))))
        jobs = [rng.choice(job_pool) for _ in range(rng.choice((1, 2)))]
        result = payment_polytope_feasible(rule, grid, jobs)
        if result.feasible:
            feasible_seen += 1
            # external substitution of the reported witness
            payments = {name: rat(value) for name, value in result.witness.items()}

            def pay(i, bids):
                return payments[f"p[{i}]({','.join(rat_str(x) for x in bids)})"]

            for b in itertools.product(grid, repeat=2):
                inst = Instance(jobs, b)
                w = rule(inst).workloads
                for i in range(2):
                    p_i = pay(i, b)
                    assert p_i - b[i] * w[i] >= 0
                    j = 1 - i
                    assert p_i - b[i] * w[i] >= pay(j, b) - b[i] * w[j]
                    for d in grid:
                        if d == b[i]:
                            continue
                        dev = list(b)
                        dev[i] = d
                        w_dev = rule(Instance(jobs, dev)).workloads
                        assert (
                            p_i - b[i] * w[i]
                            >= pay(i, tuple(dev)) - b[i] * w_dev[i]
                        )
        else:
            infeasible_seen += 1
            system = _polytope_rows(rule, grid, jobs, 2, 4096)
            by_label = {c.label: c for c in map(system.constraint, system.rows)}
            subset = [by_label[label] for label in result.infeasible_subset]
            assert subset
            assert solve_feasibility(system.n_vars, subset) is None
    assert feasible_seen and infeasible_seen  # both verdicts exercised
    elapsed = time.monotonic() - start
    announce(
        12,
        elapsed,
        f"{feasible_seen} witnesses re-substituted, "
        f"{infeasible_seen} subsets re-solved infeasible",
    )
