import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from schedmech import certificates, cli
from schedmech.allocations import (
    RULES,
    lpt_star,
    two_machine_opt,
    vcg_allocate,
)
from schedmech.certificates import (
    CertificateReport,
    CheckRecord,
    _difference_solve,
    _polytope_rows,
    lemma6_g,
    payment_polytope_feasible,
    prop12_verify,
    report_text,
    theorem1_harness,
    theorem5_certificate,
    theorem7_certificate,
)
from schedmech.core import Assignment, DomainError, Instance, JobData
from schedmech.exactlp import Constraint, solve_feasibility
from schedmech.payments import (
    Mechanism,
    NotTruthfulEvidence,
    vcg_mechanism,
    vcg_payments,
)
from schedmech.properties import check_scalable

F = Fraction


class FirstTakesAll:
    name = "first-takes-all"

    def __call__(self, instance):
        return Assignment.from_map(instance, [0] * instance.n)

    def region_points(self, instance, machine, cap):
        return ()  # the same decision at every bid


class SlowestTakesAll:
    name = "slowest-takes-all"
    scalable = True

    def __call__(self, instance):
        loser = max(range(instance.m), key=lambda i: (instance.bids[i], -i))
        return Assignment.from_map(instance, [loser] * instance.n)


class TestReportPlumbing:
    def test_checks_reevaluate_and_serialize(self):
        report = CertificateReport("demo", {}, {})
        report.add("holds", F(3), ">", F(2))
        report.add("fails", F(1), ">", F(2))
        assert not report.verified
        payload = json.dumps(report.to_json_dict())
        parsed = json.loads(payload)
        assert parsed["checks"][0]["holds"] is True
        assert parsed["checks"][1]["holds"] is False
        assert parsed["verified"] is False
        assert "[BAD] fails: 1 > 2" in report_text(parsed)

    def test_check_record_recomputes(self):
        assert CheckRecord("x", F(13, 4), ">", F(3)).holds
        assert not CheckRecord("x", F(3), ">", F(13, 4)).holds

    @pytest.mark.parametrize("text", [False, True])
    def test_a_printed_report_compares_each_check_once(self, monkeypatch, capsys, text):
        """The JSON, the text and the exit code all read one comparison per check."""
        calls = []
        compare = certificates.compare
        monkeypatch.setattr(certificates, "compare", lambda *args: calls.append(args) or compare(*args))
        assert cli.main(["certify", "theorem5", *(["--text"] * text)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        checks = out.count("\n  [ok ]") if text else len(json.loads(out)["checks"])
        assert len(calls) == checks > 0


class TestTheorem5:
    def test_integral_constants_at_small_powers(self):
        report = theorem5_certificate((8, 16))
        assert report.verified
        assert report.constants["a=8:integral"] == "26"
        assert report.constants["a=16:integral"] == "52"

    def test_contradiction_threshold_at_eight(self):
        report = theorem5_certificate((8,))
        # at h(1) = a/8 = 1 the integral 26 strictly beats the cap 25
        labels = {c.label: c for c in report.checks}
        cap_check = labels["a=8: 13a/4 exceeds 3a + h(1) at a = 8*h(1)"]
        assert (cap_check.lhs, cap_check.rhs) == (26, 25)

    def test_rejects_non_admissible_a(self):
        with pytest.raises(DomainError):
            theorem5_certificate((4,))
        with pytest.raises(DomainError):
            theorem5_certificate((12,))
        with pytest.raises(DomainError):
            theorem5_certificate((F(1, 2),))


class TestTheorem7:
    def test_verified_with_tight_enclosure(self):
        report = theorem7_certificate(F(1, 10 ** 6))
        assert report.verified
        lo, hi = (F(s) for s in report.constants["enclosure"])
        assert hi - lo < F(1, 10 ** 6)
        target = 3.5 + math.log(3) - math.log(2)
        assert float(lo) <= target <= float(hi)

    def test_rational_part_is_seven_halves(self):
        report = theorem7_certificate()
        assert report.constants["integral"]["rational"] == "7/2"
        assert report.constants["integral"]["logs"] == [
            {"coef": "1", "arg": "3/2"}
        ]


class TestTheorem1:
    def test_worked_constants_for_three_machines(self):
        report = theorem1_harness(vcg_mechanism, 3, F(3, 2), F(1, 2))
        assert report.verified
        # gamma = (3/2)*5 + 1/2 = 8; h at (gamma, 1) is L*1 = 5;
        # f = 8^2*5 + 5 = 325; alpha = (5*(3/2)/2)*325 = 4875/4
        assert report.constants["gamma"] == "8"
        assert report.constants["f"] == "325"
        assert report.constants["alpha"] == "4875/4"
        assert report.constants["ratio"] == "5/3"
        assert report.constants["all_on_fast"] is True

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_ratio_across_machine_counts(self, m):
        report = theorem1_harness(vcg_mechanism, m, 1)
        assert report.verified
        assert F(report.constants["ratio"]) == F(2 * m - 1, m)

    def test_precondition_rejections(self):
        with pytest.raises(DomainError):
            theorem1_harness(vcg_mechanism, 2, 2)  # c >= 2 - 1/m
        with pytest.raises(DomainError):
            theorem1_harness(vcg_mechanism, 1, F(1, 2))
        with pytest.raises(DomainError):
            theorem1_harness(vcg_mechanism, 3, F(3, 2), 2)  # eps out of range

    def test_untruthful_mechanism_aborts_with_evidence(self):
        flat = Mechanism("flat", vcg_allocate, lambda inst, alloc: (F(5),) * inst.m)
        with pytest.raises(NotTruthfulEvidence):
            theorem1_harness(flat, 3, F(3, 2))

    def test_work_on_an_early_machine_fails_the_lower_bound(self):
        # Every job on machine 0 at no payment: h extracts as 0 at every
        # probe, so no NotTruthfulEvidence, and h cannot reach the bound.
        first = Mechanism("first-takes-all", FirstTakesAll(), lambda inst, alloc: (F(0),) * inst.m)
        report = theorem1_harness(first, 3, F(3, 2))
        assert not report.verified
        assert report.constants["all_on_fast"] is False
        assert [c.label for c in report.checks if not c.holds] == [
            "with work on an early machine, h must reach the lower bound"
        ]

    def test_params_derivation(self):
        # L = 2m-1, gamma = c*L + eps, f = gamma^(m-1)*L + h at the
        # geometric profile, alpha = (L*c/(m-1))*f, at m = 3, c = 3/2.
        constants = theorem1_harness(vcg_mechanism, 3, F(3, 2)).constants
        f = F(320) + F(constants["h_geometric"])
        assert (F(constants["L"]), F(constants["gamma"])) == (5, 8)
        assert F(constants["f"]) == f
        assert F(constants["alpha"]) == F(15, 4) * f


class IdleBetween:
    """Machine 0 gets every job unless its bid over machine 1's lies in the
    open interval (lo, hi), or equals lo when lo == hi; then machine 1 gets
    them.  The rule reads only that ratio, so it is scalable, and its
    decision changes only where the ratio passes lo or hi."""

    name = "idle-between"

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __call__(self, instance):
        ratio = instance.bids[0] / instance.bids[1]
        idle = self.lo < ratio < self.hi or self.lo == ratio == self.hi
        workloads = (F(0), instance.total_length) if idle else (instance.total_length, F(0))
        return Assignment((int(idle),) * instance.n, workloads)

    def region_points(self, instance, machine, cap):
        b0, b1 = instance.bids
        return (b1 * self.lo, b1 * self.hi) if machine == 0 else (b0 / self.hi, b0 / self.lo)


class TestLemma6:
    def test_g_of_three_for_two_machine_opt(self):
        g, report = lemma6_g(two_machine_opt, 3, (2, 1))
        assert g == F(5, 12)
        assert report.verified
        assert report.constants["core_integral"] == "1/3"

    def test_all_or_nothing_rule_is_rejected(self):
        with pytest.raises(DomainError):
            lemma6_g(vcg_allocate, 2, (2, 1))

    def test_rounding_rule_fails_the_scalability_gate(self):
        with pytest.raises(DomainError):
            lemma6_g(lpt_star, 3, (2, 1))

    def test_a_scalable_rule_idle_between_two_busy_samples_is_refused(self):
        # The busy-below-k precondition was checked at the bids 3j/16 alone;
        # (6/5, 5/4) lies between the samples 9/8 and 21/16.
        assert not any(F(6, 5) <= F(3 * j, 16) <= F(5, 4) for j in range(1, 16))
        rule = IdleBetween(F(6, 5), F(5, 4))
        assert all(check_scalable(rule, Instance((2, 1), (1, y)), (2, F(1, 3))) for y in (F(1, 2), 1, 2))
        with pytest.raises(DomainError, match="^rule idles the machine bidding 49/40 against bid 1, "
                                              "violating the busy-below-3 precondition$"):
            lemma6_g(rule, 3, (2, 1))

    def test_an_idle_interval_across_k_is_named_below_k(self):
        # idle on (5/2, 7/2): the named bid is the middle of (5/2, 3)
        with pytest.raises(DomainError, match="^rule idles the machine bidding 11/4 against bid 1"):
            lemma6_g(IdleBetween(F(5, 2), F(7, 2)), 3, (2, 1))

    def test_a_rule_idle_only_at_a_region_point_is_refused(self):
        # The own-bid curve reads the value at 7/5 from the right, where the
        # machine is busy; the rule call at the region point finds it idle.
        with pytest.raises(DomainError, match="^rule idles the machine bidding 7/5 against bid 1"):
            lemma6_g(IdleBetween(F(7, 5), F(7, 5)), 3, (2, 1))

    def test_two_opt_idle_from_bid_3_is_refused_at_k_31_10(self):
        # w(x, 1) = 0 for x >= 3 on jobs (2, 1): no sample 31j/160 reaches 3.
        assert two_machine_opt(Instance((2, 1), (3, 1))).workloads[0] == 0
        with pytest.raises(DomainError, match="^rule idles the machine bidding 3 against bid 1, "
                                              "violating the busy-below-31/10 precondition$"):
            lemma6_g(two_machine_opt, F(31, 10), (2, 1))

    def test_k_must_exceed_one(self):
        with pytest.raises(DomainError):
            lemma6_g(two_machine_opt, 1, (2, 1))

    def test_every_curve_shares_one_job_table(self, monkeypatch):
        """The six curves are built on copies of one instance, so the
        subset-sum table of ``two-opt`` is built once per certificate."""
        built = []
        init = JobData.__init__

        def counted(self, denominator, lengths):
            built.append(lengths)
            init(self, denominator, lengths)

        monkeypatch.setattr(JobData, "__init__", counted)
        g, report = lemma6_g(two_machine_opt, 3, (5, 3, 2, 2, 1))
        assert report.verified and len(built) == 1


class TestProp12:
    def test_small_sample_verifies(self):
        report = prop12_verify(sample_budget=60, seed=5)
        assert report.verified
        assert report.constants["separating_workloads"] == ["2", "1"]
        assert report.constants["vcg_workloads"] == ["3", "0"]


class TestPaymentPolytope:
    def test_all_to_fastest_grid_is_feasible_and_pivot_is_a_witness(self):
        result = payment_polytope_feasible(vcg_allocate, (1, 2), (2, 1))
        assert result.feasible
        assert result.witness is not None
        # Clarke pivot payments restricted to the grid satisfy every grid
        # constraint: substitute them directly (independent of the solver).
        grid = (F(1), F(2))
        import itertools

        def outcome(bids):
            inst = Instance((2, 1), bids)
            alloc = vcg_allocate(inst)
            return alloc.workloads, vcg_payments(inst, alloc)

        for bids in itertools.product(grid, repeat=2):
            w, p = outcome(bids)
            for i in range(2):
                j = 1 - i
                assert p[i] - bids[i] * w[i] >= 0
                assert p[i] - bids[i] * w[i] >= p[j] - bids[i] * w[j]
                for d in grid:
                    if d == bids[i]:
                        continue
                    dev_bids = list(bids)
                    dev_bids[i] = d
                    w_dev, p_dev = outcome(tuple(dev_bids))
                    assert (
                        p[i] - bids[i] * w[i]
                        >= p_dev[i] - bids[i] * w_dev[i]
                    )
            if bids[0] != bids[1]:
                w_swap, p_swap = outcome((bids[1], bids[0]))
                assert p_swap[1] == p[0] and p_swap[0] == p[1]

    def test_single_profile_grid(self):
        result = payment_polytope_feasible(vcg_allocate, (1,), (2, 1))
        assert result.feasible

    def test_greedy_rule_small_grid_is_exploratory_data(self):
        result = payment_polytope_feasible(lpt_star, (1, 2, 8), (2, 1))
        # feasibility on a finite grid does not contradict the continuum
        # impossibility: grid constraints are a strict subset
        assert result.feasible
        assert result.n_profiles == 9

    def test_bad_rule_yields_verified_infeasible_subset(self):
        result = payment_polytope_feasible(SlowestTakesAll(), (1, 2), (2, 1))
        assert not result.feasible
        assert result.infeasible_subset
        assert all(isinstance(lbl, str) for lbl in result.infeasible_subset)

    def test_profile_budget(self):
        from schedmech.core import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            payment_polytope_feasible(
                vcg_allocate, tuple(range(1, 80)), (2, 1), profile_budget=100
            )

    def test_non_anonymous_rule_keeps_explicit_payment_ties(self):
        result = payment_polytope_feasible(FirstTakesAll(), (1, 2), (2, 1))
        # the rule's workloads ignore bid swaps, so anonymity cannot merge
        # variables and is recorded both as notes and explicit equalities
        assert any("break anonymity" in note for note in result.notes)
        if not result.feasible:
            assert any(
                label.startswith("ANON") or label.startswith("EF")
                for label in result.infeasible_subset
            )

    def test_difference_solver_agrees_with_the_simplex(self):
        rng = random.Random(2024)
        rules = [RULES["lpt-star"], RULES["opt"], RULES["two-opt"],
                 RULES["vcg"], FirstTakesAll()]
        bid_pool = [F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(3), F(4), F(8)]
        job_pool = [F(1, 2), F(1), F(2), F(3), F(4)]
        verdicts = []
        three_machine_verdicts = []
        # The simplex oracle takes about 0.15 s on a 3-bid grid and 0.3 s on
        # three machines, so those draws are a tenth and a twentieth.
        for trial in range(220):
            machines = 3 if trial % 20 == 0 else 2
            rule = rng.choice([r for r in rules if machines == 2 or r is not two_machine_opt])
            grid = rng.sample(bid_pool, 3 if trial % 10 == 5 else 2)
            jobs = [rng.choice(job_pool) for _ in range(rng.randint(1, 3))]
            result = payment_polytope_feasible(rule, grid, jobs, machines=machines)
            system = _polytope_rows(rule, grid, jobs, machines, 4096)
            n_vars = system.n_vars
            rows = [system.constraint(row) for row in system.rows]
            assert result.n_constraints == len(rows)
            if machines == 3:
                three_machine_verdicts.append(result.feasible)
            assert result.feasible == (solve_feasibility(n_vars, rows) is not None)
            verdicts.append(result.feasible)
            if result.feasible:
                continue
            by_label = {row.label: row for row in rows}
            assert len(by_label) == len(rows)
            subset = [by_label[label] for label in result.infeasible_subset]
            assert _sums_to_a_contradiction(subset)
            for k in range(len(subset)):
                assert solve_feasibility(n_vars, subset[:k] + subset[k + 1:]) is not None
        assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20
        assert True in three_machine_verdicts and False in three_machine_verdicts

    @pytest.mark.parametrize(
        "rule, feasible", [("lpt-star", False), ("opt", False), ("vcg", True)]
    )
    def test_three_machine_grid(self, rule, feasible):
        # 216 profiles and about 4,600 rows; the VCG control keeps a verified
        # witness.  Both infeasible cycles pass through an ANON row at a
        # broken swap, and notes list 108 (lpt-star) and 64 (opt) of them:
        # such a verdict shows that the rule's own workloads are not
        # anonymous on this grid, not that IC and EF conflict (ROADMAP
        # item 19).
        grid = (1, F(5, 4), F(3, 2), F(7, 4), 2, F(5, 2))
        result = payment_polytope_feasible(RULES[rule], grid, (3, 2, 2, 1), machines=3)
        system = _polytope_rows(RULES[rule], grid, (3, 2, 2, 1), 3, 4096)
        assert result.n_profiles == 216 and system.n_vars == 648
        assert result.feasible is feasible
        if feasible:
            assert len(result.witness) == 648
        else:
            by_label = {c.label: c for c in map(system.constraint, system.rows)}
            subset = [by_label[label] for label in result.infeasible_subset]
            assert _sums_to_a_contradiction(subset)
            assert any(label.startswith("ANON ") for label in result.infeasible_subset)
            assert len(result.notes) == {"lpt-star": 108, "opt": 64}[rule]

    def test_an_equality_bounds_the_difference_from_both_sides(self):
        # The package's anonymity rows come in mirrored pairs, so on its own
        # grids an equality is never the only upper bound on a difference.
        # Rows are (head, tail, is_eq, rhs, label_spec).
        equal = (0, 1, True, 1, "u0 - u1 == 1")
        above = (0, 1, False, 2, "u0 - u1 >= 2")
        potentials, cycle = _difference_solve(2, [equal, above])
        assert potentials is None and sorted(row[4] for row in cycle) == [
            "u0 - u1 == 1", "u0 - u1 >= 2"
        ]
        potentials, cycle = _difference_solve(2, [equal])
        assert cycle is None and potentials[0] - potentials[1] == 1

    def test_a_row_whose_variables_merged_is_checked_directly(self):
        # A rule whose workload equality is not transitive can have anonymity
        # merge both sides of a row, leaving ``u0 - u0 rel rhs``: a self-loop
        # that is a one-row negative cycle exactly when ``0 rel rhs`` fails.
        slack = (0, 0, False, -1, "slack")
        broken = (0, 0, True, 1, "ANON merged")
        assert _difference_solve(2, [slack]) == ([0, 0], None)
        assert _difference_solve(2, [slack, broken]) == (None, [broken])


def _sums_to_a_contradiction(rows):
    """Some signed sum of the rows (>= rows taken as they are, == rows either
    way round) reads ``0 >= c`` with ``c > 0``."""
    equalities = [k for k, r in enumerate(rows) if r.relation == "=="]
    for flips in itertools.product((1, -1), repeat=len(equalities)):
        sign = dict(zip(equalities, flips))
        lhs, rhs = {}, F(0)
        for k, row in enumerate(rows):
            assert row.relation in (">=", "==")
            s = sign.get(k, 1)
            for var, coef in row.coeffs:
                lhs[var] = lhs.get(var, 0) + s * coef
            rhs += s * row.rhs
        if all(c == 0 for c in lhs.values()) and rhs > 0:
            return True
    return False
