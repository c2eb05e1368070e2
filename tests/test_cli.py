import concurrent.futures
import gc
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import jsonschema
import pytest

from schedmech.allocations import RULES, two_machine_opt
from schedmech.certificates import _polytope_rows
from schedmech import cli
from schedmech.cli import main
from schedmech.core import BudgetExceeded, DomainError, Instance, rat_str
from schedmech.exactlp import solve_feasibility
from schedmech.payments import ef_chain_mechanism
from schedmech.properties import check_anonymous, check_truthful
from schedmech.sampling import sample_instance

# ``python -m schedmech.cli`` in a child process imports this package.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(pathlib.Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}

VERDICT_SCHEMA = {
    "type": "object",
    "required": ["property", "pass"],
    "properties": {
        "property": {"type": "string"},
        "pass": {"type": "boolean"},
        "counterexample": {
            "type": "object",
            "required": ["description", "lhs", "relation", "rhs"],
            "properties": {
                "lhs": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                "rhs": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
            },
        },
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["name", "checks", "verified", "constants", "inputs", "notes"],
    "properties": {
        "verified": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "lhs", "relation", "rhs", "holds"],
                "properties": {
                    "lhs": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                    "rhs": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                    "holds": {"type": "boolean"},
                },
            },
        },
    },
}


@pytest.fixture
def instance_file(tmp_path):
    def write(jobs, bids, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"jobs": jobs, "bids": bids}))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_anonymous_takes_a_bare_rule(capsys):
    # a rule other than vcg is read as the rule; vcg and <rule>:efchain stay mechanisms
    code, out, err = run_cli(capsys, "check", "anonymous", "two-opt", "--random", "50")
    assert (code, err) == (0, "")
    rng = random.Random(0)  # the default --seed, on two machines as two-opt needs
    instances = [sample_instance(rng, m_min=2, m_max=2) for _ in range(50)]
    verdicts = [check_anonymous(two_machine_opt, inst) for inst in instances]
    assert json.loads(out) == {
        "property": "anonymous", "mechanism": "two-opt", "instances": 50, "pass": all(verdicts),
        "failures": [{"instance": inst.to_json_dict(), "verdict": verdict.to_json_dict()}
                     for inst, verdict in zip(instances, verdicts) if not verdict.passed],
    }
    assert all(verdicts)


class TestAllocate:
    def test_greedy_rule(self, capsys, instance_file):
        path = instance_file(["2", "1"], ["2", "8"])
        code, out, _ = run_cli(capsys, "allocate", "lpt-star", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["workloads"] == ["3", "0"]
        assert payload["makespan"] == "6"

    def test_all_to_fastest(self, capsys, instance_file):
        path = instance_file(["2", "1"], ["1", "3"])
        code, out, _ = run_cli(capsys, "allocate", "vcg", path)
        assert code == 0
        assert json.loads(out)["workloads"] == ["3", "0"]

    def test_exact_optimum(self, capsys, instance_file):
        path = instance_file(["2", "1"], ["1", "2"])
        code, out, _ = run_cli(capsys, "allocate", "opt", path)
        assert code == 0
        assert json.loads(out)["makespan"] == "2"

    def test_sampling_honors_seed(self, capsys, instance_file):
        path = instance_file(["2", "1"], ["2/5", "1"])
        code, out1, _ = run_cli(capsys, "allocate", "at-sample", path, "--seed", "9")
        _, out2, _ = run_cli(capsys, "allocate", "at-sample", path, "--seed", "9")
        assert code == 0
        assert out1 == out2  # byte-identical replay

    def test_sampling_reads_seed_from_instance_file(self, capsys, tmp_path):
        path = tmp_path / "seeded.json"
        path.write_text(
            json.dumps({"jobs": ["2", "1"], "bids": ["2/5", "1"], "seed": 9})
        )
        _, from_file, _ = run_cli(capsys, "allocate", "at-sample", str(path))
        _, from_flag, _ = run_cli(
            capsys, "allocate", "at-sample", str(path), "--seed", "9"
        )
        assert from_file == from_flag

    def test_expected_allocation(self, capsys, instance_file):
        path = instance_file(["2", "1"], ["2/5", "1"])
        code, out, _ = run_cli(capsys, "allocate", "at-expected", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["expected_workloads"] == ["5/2", "1/2"]

    def test_unknown_rule_is_usage_error(self, capsys, instance_file):
        path = instance_file(["2"], ["1"])
        code, _, _ = run_cli(capsys, "allocate", "nope", path)
        assert code == 2

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "allocate", "vcg", str(bad))
        assert code == 2

    def test_budget_exceeded(self, capsys, instance_file):
        path = instance_file(["1"] * 12, ["1"] * 4)
        code, _, _ = run_cli(capsys, "allocate", "opt", path, "--budget", "100")
        assert code == 3


class TestCheck:
    def test_random_batch_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "ef", "vcg", "--random", "20", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["instances"] == 20

    def test_explicit_vectors_fail_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "le", "--workloads", "1,2", "--bids", "1,2"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert "counterexample" in payload
        jsonschema.validate(payload, VERDICT_SCHEMA)

    def test_explicit_payments_may_be_any_rational(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "ef", "--bids=1,2", "--workloads=2,1", "--payments=-1,1/2"
        )
        assert (code, err) == (1, "")
        assert json.loads(out)["counterexample"]["description"] == "machine 0 envies machine 1"

    @pytest.mark.parametrize(
        "argv, verdict",
        [
            # Bids over 12 and workloads over 30 compare as ints over 360;
            # 249/360 must come out reduced.
            (["le", "--bids", "3/4,2/3", "--workloads", "5/6,1/10"],
             ("83/120", "<=", "227/360", {"permutation": [1, 0]})),
            (["ef", "--bids", "2/3,3/4", "--workloads", "5/6,1/10", "--payments", "0,1/7"],
             ("-5/9", ">=", "8/105", {"i": 0, "j": 1})),
            (["ef", "--bids", "2/3,3/4", "--workloads", "1/10,5/6", "--payments", "1/15,-1/3"],
             ("-23/24", ">=", "-1/120", {"i": 1, "j": 0})),
        ],
    )
    def test_mixed_denominator_counterexamples_print_reduced(self, capsys, argv, verdict):
        code, out, err = run_cli(capsys, "check", *argv)
        assert (code, err) == (1, "")
        ce = json.loads(out)["counterexample"]
        assert (ce["lhs"], ce["relation"], ce["rhs"], ce["context"]) == verdict

    def test_mixed_denominator_vectors_pass_le(self, capsys):
        code, out, _ = run_cli(capsys, "check", "le", "--bids", "2/3,3/4", "--workloads", "5/6,1/10")
        assert code == 0
        assert json.loads(out) == {"pass": True, "property": "local-efficiency"}

    def test_absent_batch_options_read_as_their_defaults(self, capsys):
        plain = run_cli(capsys, "check", "monotone", "lpt-star", "--random", "4")
        spelled = run_cli(capsys, "check", "monotone", "lpt-star", "--random", "4",
                          "--seed", "0", "--jobs-parallel", "1")
        assert plain == spelled and plain[0] == 0

    @pytest.mark.parametrize(
        "prop, mechanism, grid, shown",
        [("monotone", "lpt-star", "0,1", "0"), ("truthful", "vcg", "1,-2/3,2", "-2/3")],
    )
    def test_non_positive_grid_is_refused_by_the_parser(
        self, capsys, monkeypatch, prop, mechanism, grid, shown
    ):
        def never(*args, **kwargs):
            raise AssertionError("the grid must be refused before any instance is drawn")

        monkeypatch.setattr(cli, "sample_instance", never)
        code, out, err = run_cli(capsys, "check", prop, mechanism, "--random", "2", "--grid", grid)
        assert (code, out) == (2, "")
        assert err == f"error: --grid takes strictly positive bids, got {shown}\n"

    def test_a_lone_vcg_machine_profits_by_overbidding(self, capsys, instance_file):
        """A lone machine is paid its own bid times L (the pivot is
        vacuous), so the first default-grid bid above its own pays."""
        path = instance_file(["3", "2"], ["2"])
        code, out, err = run_cli(capsys, "check", "truthful", "vcg", path)
        assert (code, err) == (1, "")
        assert json.loads(out)["failures"][0]["verdict"]["counterexample"] == {
            "description": "machine 0 profits by bidding 9/4",
            "lhs": "0",
            "relation": ">=",
            "rhs": "5/4",
            "context": {"machine": 0, "true_speed": "2", "deviation": "9/4"},
        }

    def test_batch_is_seed_deterministic(self, capsys):
        args = ("check", "truthful", "vcg", "--random", "5", "--seed", "3",
                "--grid", "1,2,3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_two_machine_rule_batches_sample_two_machines(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "scalable", "two-opt", "--random", "10", "--seed", "2"
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_parallel_matches_serial(self, capsys):
        base = ("check", "le", "lpt-star", "--random", "8", "--seed", "11")
        _, serial, _ = run_cli(capsys, *base)
        _, parallel, _ = run_cli(capsys, *base, "--jobs-parallel", "2")
        assert serial == parallel

    @pytest.mark.parametrize(
        "base",
        [
            ("check", "scalable", "lpt-star", "--random", "60", "--seed", "9"),
            ("check", "ef", "lpt-star:efchain", "--random", "200"),
        ],
    )
    def test_parallel_matches_serial_with_failures(self, capsys, base):
        code, serial, _ = run_cli(capsys, *base)
        assert code == 1 and json.loads(serial)["failures"]
        assert run_cli(capsys, *base, "--jobs-parallel", "2") == (code, serial, "")

    def test_ratio_csv_batch(self, capsys, tmp_path):
        out_csv = tmp_path / "ratios.csv"
        code, _, _ = run_cli(
            capsys,
            "check", "ratio", "vcg", "--random", "5", "--seed", "3",
            "--csv", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "rule,m,n,ratio"
        assert len(lines) == 6

    def test_ratio_batch_of_a_two_machine_rule_samples_two_machines(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "ratio", "two-opt", "--random", "5", "--seed", "0"
        )
        assert code == 0
        rows = json.loads(out)["ratios"]
        assert len(rows) == 5
        assert all(row["m"] == 2 for row in rows)

    def test_ratio_batch_honours_straddle(self, capsys):
        base = ("check", "ratio", "lpt-star", "--random", "8", "--seed", "5")
        _, plain, _ = run_cli(capsys, *base)
        _, straddled, _ = run_cli(capsys, *base, "--straddle")
        assert plain != straddled

    def test_ratio_batch_parallel_matches_serial(self, capsys):
        base = ("check", "ratio", "opt", "--random", "12", "--seed", "4")
        code, serial, _ = run_cli(capsys, *base)
        assert code == 0 and len(json.loads(serial)["ratios"]) == 12
        assert run_cli(capsys, *base, "--jobs-parallel", "2") == (code, serial, "")

    def test_ratio_refuses_expected_workloads(self, capsys, instance_file):
        """``at-expected`` gives expected workloads, which are no schedule:
        on jobs 20,19,18,4,3 and bids 16/3,4 their makespan is 256/259 of the
        optimum.  One instance or a batch exits 2 with one line."""
        path = instance_file(["20", "19", "18", "4", "3"], ["16/3", "4"])
        reason = "at-expected returns expected workloads, not an assignment: it has no makespan ratio\n"
        assert run_cli(capsys, "check", "ratio", "at-expected", path) == (2, "", f"error: {reason}")
        code, out, err = run_cli(capsys, "check", "ratio", "at-expected", "--random", "30", "--seed", "3")
        assert (code, out) == (2, "") and err.startswith("error: instance 1 of 30, ") and err.endswith(reason)

    def test_parallel_workers_capped_at_the_batch_size(self, capsys, monkeypatch):
        started = []

        class RecordingPool:
            # Runs the batch in this process; records the requested size.
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        base = ("check", "le", "lpt-star", "--random", "3", "--seed", "11")
        _, serial, _ = run_cli(capsys, *base)
        assert run_cli(capsys, *base, "--jobs-parallel", "64") == (0, serial, "")
        assert run_cli(capsys, *base, "--jobs-parallel", "2") == (0, serial, "")
        assert started == [3, 2]

    @pytest.mark.parametrize("straddle", [False, True])
    def test_a_refusing_batch_instance_is_named_serial_and_parallel(self, capsys, instance_file, straddle):
        """One instance on which ``opt`` is not locally efficient refuses the
        whole batch with exit 2; the one error line names its place, jobs
        and bids, with or without worker processes."""
        base = ("check", "truthful", "opt:efchain", "--random", "150") + ("--straddle",) * straddle
        code, out, err = run_cli(capsys, *base)
        reason = "chain payments require locally efficient workloads"
        match = re.fullmatch(rf"error: instance (\d+) of 150, jobs (\S+) and bids (\S+): {reason}\n", err)
        assert (code, out) == (2, "") and match, err
        place, jobs, bids = int(match[1]), match[2], match[3]
        rng = random.Random(0)
        drawn = [sample_instance(rng, straddle_pow2=straddle) for _ in range(place)]
        assert (jobs, bids) == tuple(",".join(map(rat_str, v)) for v in (drawn[-1].jobs, drawn[-1].bids))
        mechanism = ef_chain_mechanism(RULES["opt"])
        for inst in drawn[:-1]:  # the instances before it are checked, not refused
            check_truthful(mechanism, inst)
        path = instance_file(jobs.split(","), bids.split(","))
        assert run_cli(capsys, "check", "truthful", "opt:efchain", path) == (2, "", f"error: {reason}\n")
        assert run_cli(capsys, *base, "--jobs-parallel", "2") == (code, out, err)

    @pytest.mark.parametrize("jobs, bids, code, error, line", [
        (["2", "1"], ["1", "2", "3"], 2, DomainError, "rule is defined for exactly two machines"),
        (["1"] * 21, ["1", "2"], 3, BudgetExceeded, "2^21 assignments exceed budget 1048576"),
    ], ids=["three-machines", "21-jobs"])
    def test_a_two_opt_monotone_check_refuses_as_the_rule_does(self, capsys, instance_file, jobs, bids, code,
                                                               error, line):
        """Two-opt's grid key refuses what the rule refuses, with its exit
        code and line; in a batch the instance is named, as for any other
        ``DomainError`` or ``BudgetExceeded``."""
        path = instance_file(jobs, bids)
        assert run_cli(capsys, "check", "monotone", "two-opt", path) == (code, "", f"error: {line}\n")
        with pytest.raises(error) as info:
            cli._check_on_instance("monotone", RULES["two-opt"], 150, (4, Instance(jobs, bids)), None, None)
        assert str(info.value) == f"instance 5 of 150, jobs {','.join(jobs)} and bids {','.join(bids)}: {line}"

    def test_a_batch_instance_over_the_budget_is_named_serial_and_parallel(self, capsys, instance_file):
        """The first instance whose search exceeds ``--budget`` stops the
        batch with exit 3; its line names the instance, as a refusal's does."""
        base = ("check", "ratio", "opt", "--random", "5", "--budget", "10")
        code, out, err = run_cli(capsys, *base)
        reason = r"(\d+)\^(\d+) assignments exceed state budget 10"
        match = re.fullmatch(rf"error: instance (\d+) of 5, jobs (\S+) and bids (\S+): {reason}\n", err)
        assert (code, out) == (3, "") and match, err
        place, jobs, bids = int(match[1]), match[2], match[3]
        rng = random.Random(0)
        drawn = [sample_instance(rng) for _ in range(place)][-1]
        assert (jobs, bids) == tuple(",".join(map(rat_str, v)) for v in (drawn.jobs, drawn.bids))
        assert (int(match[4]), int(match[5])) == (drawn.m, drawn.n)
        bare = err.partition(f"bids {bids}: ")[2]
        assert run_cli(capsys, "check", "ratio", "opt", instance_file(jobs.split(","), bids.split(",")),
                       "--budget", "10") == (3, "", f"error: {bare}")
        assert run_cli(capsys, *base, "--jobs-parallel", "2") == (code, out, err)

    def test_missing_inputs_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "check", "ef", "vcg")
        assert code == 2


class TestCertify:
    def test_greedy_integral_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "theorem5", "--a", "8,16")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["constants"]["a=8:integral"] == "26"
        assert payload["constants"]["a=16:integral"] == "52"
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_binning_integral_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "theorem7", "--tol", "1/1000000"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constants"]["integral"]["rational"] == "7/2"

    def test_text_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "theorem5", "--a", "8", "--text")
        assert code == 0
        assert out.startswith("certificate theorem5: VERIFIED")

    def test_polytope_verdict_is_data(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify", "polytope", "--rule", "lpt-star",
            "--grid", "1,2,8", "--jobs", "2,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] in (True, False)

    @pytest.mark.parametrize(
        "grid, jobs", [("1/2,3/4,2", "3,1"), ("1,3/2,3", "2,1,1")]
    )
    def test_infeasible_three_bid_grid_names_a_short_cycle(self, capsys, grid, jobs):
        code, out, _ = run_cli(
            capsys,
            "certify", "polytope", "--rule", "opt", "--grid", grid, "--jobs", jobs,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert 1 <= len(payload["infeasible_subset"]) <= 4
        system = _polytope_rows(RULES["opt"], grid.split(","), jobs.split(","), 2, 4096)
        rows = [system.constraint(row) for row in system.rows]
        by_label = {row.label: row for row in rows}
        subset = [by_label[label] for label in payload["infeasible_subset"]]
        assert solve_feasibility(system.n_vars, subset) is None

    def test_lemma6_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "lemma6", "--k", "3")
        assert code == 0
        assert json.loads(out)["constants"]["g"] == "5/12"

    def test_harness_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "theorem1", "--m", "3", "--c", "3/2"
        )
        assert code == 0
        assert json.loads(out)["constants"]["ratio"] == "5/3"

    def test_prop12_records_seed_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "prop12", "--samples", "5", "--seed", "0"
        )
        assert code == 0
        assert json.loads(out)["inputs"] == {"sample_budget": 5, "seed": 0}


BAD_INSTANCE_FILES = {
    "LIST_JSON": "[1, 2]",
    "INT_JOBS_JSON": '{"jobs": 5, "bids": ["1", "2"]}',
    "STRING_JOBS_JSON": '{"jobs": "21", "bids": ["1", "2"]}',
    "STRING_BIDS_JSON": '{"jobs": ["2", "1"], "bids": "12"}',
    "VALID_JSON": '{"jobs": ["2", "1"], "bids": ["1", "2"]}',
    "BOOL_SEED_JSON": '{"jobs": ["2", "1"], "bids": ["1", "2"], "seed": true}',
    "EXPONENT_BIDS_JSON": '{"jobs": ["2", "1"], "bids": ["1e3", "1"]}',
    # opt gives the bid-7/3 machine more work than the bid-2 machine
    "NOT_LOCALLY_EFFICIENT_JSON": (
        '{"jobs": ["13", "10", "11/4", "2", "2", "3/2"],'
        ' "bids": ["1/2", "5", "7/3", "2"]}'
    ),
}


PINNED_LINES = {
    f"theorem5-{name}-a": f"error: a must be a power of two at least 8, got {a}; smaller "
                          "powers change the response shape the argument relies on\n"
    for name, a in (("zero", 0), ("negative", -8))
} | {
    "theorem5-repeated-a": "error: a value 8 is given twice\n",
    "lemma6-repeated-sample": "error: inequality sample 2 is given twice\n",
    "lemma6-zero-sample": "error: inequality sample 0 must be positive\n",
    "lemma6-zero-second-sample": "error: inequality sample 0 must be positive\n",
    "lemma6-machine-idle-below-k": "error: rule idles the machine bidding 3 against bid 1, "
                                   "violating the busy-below-31/10 precondition\n",
    # An unknown name is refused once, before any instance: no batch prefix.
    "unknown-mechanism-in-a-batch": "error: unknown mechanism 'foo'; use 'vcg' or '<rule>:efchain'\n",
    "unknown-rule-in-a-batch": "error: unknown rule 'bar'; choose from "
                               "['at-expected', 'lpt-star', 'opt', 'two-opt', 'vcg']\n",
    "unknown-chain-rule-in-a-parallel-batch": "error: unknown rule 'foo'\n",
    "unknown-chain-rule-on-a-file": "error: unknown rule 'foo'\n",
    "check-without-a-name": "error: property checks need a mechanism or rule name\n",
    "polytope-zero-grid-bid": "error: grid bids must be positive\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["allocate", "vcg", "LIST_JSON"],
        ["certify", "lemma6", "--rule", "at-expected"],
        ["allocate", "vcg", "INT_JOBS_JSON"],
        ["check", "ratio", "lpt-star", "STRING_JOBS_JSON"],
        ["check", "ef", "vcg", "STRING_BIDS_JSON"],
        ["check", "ratio", "lpt-star", "--random", "3", "--csv", "MISSING_DIR_CSV"],
        ["check", "truthful", "vcg", "--random", "-3"],
        ["certify", "prop12", "--samples", "0"],
        ["certify", "prop12", "--samples", "-5"],
        ["check", "ratio", "lpt-star", "VALID_JSON", "--random", "2"],
        ["check", "truthful", "vcg", "--random", "3", "--jobs-parallel", "0"],
        ["check", "truthful", "vcg", "--random", "3", "--jobs-parallel", "-1"],
        ["certify", "polytope", "--machines", "0"],
        ["certify", "polytope", "--machines", "-1"],
        ["allocate", "at-sample", "BOOL_SEED_JSON"],
        ["check", "le", "--bids", "1e3,1", "--workloads", "1,2"],
        ["allocate", "vcg", "EXPONENT_BIDS_JSON"],
        ["check", "ef", "opt:efchain", "NOT_LOCALLY_EFFICIENT_JSON"],
        ["certify", "theorem7", "--rule", "vcg"],
        ["certify", "theorem9"],
        ["certify", "polytope", "--jobs", "-1,2"],
        ["certify", "theorem5", "--a", ""],
        ["check", "monotone", "two-opt", "--random", "x"],
        ["check", "le", "lpt-star", "--bids", "1,2", "--workloads", "2,1"],
        ["check", "truthful", "vcg", "VALID_JSON", "--csv", "x.csv"],
        ["allocate", "vcg", "VALID_JSON", "--text"],
        ["check", "truthful", "vcg", "VALID_JSON", "--grid", ""],
        ["check", "ef", "--bids", "1,2", "--workloads", "2,1"],
        ["certify", "polytope", "--m", "3"],
        ["certify", "lemma6", "--samples", "5"],
        ["allocate", "vcg", "VALID_JSON", "--seed", "4", "--budget", "1"],
        ["allocate", "lpt-star", "VALID_JSON", "--budget", "5"],
        ["allocate", "opt", "VALID_JSON", "--seed", "3"],
        ["check", "ef", "--bids", "1,2", "--workloads", "2,1", "--payments", "2,0",
         "--straddle", "--seed", "9"],
        ["check", "truthful", "vcg", "VALID_JSON", "--seed", "0"],
        ["check", "monotone", "lpt-star", "VALID_JSON", "--straddle"],
        ["check", "ratio", "lpt-star", "VALID_JSON", "--jobs-parallel", "2"],
        ["check", "ef", "--bids=-2,1", "--workloads=1,-1", "--payments=1,1"],
        ["check", "le", "--bids=0,1", "--workloads=1,1"],
        ["check", "le", "--bids=1,1", "--workloads=1,-1"],
        ["certify", "polytope", "--budget", "-5"],
        ["check", "ratio", "lpt-star", "VALID_JSON", "--budget", "-1"],
        ["allocate", "opt", "VALID_JSON", "--budget", "0"],
        ["certify", "theorem5", "--a", "0"],
        ["certify", "theorem5", "--a", "-8"],
        ["certify", "theorem5", "--a", "8,8"],
        ["certify", "lemma6", "--samples-at", "2,2"],
        ["certify", "lemma6", "--k", "31/10"],
        ["certify", "lemma6", "--k", "3", "--samples-at", "0"],
        ["certify", "lemma6", "--k", "3", "--samples-at", "1,0"],
        ["check", "truthful", "foo", "--random", "3"],
        ["check", "monotone", "bar", "--random", "2"],
        ["check", "ir", "foo:efchain", "--random", "2", "--jobs-parallel", "2"],
        ["check", "ir", "foo:efchain", "VALID_JSON"],
        ["check", "truthful"],
        ["certify", "polytope", "--grid", "0,1"],
    ],
    ids=["instance-file-holds-a-list", "lemma6-expected-allocation-rule",
         "instance-jobs-not-a-list", "instance-jobs-a-string",
         "instance-bids-a-string", "csv-in-missing-directory",
         "negative-random-count", "prop12-zero-samples", "prop12-negative-samples",
         "instance-file-and-random", "zero-parallel-jobs", "negative-parallel-jobs",
         "polytope-zero-machines", "polytope-negative-machines",
         "instance-seed-a-boolean", "bids-in-exponent-notation",
         "instance-bids-in-exponent-notation", "ef-chain-not-locally-efficient",
         "option-of-another-certificate", "unknown-certificate",
         "option-value-like-an-option", "empty-a-list", "non-integer-random-count",
         "explicit-vectors-and-a-rule", "option-of-another-property",
         "text-on-json-only-command", "empty-grid", "ef-vectors-without-payments",
         "abbreviated-option-of-polytope", "abbreviated-option-of-lemma6",
         "allocate-seed-and-budget-of-vcg", "allocate-budget-of-lpt-star",
         "allocate-seed-of-opt", "batch-options-with-explicit-vectors",
         "seed-with-an-instance-file", "straddle-with-an-instance-file",
         "parallel-jobs-with-an-instance-file", "explicit-negative-bid",
         "explicit-zero-bid", "explicit-negative-workload",
         "polytope-negative-budget", "ratio-negative-budget", "allocate-opt-zero-budget",
         "theorem5-zero-a", "theorem5-negative-a", "theorem5-repeated-a",
         "lemma6-repeated-sample", "lemma6-machine-idle-below-k", "lemma6-zero-sample",
         "lemma6-zero-second-sample", "unknown-mechanism-in-a-batch", "unknown-rule-in-a-batch",
         "unknown-chain-rule-in-a-parallel-batch", "unknown-chain-rule-on-a-file",
         "check-without-a-name", "polytope-zero-grid-bid"],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, request, argv):
    paths = {"MISSING_DIR_CSV": str(tmp_path / "missing" / "ratios.csv")}
    for placeholder, text in BAD_INSTANCE_FILES.items():
        paths[placeholder] = str(tmp_path / f"{placeholder.lower()}.json")
        (tmp_path / f"{placeholder.lower()}.json").write_text(text)
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert err == PINNED_LINES.get(request.node.callspec.id, err)


def test_theorem7_tolerance_past_the_log_series_cap_exits_3_with_one_line(capsys):
    # ln(3/2) to a width of 10^-1300 needs more than 4096 series terms; the
    # line does not repeat the tolerance's 1,301-digit denominator.
    code, out, err = run_cli(capsys, "certify", "theorem7", "--tol", "1/1" + "0" * 1300)
    assert (code, out) == (3, "")
    assert err == "error: log series needs more than 4096 terms for this enclosure width\n"


@pytest.mark.parametrize("denominator, code", [
    (10 ** 1233, 3), (2 ** 4094, 3), (2 ** 4094 - 1, 0), (10 ** 1232, 0),
], ids=["1/10^1233", "1/2^4094", "1/(2^4094-1)", "1/10^1232"])
def test_theorem7_tolerance_is_refused_from_the_log_series_cap_down(capsys, denominator, code):
    # ln(3/2) = ln(1 + 1/2) is summed to a width of tol/2, so its series
    # still needs its 4096th term, and is refused, while (1/2)^4096 >= tol/4:
    # for every tol <= 1/2^4094, which lies between 1/10^1233 and 1/10^1232.
    got, out, err = run_cli(capsys, "certify", "theorem7", "--tol", f"1/{denominator}")
    assert got == code
    assert (out == "", err == "") == (code == 3, code == 0)
    if code == 0:
        assert json.loads(out)["verified"] is True


def test_lemma6_refuses_an_expected_allocation_rule_with_the_curve_message(capsys):
    # The binning rule's region_points refuse its curve.
    code, out, err = run_cli(capsys, "certify", "lemma6", "--rule", "at-expected")
    assert code == 2
    assert out == ""
    assert err == (
        "error: rule returns expected allocations; bid-response curves need "
        "deterministic workloads\n"
    )


@pytest.mark.parametrize("n_jobs", [10, 12])
def test_lemma6_on_power_of_two_jobs_runs_within_the_region_budget(capsys, n_jobs):
    # Jobs 1, 2, 4, ...: all 2^n subset sums are distinct, so two-opt's
    # curves have up to 2^(n+1) regions.  Ten jobs fit in MAX_REGIONS (the
    # probing discovery ended there in a CurveResolutionError traceback
    # after 40 s); twelve exceed it and exit 3 before a rule call on the
    # first curve.
    jobs = ",".join(str(2 ** e) for e in range(n_jobs))
    code, out, err = run_cli(capsys, "certify", "lemma6", "--jobs", jobs)
    if n_jobs == 10:
        assert (code, err) == (0, "")
        assert json.loads(out)["verified"] is True
    else:
        assert (code, out) == (3, "")
        assert err == "error: more than 4096 regions on (0, 2]\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "schedmech.cli", "certify", "theorem5", "--a", "8"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verified"] is True


def test_polytope_budget_refuses_a_huge_machine_count_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "schedmech.cli", "certify", "polytope",
         "--grid", "1,2,3", "--jobs", "1", "--machines", "100000000"],
        capture_output=True,
        text=True,
        timeout=20,
        env=CHILD_ENV,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: 3^100000000 profiles exceed budget 4096\n"


@pytest.mark.parametrize("machines, code", [("12", 0), ("13", 3)])
def test_one_value_grid_gets_the_machine_cap_of_a_two_value_grid(capsys, machines, code):
    # One profile whatever the machine count, but machines^2 rows: 2^12 is
    # the last power of two within the default budget of 4096.
    rc, out, err = run_cli(
        capsys, "certify", "polytope", "--grid", "1", "--jobs", "1", "--machines", machines
    )
    assert rc == code
    if code == 0:
        assert json.loads(out)["feasible"] is True and err == ""
    else:
        assert out == ""
        assert err == "error: 13 machines on a one-value grid exceed budget 4096\n"


def test_closed_output_pipe_exits_1_with_one_error_line():
    # 2,000 ratio rows are about 170 kB, more than a pipe holds, so the
    # command is still writing when the reader closes its end.
    with subprocess.Popen(
        [sys.executable, "-m", "schedmech.cli", "check", "ratio", "vcg", "--random", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    ) as proc:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_repeated_calls_give_the_same_results(capsys, instance_file):
    path = instance_file([3, 2, 1], ["1", "5/2"])
    calls = [
        ["allocate", "two-opt", path],
        ["check", "monotone", "lpt-star", "--random", "3", "--seed", "4"],
        ["check", "truthful", "vcg", path, "--grid", "1,2,3"],
        ["check", "monotone", "two-opt", "--random", "x"],  # bad argument
        ["certify", "theorem1", "--m", "2"],
        ["check", "le", "--bids", "1,2", "--workloads", "1,2"],
        ["certify", "theorem5", "--a", "8", "--text"],
    ]
    first = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert first[3][0] == 2
    assert [run_cli(capsys, *argv)[:2] for argv in calls] == first


def test_commands_that_search_the_optimum_leave_no_cyclic_garbage(capsys, instance_file):
    """Every object the commands make is freed by reference counting: with
    the cycle collector off, none is left for ``gc.collect`` to find."""
    path = instance_file([3, 2, 1], [1, 2])
    calls = [["check", "ratio", "lpt-star", path], ["allocate", "opt", path],
             ["certify", "polytope", "--rule", "opt"], ["certify", "theorem1"]]
    gc.collect()
    gc.disable()
    try:
        codes = [main(argv) for argv in calls]
        left = gc.collect()
    finally:
        gc.enable()
    assert (codes, left) == ([0] * len(calls), 0)
    capsys.readouterr()


# ``check`` on an expected-workload rule, its outcome an ``ExpectedAllocation``
# with payments: a check that reads other profiles runs it on copies, as it
# has no ``decide``.
@pytest.mark.parametrize("argv, code, failures", [
    (["truthful", "at-expected:efchain", "FILE"], 1, [{
        "instance": {"bids": ["1", "2"], "jobs": ["3", "2", "1"]},
        "verdict": {"counterexample": {"context": {"deviation": "5/4", "machine": 0, "true_speed": "1"},
                                       "description": "machine 0 profits by bidding 5/4", "lhs": "2",
                                       "relation": ">=", "rhs": "69/26"},
                    "pass": False, "property": "truthfulness"}}]),
    (["anonymous", "at-expected:efchain", "FILE"], 0, []),
    (["ef", "at-expected:efchain", "FILE"], 0, []),
    (["ir", "at-expected:efchain", "FILE"], 0, []),
    (["anonymous", "at-expected", "--random", "30", "--seed", "1"], 0, []),
    (["scalable", "at-expected", "--random", "30", "--seed", "1"], 0, []),
], ids=["truthful-efchain", "anonymous-efchain", "ef-efchain", "ir-efchain", "anonymous-random", "scalable-random"])
def test_checks_of_an_expected_allocation_print_pinned_verdicts(capsys, instance_file, argv, code, failures):
    path = instance_file([3, 2, 1], [1, 2])
    argv = [path if arg == "FILE" else arg for arg in argv]
    expected = {"failures": failures, "instances": 30 if "--random" in argv else 1, "mechanism": argv[1],
                "pass": not failures, "property": argv[0]}
    assert run_cli(capsys, "check", *argv) == (code, json.dumps(expected, indent=2, sort_keys=True) + "\n", "")


def test_certificate_help_lists_only_its_own_options(capsys):
    code, out, err = run_cli(capsys, "certify", "polytope", "--help")
    assert (code, err) == (0, "")
    options = {word.strip("[],") for word in out.split() if word.startswith(("--", "[--"))}
    assert options == {"--help", "--rule", "--grid", "--jobs", "--machines", "--budget"}


def test_readme_cli_examples_parse():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("schedmech ")
    ]
    assert len(examples) >= 10
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])  # raises DomainError on any drift
