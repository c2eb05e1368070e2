import json
import subprocess
import sys

import jsonschema
import pytest

from schedmech.allocations import RULES
from schedmech.certificates import _polytope_rows
from schedmech import cli
from schedmech.cli import main
from schedmech.exactlp import solve_feasibility

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

    def test_adversarial_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "ratio", "vcg", "--theorem1", "m=3", "c=3/2"
        )
        assert code == 0
        assert out.strip() == "5/3"

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
        *_, n_vars, rows, _ = _polytope_rows(
            RULES["opt"], grid.split(","), jobs.split(","), 2, 4096
        )
        by_label = {row.label: row for row in rows}
        subset = [by_label[label] for label in payload["infeasible_subset"]]
        assert solve_feasibility(n_vars, subset) is None

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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "ratio", "vcg", "--theorem1", "m3"],
        ["check", "ratio", "vcg", "--theorem1", "m=x"],
        ["allocate", "vcg", "LIST_JSON"],
        ["certify", "lemma6", "--rule", "at-expected"],
    ],
    ids=["theorem1-pair-without-equals", "theorem1-non-integer-m",
         "instance-file-holds-a-list", "lemma6-expected-allocation-rule"],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    argv = [str(listed) if a == "LIST_JSON" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "schedmech.cli", "certify", "theorem5", "--a", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verified"] is True


def test_repeated_calls_share_one_parser_and_match_fresh_ones(capsys, instance_file):
    path = instance_file([3, 2, 1], ["1", "5/2"])
    calls = [
        ["allocate", "two-opt", path],
        ["check", "monotone", "lpt-star", "--random", "3", "--seed", "4"],
        ["check", "truthful", "vcg", path, "--grid", "1,2,3"],
        ["check", "monotone", "two-opt", "--random", "x"],  # bad argument
        ["certify", "theorem1", "--m", "2"],
        ["check", "le", "--bids", "1,2", "--workloads", "1,2"],
        ["allocate", "vcg", path, "--text"],
    ]
    fresh = []
    for argv in calls:
        cli._shared_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    assert fresh[3][0] == 2
    for _ in range(2):  # one parser for every call, twice through
        assert [run_cli(capsys, *argv)[:2] for argv in calls] == fresh
    assert cli._shared_parser.cache_info().currsize == 1
