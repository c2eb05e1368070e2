"""Rule defects that ROADMAP measured and has not yet mended, one instance
each, pinned as strict expected failures.

Each test asserts that the property passes.  While the defect stands the
assertion fails; the change that mends a defect turns its test into an
unexpected pass, which fails the suite until the mark comes off.  Only a
failed assertion counts as the expected failure: a refusal or a crash fails.
"""

import pytest

from schedmech.allocations import RULES
from schedmech.core import Instance
from schedmech.payments import ef_chain_mechanism
from schedmech.properties import check_anonymous, check_envy_free, check_local_efficiency, check_monotone


def known_defect(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


@known_defect("20: lpt-star's greedy sends key ties to the lowest machine index")
def test_lpt_star_efchain_is_anonymous():
    # Swapping the bids 13/3 and 16 gives workloads (1, 1), not (0, 2).
    verdict = check_anonymous(ef_chain_mechanism(RULES["lpt-star"]), Instance(["1", "1"], ["13/3", "16"]))
    assert verdict.passed, verdict.to_json_dict()


@known_defect("1: ef-chain-tie-order, the chain orders tied bids by index, not by workload")
@pytest.mark.parametrize("jobs, bids", [
    (["5", "7/2"], ["4", "2", "4"]),
    (["3", "1", "1/2"], ["16/3", "1", "16/3"]),
], ids=["two-jobs", "shrunk-reproducer"])
def test_lpt_star_efchain_is_envy_free(jobs, bids):
    instance = Instance(jobs, bids)
    outcome = ef_chain_mechanism(RULES["lpt-star"]).run(instance)
    verdict = check_envy_free(instance.bids, outcome.allocation.workloads, outcome.payments)
    assert verdict.passed, verdict.to_json_dict()


@known_defect("20: opt returns the first optimum in branch-and-bound order")
def test_opt_is_monotone():
    # Machine 0 gets 11/2 at bid 13/4 and 23/4 at bid 117/32.
    verdict = check_monotone(RULES["opt"], Instance(["24", "11/2", "3", "11/4"], ["9/4", "13/4", "1"]))
    assert verdict.passed, verdict.to_json_dict()


@known_defect("20: opt returns the first optimum in branch-and-bound order")
def test_opt_is_locally_efficient():
    instance = Instance(["11", "7/4", "1", "1"], ["7", "11/4", "2", "2"])
    verdict = check_local_efficiency(instance.bids, RULES["opt"](instance).workloads)
    assert verdict.passed, verdict.to_json_dict()
