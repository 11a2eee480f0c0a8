"""The correctness oracle flags corrupted outputs and accepts the reference."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402

REF = oracle.load_reference()

# `womctl compare --scenario instance_a.wom` at the recorded commit
COMPARE_A = """\
method,value,candidates,seconds,match_brute
brute,0.7314,262144,,yes
common-info,0.7314,176,,yes
structural-k1,0.7314,212992,,yes
"""


def verify_report(checks, passed=True) -> str:
    return json.dumps({"passed": passed, "checks": [
        {"name": n, "instances": i, "passed": p} for n, i, p in checks]})


def test_reference_compare_output_passes():
    assert oracle.problems(REF, "compare-a", 0, 0, COMPARE_A) == []


def test_corrupted_stdout_is_flagged():
    corrupted = COMPARE_A.replace("0.7314,176", "0.7315,176")
    found = oracle.problems(REF, "compare-a", 0, 0, corrupted)
    assert any("sha256" in p for p in found)


def test_match_brute_no_is_flagged():
    found = oracle.problems(REF, "compare-a", 0, 0,
                            COMPARE_A.replace("212992,,yes", "212992,,no"))
    assert any("structural-k1: match_brute is 'no'" in p for p in found)


def test_nonzero_exit_code_is_flagged():
    assert oracle.problems(REF, "compare-a", 0, 3, COMPARE_A) == ["exit code 3"]


def test_reference_verify_reports_pass():
    for workload, seed in (("verify-a", 0), ("verify-random", 7),
                           ("verify-random", 107)):
        want = oracle.expected_checks(REF, workload, seed)
        assert len(want) == 29
        assert oracle.problems(REF, workload, seed, 0, verify_report(want)) == []


def test_flipped_check_verdict_is_flagged():
    checks = [list(c) for c in oracle.expected_checks(REF, "verify-a", 0)]
    checks[5][2] = False
    found = oracle.problems(REF, "verify-a", 0, 1,
                            verify_report(checks, passed=False))
    assert "exit code 1" in found
    assert "verify report has passed != true" in found
    assert any(p.startswith(f"check {checks[5][0]}:") for p in found)


def test_changed_instance_count_is_flagged():
    checks = [list(c) for c in oracle.expected_checks(REF, "verify-random", 3)]
    checks[18][1] += 1
    found = oracle.problems(REF, "verify-random", 3, 0, verify_report(checks))
    assert len(found) == 1 and checks[18][0] in found[0]


def test_unreadable_verify_report_is_flagged():
    found = oracle.problems(REF, "verify-a", 0, 0, "not json")
    assert found and found[0].startswith("unreadable verify report")
