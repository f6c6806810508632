import json

from pythcpt.suite import CheckResult, SuiteReport, run_suite


def test_suite_report_as_json_holds_every_verdict_and_no_timing():
    report = run_suite(tol=1e-300)
    expected = [r.passed for r in report.results]
    # representation_lift passes even here: its n = 2, 4 and 8 fidelities at (3, 1, 0) read 1.0 or above
    assert expected.count(False) == 4 and len(expected) == 11
    payload = report.as_json()
    assert list(payload) == ["all_passed", "checks"]
    assert payload["checks"] == [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in report.results]
    assert [c["passed"] for c in payload["checks"]] == expected
    assert payload["all_passed"] is False
    assert json.loads(json.dumps(payload)) == payload  # plain JSON values


def test_suite_report_as_json_reads_all_passed():
    checks = (CheckResult("a", True, "fine", 0.5), CheckResult("b", True, "also fine", 1.5))
    assert SuiteReport(checks).as_json() == {
        "all_passed": True,
        "checks": [{"name": "a", "passed": True, "detail": "fine"}, {"name": "b", "passed": True, "detail": "also fine"}],
    }
    failing = SuiteReport(checks[:1] + (CheckResult("b", False, "off", 1.5),))
    assert failing.as_json()["all_passed"] is False
