"""The verification report's stacked cross-checks."""

import json

import pytest
import verify_reference

from ltshadow import verify


@pytest.mark.parametrize("seed", [7, 11])
def test_stacked_report_checks_match_serial_reference(seed):
    """Stacked projections, one solve per dims, one stacked lambda_min and
    the fiber walks in one stack per dims give the one-at-a-time values bit
    for bit."""
    assert (verify.shadow_vs_defining_system(seed)
            == verify_reference.shadow_vs_defining_system(seed))
    assert (verify.kernel_invariance_deviation(seed)
            == verify_reference.kernel_invariance_deviation(seed))
    assert verify.shadow_vs_defining_system(seed) > 0  # the checks compare something
    checks = {c["name"]: c for c in verify.run_verification_report(seed)["checks"]}
    for name in ("pure_state_fiber_rigidity", "nondeterministic_shadow_demo"):
        serial = getattr(verify_reference, name)(seed)
        assert {key: checks[name][key] for key in serial} == serial
    assert checks["nondeterministic_shadow_demo"]["leaky_diameter"] > 0.01


def test_report_is_plain_python():
    """The report goes through the standard library's json, and every check
    value is a plain bool, int, float, str or None (numpy's float64 is a
    float subclass, so the test is on the exact type)."""
    report = verify.run_verification_report(7, include_upb=True)
    json.dumps(report)
    for check in report["checks"]:
        for key, value in check.items():
            assert type(value) in (bool, int, float, str, type(None)), (check["name"], key)


def test_report_eigensolve_budget(eigensolve_log):
    """The cli's primary metric: the full report at seed 7 makes at most 329
    eigensolver calls on at most 3,137 matrices."""
    verify.run_verification_report(7, include_upb=True)
    assert len(eigensolve_log) <= 329
    assert sum(n for _, n in eigensolve_log) <= 3137
