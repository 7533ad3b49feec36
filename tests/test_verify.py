"""The verification report's stacked cross-checks."""

import pytest
import verify_reference

from ltshadow import verify


@pytest.mark.parametrize("seed", [7, 11])
def test_stacked_report_checks_match_serial_reference(seed):
    """Stacked projections, one solve per dims and one stacked lambda_min
    give the one-state-at-a-time values bit for bit."""
    assert (verify.shadow_vs_defining_system(seed)
            == verify_reference.shadow_vs_defining_system(seed))
    assert (verify.kernel_invariance_deviation(seed)
            == verify_reference.kernel_invariance_deviation(seed))
    assert verify.shadow_vs_defining_system(seed) > 0  # the checks compare something
