"""The acceptance gate: every criterion at its pinned tolerance.

Each test prints the one-line PASS/FAIL summary (run pytest with -s to see
them inline; they also land in the captured output on failure).
"""

import pytest

from zetaline import acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[f"criterion_{i+1:02d}" for i in range(len(acceptance.ALL_CRITERIA))])
def test_acceptance_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_3_counts_its_series_points():
    """Every grid point has |z| < 0.952, where zeta_via_series sums the
    table; none takes the closed form, which is the Euler-Maclaurin kernel
    itself."""
    assert acceptance.criterion_3().details["series_points"] == "12/12"
