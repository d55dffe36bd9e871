import pytest

from ytensor import harness


@pytest.fixture(scope="session")
def verify_all_report():
    """One verify-all report at seed 0 and the default c grid, built once per session."""
    return harness.cmd_verify_all(seed=0)
