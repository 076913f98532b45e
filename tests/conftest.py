"""Test-wide fixtures."""

import pytest

import qtmat.contour


@pytest.fixture(autouse=True)
def empty_resolvent_slot():
    """Start every test with no stored node resolvents.

    The contour engine keeps the node resolvents of its last matrix across
    calls, so without this a test's reuse counts would depend on which test
    ran before it.
    """
    qtmat.contour._slot = qtmat.contour._NodeResolvents()
