"""Shared test setup: a wall-clock bound on every test."""
from __future__ import annotations

import signal

import pytest

# far above the slowest tier-1 test (under 1 s) and each slow test (about 13 s)
TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def _wall_clock_bound():
    """Fail a test that runs longer than TEST_SECONDS, so that a hang ends
    that test and not the whole run.  Skipped where SIGALRM is missing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
