"""Every test runs under a wall-clock limit, so a loop that never ends
fails its test instead of hanging the run."""

import signal

import pytest

# the slowest test takes about a second
TIME_LIMIT_S = 30


class TimeLimitExceeded(Exception):
    """A test ran past ``TIME_LIMIT_S``."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Arm a real-time timer for the test and raise when it expires; where
    the platform has no SIGALRM the test runs unlimited."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded("%s ran past its %d s limit"
                                % (request.node.nodeid, TIME_LIMIT_S))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
