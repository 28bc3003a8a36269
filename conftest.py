"""A per-test time limit for the whole suite, from the standard library.

A wrong row update in an exact elimination does not always fail fast:
over Q(v) the coefficients of unreduced rows can grow without bound, and
a test then runs for many minutes.  Each test's setup, call and teardown
therefore runs under a `signal.SIGALRM` alarm of `LIMIT_S` seconds (the
slowest test takes about 10 s); when it fires, the test fails with
`TestTimeLimit`.  A `BaseException`, so that no `except Exception` in
the code under test swallows it.  Without SIGALRM (Windows) or off the
main thread, tests run unlimited.
"""

import signal
import threading

import pytest

LIMIT_S = 120


class TestTimeLimit(BaseException):
    """Raised in a test that runs past LIMIT_S seconds."""

    __test__ = False  # not a test class, despite its name


def _limited(item, phase):
    if (not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return (yield)

    def expire(signum, frame):
        raise TestTimeLimit(f"{item.nodeid}: {phase} ran past the "
                            f"{LIMIT_S} s per-test limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _limited(item, "setup"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _limited(item, "call"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    return (yield from _limited(item, "teardown"))
