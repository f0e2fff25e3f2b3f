"""A watchdog on every test: one that runs past LIMIT seconds dumps the
stack of every thread and ends the run with an error, so a hang fails the
suite instead of stalling it.  pytest's own faulthandler_timeout by
default only dumps the stacks and lets the test go on, and before pytest 9
it cannot end the run."""

import faulthandler
import os

import pytest

# well above the slowest test, which takes about 5 s
LIMIT = 120

# a copy of stderr made before any test's output is captured, so the
# dump is seen; pytest configures with capture suspended
_stderr = None


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(2)


@pytest.fixture(autouse=True)
def watchdog():
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
