"""Shared fixtures.

Expensive artefacts (keys, encryptors, encrypted sessions) are module-
or session-scoped; tests must not mutate them unless the fixture says
otherwise.
"""

from __future__ import annotations

import faulthandler
import random
import signal
import sys
import threading

import numpy as np
import pytest

from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor

#: Seconds one test (setup, call and teardown together) may take.  The
#: slowest test takes a few seconds, so a test that reaches this is
#: hung: it fails under its own name, with every thread's stack in its
#: captured stderr, instead of stalling the run until an outer time
#: limit kills it without a word.
TEST_TIME_LIMIT = 60.0


def _over_time(signum, frame):
    faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
    pytest.fail(
        "test ran past its %.0f s limit; every thread's stack is in "
        "its captured stderr" % TEST_TIME_LIMIT,
        pytrace=False,
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    armed = (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if armed:
        previous = signal.signal(signal.SIGALRM, _over_time)
        signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-cases",
        action="store",
        type=int,
        default=500,
        help="round-trip cases per envelope type in the codec fuzz "
        "tests (tests/test_net_fuzz.py); raising it to 5000+ also "
        "enables the deep nightly-scale fuzz test",
    )


@pytest.fixture(scope="session")
def fuzz_cases(request):
    """How many fuzz cases per envelope type (``--fuzz-cases``)."""
    return int(request.config.getoption("--fuzz-cases"))


@pytest.fixture(scope="session")
def key4():
    """Default-size key (paper default l = 4)."""
    return generate_key(length=4, seed=20160626)


@pytest.fixture(scope="session")
def key8():
    """A larger key for size-dependent behaviour."""
    return generate_key(length=8, seed=4242)


@pytest.fixture()
def encryptor(key4):
    """A fresh encryptor over the shared default key."""
    return Encryptor(key4, seed=7)


@pytest.fixture()
def encryptor8(key8):
    """A fresh encryptor over the shared l=8 key."""
    return Encryptor(key8, seed=8)


@pytest.fixture()
def rng():
    """Deterministic python RNG for test-local sampling."""
    return random.Random(1234)


@pytest.fixture()
def small_values():
    """A shuffled permutation of 0..499 (unique, easy to reason about)."""
    values = np.arange(500, dtype=np.int64)
    np.random.default_rng(99).shuffle(values)
    return values


def reference_positions(values, low, high, low_inclusive=True, high_inclusive=True):
    """Ground-truth qualifying base positions by brute force."""
    values = np.asarray(values)
    mask = values >= low if low_inclusive else values > low
    mask &= values <= high if high_inclusive else values < high
    return np.flatnonzero(mask)
