import os
import threading

import pytest

from dicots import Store, parse
from dicots.selftest import day2_population, day3_sample


# Seconds a test may run before the whole run exits with status 1. A kernel
# that loops forever then fails tier-1 instead of hanging it; pytest's
# faulthandler_timeout (pyproject.toml) has printed the traceback by then.
HANG_BUDGET = 120


@pytest.fixture(autouse=True)
def _exit_on_hang():
    timer = threading.Timer(HANG_BUDGET, os._exit, (1,))
    timer.daemon = True
    timer.start()
    yield
    timer.cancel()


@pytest.fixture(scope="session")
def store():
    """One store for the whole run so memo tables are shared across tests."""
    return Store()


@pytest.fixture(scope="session")
def day2(store):
    return day2_population(store)


@pytest.fixture(scope="session")
def day3_big(store):
    """The acceptance-scale day-3 sample; module tests slice a prefix."""
    return day3_sample(store, 10000)


@pytest.fixture(scope="session")
def raw_forms(store):
    """Non-canonical forms, as census inputs are: sums, dominated and
    reversible options, and options that are themselves not canonical."""
    texts = [
        "{0,*,*2|0}+{0|*2}",
        "{{*|*}|{*|*}}",
        "{0,{0|0,*},{*|0}|{0|0,*}}+*",
        "*2+{*|0,*}",
        "{0,*|{*|0,*},{0|0,*}}+{0|*2}",
        "-{0,*,*2|0}+*3",
        "{*+*,{0,*,*2|0}|{*|*}+*2}",
    ]
    return [parse(store, t) for t in texts]
