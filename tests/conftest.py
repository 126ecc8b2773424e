"""Shared fixtures: a session-wide graph cache and the desk-scale case lists.

Graphs are immutable, so one instance per (variant, q, t) is safe to share
across the whole run; the big q=121/128 builds are only paid once.
"""

import pytest

from ramseycert import build_g_plus, build_g_times
from ramseycert.graphs import fleet

# the 94 desk-scale cases: plus with q <= 128, then times with q <= 121
ALL_CASES = list(fleet())

_CACHE = {}


def cached_graph(variant, q, t):
    key = (variant, q, t)
    if key not in _CACHE:
        build = build_g_plus if variant == "plus" else build_g_times
        _CACHE[key] = build(q, t)
    return _CACHE[key]


@pytest.fixture(scope="session")
def graph():
    return cached_graph


def pytest_addoption(parser):
    parser.addoption("--overnight", action="store_true",
                     help="run the multi-hour exhaustive searches")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--overnight"):
        return
    skip = pytest.mark.skip(reason="multi-hour search; pass --overnight to run")
    for item in items:
        if "overnight" in item.keywords:
            item.add_marker(skip)
