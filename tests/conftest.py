"""Shared fixtures: a session-wide graph cache, the desk-scale case lists, the
edge-list graph builder and the common-neighbour oracle.

Graphs are immutable, so one instance per (variant, q, t) is safe to share
across the whole run; the big q=121/128 builds are only paid once.
"""

import pytest

from ramseycert import build_g_plus, build_g_times
from ramseycert.graphs import Graph, GraphMeta, fleet

# the 94 desk-scale cases: plus with q <= 128, then times with q <= 121
ALL_CASES = list(fleet())

_CACHE = {}


def cached_graph(variant, q, t):
    key = (variant, q, t)
    if key not in _CACHE:
        build = build_g_plus if variant == "plus" else build_g_times
        _CACHE[key] = build(q, t)
    return _CACHE[key]


def from_edges(n, edges, t=0, meta=None):
    """Assemble a Graph from an edge list; (i, i) pairs become loops."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n = {n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if meta is None:
        meta = GraphMeta(variant="other", t=t)
    return Graph(rows=tuple(rows), labels=tuple((0, i) for i in range(n)), meta=meta)


def common_neighbors(g, u, v):
    """Vertices adjacent to both u and v (inclusive: loops let u or v qualify)."""
    both = g.rows[u] & g.rows[v]
    return [w for w in range(both.bit_length()) if both >> w & 1]


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
