"""Shared fixtures: a session-wide graph cache, the desk-scale case lists, the
edge-list and bitset-row graph builders, the double-edge swap and the
common-neighbour and codegree oracles.

Graphs are immutable, so one instance per (variant, q, t) is safe to share
across the whole run; the big q=121/128 builds are only paid once.
"""

import numpy as np
import pytest

from ramseycert import build_g_plus, build_g_times
from collections import Counter

from ramseycert.graphs import Graph, GraphMeta, _bits, _edge_arrays, fleet, from_g2t, to_g2t

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
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n = {n}")
    if meta is None:
        meta = GraphMeta(variant="other", t=t)
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    start, nbr = _edge_arrays(n, np.minimum(u, v), np.maximum(u, v))
    return Graph(start, nbr, tuple((0, i) for i in range(n)), meta)


def from_rows(rows, labels, meta):
    """The graph of bitset rows, bit j of rows[i] its {i, j} entry, made
    from the rows' neighbour arrays."""
    nbr = [_bits(r) for r in rows]
    return Graph(np.cumsum([0, *map(len, nbr)]), [v for row in nbr for v in row],
                 tuple(labels), meta)


def swapped(g, rng, closed=False, tries=200):
    """g as a file (a g2t round trip, so metadata and labels are kept) after
    a degree-preserving double-edge swap {a,b},{c,d} -> {a,d},{c,b}, drawn by
    rng with a, b, c, d distinct, {a,b} and {c,d} edges and {a,d} and {c,b}
    not.  When ``closed``, the swap's images under the powers of a kept
    field map π (drawn too) are made with it, so π stays an automorphism.
    None when none of ``tries`` draws is such a swap."""
    edges = [(u, v) for u in range(g.n) for v in g.neighbors(u) if u != v]
    maps = g._symmetry[0]
    if not edges or (closed and not maps):
        return None

    def has(e):
        return g.rows[min(e)] >> max(e) & 1

    for _ in range(tries):
        (a, b), (c, d) = rng.choice(edges), rng.choice(edges)
        swaps = [(a, b, c, d)]
        perm = rng.choice(maps) if closed else None
        while perm is not None and (image := tuple(int(perm[x]) for x in swaps[-1])) != swaps[0]:
            swaps.append(image)
        gone = {frozenset(e) for a, b, c, d in swaps for e in ((a, b), (c, d))}
        made = {frozenset(e) for a, b, c, d in swaps for e in ((a, d), (c, b))}
        if (len({a, b, c, d}) < 4 or not all(map(has, gone)) or any(map(has, made))
                or Counter(x for e in gone for x in e) != Counter(x for e in made for x in e)):
            continue
        rows = list(g.rows)
        for u, v in gone | made:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        return from_g2t(to_g2t(from_rows(tuple(rows), g.labels, g.meta)))
    return None


def common_neighbors(g, u, v):
    """Vertices adjacent to both u and v (inclusive: loops let u or v qualify)."""
    both = g.rows[u] & g.rows[v]
    return [w for w in range(both.bit_length()) if both >> w & 1]


def codegree_dict(g):
    """{(u, v): codegree} over the pairs u < v with a common neighbour, by
    the accumulation the 2-walk pair count replaced: each w adds one to
    every pair u < v of its neighbours."""
    counts = {}
    for w in range(g.n):
        nbrs = g.neighbors(w)
        for i, u in enumerate(nbrs):
            for v in nbrs[i + 1:]:
                counts[u, v] = counts.get((u, v), 0) + 1
    return counts


def codegree_dict_histogram(g):
    """The codegree histogram over all n(n-1)/2 pairs read off ``codegree_dict``."""
    pairs = codegree_dict(g)
    hist = Counter(pairs.values())
    hist[0] = g.n * (g.n - 1) // 2 - len(pairs)
    return {c: k for c, k in hist.items() if k}


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
