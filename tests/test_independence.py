"""Exact independence search: known values, oracle equivalence, budget behavior."""

import dataclasses
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramseycert import graphs, independence
from ramseycert.graphs import _bits, _pack_rows
from ramseycert.random_model import lemma_parameters, sample_gnp
from ramseycert.independence import (
    KNOWN_EVEN_CHAR_ALPHA,
    SEMANTICS,
    AlphaResult,
    _allowed,
    _class_rows,
    _min_degree_greedy,
    alpha_bruteforce,
    conjecture_check,
    explicit_qr_set,
    greedy_alpha,
    max_independent_set_exact,
    verify_independent,
)
from conftest import ALL_CASES, cached_graph, from_edges, swapped


def _seeded_graphs(min_n=0, max_n=20):
    """G(n, p) over the pairs u <= v, so loops appear too.  Only the seed is
    drawn, and min_n <= n <= max_n and p come from it: Hypothesis draws small
    integers far more often than large ones, and the faults of a search show
    on the larger graphs."""
    def build(seed):
        rng = random.Random(seed)
        n, density = rng.randint(min_n, max_n), rng.choice([0.1, 0.2, 0.35, 0.5, 0.7])
        return from_edges(n, [(u, v) for u in range(n) for v in range(u, n)
                              if rng.random() < density])
    return st.integers(0, 2**32 - 1).map(build)


def small_graphs(max_n=14, max_edges=40):
    """A drawn edge list on 2..max_n vertices, or a seeded G(n, p) on 14..20:
    the edge lists are mostly sparse enough that the search closes at its
    root, so the seeded draws keep the branching under test."""
    edge_lists = st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=max_edges),
        )
    ).map(lambda t: from_edges(t[0], t[1]))
    return st.one_of(edge_lists, _seeded_graphs(14, 20))


# -- known values on the constructions ----------------------------------------------


@pytest.mark.parametrize("q,t,alpha,sem", [
    (9, 3, 8, "ignore-loops"),
    (8, 4, 4, "ignore-loops"),
    (16, 8, 5, "ignore-loops"),
    (64, 32, 8, "ignore-loops"),
    (64, 32, 8, "exclude-looped"),
    (25, 5, 16, "exclude-looped"),
])
def test_plus_alpha_values(q, t, alpha, sem):
    g = cached_graph("plus", q, t)
    res = max_independent_set_exact(g, semantics=sem)
    assert res.exact and res.lower == alpha
    assert len(res.witness) == alpha
    assert verify_independent(g, res.witness, sem)


def test_witness_is_sorted_and_in_range():
    g = cached_graph("plus", 9, 3)
    res = max_independent_set_exact(g)
    assert list(res.witness) == sorted(res.witness)
    assert all(0 <= v < g.n for v in res.witness)


def test_verify_independent_rejects():
    g = cached_graph("plus", 9, 3)
    u = 0
    v = g.neighbors(0)[1] if g.neighbors(0)[0] == 0 else g.neighbors(0)[0]
    assert not verify_independent(g, [u, v])
    with pytest.raises(ValueError):
        verify_independent(g, [0, g.n])
    with pytest.raises(ValueError):
        verify_independent(g, [0], "loopy")


def test_exclude_looped_bars_looped_vertices():
    g = from_edges(3, [(0, 0), (1, 2)])
    assert verify_independent(g, [0, 1], "ignore-loops")
    assert not verify_independent(g, [0, 1], "exclude-looped")
    assert max_independent_set_exact(g, semantics="ignore-loops").lower == 2
    assert max_independent_set_exact(g, semantics="exclude-looped").lower == 1


# -- oracle equivalence and properties ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.sampled_from(SEMANTICS))
def test_branch_and_bound_equals_bruteforce(g, sem):
    res = max_independent_set_exact(g, semantics=sem)
    assert res.exact
    assert res.lower == alpha_bruteforce(g, sem)
    # the search renumbers vertices: the witness must map back to distinct,
    # sorted original indices
    assert len(set(res.witness)) == res.lower
    assert list(res.witness) == sorted(res.witness)
    assert verify_independent(g, res.witness, sem)


@pytest.mark.parametrize("n,p,seed,alpha", [(100, 0.05, 1, 45), (100, 0.1, 2, 32)])
def test_sparse_gnp_alpha_values(n, p, seed, alpha):
    g = sample_gnp(n, p, seed=seed)
    res = max_independent_set_exact(g)
    assert res.exact and res.lower == alpha == len(res.witness)
    assert verify_independent(g, res.witness)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_adding_edges_never_increases_alpha(data):
    n = data.draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    base = data.draw(st.lists(pairs, max_size=20))
    extra = data.draw(st.lists(pairs, min_size=1, max_size=8))
    a0 = max_independent_set_exact(from_edges(n, base)).lower
    a1 = max_independent_set_exact(from_edges(n, base + extra)).lower
    assert a1 <= a0


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.sampled_from(SEMANTICS))
def test_greedy_is_a_valid_lower_bound(g, sem):
    size, witness = greedy_alpha(g, sem)
    assert size == len(witness)
    assert verify_independent(g, witness, sem)
    assert size <= max_independent_set_exact(g, semantics=sem).lower


def _greedy_alpha_scan(g, semantics):
    """Reference greedy: rescan every live vertex for each pick and take the
    least residual degree, lowest index on ties.  O(alpha * n) popcounts."""
    n = g.n
    live = (1 << n) - 1
    if semantics == "exclude-looped":
        for i in range(n):
            if g.rows[i] >> i & 1:
                live ^= 1 << i
    rows = [g.rows[i] & ~(1 << i) for i in range(n)]
    chosen = []
    while live:
        best_v, best_deg = -1, n + 1
        m = live
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            dv = (rows[v] & live).bit_count()
            if dv < best_deg:
                best_v, best_deg = v, dv
        chosen.append(best_v)
        live &= ~(rows[best_v] | (1 << best_v))
    chosen.sort()
    return len(chosen), tuple(chosen)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 48), st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.6, 0.9, 1.0]),
       st.integers(0, 2**32 - 1), st.sampled_from(SEMANTICS))
def test_greedy_equals_scan_oracle(n, density, seed, sem):
    rng = random.Random(seed)  # pairs include (u, u), so loops appear too
    edges = [(u, v) for u in range(n) for v in range(u, n) if rng.random() < density]
    g = from_edges(n, edges)
    assert greedy_alpha(g, sem) == _greedy_alpha_scan(g, sem)


@pytest.mark.parametrize("sem", SEMANTICS)
@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("plus", 64, 32), ("times", 49, 3)])
def test_greedy_equals_scan_oracle_on_constructions(variant, q, t, sem):
    g = cached_graph(variant, q, t)
    assert greedy_alpha(g, sem) == _greedy_alpha_scan(g, sem)


def test_greedy_equals_scan_oracle_on_recipe_sample():
    g = sample_gnp(2096, lemma_parameters(100, 10, 1.0, seed=1).p, 1, 0)
    assert greedy_alpha(g) == _greedy_alpha_scan(g, "ignore-loops")


def test_bruteforce_caps_at_26():
    with pytest.raises(ValueError):
        alpha_bruteforce(from_edges(27, []))


def _alpha_subset_scan(g, semantics="ignore-loops"):
    """The 2^n scan ``alpha_bruteforce`` replaced: every vertex tested
    against every subset, a million subsets at a time, O(n 2^n)."""
    n = g.n
    if n == 0:
        return 0
    adj = np.array([g.rows[i] & ~(1 << i) & ((1 << n) - 1) for i in range(n)],
                   dtype=np.uint32)
    veto = _allowed(g, semantics) ^ ((1 << n) - 1)
    best = 0
    chunk = 1 << 20
    for lo in range(0, 1 << n, chunk):
        s = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.uint32)
        ok = np.ones(len(s), dtype=bool)
        if veto:
            ok &= (s & np.uint32(veto)) == 0
        for v in range(n):
            inside = (s >> np.uint32(v)) & np.uint32(1)
            crossing = (s & adj[v]) != 0
            ok &= ~((inside == 1) & crossing)
        if ok.any():
            bits = np.unpackbits(s[ok].view(np.uint8).reshape(-1, 4), axis=1)
            best = max(best, int(bits.sum(axis=1, dtype=np.uint8).max()))
    return best


@settings(max_examples=80, deadline=None)
@given(_seeded_graphs(0, 20), st.sampled_from(SEMANTICS))
def test_bruteforce_equals_the_subset_scan(g, sem):
    assert alpha_bruteforce(g, sem) == _alpha_subset_scan(g, sem)


@pytest.mark.long
@pytest.mark.parametrize("variant,q,t", [("plus", 2, 2)] + [
    c for c in ALL_CASES if c[1] * (c[1] - 1) // c[2] <= 26])
def test_bruteforce_equals_the_subset_scan_on_constructions(variant, q, t):
    """Every construction with n <= 26 under both semantics: about 30 s,
    nearly all in the subset scan at n = 24-26."""
    g = graphs.build_g_plus(2, 2) if q == 2 else cached_graph(variant, q, t)
    for sem in SEMANTICS:
        assert alpha_bruteforce(g, sem) == _alpha_subset_scan(g, sem)


# -- budgets -----------------------------------------------------------------------


def test_node_budget_returns_bracket():
    g = cached_graph("plus", 64, 32)
    res = max_independent_set_exact(g, node_budget=10)
    assert not res.exact and res.budget_hit == "nodes"
    assert 0 <= res.lower <= 8 <= res.upper
    assert verify_independent(g, res.witness)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(21)), st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.7]),
       st.integers(0, 2**32 - 1), st.sampled_from(SEMANTICS))
def test_budget_bracket_contains_alpha(n, density, seed, sem):
    # the seeding greedy misses alpha on some of these graphs, so an unsound
    # upper bound shows up as upper < alpha at some budget
    rng = random.Random(seed)  # pairs include (u, u), so loops appear too
    g = from_edges(n, [(u, v) for u in range(n) for v in range(u, n) if rng.random() < density])
    alpha = alpha_bruteforce(g, sem) if n else 0
    for budget in range(61):
        res = max_independent_set_exact(g, semantics=sem, node_budget=budget)
        assert res.lower <= alpha <= res.upper
        assert len(set(res.witness)) == res.lower
        assert verify_independent(g, res.witness, sem)


# (lower, exact, nodes_explored) of complete searches: any change to the
# visiting order, the coloring, the prune rule or the root's orbit rule shows
# up as a different node count
COMPLETE_SEARCH_NODES = [
    ("plus", 8, 4, "ignore-loops", (4, True, 2)),
    ("plus", 8, 4, "exclude-looped", (2, True, 2)),
    ("plus", 16, 8, "ignore-loops", (5, True, 4)),
    ("plus", 16, 8, "exclude-looped", (4, True, 3)),
    ("plus", 32, 16, "ignore-loops", (6, True, 42)),
    ("plus", 32, 16, "exclude-looped", (4, True, 8)),
    ("plus", 64, 32, "ignore-loops", (8, True, 221)),
    ("plus", 64, 32, "exclude-looped", (8, True, 13)),
    ("plus", 128, 64, "ignore-loops", (9, True, 4261)),
    ("plus", 128, 64, "exclude-looped", (8, True, 209)),
    ("plus", 256, 128, "ignore-loops", (16, True, 5935)),
    ("plus", 256, 128, "exclude-looped", (16, True, 491)),
    ("plus", 9, 3, "ignore-loops", (8, True, 2)),
    ("plus", 9, 3, "exclude-looped", (5, True, 3)),
    ("plus", 25, 5, "ignore-loops", (24, True, 2811)),
    ("plus", 25, 5, "exclude-looped", (16, True, 6100)),
    ("gnp", 100, 0.05, 1, (45, True, 402)),
    ("gnp", 100, 0.1, 2, (32, True, 2399)),
    ("gnp", 100, 0.3, 0, (14, True, 2904)),
    ("gnp", 100, 0.3, 1, (15, True, 2096)),
    ("gnp", 100, 0.3, 2, (15, True, 1228)),
    ("gnp", 100, 0.3, 3, (15, True, 1924)),
]


@pytest.mark.parametrize("kind,a,b,c,expected", COMPLETE_SEARCH_NODES)
def test_complete_search_node_counts(kind, a, b, c, expected):
    if kind == "plus":  # plus(q, t) under semantics c
        g, sem = cached_graph("plus", a, b), c
    else:  # G(n, p) drawn with seed c
        g, sem = sample_gnp(a, b, seed=c), "ignore-loops"
    res = max_independent_set_exact(g, semantics=sem)
    assert (res.lower, res.exact, res.nodes_explored) == expected
    assert verify_independent(g, res.witness, sem)


def _complement_rows_whole_matrix(g, semantics):
    """Complement rows on the allowed vertices, loops dropped, renumbered by
    non-increasing complement degree, lower index on ties: the whole n x n
    matrix, copied to bool and copied again by np.ix_."""
    mask = _allowed(g, semantics)
    order = sorted(_bits(mask), key=lambda v: (g.rows[v] & mask & ~(1 << v)).bit_count())
    comp_bits = g.adjacency_matrix(dtype=np.bool_)[np.ix_(order, order)]
    np.logical_not(comp_bits, out=comp_bits)
    np.fill_diagonal(comp_bits, False)
    return _pack_rows(comp_bits), order


def _class_rows_whole_matrix(g, semantics):
    """The class rows the search reads, v's allowed G-neighbours without v,
    taken from the complement oracle above as ``full ^ comp[v] ^ (1 << v)``."""
    comp, order = _complement_rows_whole_matrix(g, semantics)
    full = (1 << len(order)) - 1
    return [full ^ row ^ (1 << v) for v, row in enumerate(comp)], order


def _looped_gnp(n, p, seed):
    """G(n, p) plus a loop at every seventh vertex, so exclude-looped drops some."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges + [(v, v) for v in range(0, n, 7)])


@pytest.mark.parametrize("sem", SEMANTICS)
@pytest.mark.parametrize("make", [
    lambda: cached_graph("plus", 9, 3),
    lambda: cached_graph("plus", 32, 2),  # n = 496
    lambda: cached_graph("plus", 64, 4),  # n = 1008, two blocks
    lambda: cached_graph("times", 25, 2),
    lambda: cached_graph("times", 49, 3),  # n = 784
    lambda: _looped_gnp(1100, 0.01, 1),  # three blocks
    lambda: _looped_gnp(600, 0.5, 2),
    lambda: from_edges(513, [(0, 512), (512, 512)]),
], ids=["plus9-3", "plus32-2", "plus64-4", "times25-2", "times49-3", "gnp1100", "gnp600",
        "n513"])
def test_complement_rows_match_whole_matrix_oracle(make, sem):
    g = make()
    assert _class_rows(g, sem) == _class_rows_whole_matrix(g, sem)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.sampled_from(SEMANTICS))
def test_complement_rows_match_whole_matrix_oracle_on_small_graphs(g, sem):
    assert _class_rows(g, sem) == _class_rows_whole_matrix(g, sem)


def test_complement_rows_peak_stays_below_n_squared_bytes():
    """The class rows are gathered 512 rows at a time: on a sparse n = 3000
    graph the traced peak stays under the n^2 bytes of one unpacked matrix."""
    n = 3000
    rng = random.Random(5)
    g = from_edges(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)])
    tracemalloc.start()
    try:
        _class_rows(g, "ignore-loops")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_time_budget_returns_bracket():
    g = cached_graph("times", 121, 2)  # big enough that 0 seconds always trips
    res = max_independent_set_exact(g, time_budget=0.0)
    assert not res.exact and res.budget_hit == "time" and res.time_limit_hit
    assert res.lower <= res.upper
    # the setup spent the budget, so no node ran: the bracket is the seeding
    # greedy against the number of allowed vertices
    assert res.nodes_explored == 0
    assert (res.lower, res.upper) == (greedy_alpha(g)[0], g.n)


# -- the search against the complement-row loop it replaced --------------------------


def _max_independent_set_parent(g, *, semantics="ignore-loops", node_budget=10**8,
                                 time_budget=300.0):
    """The search as it ran on complement rows: each class vertex cleared its
    complement neighbours with ``avail &= ~comp[v]``, every class went through
    one loop that tested ``color >= kmin``, and a child was ``P & comp[v]``.
    Its rows come from the whole-matrix oracle, not from the code under test."""
    start = time.monotonic()
    deadline = start + time_budget
    comp, order = _complement_rows_whole_matrix(g, semantics)

    seed = set(_min_degree_greedy(g, semantics))
    best = len(seed)
    best_mask = 0
    for k, v in enumerate(order):
        if v in seed:
            best_mask |= 1 << k
    nodes = 0
    hit = None
    path = []
    size, mask, P = 0, 0, (1 << len(comp)) - 1
    while True:
        if not nodes & 1023 and time.monotonic() > deadline:
            hit = "time"
            break
        nodes += 1
        if nodes > node_budget:
            hit = "nodes"
            break
        if P:
            kmin = best - size + 1
            branch = []
            bounds = []
            color = 0
            rest = P
            while rest:
                color += 1
                avail = rest
                while avail:
                    low = avail & -avail
                    v = low.bit_length() - 1
                    avail ^= low
                    avail &= ~comp[v]
                    rest ^= low
                    if color >= kmin:
                        branch.append(v)
                        bounds.append(color)
            path.append([size, mask, P, branch, bounds, 0])
        elif size > best:
            best, best_mask = size, mask
        while path:
            frame = path[-1]
            branch = frame[3]
            if branch:
                size = frame[0]
                color = frame[4].pop()
                v = branch.pop()
                if size + color > best:
                    frame[5] = size + color
                    bit = 1 << v
                    P = frame[2] = frame[2] & ~bit
                    size, mask, P = size + 1, frame[1] | bit, P & comp[v]
                    break
            path.pop()
        else:
            break

    if path:
        upper = max(best, *(frame[5] for frame in path))
    else:
        upper = len(comp) if hit else best
    return AlphaResult(
        lower=best,
        upper=upper,
        exact=hit is None,
        witness=tuple(sorted(order[k] for k in _bits(best_mask))),
        nodes_explored=nodes,
        time_limit_hit=hit is not None,
        loop_semantics=semantics,
        seconds=time.monotonic() - start,
        budget_hit=hit,
    )


def _same_search(g, sem, **budgets):
    """Both searches on g; their results must agree in every field but seconds."""
    new = max_independent_set_exact(g, semantics=sem, **budgets)
    old = _max_independent_set_parent(g, semantics=sem, **budgets)
    assert dataclasses.replace(new, seconds=0.0) == dataclasses.replace(old, seconds=0.0)
    return new


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_graphs(), _seeded_graphs()), st.sampled_from(SEMANTICS))
def test_search_matches_parent_oracle_on_small_graphs(g, sem):
    for budget in range(61):
        _same_search(g, sem, node_budget=budget)


def _without_orbits(monkeypatch):
    """The search with no verified map: every vertex its own orbit, so the
    root branches as every other node does."""
    monkeypatch.setattr(independence, "_orbit_rows", lambda g, order: [0] * len(order))


@pytest.mark.parametrize("kind,a,b,c,expected", COMPLETE_SEARCH_NODES)
def test_search_matches_parent_oracle_on_complete_searches(monkeypatch, kind, a, b, c, expected):
    if kind == "plus":
        g, sem = cached_graph("plus", a, b), c
    else:
        g, sem = sample_gnp(a, b, seed=c), "ignore-loops"
    _without_orbits(monkeypatch)
    full = _same_search(g, sem)
    assert (full.lower, full.exact) == expected[:2]
    # a = 8 under ignore-loops takes seconds per search, so it runs once
    slow = (kind, a, c) == ("plus", 256, "ignore-loops")
    for budget in [] if slow else [0, 1, 37, 500]:
        assert _same_search(g, sem, node_budget=budget).budget_hit == (
            "nodes" if budget < full.nodes_explored else None)


def _clock_passing_after(reads):
    """A ``time.monotonic`` that reads 0.0 for its first ``reads`` calls and
    1e9 after them."""
    calls = itertools.count()
    return lambda: 0.0 if next(calls) < reads else 1e9


def test_search_matches_parent_oracle_under_a_time_budget(monkeypatch):
    # n = 254 is one row block, so both searches read the clock at
    # entry, at node 0 and at node 1024, and stop at node 2048 of 43,310
    g = cached_graph("plus", 128, 64)
    _without_orbits(monkeypatch)
    monkeypatch.setattr(independence.time, "monotonic", _clock_passing_after(3))
    new = max_independent_set_exact(g, time_budget=60.0)
    monkeypatch.setattr(independence.time, "monotonic", _clock_passing_after(3))
    old = _max_independent_set_parent(g, time_budget=60.0)
    assert dataclasses.replace(new, seconds=0.0) == dataclasses.replace(old, seconds=0.0)
    assert new.budget_hit == "time" and new.nodes_explored == 2048


@pytest.mark.parametrize("sem", SEMANTICS)
def test_time_budget_is_read_between_complement_blocks(monkeypatch, sem):
    """The deadline passes while the first 512-row block is built: the
    class-row build stops there and the search returns the node-0 bracket."""
    g = _looped_gnp(1100, 0.01, 1)  # three blocks, two under exclude-looped
    blocks = []
    unpack = independence._unpack_rows

    def counting_unpack(rows, n):
        blocks.append(len(rows))
        return unpack(rows, n)

    monkeypatch.setattr(independence, "_unpack_rows", counting_unpack)
    monkeypatch.setattr(independence.time, "monotonic", lambda: 100.0 * len(blocks))
    res = max_independent_set_exact(g, semantics=sem, time_budget=10.0)
    assert blocks == [512]
    assert res.budget_hit == "time" and res.time_limit_hit and not res.exact
    assert res.nodes_explored == 0
    assert (res.lower, res.upper) == (greedy_alpha(g, sem)[0], _allowed(g, sem).bit_count())


@pytest.mark.parametrize("sem", SEMANTICS)
def test_complement_memory_is_checked_before_the_first_block(monkeypatch, sem):
    """m allowed vertices need m rows of m bits: past physical memory the
    search refuses before any row block is unpacked."""
    g = _looped_gnp(1100, 0.01, 1)
    m = _allowed(g, sem).bit_count()
    blocks = []
    unpack = independence._unpack_rows

    def counting_unpack(rows, n):
        blocks.append(len(rows))
        return unpack(rows, n)

    monkeypatch.setattr(independence, "_unpack_rows", counting_unpack)
    monkeypatch.setattr(graphs, "_physical_memory", lambda: m * m // 8)
    with pytest.raises(ValueError, match=f"class rows of {m} allowed vertices"):
        max_independent_set_exact(g, semantics=sem)
    assert blocks == []
    monkeypatch.setattr(graphs, "_physical_memory", lambda: m * m // 8 + 512 * (g.n + 2 * m))
    assert max_independent_set_exact(g, semantics=sem, node_budget=0).budget_hit == "nodes"
    assert blocks[0] == 512


# -- the root's orbit rule ----------------------------------------------------------


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("plus", 16, 8), ("times", 7, 3)])
def test_tampered_files_search_as_without_orbits(monkeypatch, variant, q, t):
    """Double-edge swaps keep the file regular; one closed under a kept map
    keeps that map and may break others, the check drops those, and the
    search proves what it proves with no orbits at all."""
    g = cached_graph(variant, q, t)
    rng = random.Random(f"{variant}/{q}/{t}")
    files = [swapped(g, rng, closed=k % 2 == 1) for k in range(60)]
    assert all(h._symmetry[1] is not None for h in files[1::2])
    for h in files:
        for sem in SEMANTICS:
            res = max_independent_set_exact(h, semantics=sem)
            with monkeypatch.context() as m:
                _without_orbits(m)
                plain = max_independent_set_exact(h, semantics=sem)
            assert res.exact and (res.lower, res.upper) == (plain.lower, plain.upper)
            assert verify_independent(h, res.witness, sem)


@pytest.mark.parametrize("sem", SEMANTICS)
@pytest.mark.parametrize("variant,q,t", [c for c in ALL_CASES if c[1] * (c[1] - 1) // c[2] <= 26])
def test_orbit_search_equals_bruteforce_on_constructions(variant, q, t, sem):
    g = cached_graph(variant, q, t)
    alpha = alpha_bruteforce(g, sem)
    res = max_independent_set_exact(g, semantics=sem)
    assert res.exact and res.lower == alpha
    for budget in range(61):
        res = max_independent_set_exact(g, semantics=sem, node_budget=budget)
        assert res.lower <= alpha <= res.upper
        assert len(set(res.witness)) == res.lower
        assert verify_independent(g, res.witness, sem)


@pytest.mark.long
def test_conjecture_a9_a10_are_exact():
    """plus(512, 256) and plus(1024, 512) under both semantics: about a
    minute on a 2-core box, nearly all of it a = 10 under ignore-loops."""
    for a, lowers, matching in ((9, (17, 16), ["ignore-loops"]),
                                (10, (32, 32), ["ignore-loops", "exclude-looped"])):
        rep = conjecture_check(a=a)
        assert rep["status"] == "match" and rep["matching_semantics"] == matching
        assert [(rep["results"][sem]["lower"], rep["results"][sem]["exact"])
                for sem in SEMANTICS] == [(lowers[0], True), (lowers[1], True)]


# -- explicit residue set ------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_explicit_qr_set_is_independent(p):
    g = cached_graph("plus", p * p, p)
    vs = explicit_qr_set(p, g)
    assert len(vs) == (p * p - 1) // 2 == p * p // 2
    assert verify_independent(g, vs, "ignore-loops")


def test_explicit_qr_set_builds_no_graph_when_none_is_passed(monkeypatch):
    """The set depends on p alone, so without a graph no construction runs."""
    expected = {p: explicit_qr_set(p, cached_graph("plus", p * p, p)) for p in (3, 5, 7)}
    monkeypatch.setattr(independence, "build_g_plus", None)
    assert {p: explicit_qr_set(p) for p in (3, 5, 7)} == expected


def test_explicit_qr_set_validation():
    with pytest.raises(ValueError):
        explicit_qr_set(4)
    with pytest.raises(ValueError):
        explicit_qr_set(9)
    with pytest.raises(ValueError):
        explicit_qr_set(3, cached_graph("plus", 8, 4))


def test_qr_set_matches_paper_alpha_lower_bound():
    # the explicit set witnesses alpha >= floor(p^2/2); exact search confirms
    # the full conjectured p^2 - 1 at p = 3
    g = cached_graph("plus", 9, 3)
    assert max_independent_set_exact(g).lower == 8 == g.meta.q - 1


# -- conjecture reports ---------------------------------------------------------------


def test_conjecture_check_odd_square():
    rep = conjecture_check(p=3)
    assert rep["family"] == "odd-square" and rep["status"] == "match"
    assert rep["conjectured_alpha"] == 8
    assert "ignore-loops" in rep["matching_semantics"]
    assert rep["in_conjecture_scope"]


def test_conjecture_check_even_char_small_a_uses_reference():
    rep = conjecture_check(a=3)
    assert rep["reference_alpha"] == KNOWN_EVEN_CHAR_ALPHA[3] == 4
    assert rep["status"] == "match"
    assert not rep["in_conjecture_scope"]


def test_conjecture_check_budget_exhaustion():
    rep = conjecture_check(a=6, node_budget=5)
    assert rep["status"] == "inconclusive-budget"


def test_conjecture_check_argument_validation():
    with pytest.raises(ValueError):
        conjecture_check()
    with pytest.raises(ValueError):
        conjecture_check(a=4, p=3)
    with pytest.raises(ValueError):
        conjecture_check(p=4)
    with pytest.raises(ValueError):
        conjecture_check(a=1)
