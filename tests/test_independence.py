"""Exact independence search: known values, oracle equivalence, budget behavior."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseycert.graphs import from_edges
from ramseycert.random_model import lemma_parameters, sample_gnp
from ramseycert.independence import (
    KNOWN_EVEN_CHAR_ALPHA,
    SEMANTICS,
    alpha_bruteforce,
    conjecture_check,
    explicit_qr_set,
    greedy_alpha,
    max_independent_set_exact,
    verify_independent,
)
from conftest import cached_graph


def small_graphs(max_n=14, max_edges=40):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=max_edges),
        )
    ).map(lambda t: from_edges(t[0], t[1]))


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


@settings(max_examples=60, deadline=None)
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


def test_time_budget_returns_bracket():
    g = cached_graph("times", 121, 2)  # big enough that 0 seconds always trips
    res = max_independent_set_exact(g, time_budget=0.0)
    assert not res.exact and res.budget_hit == "time" and res.time_limit_hit
    assert res.lower <= res.upper
    # the setup spent the budget, so no node ran: the bracket is the seeding
    # greedy against the number of allowed vertices
    assert res.nodes_explored == 0
    assert (res.lower, res.upper) == (greedy_alpha(g)[0], g.n)


# -- explicit residue set ------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_explicit_qr_set_is_independent(p):
    g = cached_graph("plus", p * p, p)
    vs = explicit_qr_set(p, g)
    assert len(vs) == (p * p - 1) // 2 == p * p // 2
    assert verify_independent(g, vs, "ignore-loops")


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
