"""Construction audits against frozen histograms and the g2t format round trip."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramseycert.graphs import (
    GraphMeta,
    build_g_plus,
    build_g_times,
    codegree_histogram,
    common_neighbors,
    from_edges,
    from_g2t,
    structural_audit,
    to_g2t,
)
from conftest import ALL_CASES, cached_graph

SMALL_CASES = [c for c in ALL_CASES if c[1] <= 64]


def expected_codegree_hist(variant: str, q: int, t: int) -> dict[int, int]:
    """Derived three-bin histogram.

    Same-coset pairs share t-1 common neighbors, pairs with equal field element
    but different cosets share 0, and every other pair shares exactly t.
    """
    if variant == "plus":
        ncos, per = q // t, q - 1
    else:
        ncos, per = (q - 1) // t, q
    n = ncos * per
    same_coset = ncos * math.comb(per, 2)
    same_elem = per * math.comb(ncos, 2)
    rest = math.comb(n, 2) - same_coset - same_elem
    hist: dict[int, int] = {}
    for count, weight in ((t - 1, same_coset), (0, same_elem), (t, rest)):
        if weight:
            hist[count] = hist.get(count, 0) + weight
    return hist


# -- frozen desk oracles ---------------------------------------------------------


def test_plus_9_3_oracle():
    rep = structural_audit(cached_graph("plus", 9, 3))
    assert rep.n == 24 and rep.n_formula_ok
    assert rep.degree_histogram == {8: 24} and rep.degree_claim_ok
    assert rep.loop_count == 8 and rep.loop_claim_ok
    assert rep.common_nbhd_histogram == {0: 24, 2: 84, 3: 168}
    assert rep.max_common == 3 and rep.k2t1_free
    assert rep.exactly_t_all_pairs is False  # three bins, not one
    assert rep.passed


def test_times_5_2_oracle():
    rep = structural_audit(cached_graph("times", 5, 2))
    assert rep.n == 10
    assert rep.common_nbhd_histogram == {0: 5, 1: 20, 2: 20}
    assert rep.loop_count == 4 and rep.loop_claim_ok
    assert rep.passed


@pytest.mark.parametrize("variant,q,t", SMALL_CASES)
def test_audit_against_derived_histogram(variant, q, t):
    g = cached_graph(variant, q, t)
    rep = structural_audit(g)
    assert rep.passed, (variant, q, t)
    assert rep.n == (q * (q - 1)) // t
    assert rep.degree_histogram == {q - 1: rep.n}
    assert rep.common_nbhd_histogram == expected_codegree_hist(variant, q, t)
    assert rep.max_common <= t  # the K_{2,t+1}-freeness guarantee


@pytest.mark.parametrize("variant,q,t", SMALL_CASES)
def test_loop_counts(variant, q, t):
    g = cached_graph(variant, q, t)
    p = g.meta.p
    if variant == "plus" and p == 2:
        expected = (t - 1) * q // t
    elif variant == "times" and p == 2:
        expected = 0
    else:
        expected = q - 1
    assert g.loop_count() == expected
    rep = structural_audit(g)
    assert rep.loop_claim_ok is (expected == q - 1)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_g_plus(6, 2)  # not a prime power
    with pytest.raises(ValueError):
        build_g_plus(9, 2)  # t must be a power of p dividing q
    with pytest.raises(ValueError):
        build_g_times(9, 3)  # 3 does not divide q - 1 = 8
    with pytest.raises(ValueError):
        build_g_times(9, 1)


# -- adjacency machinery -----------------------------------------------------------


def test_adjacency_matrix_matches_rows():
    g = cached_graph("times", 7, 3)
    m = g.adjacency_matrix(dtype=np.int64)
    assert m.shape == (g.n, g.n)
    assert (m == m.T).all()
    for i in range(g.n):
        assert m[i].sum() == g.degree(i) == g.meta.q - 1
        assert set(np.flatnonzero(m[i])) == set(g.neighbors(i))


def test_common_neighbors_is_m2_entry():
    g = cached_graph("plus", 8, 4)
    m = g.adjacency_matrix(dtype=np.int64)
    m2 = m @ m
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert len(common_neighbors(g, u, v)) == m2[u, v]


def test_codegree_histogram_gemm_path_matches_python_path():
    # the GEMM histogram against a python pair scan over common_neighbors
    g = cached_graph("times", 13, 2)
    slow = Counter(len(common_neighbors(g, u, v))
                   for u in range(g.n) for v in range(u + 1, g.n))
    assert codegree_histogram(g) == dict(slow)


def test_from_edges_and_loops():
    g = from_edges(4, [(0, 1), (1, 2), (3, 3)])
    assert g.degree(3) == 1 and g.has_loop(3)
    assert g.edge_count() == 3
    assert g.loop_count() == 1
    assert common_neighbors(g, 0, 2) == [1]
    with pytest.raises(ValueError):
        from_edges(3, [(0, 5)])


# -- g2t format ------------------------------------------------------------------


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 7, 2), ("plus", 16, 4)])
def test_g2t_round_trip_is_byte_identical(variant, q, t):
    g = cached_graph(variant, q, t)
    text = to_g2t(g)
    g2 = from_g2t(text)
    assert g2 == g
    assert to_g2t(g2) == text
    assert text.endswith("\n") and "\r" not in text


def test_g2t_header_carries_construction_metadata():
    g = cached_graph("plus", 9, 3)
    header = to_g2t(g).splitlines()[0]
    assert header == "g2t v1 variant=plus p=3 a=2 q=9 t=3 n=24"


@settings(max_examples=40)
@given(st.data())
def test_g2t_round_trip_synthetic(data):
    n = data.draw(st.integers(1, 16))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    g = from_edges(n, edges, meta=GraphMeta(variant="other", p=0, a=0, q=0, t=0))
    assert from_g2t(to_g2t(g)) == g


@pytest.mark.parametrize("mangle", [
    lambda s: "g3t" + s[3:],                        # bad magic
    lambda s: s.replace(" n=24", " n=23", 1),       # header count mismatch
    lambda s: s + "e 0 99\n",                       # edge out of range
    lambda s: s + "w 1 2\n",                        # unknown record type
    lambda s: s.replace("e 0", "e 1000000", 1),     # vertex index out of range
])
def test_g2t_rejects_malformed(mangle):
    text = to_g2t(cached_graph("plus", 9, 3))
    with pytest.raises(ValueError):
        from_g2t(mangle(text))


@pytest.mark.parametrize("variant,q,t,line,label", [
    ("plus", 9, 3, 1, "v 0 0 2"),      # a unit of GF(9), but vertex 1's
    ("plus", 9, 3, 8, "v 7 0 0"),      # 0 is not a unit, so no plus vertex
    ("times", 7, 2, 1, "v 0 0 1"),     # element 1 belongs to vertex 1
    ("times", 7, 2, 8, "v 7 1 1"),     # coset 1, element 1 is vertex 8
])
def test_g2t_rejects_labels_off_the_construction(variant, q, t, line, label):
    lines = to_g2t(cached_graph(variant, q, t)).splitlines(keepends=True)
    lines[line] = label + "\n"
    with pytest.raises(ValueError, match="label"):
        from_g2t("".join(lines))
