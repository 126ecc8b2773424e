"""Construction audits against frozen histograms and the g2t format round trip."""

import contextlib
import dataclasses
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ramseycert import cli, graphs
from ramseycert.fields import factorize, make_field, subgroup
from ramseycert.graphs import (
    Graph,
    GraphMeta,
    _bits,
    _check_construction,
    _layout,
    build_g_plus,
    build_g_times,
    codegree_histogram,
    from_g2t,
    structural_audit,
    to_g2t,
)
from ramseycert.random_model import k2t_witness_count, lemma_parameters, sample_gnp
from ramseycert.spectral import SpectralSolveError, verify_spectrum
from conftest import (ALL_CASES, cached_graph, codegree_dict_histogram, common_neighbors,
                      from_edges, from_rows, swapped)

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


# -- the table-driven builders against the scalar loop ------------------------


def loop_build(variant: str, q: int, t: int) -> Graph:
    """Reference construction: one scalar field operation per (u, y) pair,
    each edge OR-ed into both endpoints' rows."""
    ((p, a),) = factorize(q).items()
    F = make_field(p, a)
    H = subgroup(F, "additive" if variant == "plus" else "multiplicative", t)
    elems = list(F.units()) if variant == "plus" else list(F.elements())
    index = {(cid, x): k for k, (cid, x) in
             enumerate((cid, x) for cid in range(H.num_cosets) for x in elems)}
    rows = [0] * len(index)
    for (ca, x), u in index.items():
        arep = H.reps[ca]
        for y in elems:
            if variant == "plus":
                cb = H.coset_id[F.sub(F.mul(x, y), arep)]
            else:
                s = F.add(x, y)
                if s == 0:
                    continue  # 0 lies in no unit coset
                cb = H.coset_id[F.mul(s, F.inv(arep))]
            v = index[(cb, y)]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return from_rows(tuple(rows), tuple(index),
                     GraphMeta(variant=variant, p=p, a=a, q=q, t=t))


@pytest.mark.parametrize("variant,q,t", [c for c in ALL_CASES if c[1] * (c[1] - 1) // c[2] <= 1000]
                         + [("plus", 2, 2), ("plus", 4, 4), ("times", 3, 2), ("times", 4, 3)])
def test_builders_equal_the_loop_oracle(variant, q, t):
    assert cached_graph(variant, q, t) == loop_build(variant, q, t)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_g_plus(6, 2)  # not a prime power
    with pytest.raises(ValueError):
        build_g_plus(9, 2)  # t must be a power of p dividing q
    with pytest.raises(ValueError):
        build_g_times(9, 3)  # 3 does not divide q - 1 = 8
    with pytest.raises(ValueError):
        build_g_times(9, 1)


def test_build_refuses_beyond_physical_memory(monkeypatch):
    with pytest.raises(ValueError, match="physical memory"):
        build_g_plus(2**1000, 2)  # an estimate no float can hold
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 1000)
    with pytest.raises(ValueError, match="physical memory"):
        build_g_plus(9, 3)
    with pytest.raises(ValueError, match="physical memory"):
        build_g_times(7, 2)


def test_walk_matrix_refuses_beyond_physical_memory(monkeypatch):
    # plus(9,3), n = 24: with its field maps kept, the audit and the M^2 = Q
    # check read rows of M^2 off the neighbour arrays and hold no n x n array
    g = build_g_plus(9, 3)
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 1000)
    assert structural_audit(g).passed and verify_spectrum(g).passed
    # a graph with no kept map: a 2-regular one counts its 96 2-walks' pairs
    # (40 bytes a walk); a 6-regular one, 864 walks past n^2/2, holds M as
    # bytes and as float32 (24^2 * 5 bytes)
    sparse = from_edges(24, [(u, (u * 5 + 1) % 24) for u in range(24)])
    dense = from_edges(24, [(u, (u + k) % 24) for u in range(24) for k in (1, 2, 5)])
    for free, need in ((sparse, 40 * 96), (dense, 24 * 24 * 5)):
        monkeypatch.setattr(graphs, "_physical_memory", lambda: need)
        assert structural_audit(free).n == 24
        monkeypatch.setattr(graphs, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="physical memory"):
            structural_audit(free)
    # a file whose M^2 is not Q takes the dense route, 21 n^2 bytes
    rows = list(g.rows)
    rows[0] ^= 1
    toggled = from_rows(tuple(rows), g.labels, g.meta)
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 21 * 24 * 24 - 1)
    with pytest.raises(ValueError, match="physical memory"):
        verify_spectrum(toggled)


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
    # the histogram, here Q's closed form, and the GEMM against a python
    # pair scan over common_neighbors
    g = cached_graph("times", 13, 2)
    slow = dict(Counter(len(common_neighbors(g, u, v))
                        for u in range(g.n) for v in range(u + 1, g.n)))
    assert g._m2_is_q
    assert codegree_histogram(g) == slow
    assert graphs._codegree_histogram_gemm(g) == slow


def test_codegree_histogram_spans_row_blocks():
    # each 512-row block of M^2 is read from its first row on: n = 666 (one
    # full block and a part), 2016 (four) and 1025 with loops (the last block
    # has one row)
    noise = sample_gnp(1025, 0.1, 5)
    looped = from_rows(tuple(r | (i % 3 == 0) << i for i, r in enumerate(noise.rows)),
                       noise.labels, noise.meta)
    for g in (build_g_times(37, 2), build_g_plus(64, 2), looped):
        m = g.adjacency_matrix(dtype=np.int64)
        m2 = np.stack([m[g.neighbors(u)].sum(axis=0) for u in range(g.n)])  # int64 M @ M
        want = dict(Counter(m2[np.triu_indices(g.n, 1)].tolist()))
        assert codegree_histogram(g) == graphs._codegree_histogram_gemm(g) == want


def _counters_called(audit, g):
    """``audit(g)`` and the counters it called: none for Q's closed form,
    else ``_codegree_counts`` or ``_codegree_histogram_gemm``."""
    called = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_codegree_counts", "_codegree_histogram_gemm"):
            mp.setattr(graphs, name, lambda h, f=getattr(graphs, name), name=name:
                       called.append(name) or f(h))
        return audit(g), called


def _walks(g):
    return int(np.diff(g.start)[g.nbr].sum())


def _assert_path_and_oracles(g):
    """The histogram takes the pair count at most n^2/2 2-walks and the GEMM
    past them, and equals both the GEMM and the pair-dict oracle."""
    hist, called = _counters_called(codegree_histogram, g)
    cut = 2 * _walks(g) <= g.n * g.n
    assert called == ["_codegree_counts" if cut else "_codegree_histogram_gemm"]
    assert hist == graphs._codegree_histogram_gemm(g) == codegree_dict_histogram(g)
    return cut


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_codegree_histogram_switches_at_n2_over_2_walks(n, loops, seed):
    """A drawn edge order: the graphs on its first k and k + 1 edges lie just
    below and just above the cut, with loops or without."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    for k, (u, v) in enumerate(pairs):
        deg[u] += 1
        deg[v] += u != v
        if 2 * sum(d * d for d in deg) > n * n:
            break
    below, above = from_edges(n, pairs[:k]), from_edges(n, pairs[:k + 1])
    assert 2 * _walks(below) <= n * n < 2 * _walks(above)
    assert _assert_path_and_oracles(below) and not _assert_path_and_oracles(above)


def test_codegree_histogram_on_graphs_of_at_most_two_vertices():
    """Every graph on 0, 1 and 2 vertices, loops included: 11 graphs, both paths."""
    cuts = set()
    for n in (0, 1, 2):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for mask in range(1 << len(pairs)):
            g = from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            cuts.add(_assert_path_and_oracles(g))
    assert cuts == {True, False}


def test_recipe_sample_audit_takes_the_pair_count():
    """The n = 2,096 recipe sample (about 20k 2-walks) is audited without
    the GEMM, and its witness count reads the same histogram."""
    r = lemma_parameters(100, 10, 1.0)
    g = sample_gnp(r.n, r.p, r.seed)
    want = codegree_dict_histogram(g)
    audit, called = _counters_called(structural_audit, g)
    assert called == ["_codegree_counts"]
    assert audit.common_nbhd_histogram == want
    assert sum(want.values()) == math.comb(g.n, 2)
    assert k2t_witness_count(g, 2) == sum(k * math.comb(c, 2) for c, k in want.items())


def test_dense_sample_audit_takes_the_gemm():
    """G(300, 0.3), about 2.4M 2-walks, past n^2/2 = 45,000: the GEMM, equal
    to the int64 M @ M."""
    g = sample_gnp(300, 0.3, 0)
    audit, called = _counters_called(structural_audit, g)
    assert called == ["_codegree_histogram_gemm"]
    m = g.adjacency_matrix(dtype=np.int64)
    assert audit.common_nbhd_histogram == dict(Counter((m @ m)[np.triu_indices(g.n, 1)].tolist()))


def test_from_edges_and_loops():
    g = from_edges(4, [(0, 1), (1, 2), (3, 3)])
    assert g.degree(3) == 1 and g.rows[3] >> 3 & 1
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
    lambda s: s.replace("e 0 ", "e +0 ", 1),        # signed number
    lambda s: s.replace("e 0 ", "e \u0660 ", 1),    # non-ASCII digit
    lambda s: s.replace("\ne ", "\fe ", 1),         # form feed as a line break
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


# -- g2t against the loop oracles ------------------------------------------------


def loop_to_g2t(g: Graph) -> str:
    """Reference writer: one f-string per vertex and per edge, the edges of
    each row read off its bitset from the diagonal up."""
    m = g.meta
    lines = [f"g2t v1 variant={m.variant} p={m.p} a={m.a} q={m.q} t={m.t} n={g.n}"]
    for i, (cid, x) in enumerate(g.labels):
        lines.append(f"v {i} {cid} {x}")
    for u in range(g.n):
        lines += [f"e {u} {u + k}" for k in _bits(g.rows[u] >> u)]  # v = u + k >= u
    return "\n".join(lines) + "\n"


def _loop_g2t_header(line: str, max_n: int) -> tuple[GraphMeta, int]:
    fields = {}
    for tok in line.split()[2:]:
        key, eq, value = tok.partition("=")
        if not eq or key in fields:
            raise ValueError(f"g2t header token {tok!r} is not a new key=value")
        fields[key] = value
    missing = [k for k in ("variant", "p", "a", "q", "t", "n") if k not in fields]
    if missing:
        raise ValueError(f"g2t header lacks {', '.join(k + '=' for k in missing)}")
    p, a, q, t, n = (int(fields[k]) for k in ("p", "a", "q", "t", "n"))
    if min(p, a, q, t, n) < 0:
        raise ValueError("g2t header counts must be non-negative")
    if n > max_n:
        raise ValueError(f"header says n = {n} but only {max_n} lines follow it")
    meta = GraphMeta(variant=fields["variant"], p=p, a=a, q=q, t=t)
    if meta.variant in ("plus", "times"):
        _check_construction(meta, n)
    return meta, n


def loop_from_g2t(text: str) -> Graph:
    """Reference parser: ``str.splitlines``, ``str.split`` and ``int`` per
    line, each edge OR-ed into both endpoints' rows."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("g2t v1 "):
        raise ValueError("not a g2t v1 file")
    meta, n = _loop_g2t_header(lines[0], len(lines) - 1)
    labels: list = [None] * n
    rows = [0] * n
    seen_v = 0
    for ln in lines[1:]:
        parts = ln.split()
        if not parts:
            continue
        if parts[0] == "e" and len(parts) == 3:
            u, v = int(parts[1]), int(parts[2])
            if not (0 <= u <= v < n):
                raise ValueError(f"edge ({u}, {v}) malformed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        elif parts[0] == "v" and len(parts) == 4:
            i, cid, x = int(parts[1]), int(parts[2]), int(parts[3])
            if not 0 <= i < n:
                raise ValueError(f"vertex index {i} out of range")
            if labels[i] is not None:
                raise ValueError(f"vertex {i} has more than one v line")
            labels[i] = (cid, x)
            seen_v += 1
        else:
            raise ValueError(f"malformed g2t line {ln!r}")
    if seen_v != n:
        raise ValueError(f"expected {n} vertex lines, saw {seen_v}")
    if meta.variant in ("plus", "times"):
        width, first = _layout(meta.variant, meta.q)
        for i, label in enumerate(labels):
            if label != (i // width, i % width + first):
                raise ValueError(f"vertex {i} has label {label}")
    return from_rows(tuple(rows), tuple(labels), meta)


OTHER = GraphMeta(variant="other")
EDGE_CASE_GRAPHS = {
    "empty": from_rows((), (), OTHER),
    "one-vertex": from_rows((0,), ((0, 0),), OTHER),
    "one-loop": from_rows((1,), ((0, 0),), OTHER),
    "isolated": from_edges(700, [(3, 600), (699, 699)]),
    "loops": from_edges(6, [(0, 0), (2, 2), (2, 5), (5, 5)]),
    "plus-4-4": build_g_plus(4, 4),  # n = 3, labels (0, 1), (0, 2), (0, 3)
    "big-labels": from_rows((0b110, 0b001, 0b001),
                            ((10**17, 999_999_999_999_999_999), (5, 0), (3, 10**18 - 1)),
                            GraphMeta(variant="other", p=7, a=2, q=49, t=0)),
}
# what from_g2t refuses or reads back as another graph
UNREADABLE_GRAPHS = {
    "negative-label": from_rows((0,), ((0, -1),), OTHER),
    "19-digit-label": from_rows((0,), ((10**18, 0),), OTHER),
    "negative-header": from_rows((), (), GraphMeta("other", t=-1)),
    "19-digit-header": from_rows((), (), GraphMeta("other", p=10**18)),
    "space-in-variant": from_rows((), (), GraphMeta("x foo=1")),
    "control-in-variant": from_rows((), (), GraphMeta("x\x0b")),
    "non-ascii-variant": from_rows((), (), GraphMeta("\xe9")),
}


@pytest.mark.parametrize("name", EDGE_CASE_GRAPHS)
def test_to_g2t_equals_the_loop_writer(name):
    g = EDGE_CASE_GRAPHS[name]
    assert to_g2t(g) == loop_to_g2t(g)


def bitset_to_g2t(g: Graph) -> str:
    """The writer before ``to_g2t`` read the neighbour arrays: 512 rows at a
    time, the rows' upper triangles unpacked, their nonzero entries the
    block's edges in (u, v) order."""
    m = g.meta
    graphs._check_g2t(m, g.labels)
    lines = [f"g2t v1 variant={m.variant} p={m.p} a={m.a} q={m.q} t={m.t} n={g.n}"]
    lines += [f"v {i} {cid} {x}" for i, (cid, x) in enumerate(g.labels)]
    parts = ["\n".join(lines) + "\n"]
    for b in range(0, g.n, 512):
        upper = [r >> u << u for u, r in enumerate(g.rows[b:b + 512], b)]  # v >= u
        width = max(r.bit_length() for r in upper) or 1  # no bit past it
        u, v = np.divmod(np.flatnonzero(graphs._unpack_rows(upper, width).view(np.bool_)), width)
        parts.append(graphs._edge_lines(u + b, v))
    return "".join(parts)


@pytest.mark.parametrize("rows", [(), (0,), (1,), (0b100, 0b011, 0)])
def test_to_g2t_equals_the_bitset_writer_on_rows(rows):
    """Graphs given by rows alone: n = 0, n = 1 with and without its loop,
    and one-way rows (0 -> 2 and 1 -> 0, beside 1's loop)."""
    g = from_rows(rows, tuple((0, i) for i in range(len(rows))), OTHER)
    assert to_g2t(g) == bitset_to_g2t(g)


@pytest.mark.parametrize("rows", [([2], []), ([20], []), ([-1], []), ([], [-(1 << 31)])])
def test_rows_past_n_or_negative_are_refused(rows):
    """Neighbour 2 or 20 in a row of two vertices, or a negative neighbour,
    would be a bit at or past n, or no bit, in the rows; the graph is
    refused."""
    with pytest.raises(ValueError, match=r"a neighbour lies outside \[0, 2\)"):
        Graph(np.cumsum([0, *map(len, rows)]), rows[0] + rows[1], ((0, 0), (0, 1)), OTHER)
    assert Graph([0, 2, 3], [0, 1, 0], ((0, 0), (0, 1)), OTHER).n == 2


TWO, THREE = ((0, 0), (0, 1)), ((0, 0), (0, 1), (0, 2))


@pytest.mark.parametrize("start,nbr,labels,match", [
    ([], [], (), "offsets"),                      # no offset at all
    ([1, 2, 3], [1, 0], TWO, "offsets"),          # not from 0
    ([0, 1, 1], [1, 0], TWO, "offsets"),          # not to len(nbr)
    ([0, 2, 1, 3], [1, 2, 0], THREE, "offsets"),  # decreasing
    ([0, 2, 3], [1, 0, 0], TWO, "ascending"),     # row 0 descends
    ([0, 2, 3], [1, 1, 0], TWO, "ascending"),     # row 0 repeats 1
    ([0, 1, 2], [1, 0], ((0, 0),), "labels"),     # one label for two vertices
    ([0, 1, 2], [1, 0], THREE, "labels"),         # three labels for two
])
def test_malformed_arrays_are_refused(start, nbr, labels, match):
    """Malformed offsets, a row that is not strictly ascending (the rows'
    packing adds each entry's bit) and a label count other than n are
    refused.  A graph of two vertices with one label would be written as a
    g2t file that reads back as no graph."""
    with pytest.raises(ValueError, match=match):
        Graph(start, nbr, labels, OTHER)
    assert Graph([0, 1, 1, 2], [2, 0], ((0, 0), (0, 1), (0, 2)), OTHER).neighbors(2) == [0]


def test_only_the_search_packs_rows(monkeypatch, tmp_path):
    """Building, writing, parsing, auditing and checking the spectrum, of
    constructions and of a tampered file, the K_{2,t} count of a G(n,p)
    draw and the CLI commands that do those read the neighbour arrays
    alone: no bitset row is packed."""
    tampered = to_g2t(swapped(build_g_plus(9, 3), random.Random(3)))  # swapped() reads rows

    def refuse(*args):
        raise AssertionError("bitset rows packed")

    monkeypatch.setattr(graphs, "_rows_from_arrays", refuse)
    for g in (build_g_plus(9, 3), build_g_times(7, 3), from_g2t(tampered)):
        g = from_g2t(to_g2t(g))
        assert structural_audit(g).n == g.n
        with contextlib.suppress(SpectralSolveError):  # the tampered file's moments
            verify_spectrum(g)
    assert k2t_witness_count(sample_gnp(60, 0.3, 1), 2) > 0
    path = str(tmp_path / "t73.g2t")
    for argv in (["build", "--variant", "times", "--q", "7", "--t", "3", "--out", path],
                 ["audit", path], ["spectrum", path], ["import", path],
                 ["export", path, "--out", str(tmp_path / "copy.g2t")]):
        assert cli.main(argv + ["--json"]) == 0, argv


def test_equality_and_hashing_compare_content():
    """Graphs are equal, and hash equal, when their arrays, labels and
    metadata are; the cached rows do not take part."""
    g = cached_graph("plus", 9, 3)
    parsed = from_g2t(to_g2t(g))
    assert parsed is not g and parsed == g and hash(parsed) == hash(g)
    assert parsed.rows == g.rows
    assert swapped(g, random.Random(3)) != g
    assert dataclasses.replace(g, meta=GraphMeta("other")) != g
    assert g != g.rows and len({g, parsed, from_g2t(to_g2t(g))}) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_to_g2t_equals_the_bitset_writer(data):
    """Looped graphs up to two 512-row blocks, from their rows and parsed."""
    n = data.draw(st.integers(1, 40) | st.integers(1, 600))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    g = from_edges(n, edges + [(v, v) for v in data.draw(st.lists(vertex, max_size=5))])
    text = bitset_to_g2t(g)
    assert to_g2t(g) == text == to_g2t(from_g2t(text))


@pytest.mark.parametrize("name", UNREADABLE_GRAPHS)
def test_to_g2t_refuses_what_from_g2t_cannot_read_back(name):
    g = UNREADABLE_GRAPHS[name]
    assert _parse(from_g2t, loop_to_g2t(g)) != g
    with pytest.raises(ValueError):
        to_g2t(g)


@pytest.mark.parametrize("variant,q,t", [c for c in ALL_CASES
                                         if c[1] * (c[1] - 1) // c[2] <= 1000])
def test_fleet_g2t_equals_the_loop_oracles(variant, q, t):
    g = cached_graph(variant, q, t)
    text = to_g2t(g)
    assert text == loop_to_g2t(g)
    assert from_g2t(text) == loop_from_g2t(text) == g


def test_from_g2t_decodes_every_digit_position():
    """Labels of 1 to 18 nines and indices past 255 read back exactly: the
    decoder's digit products must not stay in the bytes' uint8."""
    n = 400
    labels = tuple((10 ** (i % 18 + 1) - 1, 10 ** (17 - i % 18) * 9) for i in range(n))
    rows = from_edges(n, [(0, 399), (255, 256), (299, 300), (398, 398)]).rows
    g = from_rows(rows, labels, GraphMeta(variant="other", q=999, t=300))
    text = to_g2t(g)
    assert from_g2t(text) == loop_from_g2t(text) == g


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_to_g2t_equals_the_loop_writer_on_random_graphs(data):
    """to_g2t writes the loop writer's text when from_g2t reads that text
    back as the same graph, and refuses the graph otherwise."""
    n = data.draw(st.integers(1, 40) | st.integers(1, 600))  # up to two 512-row blocks
    vertex = st.integers(0, n - 1)
    g = from_edges(n, data.draw(st.lists(st.tuples(vertex, vertex), max_size=60)))
    if n <= 40:  # the labels, the header values or the variant drawn from any value
        wild = data.draw(st.sampled_from(["labels", "header", "variant"]))
        valid, number = st.integers(0, 10**18 - 1), st.integers(-10**20, 10**20)
        label = number if wild == "labels" else valid
        labels = data.draw(st.lists(st.tuples(label, label), min_size=n, max_size=n))
        header = data.draw(st.tuples(*[number if wild == "header" else valid] * 4))
        variant = "other" if wild != "variant" else data.draw(
            st.text(max_size=4).filter(lambda v: v not in ("plus", "times")))
        g = from_rows(g.rows, tuple(labels), GraphMeta(variant, *header))
    text = loop_to_g2t(g)
    if _parse(from_g2t, text) == g:
        assert to_g2t(g) == text
    else:
        with pytest.raises(ValueError):
            to_g2t(g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_to_g2t_round_trips_or_refuses_perturbed_constructions(data):
    """The same rule on plus/times graphs with a relabelled vertex, a header
    value drawn anew, the other variant's name, or an edge toggled: the
    label and metadata checks are the ones from_g2t makes."""
    g = cached_graph(*data.draw(st.sampled_from(
        [("plus", 4, 2), ("plus", 8, 4), ("plus", 9, 3), ("times", 5, 2), ("times", 7, 3)])))
    kind = data.draw(st.sampled_from(["label", "header", "variant", "edge"]))
    labels, meta, rows = list(g.labels), g.meta, list(g.rows)
    k = data.draw(st.integers(0, g.n - 1))
    if kind == "label":
        labels[k] = data.draw(st.tuples(st.integers(0, 10), st.integers(0, 10)))
    elif kind == "header":
        key = data.draw(st.sampled_from(["p", "a", "q", "t"]))
        meta = dataclasses.replace(meta, **{key: data.draw(st.integers(0, 130))})
    elif kind == "variant":
        meta = dataclasses.replace(meta, variant="times" if meta.variant == "plus" else "plus")
    else:
        j = data.draw(st.integers(0, g.n - 1))
        rows[k] ^= 1 << j
        if j != k:
            rows[j] ^= 1 << k
    g = from_rows(tuple(rows), tuple(labels), meta)
    text = loop_to_g2t(g)
    if _parse(from_g2t, text) == g:
        assert to_g2t(g) == text
    else:
        with pytest.raises(ValueError):
            to_g2t(g)


# the grammar from_g2t accepts: ASCII without control characters but tab, CR
# and LF; unsigned decimals of at most 18 digits in records and in the
# header's p, a, q, t, n
_NUMBER = "[0-9]{1,18}"
_RECORD = re.compile(rf"[ \t]*(?:(?:e(?:[ \t]+{_NUMBER}){{2}}|v(?:[ \t]+{_NUMBER}){{3}})[ \t]*)?")


def in_grammar(text: str) -> bool:
    if not text.isascii() or re.search(r"[^\x20-\x7e\t\r\n]", text):
        return False
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()  # the last line's terminator is optional
    if not lines or not lines[0].startswith("g2t v1 "):
        return False
    for tok in lines[0].split()[2:]:
        key, _, value = tok.partition("=")
        if key in ("p", "a", "q", "t", "n") and not re.fullmatch(_NUMBER, value):
            return False
    return all(_RECORD.fullmatch(ln) for ln in lines[1:])


LOOPS_G2T = to_g2t(EDGE_CASE_GRAPHS["loops"])  # an `other` file: its labels are free
# n <= 30, so the oracle's bigints stay small
G2T_BASES = [to_g2t(cached_graph(*c)) for c in
             [("plus", 4, 2), ("plus", 8, 4), ("plus", 9, 3), ("times", 5, 2), ("times", 7, 3)]]
G2T_BASES += [LOOPS_G2T, to_g2t(EDGE_CASE_GRAPHS["one-vertex"]),
              to_g2t(from_edges(9, [(0, 8), (1, 1), (2, 3), (4, 7)]))]
# the grammar's bytes, then bytes and characters only the oracle's int() and
# str.split / str.splitlines take
G2T_ALPHABET = "0123456789 \t\r\nev=" + "+-_\v\f\x1c\x85\u0663\xa0"


def _mutate_g2t(draw, text: str) -> str:
    kind = draw(st.sampled_from(["swap", "drop", "duplicate", "blank", "gap", "zeros",
                                 "mark", "field", "newline", "char", "token"]))
    lines = text.splitlines(keepends=True)
    if not lines:
        return draw(st.text(G2T_ALPHABET, max_size=3))
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
    if kind == "swap" and i and j:  # records may come in any order
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "blank":
        lines.insert(j or 1, draw(st.sampled_from(["\n", " \n", "\t \n"])))
    elif kind == "gap":  # another run of spaces and tabs between tokens
        lines[i] = lines[i].replace(" ", draw(st.sampled_from(["  ", "\t", " \t ", "\xa0"])), 1)
    elif kind == "zeros":
        lines[i] = re.sub(r"(?<= )(?=[0-9])", "0" * draw(st.integers(1, 17)), lines[i], count=1)
    elif kind == "mark":  # a sign, separator, foreign digit or tag letter in a number
        numbers = [m.start() for m in re.finditer(r"(?<![0-9])[0-9]", lines[i])] or [0]
        k = draw(st.sampled_from(numbers))
        mark = draw(st.sampled_from(["+", "-", "_", "\u0663", "e", "v"]))
        lines[i] = lines[i][:k] + mark + lines[i][k:]
    elif kind == "field":  # one field too many
        lines[i] = lines[i].rstrip("\r\n") + f" {draw(st.integers(0, 9))}\n"
    elif kind == "newline":
        end = draw(st.sampled_from(["\r\n", "\r", "", "\v", "\f", "\x1c", "\x85"]))
        return "".join(ln.replace("\n", end) for ln in lines)
    elif kind == "char":  # inserted, or in place of the one at k
        k = draw(st.integers(0, len(lines[i])))
        lines[i] = (lines[i][:k] + draw(st.sampled_from(G2T_ALPHABET))
                    + lines[i][k + draw(st.integers(0, 1)):])
    else:
        parts = lines[i].split(" ")
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.text(G2T_ALPHABET, max_size=20))
        lines[i] = " ".join(parts)
    return "".join(lines)


@st.composite
def mutated_g2t_text(draw) -> str:
    text = draw(st.sampled_from(G2T_BASES))
    for _ in range(draw(st.integers(0, 3))):
        text = _mutate_g2t(draw, text)
    return text


def _parse(parser, text):
    try:
        return parser(text)
    except ValueError:
        return None


@settings(max_examples=600, deadline=None)
@given(mutated_g2t_text())
@example(LOOPS_G2T.replace("v 1 0 1", "v 1 0 +1"))   # int() reads these labels,
@example(LOOPS_G2T.replace("v 1 0 1", "v 1 0 1_0"))  # the grammar does not
@example(LOOPS_G2T.replace("v 1 0 1", "v 1 0 1e"))   # a tag letter in a number
@example(LOOPS_G2T.replace("e 2 5", "e 2 5 1"))      # one field too many
def test_from_g2t_against_the_loop_parser(text):
    """What from_g2t accepts, the loop parser accepts as the same graph; what
    the loop parser accepts inside the grammar, from_g2t accepts; anything
    else raises ValueError (another exception fails the test)."""
    new, old = _parse(from_g2t, text), _parse(loop_from_g2t, text)
    if new is not None:
        assert new == old
    elif in_grammar(text):
        assert old is None


# -- automorphisms ------------------------------------------------------------------


@pytest.mark.parametrize("variant,q,t", [c for c in ALL_CASES if c[1] * (c[1] - 1) // c[2] <= 1000])
def test_every_field_map_is_kept_and_every_orbit_is_closed(variant, q, t):
    g = cached_graph(variant, q, t)
    maps = graphs._field_maps(g)
    assert maps and all(graphs._is_automorphism(g, perm) for perm in maps)
    label = g._symmetry[1]
    for perm in maps:
        assert np.array_equal(label[perm], label)
    # each label is the least vertex of its orbit
    assert np.array_equal(label[label], label) and (label <= np.arange(g.n)).all()


@pytest.mark.parametrize("variant,q,t,orbits", [
    ("plus", 25, 5, 10), ("plus", 128, 64, 19), ("plus", 256, 128, 35),
    ("plus", 512, 256, 59), ("times", 121, 2, 66)])
def test_orbit_counts(variant, q, t, orbits):
    assert len(set(cached_graph(variant, q, t)._symmetry[1].tolist())) == orbits


def test_automorphism_check_rejects_forgeries():
    g = cached_graph("plus", 25, 5)
    true = graphs._field_maps(g)[0]
    swap = np.arange(g.n)
    swap[[0, 1]] = [1, 0]
    assert graphs._is_automorphism(g, true)
    assert not graphs._is_automorphism(g, swap)
    assert not graphs._is_automorphism(g, true[swap])  # the true map after the swap
    collapsed = true.copy()
    collapsed[0] = collapsed[1]
    for perm in (collapsed, true[:-1], np.append(true, g.n), true - 1):
        assert not graphs._is_automorphism(g, perm)
    # 0 and 1 are twins in the 4-cycle: sending both to 0 keeps every row, so
    # only the bijection check refuses it
    c4 = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert graphs._is_automorphism(c4, np.array([1, 0, 2, 3]))
    assert not graphs._is_automorphism(c4, np.array([0, 0, 2, 3]))


def _is_automorphism_bitset(g: Graph, perm: np.ndarray) -> bool:
    """The O(n^2) check ``_is_automorphism`` replaced: 512 rows at a time,
    the image rows are unpacked, gathered over the columns perm and packed
    back, and must be the block's own rows."""
    n = g.n
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        return False
    for s in range(0, n, 512):
        image = graphs._unpack_rows([g.rows[v] for v in perm[s:s + 512].tolist()], n)
        if graphs._pack_rows(np.take(image, perm, axis=1)) != list(g.rows[s:s + 512]):
            return False
    return True


def _forged_maps(g: Graph) -> list[np.ndarray]:
    """A transposition of 0 and 1, the first field map after it, and that map
    sending 0 where it sends 1 (no bijection)."""
    swap = np.arange(g.n)
    swap[[0, 1]] = [1, 0]
    true = graphs._field_maps(g)[0]
    collapsed = true.copy()
    collapsed[0] = collapsed[1]
    return [swap, true[swap], collapsed]


def _by_size(cases, big=1000):
    """The cases, those with n > big marked ``long``."""
    return [pytest.param(*c, marks=pytest.mark.long) if c[1] * (c[1] - 1) // c[2] > big else c
            for c in cases]


@pytest.mark.parametrize("variant,q,t", _by_size(ALL_CASES))
def test_automorphism_check_equals_bitset_oracle(variant, q, t):
    g = cached_graph(variant, q, t)
    for perm in graphs._field_maps(g) + _forged_maps(g):
        assert graphs._is_automorphism(g, perm) == _is_automorphism_bitset(g, perm)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_automorphism_check_equals_bitset_oracle_on_tampered_files(seed, closed):
    """One to three double-edge swaps keep the file regular, and a swap
    closed under a kept map keeps that map; every field map and every
    forgery gets the bitset check's verdict on the (n, d) table."""
    rng = random.Random(seed)
    g = cached_graph(*rng.choice([("plus", 9, 3), ("plus", 16, 8), ("times", 7, 3),
                                  ("times", 13, 4), ("plus", 8, 2)]))
    h = swapped(g, rng, closed)
    for _ in range(rng.randint(0, 2)):
        h = swapped(h, rng, closed) or h
    assert graphs._regular_view(h) is not None
    assert h._symmetry[1] is not None or not closed
    for perm in graphs._field_maps(h) + _forged_maps(h):
        assert graphs._is_automorphism(h, perm) == _is_automorphism_bitset(h, perm)


def test_automorphism_check_keeps_the_degrees_of_one_way_rows():
    """Rows 0: {} and 1: {0, 1}, not symmetric: swapping 0 and 1 lines the
    concatenated images up with the concatenated rows, but the graph is not
    regular, so it keeps no map.  Rows 0: {1} and 1: {1} are regular and
    one-way: the swap's image of row 0 is {0}, not row 1."""
    for rows in ((0, 0b11), (0b10, 0b10)):
        g = from_rows(rows, ((0, 0), (0, 1)), GraphMeta(variant="other"))
        swap = np.array([1, 0])
        assert not graphs._is_automorphism(g, swap) and not _is_automorphism_bitset(g, swap)


def _arrays_from_rows(g: Graph) -> tuple[list[int], list[int]]:
    """(start, nbr) read bit by bit off the rows."""
    nbr = [v for r in g.rows for v in _bits(r)]
    return [0, *np.cumsum([r.bit_count() for r in g.rows]).tolist()], nbr


@pytest.mark.parametrize("variant,q,t", [c for c in ALL_CASES if c[1] * (c[1] - 1) // c[2] <= 1000])
def test_handed_over_arrays_are_the_rows(variant, q, t):
    """The builder's, the parser's and the sampler's neighbour arrays, and
    those of a graph made from rows, are the bits of the rows packed from
    them."""
    g = cached_graph(variant, q, t)
    for h in (g, from_g2t(to_g2t(g)), from_rows(g.rows, g.labels, g.meta),
              sample_gnp(min(g.n, 300), t / q, q, t), sample_gnp(t, 1.0, q)):
        start, nbr = h.start, h.nbr
        assert (start.tolist(), nbr.tolist()) == _arrays_from_rows(h)
        assert nbr.dtype == np.int32 and not start.flags.writeable and not nbr.flags.writeable


def test_parsed_arrays_hold_a_loop_and_a_repeated_edge_once():
    h = from_g2t("g2t v1 variant=other p=0 a=0 q=0 t=0 n=3\nv 0 0 0\nv 1 0 1\nv 2 0 2\n"
                 "e 0 0\ne 0 2\ne 0 2\ne 1 2\n")
    start, nbr = h.start, h.nbr
    assert (start.tolist(), nbr.tolist()) == _arrays_from_rows(h) == ([0, 2, 3, 5], [0, 2, 2, 0, 1])


def test_symmetry_is_read_off_the_arrays():
    g = build_g_plus(9, 3)
    assert g._symmetric
    rows = list(g.rows)
    rows[0] ^= 1 << 5  # one direction only
    assert not from_rows(tuple(rows), g.labels, g.meta)._symmetric
    assert from_edges(0, [])._symmetric


def _circulant(rng: random.Random) -> Graph:
    """A regular graph on at most 40 vertices: u ~ u + s for s in a drawn
    connection set closed under s -> -s (s = 0 a loop), vertices shuffled."""
    n, p = rng.randint(1, 40), rng.random() ** 2
    conn = {s for s in range(n) if rng.random() < p}
    name = rng.sample(range(n), n)
    return from_edges(n, [(name[u], name[(u + s) % n]) for u in range(n)
                          for s in conn | {-s % n for s in conn}])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 64, 1 << 18]))
def test_m2_rows_are_the_rows_of_m_squared(seed, walks):
    """Rows of M^2 at drawn vertices, in their order, for any block size, on
    regular graphs: shuffled circulants, looped or not, and constructions,
    as built or after a double-edge swap."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        g = _circulant(rng)
    else:
        g = cached_graph(*rng.choice([c for c in ALL_CASES if c[1] <= 16]))
        g = rng.random() < 0.5 and swapped(g, rng) or g
    n, d = graphs._regular_view(g).shape
    reps = np.array(rng.sample(range(n), rng.randint(1, n)), dtype=np.int64)
    m = g.adjacency_matrix(dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_WALKS", walks)
        blocks = list(graphs._m2_rows(g, reps))
    assert np.array_equal(np.concatenate([vs for vs, _ in blocks]), reps)
    assert np.array_equal(np.concatenate([rows for _, rows in blocks]), (m @ m)[reps])
    # a block holds at most ``walks`` 2-walks (d^2 a row) and ``walks``
    # entries of M^2 (n a row), or one vertex
    assert all(len(vs) == 1 or len(vs) * max(d * d, n) <= walks for vs, _ in blocks)


def test_automorphism_orbits_need_a_construction():
    assert from_edges(4, [(0, 1), (2, 3)])._symmetry == ([], None)
    g = cached_graph("plus", 9, 3)
    for meta in (dataclasses.replace(g.meta, t=9),  # n is not q(q-1)/t
                 dataclasses.replace(g.meta, p=2, a=3, q=8),
                 dataclasses.replace(g.meta, variant="random")):
        forged = dataclasses.replace(g, meta=meta)
        assert graphs._field_maps(forged) == [] and forged._symmetry == ([], None)
