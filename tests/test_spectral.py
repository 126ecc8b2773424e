"""Spectrum certification: exact moments/multiplicities, and the character
route behind them as a numeric oracle."""

import cmath
import dataclasses
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import isqrt, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramseycert import cli, graphs, spectral
from ramseycert.fields import Field, Subgroup, make_field, subgroup
from ramseycert.graphs import (
    Graph,
    GraphMeta,
    build_g_plus,
    build_g_times,
    codegree_histogram,
    from_g2t,
    structural_audit,
    to_g2t,
    write_g2t,
)
from ramseycert.random_model import sample_gnp
from ramseycert.spectral import (
    Character,
    SpectralSolveError,
    SpectrumReport,
    _dense_route,
    _q_moments,
    closed_form_multiplicities,
    gauss_sum,
    make_character,
    solve_multiplicities,
    verify_spectrum,
)
from conftest import ALL_CASES, cached_graph, common_neighbors, from_edges, from_rows, swapped

ODD_SMALL = [c for c in ALL_CASES if c[1] % 2 == 1 and c[1] <= 49]
# the fleet cases with n = q(q-1)/t <= 1000, and those with n <= 200
FLEET_1000 = [c for c in ALL_CASES if c[1] * (c[1] - 1) // c[2] <= 1000]
FLEET_200 = [c for c in ALL_CASES if c[1] * (c[1] - 1) // c[2] <= 200]

# frozen: G+(9,3) moments tr(M^j) j=0..5 and both desk multiplicity tables
PLUS_9_3_MOMENTS = (24, 8, 192, 512, 5232, 32768)
PLUS_9_3_MULT = {"q-1": 1, "+sqrt(q)": 7, "-sqrt(q)": 7, "+1": 1, "-1": 1, "0": 7}
TIMES_7_3_MULT = {"q-1": 1, "+sqrt(q)": 3, "-sqrt(q)": 3, "+1": 3, "-1": 3, "0": 1}


# -- oracles -----------------------------------------------------------------------


def _eigen_moments_exact_int(g: Graph, jmax: int) -> tuple[int, ...]:
    """tr(M^j), j = 0..jmax, by row-by-row walk counting with python ints."""
    n = g.n
    rows = g.rows
    # vec[v] = number of j-walks ending at v, one source vertex at a time
    out = [n] + [0] * jmax
    for src in range(n):
        vec = {src: 1}
        for j in range(1, jmax + 1):
            nxt: dict[int, int] = {}
            for v, c in vec.items():
                r = rows[v]
                while r:
                    low = r & -r
                    w = low.bit_length() - 1
                    nxt[w] = nxt.get(w, 0) + c
                    r ^= low
            vec = nxt
            out[j] += vec.get(src, 0)
    return tuple(out)


def _codegree_histogram_pair_scan(g: Graph) -> dict[int, int]:
    """|N(u) ∩ N(v)| for every pair u < v, one common_neighbors call each."""
    return dict(Counter(len(common_neighbors(g, u, v))
                        for u in range(g.n) for v in range(u + 1, g.n)))


def _annihilator_int64(g: Graph, q: int) -> np.ndarray:
    """M (M^2 - qI)(M^2 - I)(M - (q-1)I) in int64."""
    m = g.adjacency_matrix(dtype=np.int64)
    eye = np.eye(g.n, dtype=np.int64)
    return m @ (m @ m - q * eye) @ (m @ m - eye) @ (m - (q - 1) * eye)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
       st.integers(2, 16))
def test_walk_kernel_matches_oracles(n, density, seed, q):
    rng = random.Random(seed)  # pairs include (u, u), so loops appear too
    edges = [(u, v) for u in range(n) for v in range(u, n) if rng.random() < density]
    g = from_edges(n, edges, meta=GraphMeta(variant="other", q=q))
    assert codegree_histogram(g) == _codegree_histogram_pair_scan(g)
    moments, residual = _dense_route(g, q)
    assert moments == _eigen_moments_exact_int(g, 5)
    assert residual == (np.abs(_annihilator_int64(g, q)).max() if n else 0)


# -- moments ---------------------------------------------------------------------


def test_moment_identities_on_oracles():
    g = cached_graph("plus", 9, 3)
    mom = _dense_route(g, 9)[0]
    assert mom == PLUS_9_3_MOMENTS
    assert mom[1] == g.loop_count() == 8
    assert mom[2] == g.n * (g.meta.q - 1)
    g = cached_graph("times", 5, 2)
    mom = _dense_route(g, 5)[0]
    assert mom[0] == 10 and mom[2] == 40


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 13, 4), ("plus", 16, 4)])
def test_gemm_moments_match_integer_walk_counts(variant, q, t):
    g = cached_graph(variant, q, t)
    assert _dense_route(g, q)[0] == _eigen_moments_exact_int(g, 5)


def test_gemm_dtype_threshold(monkeypatch):
    # the walks stay float32 past the old float64 switch at degree 256 ...
    star = from_edges(258, [(0, v) for v in range(1, 258)])
    dtypes = []
    adjacency = Graph.adjacency_matrix
    monkeypatch.setattr(Graph, "adjacency_matrix",
                        lambda self, dtype: dtypes.append(dtype) or adjacency(self, dtype))
    moments, residual = _dense_route(star, 2)
    assert dtypes == [np.float32]
    assert moments == _eigen_moments_exact_int(star, 5)
    assert residual == np.abs(_annihilator_int64(star, 2)).max()
    # ... up to the float32 bound d^2 < 2^24 on M^3: d = 4095 passes it (and
    # stops at the tr(M^5) bound), 4096 not
    for d, bound in ((4095, r"tr\(M\^5\) may exceed"), (4096, "too large for exact float32")):
        star = from_edges(d + 1, [(0, v) for v in range(1, d + 1)])
        with pytest.raises(ValueError, match=bound):
            _dense_route(star, 2)


def test_spectrum_moments_use_the_measured_degree(monkeypatch):
    # a plus(32,2) header over a graph of degree up to 428: the walk bounds
    # must come from the edges, not from q - 1 = 31
    g = build_g_plus(32, 2)
    noise = sample_gnp(g.n, 0.8, 3)
    rows = tuple(a | b for a, b in zip(g.rows, noise.rows))
    g = from_g2t(to_g2t(from_rows(rows, g.labels, g.meta)))
    seen = []

    def spy(moments, q, n):
        seen.append(moments)
        return solve_multiplicities(moments, q, n)

    monkeypatch.setattr(spectral, "solve_multiplicities", spy)
    with pytest.raises(SpectralSolveError):
        verify_spectrum(g)
    m = g.adjacency_matrix(np.int64)
    power = np.eye(g.n, dtype=np.int64)
    want = []
    for _ in range(6):
        want.append(int(np.trace(power)))
        power = power @ m
    assert seen == [tuple(want)]


@pytest.mark.parametrize("meta", [
    GraphMeta("plus", p=2, a=3, q=9, t=3),   # q != p^a; would skip the closed form
    GraphMeta("plus", p=3, a=2, q=9, t=9),   # n != q(q-1)/t
    GraphMeta("times", p=3, a=2, q=9, t=3),  # 3 does not divide q - 1
])
def test_spectrum_rejects_metadata_that_is_not_a_construction(meta):
    g = cached_graph("plus", 9, 3)
    with pytest.raises(ValueError, match="metadata"):
        verify_spectrum(from_rows(g.rows, g.labels, meta))


def test_exactness_bounds_refuse(monkeypatch):
    star = from_edges(4097, [(0, v) for v in range(1, 4097)])
    with pytest.raises(ValueError, match="float32"):  # d^2 = 2^24, past the bound for M^3
        _dense_route(star, 2)
    star = from_edges(2049, [(0, v) for v in range(1, 2049)])
    with pytest.raises(ValueError, match=r"tr\(M\^5\)"):  # n d^4 = 2049 * 2^44
        _dense_route(star, 2)
    lone = from_edges(1, [])
    _dense_route(lone, 2**26)  # n (d^2 + q)(d^2 + (q-1)(d+1) + 1) = 2^52
    with pytest.raises(ValueError, match="annihilator"):  # 2^54
        _dense_route(lone, 2**27)
    # M's bytes, M, M^2, M^3 and the float64 factor: 21 n^2 bytes
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 21 * 16)
    _dense_route(c4, 9)
    monkeypatch.setattr(graphs, "_physical_memory", lambda: 21 * 16 - 1)
    with pytest.raises(ValueError, match="physical memory"):
        _dense_route(c4, 9)


# -- multiplicity solve ------------------------------------------------------------


def test_solve_multiplicities_oracle():
    assert solve_multiplicities(PLUS_9_3_MOMENTS, 9, 24) == PLUS_9_3_MULT


def _solve3(rows: list[list[Fraction]]) -> tuple[Fraction, Fraction, Fraction]:
    """Solve a 3x3 fractional system [A | b] by Gaussian elimination."""
    m = [r[:] for r in rows]
    for col in range(3):
        piv = next((r for r in range(col, 3) if m[r][col] != 0), None)
        if piv is None:
            raise SpectralSolveError("singular moment system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(3):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return m[0][3], m[1][3], m[2][3]


def _solve_multiplicities_gauss(moments, q, n):
    """The multiplicity solve with its odd rows put through ``_solve3``."""
    c0, c1, c2, c3, c4, c5 = (Fraction(x) for x in moments[:6])
    d = q - 1
    A, V, E = _solve3([
        [Fraction(d), Fraction(1), Fraction(1), c1],
        [Fraction(d**3), Fraction(q), Fraction(1), c3],
        [Fraction(d**5), Fraction(q * q), Fraction(1), c5],
    ])
    r2 = c2 - A * d * d
    r4 = c4 - A * d**4
    S = (r4 - r2) / (q * q - q)
    T = r2 - S * q
    Z = c0 - A - S - T
    root = isqrt(q)
    if root * root == q:
        W = V / root
    else:
        if V != 0:
            raise SpectralSolveError(f"irrational moment component V = {V} with non-square q = {q}")
        W = Fraction(0)
    vals = {"q-1": A, "+sqrt(q)": (S + W) / 2, "-sqrt(q)": (S - W) / 2,
            "+1": (T + E) / 2, "-1": (T - E) / 2, "0": Z}
    out = {}
    for name, v in vals.items():
        if v.denominator != 1 or v < 0:
            raise SpectralSolveError(f"multiplicity of {name} solved to {v}, not a non-negative integer")
        out[name] = int(v)
    if sum(out.values()) != n:
        raise SpectralSolveError("multiplicities do not sum to n")
    return out


def _moment_identities(mult, moments, q, n) -> bool:
    """tr(M) and tr(M^2) from the multiplicities, sqrt(q) kept symbolic, and
    the multiplicities summing to n."""
    rational1 = mult["q-1"] * (q - 1) + mult["+1"] - mult["-1"]
    irrational1 = mult["+sqrt(q)"] - mult["-sqrt(q)"]
    root = isqrt(q)
    if root * root == q:
        ok1 = rational1 + irrational1 * root == moments[1]
    else:
        ok1 = rational1 == moments[1] and irrational1 == 0
    ok2 = (mult["q-1"] * (q - 1) ** 2 + (mult["+sqrt(q)"] + mult["-sqrt(q)"]) * q
           + mult["+1"] + mult["-1"]) == moments[2]
    return ok1 and ok2 and sum(mult.values()) == n


def _outcome(solve, moments, q, n):
    try:
        return solve(moments, q, n)
    except SpectralSolveError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_closed_form_solve_matches_gaussian_elimination(data):
    """Same multiplicities or the same refusal as the Gaussian oracle, over
    square and non-square q, on moments of a multiplicity table (n off by
    up to one) and on random moments; a solve that succeeds meets the first
    and second moment identities and sums to n."""
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 81, 121, 128]))
    root = isqrt(q)
    if data.draw(st.booleans()):
        a, plus, minus, one, neg, zero = data.draw(st.lists(st.integers(0, 60), min_size=6, max_size=6))
        if root * root != q:
            minus = plus  # the sqrt(q) parts of odd moments cancel
            sq = [q ** (j // 2) * (plus + minus) if j % 2 == 0 else 0 for j in range(6)]
        else:
            sq = [plus * root**j + minus * (-root) ** j for j in range(6)]
        moments = tuple(a * (q - 1) ** j + sq[j] + one + neg * (-1) ** j + zero * (j == 0)
                        for j in range(6))
        n = moments[0] + data.draw(st.integers(-1, 1))
    else:
        moments = tuple(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6)))
        n = data.draw(st.integers(0, 10**6))
    got = _outcome(solve_multiplicities, moments, q, n)
    assert got == _outcome(_solve_multiplicities_gauss, moments, q, n)
    if isinstance(got, dict):
        assert _moment_identities(got, moments, q, n)


def test_solve_rejects_wrong_shape_moments():
    # a 4-cycle is not supported on {q-1, ±sqrt(q), ±1, 0} for q = 9
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    mom = _dense_route(c4, 9)[0]
    with pytest.raises(SpectralSolveError):
        solve_multiplicities(mom, 9, 4)
    with pytest.raises(ValueError):
        solve_multiplicities(mom[:4], 9, 4)


@pytest.mark.parametrize("variant,q,t", [(v, q, t) for v, q, t in ODD_SMALL])
def test_closed_forms_sum_and_first_moments(variant, q, t):
    mult = closed_form_multiplicities(variant, q, t)
    n = q * (q - 1) // t
    assert sum(mult.values()) == n
    # sum of eigenvalue^2 * mult must equal n * degree
    total_sq = (mult["q-1"] * (q - 1)**2
                + (mult["+sqrt(q)"] + mult["-sqrt(q)"]) * q
                + mult["+1"] + mult["-1"])
    assert total_sq == n * (q - 1)


def test_closed_form_rejects_even_characteristic():
    with pytest.raises(ValueError):
        closed_form_multiplicities("plus", 8, 2)
    with pytest.raises(ValueError):
        closed_form_multiplicities("cayley", 9, 3)


# -- verify_spectrum end to end -----------------------------------------------------


def test_verify_spectrum_plus_9_3():
    rep = verify_spectrum(cached_graph("plus", 9, 3))
    assert rep.multiplicities == PLUS_9_3_MULT
    assert rep.annihilator_verified and rep.identities_ok and rep.matches_lemma
    assert rep.closed_form == PLUS_9_3_MULT
    assert rep.to_dict()["lambda2"] == {"sqrtq_of": 9}


def test_verify_spectrum_times_7_3():
    rep = verify_spectrum(cached_graph("times", 7, 3))
    assert rep.multiplicities == TIMES_7_3_MULT
    assert rep.annihilator_verified and rep.identities_ok and rep.matches_lemma


def test_verify_spectrum_even_char_records_without_closed_form():
    rep = verify_spectrum(cached_graph("plus", 16, 4))
    assert rep.matches_lemma is None and rep.closed_form is None
    assert rep.annihilator_verified and rep.identities_ok
    assert sum(rep.multiplicities.values()) == rep.n


def test_spectrum_passed_rule():
    # no closed form (matches_lemma None) passes; a contradicted lemma or a
    # failed identity does not; the property stays out of the JSON
    rep = verify_spectrum(cached_graph("plus", 16, 4))
    assert rep.passed and "passed" not in rep.to_dict()
    assert not dataclasses.replace(rep, matches_lemma=False).passed
    assert not dataclasses.replace(rep, identities_ok=False).passed
    assert not dataclasses.replace(rep, annihilator_verified=False).passed


def test_verify_spectrum_rejects_synthetic_graphs():
    with pytest.raises(ValueError):
        verify_spectrum(from_edges(4, [(0, 1)]))


# -- annihilator soundness ----------------------------------------------------------


def test_annihilator_zero_on_construction():
    g = cached_graph("times", 11, 5)
    assert _dense_route(g, 11)[1] == 0.0


def test_annihilator_detects_tampering():
    g = cached_graph("plus", 9, 3)
    rows = list(g.rows)
    # remove one genuine edge (pick the lowest non-loop bit of row 0)
    r = rows[0] & ~(1 << 0)
    v = (r & -r).bit_length() - 1
    rows[0] &= ~(1 << v)
    rows[v] &= ~(1 << 0)
    bad = from_rows(tuple(rows), g.labels, g.meta)
    assert _dense_route(bad, 9)[1] > 0


# -- the M^2 = Q route against the dense route ---------------------------------------


def _dense_report(g: Graph) -> SpectrumReport:
    """verify_spectrum by the dense route alone: M^3, the walk traces and the
    float64 annihilator product."""
    q, t, n = g.meta.q, g.meta.t, g.n
    moments, residual = _dense_route(g, q)
    verified = residual == 0.0
    mult = solve_multiplicities(moments, q, n)
    closed = closed_form_multiplicities(g.meta.variant, q, t) if g.meta.p % 2 else None
    return SpectrumReport(
        variant=g.meta.variant, q=q, t=t, n=n, moments_used=moments, multiplicities=mult,
        annihilator_verified=verified, identities_ok=moments[2] == n * (q - 1),
        closed_form=closed, matches_lemma=None if closed is None else mult == closed)


def _spectrum_outcome(verify, g: Graph):
    """The report, or the message of the SpectralSolveError it raised."""
    try:
        return verify(g)
    except SpectralSolveError as exc:
        return f"SpectralSolveError: {exc}"


def _permuted(g: Graph, seed: int) -> Graph:
    """g with its vertices shuffled by a seeded permutation and the
    construction's labels kept: isomorphic, so the same spectrum, but M^2 is
    no longer Q in the construction's vertex order."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)  # new vertex k is old vertex perm[k]
    where = {old: new for new, old in enumerate(perm)}
    rows = tuple(sum(1 << where[u] for u in g.neighbors(old)) for old in perm)
    return from_rows(rows, g.labels, g.meta)


def _toggled(g: Graph, u: int, v: int) -> Graph:
    """g with the edge {u, v} (a loop if u == v) added or removed."""
    rows = list(g.rows)
    rows[u] ^= 1 << v
    if u != v:
        rows[v] ^= 1 << u
    return from_rows(tuple(rows), g.labels, g.meta)


def _q_moments_gemm(g: Graph, q: int, t: int) -> tuple[int, ...] | None:
    """The blocked float32 GEMM pass ``_q_moments`` replaced: 512 rows of M
    at a time, M is checked symmetric and the block times the columns from
    its first coset on is checked against Q; then the four counts E, D, P_c
    and P_x are read off M."""
    n = g.n
    m = graphs._walk_matrix(g)
    w, _ = graphs._layout(g.meta.variant, q)
    C = n // w
    for i in range(0, n, 512):
        rows = m[i:i + 512]
        if not np.array_equal(rows, m[:, i:i + 512].T):
            return None
        first = i // w
        diff = rows @ m[:, first * w:]
        r = np.arange(len(diff))
        c, x = np.divmod(i + r, w)
        by_cx = diff.reshape(len(diff), C - first, w)
        diff -= t
        by_cx[r, :, x] += t
        by_cx[r, c - first, :] += 1
        diff[r, i + r - first * w] -= q
        if diff.any():
            return None
    by_cx = m.reshape(C, w, C, w)
    f64 = np.float64
    E, D = int(m.sum(dtype=f64)), int(np.einsum("ii->", m, dtype=f64))
    Pc = int(np.einsum("cxcy->", by_cx, dtype=f64))
    Px = int(np.einsum("cxdx->", by_cx, dtype=f64))
    tr4 = n * ((q - 1) ** 2 + (w - 1) * (t - 1) ** 2 + (n - w - C + 1) * t * t)
    j_coef = 2 * q * t + t * t * n - 2 * t * w - 2 * t * t * C + 2 * t
    tr5 = q * q * D + j_coef * E + (w - 2 * q) * Pc + (t * t * C - 2 * q * t) * Px
    return (n, D, E, q * D + t * E - Pc - t * Px, tr4, tr5)


def _oracle_graphs(variant: str, q: int, t: int) -> list[Graph]:
    """The case as built, and through a g2t round trip with, when n <= 300,
    a permuted copy and three double-edge swaps, two of them closed under a
    kept map, where the case has such swaps (all seeded by the case)."""
    g = cached_graph(variant, q, t)
    out = [g]
    if g.n <= 300:
        rng = random.Random(f"{variant}/{q}/{t}")
        out.append(_permuted(g, rng.randrange(2**32)))
        out += [h for closed in (False, True, True) if (h := swapped(g, rng, closed))]
    return [g] + [from_g2t(to_g2t(h)) for h in out]


@pytest.mark.parametrize("variant,q,t", [("plus", 2, 2)] + [
    c if c[1] * (c[1] - 1) // c[2] <= 1000 else pytest.param(*c, marks=pytest.mark.long)
    for c in ALL_CASES])
def test_orbit_rows_equal_the_gemm_oracles(variant, q, t):
    """The audit's histogram and the M^2 = Q check, read at one row per orbit,
    equal the GEMM passes they replaced: on every fleet case and plus(2,2),
    as built and as parsed, and on a permuted copy and three double-edge
    swaps of each with n <= 300."""
    for g in _oracle_graphs(variant, q, t):
        assert codegree_histogram(g) == graphs._codegree_histogram_gemm(g)
        assert _q_moments(g) == _q_moments_gemm(g, q, t)


@pytest.mark.parametrize("variant,q,t", [("plus", 2, 2)] + FLEET_1000)
def test_audit_and_spectrum_read_each_representative_row_once(variant, q, t, monkeypatch):
    """M^2 = Q is checked once per graph: the audit and then the spectrum
    of a fleet case or plus(2,2), as built and as parsed, read the row of
    M^2 at each orbit representative exactly once between them, and
    neither takes the GEMM or the dense route."""
    read = []

    def spy(g, reps):
        read.extend(reps.tolist())
        return m2_rows(g, reps)

    m2_rows = graphs._m2_rows
    for module in (graphs, spectral):  # wherever a module holds the kernel
        if hasattr(module, "_m2_rows"):
            monkeypatch.setattr(module, "_m2_rows", spy)
    monkeypatch.setattr(graphs, "_codegree_histogram_gemm", _no_dense_route)
    monkeypatch.setattr(spectral, "_dense_route", _no_dense_route)
    built = (build_g_plus if variant == "plus" else build_g_times)(q, t)
    for g in (built, from_g2t(to_g2t(built))):
        read.clear()
        assert structural_audit(g).passed
        if q > 2:
            assert verify_spectrum(g).passed
        else:  # the moment solve of plus(2,2) is singular (see below)
            with pytest.raises(SpectralSolveError):
                verify_spectrum(g)
        label = g._symmetry[1]
        reps = list(range(g.n)) if label is None else sorted(set(label.tolist()))
        assert sorted(read) == reps


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 7, 3), ("times", 13, 4)])
def test_a_map_breaking_the_labels_is_not_used(variant, q, t, monkeypatch):
    """A map that does not keep the same-coset and same-x relations (a
    cyclic shift of the vertices, or a field map after a swap of two
    vertices with different x) is not kept, even where it passed the row
    check, so the M^2 = Q check does not read its orbits.  A double-edge
    swap away from vertex 0 and its neighbours keeps the file (q-1)-regular
    and symmetric, and row 0 of M^2 is still Q's, so a check that used the
    shift's one orbit would pass; the label check makes it fail, and the
    report is the dense route's."""
    g = cached_graph(variant, q, t)
    w, _ = graphs._layout(variant, q)
    assert all(graphs._keeps_labels(perm, w) for perm in graphs._field_maps(g))
    shift = np.roll(np.arange(g.n), 1)
    swap = np.arange(g.n)
    swap[[0, 1]] = [1, 0]
    forged = [shift, graphs._field_maps(g)[0][swap]]
    assert not any(graphs._keeps_labels(perm, w) for perm in forged)
    # (M^2)_{0x} = |N(0) ∩ N(x)| moves only if an edited pair meets N(0)
    near = set(g.neighbors(0)) | {0}
    far = [x for x in range(g.n) if x not in near]
    a, b, c, d = next((a, b, c, d) for a, b, c, d in itertools.permutations(far, 4)
                      if g.rows[a] >> b & g.rows[c] >> d & ~(g.rows[a] >> d | g.rows[c] >> b) & 1)
    swapped_file = g
    for u, v in ((a, b), (c, d), (a, d), (c, b)):
        swapped_file = _toggled(swapped_file, u, v)
    assert graphs._regular_view(swapped_file).shape[1] == q - 1 and swapped_file._symmetric
    before, after = (h.adjacency_matrix(dtype=np.int64) for h in (g, swapped_file))
    assert np.array_equal((after @ after)[0], (before @ before)[0])
    want = _spectrum_outcome(_dense_report, swapped_file)
    honest_report = verify_spectrum(g)
    # each forged map is offered as the one field map, and passes the row check
    monkeypatch.setattr(graphs, "_is_automorphism", lambda g, perm: True)
    for perm in forged:
        monkeypatch.setattr(graphs, "_field_maps", lambda g, perm=perm: [perm])
        h = _fresh(swapped_file)
        assert h._symmetry == ([], None) and _q_moments(h) is None
        assert _spectrum_outcome(verify_spectrum, h) == want
        assert verify_spectrum(_fresh(g)) == honest_report  # the construction still certifies
    monkeypatch.setattr(graphs, "_field_maps", lambda g: [shift])
    monkeypatch.setattr(graphs, "_keeps_labels", lambda perm, w: True)
    assert _fresh(swapped_file)._m2_is_q


def _fresh(g: Graph) -> Graph:
    """A copy of g with nothing cached."""
    return from_rows(g.rows, g.labels, g.meta)


def test_every_representative_row_is_checked(monkeypatch):
    """The rows read are exactly one vertex per orbit of the kept maps, or
    every vertex when none is kept."""
    read = []

    def spy(g, reps):
        read.append(reps.tolist())
        return m2_rows(g, reps)

    m2_rows = graphs._m2_rows
    monkeypatch.setattr(graphs, "_m2_rows", spy)
    for g in (build_g_plus(9, 3), build_g_times(13, 4)):
        label = g._symmetry[1]
        assert _q_moments(g) is not None
        assert read.pop() == sorted(set(label.tolist()))
    g = build_g_plus(9, 3)
    g.__dict__["_symmetry"] = [], None
    assert _q_moments(g) is not None and read.pop() == list(range(g.n))


def test_an_asymmetric_matrix_reads_no_row(monkeypatch):
    """M not symmetric fails the check before a row of M^2 is read."""
    g = cached_graph("plus", 9, 3)
    rows = list(g.rows)
    rows[0] ^= 1 << 5  # one direction only
    h = from_rows(tuple(rows), g.labels, g.meta)
    monkeypatch.setattr(graphs, "_m2_rows", _no_dense_route)
    assert _q_moments(h) is None
    assert _spectrum_outcome(verify_spectrum, h) == _spectrum_outcome(_dense_report, h)


def test_an_irregular_file_keeps_no_map_and_reads_no_row(monkeypatch):
    """Toggling the pair {0, π(0)} of plus(8,2), π a translation (an
    involution), leaves every row of π's image in place but the file
    irregular: it keeps no map, and the M^2 = Q check reads no row."""
    g = cached_graph("plus", 8, 2)
    index = np.arange(g.n)
    pi = next(perm for perm in graphs._field_maps(g) if np.array_equal(perm[perm], index))
    h = from_g2t(to_g2t(_toggled(g, 0, int(pi[0]))))
    m = h.adjacency_matrix()
    assert np.array_equal(m[np.ix_(pi, pi)], m) and graphs._regular_view(h) is None
    assert h._symmetry == ([], None)
    monkeypatch.setattr(graphs, "_m2_rows", _no_dense_route)
    assert _q_moments(h) is None


def test_a_one_regular_file_reads_bounded_blocks(monkeypatch):
    """A perfect matching under plus(64,2) metadata (n = 2,016) that keeps a
    translation π: the orbits {u, π(u)} are paired at random, u with v and
    π(u) with π(v).  Its 1,008 orbit rows of M^2 are read at most
    ``_WALKS`` entries a block, where a bound on the 2-walks alone (one a
    row) would put them in one 16 MB block.  The M^2 = Q check reads no
    row, as the file is not 63-regular, so the audit takes the GEMM and the
    spectrum the dense route, each equal to its oracle."""
    g = cached_graph("plus", 64, 2)
    index = np.arange(g.n)
    pi = next(perm for perm in graphs._field_maps(g) if np.array_equal(perm[perm], index))
    orbits = np.flatnonzero(index < pi)
    random.Random(0).shuffle(orbits)
    u, v = orbits.reshape(-1, 2).T
    pairs = np.concatenate([np.stack([u, v]), np.stack([pi[u], pi[v]])], axis=1)
    rows = [0] * g.n
    for x, y in pairs.T.tolist():
        rows[x], rows[y] = 1 << y, 1 << x
    h = from_g2t(to_g2t(from_rows(tuple(rows), g.labels, g.meta)))
    label = h._symmetry[1]
    assert len(set(label.tolist())) == g.n // 2
    blocks = [len(vs) for vs, _ in graphs._m2_rows(h, np.flatnonzero(label == index))]
    assert sum(blocks) == g.n // 2 and max(blocks) * h.n <= graphs._WALKS
    monkeypatch.setattr(graphs, "_m2_rows", _no_dense_route)
    assert not h._m2_is_q and _q_moments(h) is None
    assert codegree_histogram(h) == {0: h.n * (h.n - 1) // 2}  # no two share a neighbour
    assert _spectrum_outcome(verify_spectrum, h) == _spectrum_outcome(_dense_report, h)


def test_audit_and_spectrum_peak_stays_small():
    """times(121,15), n = 968: the maps, the orbits and the rows of M^2 at
    the 6 orbits traced together under 4 MB (float32 M alone is 3.7 MB)."""
    g = build_g_times(121, 15)
    tracemalloc.start()
    try:
        audit, rep = structural_audit(g), verify_spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit.passed and rep.passed and rep.annihilator_verified
    assert peak < 4 << 20, peak


@pytest.mark.long
def test_plus_256_2_audits_and_certifies_under_600_mb():
    """plus(256,2), n = 32,640, where float32 M alone would take 4.3 GB: the
    audit and the spectrum in a fresh interpreter, under 600 MB peak RSS.
    The child reads its own VmHWM: its ru_maxrss would carry the pytest
    process's high-water mark across the fork."""
    script = """if True:
        from ramseycert.graphs import build_g_plus, structural_audit
        from ramseycert.spectral import verify_spectrum
        g = build_g_plus(256, 2)
        audit, rep = structural_audit(g), verify_spectrum(g)
        assert audit.passed and rep.passed and rep.annihilator_verified
        n, C, w = g.n, 128, 255
        assert audit.common_nbhd_histogram == {
            0: w * C * (C - 1) // 2, 1: C * w * (w - 1) // 2,
            2: n * (n - 1) // 2 - w * C * (C - 1) // 2 - C * w * (w - 1) // 2}
        assert rep.multiplicities == {"q-1": 1, "+sqrt(q)": 16129, "-sqrt(q)": 16129,
                                      "+1": 0, "-1": 127, "0": 254}
        with open("/proc/self/status") as f:
            print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))  # kB
    """
    src = str(Path(spectral.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=600)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 600 * 1024


def _no_dense_route(*args, **kwargs):
    raise AssertionError("a construction took the dense route")


@pytest.mark.parametrize("variant,q,t", FLEET_1000)
def test_q_route_equals_dense_oracle_on_the_fleet(variant, q, t, monkeypatch):
    g = cached_graph(variant, q, t)
    want = _dense_report(g)
    monkeypatch.setattr(spectral, "_dense_route", _no_dense_route)
    assert verify_spectrum(g) == want


@pytest.mark.parametrize("variant,q,t", FLEET_200)
def test_four_count_moments_equal_dense_walk_moments(variant, q, t):
    g = cached_graph(variant, q, t)
    assert _q_moments(g) == _dense_route(g, q)[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FLEET_200), st.sampled_from(["as built", "permuted", "toggled"]),
       st.integers(0, 2**32 - 1))
def test_spectrum_matches_dense_oracle_on_drawn_fleet_graphs(case, change, seed):
    """The same report, or the same refusal, as the dense route, on fleet
    graphs as built, with their vertices shuffled, or with one edge toggled."""
    g = cached_graph(*case)
    if change == "permuted":
        g = _permuted(g, seed)
    elif change == "toggled":
        rng = random.Random(seed)
        g = _toggled(g, rng.randrange(g.n), rng.randrange(g.n))
    assert _spectrum_outcome(verify_spectrum, g) == _spectrum_outcome(_dense_report, g)


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 7, 3), ("plus", 16, 4)])
def test_permuted_construction_takes_the_dense_route(variant, q, t):
    # the shuffled file keeps the construction's labels, so it reads back
    g = from_g2t(to_g2t(_permuted(cached_graph(variant, q, t), seed=1)))
    assert _q_moments(g) is None
    rep = verify_spectrum(g)
    assert rep == _dense_report(g)
    assert rep.annihilator_verified and rep.passed


@pytest.mark.parametrize("u,v", [(0, 9), (0, 0), (5, 17)])
def test_one_edge_toggle_takes_the_dense_route(u, v):
    g = _toggled(cached_graph("plus", 9, 3), u, v)
    assert _q_moments(g) is None
    got = _spectrum_outcome(verify_spectrum, g)
    assert got == _spectrum_outcome(_dense_report, g)
    assert isinstance(got, str) or not got.annihilator_verified


def test_plus_2_2_solve_is_singular_on_either_route(tmp_path, capsys):
    # q = 2 only in plus(2,2), n = 1: the pivot's factor q - 2 makes the moment
    # solve singular, so no q >= 3 guard is needed in front of the M^2 = Q route
    g = build_g_plus(2, 2)
    unlooped = _toggled(g, 0, 0)
    assert _q_moments(g) is not None and _q_moments(unlooped) is None
    for verify, graph in ((verify_spectrum, g), (_dense_report, g), (verify_spectrum, unlooped)):
        assert _spectrum_outcome(verify, graph) == "SpectralSolveError: singular moment system"
    path = tmp_path / "plus_2_2.g2t"
    write_g2t(g, str(path))
    assert cli.main(["spectrum", str(path)]) == 1
    assert capsys.readouterr().err == "spectrum check failed: singular moment system\n"


# -- characters and Gauss sums ------------------------------------------------------
#
# The numeric route behind the multiplicity tables: a character chi of the
# quotient group and a character phi of the other factor give the vector
# v[(coset, x)] = chi(coset rep) phi(x), and M v = Gamma(chi, phi) conj(v).


def construction_parts(g: Graph) -> tuple[Field, Subgroup]:
    """Rebuild the field and subgroup behind a constructed graph's labels."""
    F = make_field(g.meta.p, g.meta.a)
    return F, subgroup(F, "additive" if g.meta.variant == "plus" else "multiplicative", g.meta.t)


def h_perp(field: Field, H: Subgroup) -> list[int]:
    """The c with Tr(c*h) = 0 for all h in H: parameters of the quotient's characters."""
    basis = [h for h in H.elements if h]
    return sorted(c for c in field.elements()
                  if all(field.trace(field.mul(c, h)) == 0 for h in basis))


def quotient_character(F: Field, H: Subgroup, index: int) -> Character:
    """The index-th character of the quotient by H, as the field character
    that is constant on H's cosets: additive with c = h_perp(F, H)[index], or
    multiplicative with j = index * |H|.  Index 0 stays the principal one."""
    if H.kind == "additive":
        return make_character(F, "additive-on-field", h_perp(F, H)[index])
    return make_character(F, "multiplicative-on-field", index * H.order)


def gamma_sum(chi: Character, phi: Character) -> complex:
    """The eigenvalue sum Gamma = sum over nonzero z of chi(z) phi(z)."""
    return sum(chi(z) * phi(z) for z in chi.field.units())


def character_vector(g: Graph, chi: Character, phi: Character) -> np.ndarray:
    """The vector v[(coset, x)] = chi(coset rep) * phi(x)."""
    _, H = construction_parts(g)
    return np.array([chi(H.reps[cid]) * phi(x) for cid, x in g.labels])


def _pair_fixture(q=9, t=3):
    g = cached_graph("plus", q, t)
    F, H = construction_parts(g)
    return g, F, H


def test_h_perp_is_the_annihilator_subspace():
    _, F, H = _pair_fixture()
    perp = h_perp(F, H)
    assert len(perp) == F.q // H.order
    for c in perp:
        assert all(F.trace(F.mul(c, h)) == 0 for h in H.elements)


def test_quotient_characters_are_constant_on_cosets():
    _, F, H = _pair_fixture()
    chi = quotient_character(F, H, 2)
    for x in F.elements():
        for h in H.elements:
            assert cmath.isclose(chi(F.add(x, h)), chi(x), abs_tol=1e-12)

    Fm = make_field(7, 1)
    Hm = subgroup(Fm, "multiplicative", 3)
    phi = quotient_character(Fm, Hm, 1)
    for x in Fm.units():
        for h in Hm.elements:
            assert cmath.isclose(phi(Fm.mul(x, h)), phi(x), abs_tol=1e-12)


def test_character_orthogonality():
    F = make_field(5, 1)
    for kind, domain, order in (("additive-on-field", F.elements(), 5),
                                ("multiplicative-on-field", F.units(), 4)):
        chars = [make_character(F, kind, i) for i in range(order)]
        for ci in chars:
            for cj in chars:
                s = sum(ci(x) * cj(x).conjugate() for x in domain)
                expect = order if ci.index == cj.index else 0
                assert abs(s - expect) < 1e-9


def test_conjugate_index_gives_conjugate_values():
    F = make_field(7, 1)
    chi = make_character(F, "multiplicative-on-field", 2)
    bar = make_character(F, "multiplicative-on-field", -chi.index % (F.q - 1))
    for x in F.units():
        assert cmath.isclose(bar(x), chi(x).conjugate(), abs_tol=1e-12)


def test_make_character_validation():
    F = make_field(3, 2)
    with pytest.raises(ValueError):
        make_character(F, "legendre", 0)
    for kind in ("additive-on-quotient", "multiplicative-on-quotient"):
        with pytest.raises(ValueError, match="unknown character kind"):
            make_character(F, kind, 0)
    with pytest.raises(ValueError):
        make_character(F, "additive-on-field", 9)  # the group has order 9
    chi = make_character(F, "multiplicative-on-field", 1)
    with pytest.raises(ValueError):
        chi(0)


def test_legendre_character_squares():
    # index (q-1)/2 is the quadratic character: +1 on squares, -1 on nonsquares
    F = make_field(7, 1)
    leg = make_character(F, "multiplicative-on-field", 3)
    squares = {F.mul(x, x) for x in F.units()}
    for x in F.units():
        want = 1.0 if x in squares else -1.0
        assert cmath.isclose(leg(x), want, abs_tol=1e-12)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_gauss_sum_magnitudes(q):
    p = 3 if q == 9 else q
    a = 2 if q == 9 else 1
    F = make_field(p, a)
    root = sqrt(q)
    for i in range(q):
        chi = make_character(F, "additive-on-field", i)
        for j in range(q - 1):
            phi = make_character(F, "multiplicative-on-field", j)
            s = gauss_sum(chi, phi)
            if i == 0 and j == 0:
                assert abs(s - (q - 1)) < 1e-9
            elif i == 0:
                assert abs(s) < 1e-9
            elif j == 0:
                assert abs(s + 1) < 1e-9
            else:
                assert abs(abs(s) - root) < 1e-9 * root


def test_gauss_sum_rejects_wrong_kinds():
    F = make_field(5, 1)
    chi = make_character(F, "additive-on-field", 1)
    with pytest.raises(ValueError):
        gauss_sum(chi, chi)


def _character_pairs(g: Graph):
    """(chi, phi) over every quotient character chi and every character phi
    of the other factor: the additive quotient with the units for plus, the
    unit-group quotient with the additive group for times."""
    F, H = construction_parts(g)
    phi_kind = "multiplicative-on-field" if g.meta.variant == "plus" else "additive-on-field"
    phi_order = F.q - 1 if g.meta.variant == "plus" else F.q
    for i in range(H.num_cosets):
        chi = quotient_character(F, H, i)
        for j in range(phi_order):
            yield chi, make_character(F, phi_kind, j)


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 7, 3), ("times", 13, 3)])
def test_gamma_sum_case_analysis(variant, q, t):
    root = sqrt(q)
    for chi, phi in _character_pairs(cached_graph(variant, q, t)):
        s = gamma_sum(chi, phi)
        if chi.index == 0 and phi.index == 0:
            assert abs(s - (q - 1)) < 1e-9
        elif chi.index == 0 or phi.index == 0:
            # exactly 0 (non-principal multiplicative summed over units)
            # or exactly -1 (non-principal additive summed over units)
            additive_side = chi if chi.kind == "additive-on-field" else phi
            if additive_side.index == 0:
                assert abs(s) < 1e-9
            else:
                assert abs(s + 1) < 1e-9
        else:
            assert abs(abs(s) - root) < 1e-9 * root


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 7, 3)])
def test_character_vectors_are_eigenvectors(variant, q, t):
    # M v(chi, phi) = Gamma(chi, phi) * conj(v): the numeric route behind the
    # multiplicity tables; checked for every character pair of the graph
    g = cached_graph(variant, q, t)
    m = g.adjacency_matrix(dtype=np.float64)
    for chi, phi in _character_pairs(g):
        v = character_vector(g, chi, phi)
        assert np.max(np.abs(m @ v - gamma_sum(chi, phi) * np.conj(v))) < 1e-9 * q
