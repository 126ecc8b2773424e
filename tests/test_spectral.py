"""Spectrum certification: exact moments/multiplicities and the character route."""

import cmath
import random
from collections import Counter
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramseycert import spectral
from ramseycert.fields import make_field, subgroup
from ramseycert.graphs import (
    Graph,
    GraphMeta,
    _exact_walks,
    build_g_plus,
    codegree_histogram,
    common_neighbors,
    from_edges,
    from_g2t,
    to_g2t,
)
from ramseycert.random_model import sample_gnp
from ramseycert.spectral import (
    CHARACTER_KINDS,
    SpectralSolveError,
    annihilator_residual,
    character_vector,
    closed_form_multiplicities,
    construction_parts,
    eigen_moments,
    gamma_sum,
    gauss_sum,
    h_perp,
    make_character,
    solve_multiplicities,
    verify_spectrum,
)
from conftest import ALL_CASES, cached_graph

ODD_SMALL = [c for c in ALL_CASES if c[1] % 2 == 1 and c[1] <= 49]

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
    assert eigen_moments(g, 6) == _eigen_moments_exact_int(g, 6)
    residual = np.abs(_annihilator_int64(g, q)).max() if n else 0
    assert annihilator_residual(g) == residual


# -- moments ---------------------------------------------------------------------


def test_moment_identities_on_oracles():
    g = cached_graph("plus", 9, 3)
    mom = eigen_moments(g, 5)
    assert mom == PLUS_9_3_MOMENTS
    assert mom[1] == g.loop_count() == 8
    assert mom[2] == g.n * (g.meta.q - 1)
    g = cached_graph("times", 5, 2)
    mom = eigen_moments(g, 5)
    assert mom[0] == 10 and mom[2] == 40


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 13, 4), ("plus", 16, 4)])
def test_gemm_moments_match_integer_walk_counts(variant, q, t):
    g = cached_graph(variant, q, t)
    assert eigen_moments(g, 5) == _eigen_moments_exact_int(g, 5)


def test_gemm_dtype_threshold(monkeypatch):
    # the walks stay float32 past the old float64 switch at degree 256 ...
    star = from_edges(258, [(0, v) for v in range(1, 258)], meta=GraphMeta("other", q=2))
    m = star.adjacency_matrix(np.int64)
    walks = _exact_walks(star, 3)
    assert [w.dtype for w in walks] == [np.float32] * 3
    assert (walks[2] == m @ m @ m).all()
    # ... up to the float32 bound d^2 < 2^24 on M^3: d = 4095 passes, 4096 not
    # (the star's matrix is replaced, only the bound check is under test)
    monkeypatch.setattr(Graph, "adjacency_matrix",
                        lambda self, dtype: np.zeros((1, 1), dtype=dtype))
    for d, ok in ((4095, True), (4096, False)):
        star = from_edges(d + 1, [(0, v) for v in range(1, d + 1)])
        if ok:
            assert _exact_walks(star, 3)[0].dtype == np.float32
        else:
            with pytest.raises(ValueError):
                _exact_walks(star, 3)


def test_spectrum_moments_use_the_measured_degree(monkeypatch):
    # a plus(32,2) header over a graph of degree up to 428: the walk bounds
    # must come from the edges, not from q - 1 = 31
    g = build_g_plus(32, 2)
    noise = sample_gnp(g.n, 0.8, 3)
    rows = tuple(a | b for a, b in zip(g.rows, noise.rows))
    g = from_g2t(to_g2t(Graph(rows=rows, labels=g.labels, meta=g.meta)))
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


def test_exactness_bounds_refuse():
    star = from_edges(4097, [(0, v) for v in range(1, 4097)], meta=GraphMeta("other", q=2))
    with pytest.raises(ValueError):
        annihilator_residual(star)  # d^2 = 2^24, past the float32 bound for M^3
    with pytest.raises(ValueError):
        eigen_moments(star, 6)


def test_eigen_moments_rejects_bad_jmax():
    g = cached_graph("plus", 4, 2)
    with pytest.raises(ValueError):
        eigen_moments(g, 7)


# -- multiplicity solve ------------------------------------------------------------


def test_solve_multiplicities_oracle():
    assert solve_multiplicities(PLUS_9_3_MOMENTS, 9, 24) == PLUS_9_3_MULT


def test_solve_rejects_wrong_shape_moments():
    # a 4-cycle is not supported on {q-1, ±sqrt(q), ±1, 0} for q = 9
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    mom = eigen_moments(c4, 5)
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


def test_verify_spectrum_rejects_synthetic_graphs():
    with pytest.raises(ValueError):
        verify_spectrum(from_edges(4, [(0, 1)]))


# -- annihilator soundness ----------------------------------------------------------


def test_annihilator_zero_on_construction():
    assert annihilator_residual(cached_graph("times", 11, 5)) == 0.0


def test_annihilator_detects_tampering():
    g = cached_graph("plus", 9, 3)
    rows = list(g.rows)
    # remove one genuine edge (pick the lowest non-loop bit of row 0)
    r = rows[0] & ~(1 << 0)
    v = (r & -r).bit_length() - 1
    rows[0] &= ~(1 << v)
    rows[v] &= ~(1 << 0)
    bad = Graph(rows=tuple(rows), labels=g.labels, meta=g.meta)
    assert annihilator_residual(bad) > 0


# -- characters and Gauss sums ------------------------------------------------------


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
    chi = make_character(F, H, "additive-on-quotient", 2)
    for x in F.elements():
        for h in H.elements:
            assert cmath.isclose(chi(F.add(x, h)), chi(x), abs_tol=1e-12)

    Fm = make_field(7, 1)
    Hm = subgroup(Fm, "multiplicative", 3)
    phi = make_character(Fm, Hm, "multiplicative-on-quotient", 1)
    for x in Fm.units():
        for h in Hm.elements:
            assert cmath.isclose(phi(Fm.mul(x, h)), phi(x), abs_tol=1e-12)


def test_character_orthogonality():
    F = make_field(5, 1)
    for kind, domain, order in (("additive-on-field", F.elements(), 5),
                                ("multiplicative-on-field", F.units(), 4)):
        chars = [make_character(F, None, kind, i) for i in range(order)]
        for ci in chars:
            for cj in chars:
                s = sum(ci(x) * cj(x).conjugate() for x in domain)
                expect = order if ci.index == cj.index else 0
                assert abs(s - expect) < 1e-9


def test_conjugate_index_gives_conjugate_values():
    F = make_field(7, 1)
    chi = make_character(F, None, "multiplicative-on-field", 2)
    bar = make_character(F, None, "multiplicative-on-field", chi.conjugate_index())
    for x in F.units():
        assert cmath.isclose(bar(x), chi(x).conjugate(), abs_tol=1e-12)


def test_make_character_validation():
    F = make_field(3, 2)
    H = subgroup(F, "additive", 3)
    with pytest.raises(ValueError):
        make_character(F, None, "legendre", 0)
    with pytest.raises(ValueError):
        make_character(F, None, "additive-on-quotient", 0)  # subgroup required
    with pytest.raises(ValueError):
        make_character(F, H, "additive-on-quotient", 99)
    with pytest.raises(ValueError):
        make_character(F, H, "multiplicative-on-quotient", 0)  # wrong subgroup kind
    chi = make_character(F, None, "multiplicative-on-field", 1)
    with pytest.raises(ValueError):
        chi(0)
    assert len(CHARACTER_KINDS) == 4


def test_legendre_character_squares():
    # index (q-1)/2 is the quadratic character: +1 on squares, -1 on nonsquares
    F = make_field(7, 1)
    leg = make_character(F, None, "multiplicative-on-field", 3)
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
        chi = make_character(F, None, "additive-on-field", i)
        for j in range(q - 1):
            phi = make_character(F, None, "multiplicative-on-field", j)
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
    chi = make_character(F, None, "additive-on-field", 1)
    with pytest.raises(ValueError):
        gauss_sum(chi, chi)


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 7, 3), ("times", 13, 3)])
def test_gamma_sum_case_analysis(variant, q, t):
    g = cached_graph(variant, q, t)
    F, H = construction_parts(g)
    kinds = (("additive-on-quotient", "multiplicative-on-field") if variant == "plus"
             else ("multiplicative-on-quotient", "additive-on-field"))
    chi_order = F.q // t if variant == "plus" else (q - 1) // t
    phi_order = q - 1 if variant == "plus" else q
    root = sqrt(q)
    for i in range(chi_order):
        chi = make_character(F, H, kinds[0], i)
        for j in range(phi_order):
            phi = make_character(F, None, kinds[1], j)
            s = gamma_sum(chi, phi, variant)
            if i == 0 and j == 0:
                assert abs(s - (q - 1)) < 1e-9
            elif i == 0 or j == 0:
                # exactly 0 (non-principal multiplicative summed over units)
                # or exactly -1 (non-principal additive summed over units)
                additive_side = (chi if kinds[0].startswith("additive") else phi)
                if additive_side.is_principal:
                    assert abs(s) < 1e-9
                else:
                    assert abs(s + 1) < 1e-9
            else:
                assert abs(abs(s) - root) < 1e-9 * root


def test_gamma_sum_rejects_mismatched_kinds():
    g = cached_graph("plus", 9, 3)
    F, H = construction_parts(g)
    chi = make_character(F, H, "additive-on-quotient", 1)
    phi = make_character(F, None, "multiplicative-on-field", 1)
    with pytest.raises(ValueError):
        gamma_sum(chi, phi, "times")
    with pytest.raises(ValueError):
        gamma_sum(chi, phi, "hexagonal")


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 7, 3)])
def test_character_vectors_are_eigenvectors(variant, q, t):
    # M v(chi, phi) = Gamma(chi, phi) * conj(v): the numeric route behind the
    # multiplicity tables; checked for every character pair of the graph
    g = cached_graph(variant, q, t)
    F, H = construction_parts(g)
    kinds = (("additive-on-quotient", "multiplicative-on-field") if variant == "plus"
             else ("multiplicative-on-quotient", "additive-on-field"))
    chi_order = F.q // t if variant == "plus" else (q - 1) // t
    phi_order = q - 1 if variant == "plus" else q
    m = g.adjacency_matrix(dtype=np.float64)
    for i in range(chi_order):
        chi = make_character(F, H, kinds[0], i)
        for j in range(phi_order):
            phi = make_character(F, None, kinds[1], j)
            v = character_vector(g, chi, phi)
            gamma = gamma_sum(chi, phi, variant)
            assert np.max(np.abs(m @ v - gamma * np.conj(v))) < 1e-9 * q


def test_construction_parts_rejects_synthetic():
    with pytest.raises(ValueError):
        construction_parts(from_edges(3, [(0, 1)]))
