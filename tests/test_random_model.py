"""Random-graph recipe, sampler, witness counting, Monte-Carlo invariants and
pinned ``random --json`` output."""

import contextlib
import hashlib
import io
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramseycert import cli
from ramseycert.random_model import (
    C3_DEFAULT,
    E8,
    DegenerateRecipeError,
    RandomRecipe,
    expected_k2t_log,
    frieze_alpha_estimate,
    k2t_witness_count,
    lemma_parameters,
    monte_carlo_check,
    sample_gnp,
)
from ramseycert.graphs import _bits, _codegree_counts
from conftest import cached_graph, codegree_dict, common_neighbors, from_edges


# -- recipe -----------------------------------------------------------------------


def test_recipe_100_10():
    r = lemma_parameters(100, 10, 1.0)
    assert r.n == 2096 == round(10**5 / math.log(1000) ** 2)
    assert r.p == pytest.approx(1.265e-3, rel=1e-3)
    assert r.p == pytest.approx(math.sqrt(10 / (E8 * 2096)), rel=1e-15)
    assert r.d == pytest.approx(r.p * r.n, rel=1e-15)


def test_recipe_tiny():
    assert lemma_parameters(1, 2, 1.0).n == 4


def test_recipe_paper_default_degenerates():
    assert C3_DEFAULT == 1 / (400 * E8)
    with pytest.raises(DegenerateRecipeError):
        lemma_parameters(1000, 50)  # paper constant collapses n to 0 at desk scale


def test_recipe_validation():
    with pytest.raises(ValueError):
        lemma_parameters(0, 2, 1.0)
    with pytest.raises(ValueError):
        lemma_parameters(10, 1, 1.0)
    with pytest.raises(ValueError):
        lemma_parameters(10, 2, -1.0)


# -- sampler ----------------------------------------------------------------------


def test_gnp_extremes():
    g0 = sample_gnp(20, 0.0, seed=1)
    assert g0.edge_count() == 0
    g1 = sample_gnp(20, 1.0, seed=1)
    assert g1.edge_count() == 20 * 19 // 2
    assert g1.loop_count() == 0
    assert g1.meta.variant == "random"


def test_gnp_determinism_and_streams():
    a = sample_gnp(50, 0.3, seed=9)
    b = sample_gnp(50, 0.3, seed=9)
    c = sample_gnp(50, 0.3, seed=10)
    d = sample_gnp(50, 0.3, seed=9, stream=1)
    assert a.rows == b.rows
    assert a.rows != c.rows
    assert a.rows != d.rows


def test_gnp_edge_count_within_4_sigma():
    mean = math.comb(100, 2) * 0.5
    sigma = math.sqrt(math.comb(100, 2) * 0.25)
    assert sigma == pytest.approx(35.18, abs=0.01)
    for seed in range(10):
        edges = sample_gnp(100, 0.5, seed=seed).edge_count()
        assert abs(edges - mean) <= 4 * sigma


def test_gnp_symmetry():
    g = sample_gnp(40, 0.4, seed=3)
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
        assert not g.rows[u] >> u & 1


# -- expected count ----------------------------------------------------------------


def test_expected_k2t_log_direct_value():
    val, chain = expected_k2t_log(100, 0.1, 3)
    assert val == pytest.approx(math.log(100**2 * math.comb(100, 3) * 0.1**6), rel=1e-12)
    assert chain is None  # p is not the recipe value here


def test_expected_k2t_log_tiny_p_tends_to_minus_infinity():
    val, _ = expected_k2t_log(100, 1e-200, 3)
    assert val < -2000


def test_expected_k2t_chain_bound():
    for n, t in ((2096, 10), (500, 4)):
        p = math.sqrt(t / (E8 * n))
        val, chain = expected_k2t_log(n, p, t)
        assert chain is not None
        assert chain == pytest.approx(2 * math.log(n) - 7 * t, rel=1e-12)
        assert val <= chain  # n^2 C(n,t) p^2t <= n^2 e^-7t at the recipe p


def test_expected_k2t_log_validation():
    with pytest.raises(ValueError):
        expected_k2t_log(10, 0.5, 1)
    with pytest.raises(ValueError):
        expected_k2t_log(10, 1.5, 3)
    val, chain = expected_k2t_log(10, 0.0, 3)
    assert val == float("-inf") and chain is None


# -- witness detection --------------------------------------------------------------


@dataclass(frozen=True)
class K2tWitness:
    """A pair with >= t common neighbors, plus t of them."""

    u: int
    v: int
    common: tuple[int, ...]


def find_k2t(g, t: int) -> K2tWitness | None:
    """First vertex pair with >= t common neighbors in the codegree counts
    behind ``k2t_witness_count``, or None."""
    for key, c in zip(*_codegree_counts(g)):
        if c >= t:
            u, v = divmod(int(key), g.n)
            return K2tWitness(u=u, v=v, common=tuple(common_neighbors(g, u, v)[:t]))
    return None


def test_find_k2t_on_complete_bipartite():
    # K_{2,3}: parts {0,1} and {2,3,4}
    g = from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    w = find_k2t(g, 3)
    assert w is not None and {w.u, w.v} == {0, 1} and len(w.common) == 3
    assert find_k2t(from_edges(5, []), 2) is None


def test_find_k2t_on_construction_is_none_above_t():
    g = cached_graph("plus", 9, 3)
    assert find_k2t(g, 4) is None  # every pair has at most 3 common neighbors
    assert find_k2t(g, 3) is not None


def _naive_max_codegree_pair(g, t):
    best = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = [w for w in range(g.n)
                      if w in g.neighbors(u) and w in g.neighbors(v)]
            if len(common) >= t:
                return (u, v)
    return best


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 30), st.integers(2, 4), st.integers(0, 1000))
def test_find_k2t_matches_naive_scan(n, t, seed):
    g = sample_gnp(n, 0.4, seed=seed)
    got = find_k2t(g, t)
    naive = _naive_max_codegree_pair(g, t)
    assert (got is None) == (naive is None)
    if got is not None:
        assert len(got.common) == t
        assert all(w in g.neighbors(got.u) and w in g.neighbors(got.v)
                   for w in got.common)


def _sample_gnp_loop(n, p, seed, stream=0):
    """The bit-by-bit sampler ``sample_gnp`` replaced: the same Philox draws,
    row i's hits j > i set one bit at a time in rows i and j."""
    key = np.array([seed & (2**64 - 1), stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    rows = [0] * n
    for i in range(n - 1):
        for off in np.flatnonzero(rng.random(n - 1 - i) < p):
            j = i + 1 + int(off)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]),
       st.integers(-2**63, 2**64 - 1), st.integers(0, 3))
def test_sampler_equals_the_bit_loop(n, p, seed, stream):
    g = sample_gnp(n, p, seed, stream)
    assert list(g.rows) == _sample_gnp_loop(n, p, seed, stream)
    start, nbr = g.start, g.nbr
    assert nbr.tolist() == [v for r in g.rows for v in _bits(r)]
    assert start.tolist() == [0, *np.cumsum([r.bit_count() for r in g.rows]).tolist()]


def test_every_seed_is_its_own_key():
    """Seeds past int64 either way key their own streams: a key list with an
    entry >= 2^63 would turn float64, and neighbouring seeds would share it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in [(-1, -2), (2**63 + 1, 2**63 + 2)]:
            assert sample_gnp(30, 0.5, a).rows != sample_gnp(30, 0.5, b).rows
        assert sample_gnp(30, 0.5, -1).rows == sample_gnp(30, 0.5, 2**64 - 1).rows


def test_sampler_equals_the_bit_loop_on_a_recipe_sample():
    r = lemma_parameters(100, 10, 1.0, seed=1)
    assert list(sample_gnp(r.n, r.p, 1, 2).rows) == _sample_gnp_loop(r.n, r.p, 1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_codegree_counts_equal_the_pair_dict(n, density, seed):
    """Looped irregular graphs (no neighbour arrays handed over) and samples."""
    rng = random.Random(seed)
    g = from_edges(n, [(u, v) for u in range(n) for v in range(u, n) if rng.random() < density])
    for h in (g, sample_gnp(n, density, seed)):
        assert _counts_as_dict(h) == codegree_dict(h)


def _counts_as_dict(g) -> dict[tuple[int, int], int]:
    key, count = _codegree_counts(g)
    return {divmod(k, g.n): c for k, c in zip(key.tolist(), count.tolist())}


@pytest.mark.parametrize("variant,q,t", [("plus", 9, 3), ("times", 13, 4), ("plus", 16, 2)])
def test_codegree_counts_equal_the_pair_dict_on_constructions(variant, q, t):
    """The pair count, and the witness count that these graphs read off
    Q's closed form (``Graph._m2_is_q``), against the pair dict."""
    g = cached_graph(variant, q, t)
    pairs = codegree_dict(g)
    assert _counts_as_dict(g) == pairs
    assert g._m2_is_q
    for s in (2, t, t + 1):
        assert k2t_witness_count(g, s) == sum(math.comb(c, s) for c in pairs.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 20), st.integers(2, 3), st.integers(0, 1000))
def test_witness_count_is_sum_of_binomials(n, t, seed):
    g = sample_gnp(n, 0.5, seed=seed)
    direct = 0
    for u in range(g.n):
        ru = g.rows[u]
        for v in range(u + 1, g.n):
            direct += math.comb((ru & g.rows[v]).bit_count(), t)
    assert k2t_witness_count(g, t) == direct


# -- frieze estimate ----------------------------------------------------------------


def test_frieze_example_value():
    center, working = frieze_alpha_estimate(10**4, 0.01)
    assert center == pytest.approx(677.0, abs=0.05)
    assert working == pytest.approx((20 * 10**4 / 100) * math.log(100), rel=1e-12)


def test_frieze_domain_and_linearity():
    with pytest.raises(ValueError):
        frieze_alpha_estimate(100, math.e / 100)  # d = e < 3
    c1, w1 = frieze_alpha_estimate(10**4, 0.01)
    c2, w2 = frieze_alpha_estimate(2 * 10**4, 0.005)  # same d, doubled n
    assert c2 == pytest.approx(2 * c1, rel=1e-12)
    assert w2 == pytest.approx(2 * w1, rel=1e-12)


# -- monte carlo -------------------------------------------------------------------


def test_monte_carlo_p_zero_recipe():
    recipe = RandomRecipe(m=5, t=3, c3=1.0, n=40, p=0.0, seed=0)
    rep = monte_carlo_check(recipe, samples=5)
    assert rep["summary"]["fraction_k2t_free"] == 1.0
    assert all(row["alpha"] == 40 and row["alpha_exact"] for row in rep["rows"])


def test_monte_carlo_deterministic_given_seed():
    recipe = lemma_parameters(30, 3, 1.0, seed=11)
    r1 = monte_carlo_check(recipe, samples=4)
    r2 = monte_carlo_check(recipe, samples=4)
    assert r1["rows"] == r2["rows"]


def test_monte_carlo_threads_do_not_change_results():
    recipe = lemma_parameters(30, 3, 1.0, seed=5)
    seq = monte_carlo_check(recipe, samples=4, threads=1)
    par = monte_carlo_check(recipe, samples=4, threads=2)
    assert seq["rows"] == par["rows"]


def test_monte_carlo_pool_never_exceeds_samples(monkeypatch):
    """min(threads, samples) workers, sequential at 1; the recording stand-in
    for Pool runs the map in this process, so no worker is ever started."""
    import multiprocessing

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return [fn(a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    recipe = lemma_parameters(30, 3, 1.0, seed=5)
    want = monte_carlo_check(recipe, samples=3, threads=1)["rows"]
    assert sizes == []
    assert monte_carlo_check(recipe, samples=3, threads=100000)["rows"] == want
    assert sizes == [3]
    monte_carlo_check(recipe, samples=1, threads=100000)
    assert sizes == [3]  # one sample runs in this process


def test_monte_carlo_summary_gates():
    recipe = lemma_parameters(60, 6, 1.0, seed=2)
    rep = monte_carlo_check(recipe, samples=8)
    s = rep["summary"]
    assert s["edge_within_4sigma"]
    assert s["witness_within_3x"]
    assert s["tolerances_are_engineering_choices"] is True
    assert rep["samples"] == 8 and len(rep["rows"]) == 8


def test_pairs_with_two_common_neighbors_match_binomial_tail():
    """Empirical mean of pairs with >= 2 common neighbors at (n=30, p=0.3)
    vs. the exact per-pair binomial tail, within 3 standard errors.
    """
    n, p, t, samples = 30, 0.3, 2, 10**4
    # P(codegree >= 2), codegree ~ Binomial(n-2, p^2)
    pp = p * p
    tail = 1.0 - (1 - pp) ** (n - 2) - (n - 2) * pp * (1 - pp) ** (n - 3)
    analytic = math.comb(n, 2) * tail
    counts = np.empty(samples)
    for i in range(samples):
        g = sample_gnp(n, p, seed=7, stream=i)
        rows = g.rows
        cnt = 0
        for u in range(n):
            ru = rows[u]
            for v in range(u + 1, n):
                if (ru & rows[v]).bit_count() >= t:
                    cnt += 1
        counts[i] = cnt
    se = counts.std(ddof=1) / math.sqrt(samples)
    assert abs(counts.mean() - analytic) <= 3 * se


# -- pinned CLI output --------------------------------------------------------------

# `random --json` runs pinned by the exit code and the SHA-256 of stdout and
# stderr: the README recipe at n = 2,096 (greedy alpha) and the CLI schema
# test's recipe (exact alpha).  Regenerate only at a commit whose outputs are
# the intended ones.
RANDOM_PINS = {
    "random --m 100 --t 10 --c3 1 --samples 4 --threads 1": (
        0, "ecc42c1a64ecb2f2a16e9174f4a4a4515b165592a0b2929d00182dfe7ca38607",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "random --m 20 --t 3 --c3 1.0 --samples 4 --threads 1": (
        0, "c590bb513d8fa902bfd1c0d95ee9deb7e9ca5f59a4a84b772463dea022e380b2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("line", list(RANDOM_PINS))
def test_random_json_matches_pinned_digest(line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(line.split() + ["--json"])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest()) == RANDOM_PINS[line]
