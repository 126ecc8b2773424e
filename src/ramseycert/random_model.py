"""G(n,p) machinery for the probabilistic lower bound at desk scale.

The recipe n = c3 * m^2 t / log^2(mt), p = sqrt(t / (e^8 n)) makes the expected
number of K_{2,t} copies n^2 * C(n,t) * p^(2t) <= n^2 e^(-7t), tiny for modest
t, while the graph stays dense enough to bound independent sets.  This module
evaluates those formulas, samples G(n,p) reproducibly (counter-based Philox
streams, one stream per sample index), counts K_{2,t} copies, and runs
Monte-Carlo checks of the first-moment and independence-number predictions.

The asymptotic claims themselves are not desk-checkable; the Monte-Carlo
tolerances here (3x on first moments, +-25% on the alpha center, 4 sigma on
edge counts) are engineering choices and the reports say so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb, exp, isclose, lgamma, log, sqrt

import numpy as np

from .graphs import Graph, GraphMeta, _edge_arrays, codegree_histogram
from .independence import greedy_alpha, max_independent_set_exact

E8 = exp(8.0)
C3_DEFAULT = 1.0 / (400.0 * E8)  # asymptotic constant; degenerates at desk scale

_DENSE_SAMPLE_LIMIT = 20000
_EXACT_ALPHA_LIMIT = 200  # monte_carlo_check searches alpha exactly up to this n


class DegenerateRecipeError(ValueError):
    """The recipe rounds to n < 1: these (m, t, c3) are not desk-feasible."""


@dataclass(frozen=True)
class RandomRecipe:
    """Derived G(n,p) parameters for a (m, t) target."""

    m: int
    t: int
    c3: float
    n: int
    p: float
    seed: int = 0

    @property
    def d(self) -> float:
        return self.p * self.n

    def to_dict(self) -> dict:
        return {**asdict(self), "d": self.d}


def lemma_parameters(m: int, t: int, c3: float | None = None, seed: int = 0) -> RandomRecipe:
    """n = round(c3 m^2 t / log^2(mt)) and p = sqrt(t/(e^8 n)), natural logs.

    Raises DegenerateRecipeError when n rounds below 1 (the default c3 is an
    asymptotic constant and does that for every desk-scale m, t).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if t < 2:
        raise ValueError("t must be >= 2")
    if c3 is None:
        c3 = C3_DEFAULT
    if c3 <= 0:
        raise ValueError("c3 must be positive")
    if m * t < 2:
        raise ValueError("mt must be >= 2 so log^2(mt) > 0")
    n = round(c3 * m * m * t / log(m * t) ** 2)
    if n < 1:
        raise DegenerateRecipeError(
            f"recipe gives n = {n} < 1 for (m={m}, t={t}, c3={c3:g}); "
            "this constant is not desk-feasible here")
    p = min(1.0, sqrt(t / (E8 * n)))
    return RandomRecipe(m=m, t=t, c3=c3, n=n, p=p, seed=seed)


def sample_gnp(n: int, p: float, seed: int, stream: int = 0) -> Graph:
    """One G(n,p) draw; identical (n, p, seed, stream) gives an identical graph.

    Streams are independent Philox counter sequences keyed (seed mod 2^64,
    stream), so any integer seed is its own key and sample index i of a
    Monte-Carlo run is the same graph no matter how the samples are
    scheduled.  Row i draws its pairs (i, j), j > i; the hits of every row
    become the graph's neighbour arrays (``graphs._edge_arrays``).
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if n > _DENSE_SAMPLE_LIMIT:
        raise ValueError(f"dense sampler capped at n = {_DENSE_SAMPLE_LIMIT}")
    key = np.array([seed & (2**64 - 1), stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    hits = [np.flatnonzero(rng.random(n - 1 - i) < p) for i in range(n - 1)]  # j - i - 1
    u = np.repeat(np.arange(n - 1), [len(h) for h in hits])
    v = np.concatenate([np.zeros(0, dtype=np.int64), *hits]) + u + 1
    return Graph(*_edge_arrays(n, u, v), tuple((0, i) for i in range(n)),
                 GraphMeta(variant="random"))


def expected_k2t_log(n: int, p: float, t: int) -> tuple[float, float | None]:
    """log of the first moment n^2 C(n,t) p^(2t), and the e^(-7t) chain bound.

    The chain bound 2 log n - 7t applies exactly when p is the recipe value
    sqrt(t/(e^8 n)); None otherwise.  p = 0 gives -inf.
    """
    if not 2 <= t <= n:
        raise ValueError("need 2 <= t <= n")
    if not 0 <= p < 1:
        raise ValueError("p must lie in [0, 1)")
    if p == 0:
        value = float("-inf")
    else:
        value = (2 * log(n) + lgamma(n + 1) - lgamma(t + 1) - lgamma(n - t + 1)
                 + 2 * t * log(p))
    recipe_p = sqrt(t / (E8 * n))
    chain = 2 * log(n) - 7 * t if isclose(p, recipe_p, rel_tol=1e-12) else None
    return value, chain


def k2t_witness_count(g: Graph, t: int) -> int:
    """The number of K_{2,t} copies, Σ_c hist[c]·C(c, t) over ``codegree_histogram``."""
    if t < 2:
        raise ValueError("t must be >= 2")
    return sum(k * comb(c, t) for c, k in codegree_histogram(g).items())


def frieze_alpha_estimate(n: int, p: float) -> tuple[float, float]:
    """The alpha concentration center (2n/d)(log d - log log d - log 2 + 1)
    for d = pn, and the cruder working bound (20n/d) log d.  Needs d >= 3."""
    d = p * n
    if d < 3:
        raise ValueError(f"d = pn = {d:g} < 3: estimate domain starts at 3")
    center = (2 * n / d) * (log(d) - log(log(d)) - log(2) + 1)
    working = (20 * n / d) * log(d)
    return center, working


def monte_carlo_check(
    recipe: RandomRecipe,
    samples: int = 50,
    *,
    threads: int = 1,
) -> dict:
    """Draw graphs from the recipe and test the desk-checkable predictions.

    Per sample: edge count, K_{2,t} witness count/freeness, alpha (exact
    search when n <= _EXACT_ALPHA_LIMIT, deterministic greedy lower bound
    otherwise), and the distance to the alpha center when d >= 3.  The summary
    compares: mean witness count <= 3x the analytic first moment; fraction of
    K_{2,t}-free samples >= 90% whenever the analytic expectation is < 0.1;
    sample-mean edge count within 4 sigma; fraction of samples with alpha
    within +-25% of the center >= 80% (only when the center is defined and
    alpha is exact).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, p, t = recipe.n, recipe.p, recipe.t
    analytic_log, chain = expected_k2t_log(n, p, t)
    analytic = exp(analytic_log) if analytic_log < 700 else float("inf")
    try:
        frieze_center, frieze_working = frieze_alpha_estimate(n, p)
    except ValueError:
        frieze_center = frieze_working = None

    args = [(recipe, i) for i in range(samples)]
    workers = min(threads, samples)  # never more processes than samples
    if workers > 1:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            rows = pool.map(_one_sample, args)
    else:
        rows = [_one_sample(a) for a in args]

    edges = [r["edges"] for r in rows]
    witness_counts = [r["witness_count"] for r in rows]
    mean_edges = sum(edges) / samples
    expected_edges = comb(n, 2) * p
    sigma_one = sqrt(comb(n, 2) * p * (1 - p)) if 0 < p < 1 else 0.0
    sigma_mean = sigma_one / sqrt(samples)
    edge_ok = abs(mean_edges - expected_edges) <= 4 * sigma_mean if sigma_one else mean_edges == expected_edges

    mean_witness = sum(witness_counts) / samples
    frac_free = sum(1 for r in rows if r["k2t_free"]) / samples
    free_rule_applicable = analytic < 0.1
    free_ok = (frac_free >= 0.9) if free_rule_applicable else None

    frieze_rows = [r for r in rows if r["alpha_exact"] and frieze_center]
    if frieze_center is not None and frieze_rows:
        within = sum(1 for r in frieze_rows
                     if abs(r["alpha"] - frieze_center) <= 0.25 * frieze_center)
        frieze_frac = within / len(frieze_rows)
        frieze_ok = frieze_frac >= 0.8
    else:
        frieze_frac = frieze_ok = None

    return {
        "recipe": recipe.to_dict(),
        "samples": samples,
        "rows": rows,
        "summary": {
            "edge_mean": mean_edges,
            "edge_expected": expected_edges,
            "edge_sigma_mean": sigma_mean,
            "edge_within_4sigma": bool(edge_ok),
            "witness_mean": mean_witness,
            "analytic_log_expected": analytic_log,
            "analytic_expected": analytic,
            "chain_bound_log": chain,
            "witness_within_3x": bool(mean_witness <= 3 * analytic) if analytic > 0 else mean_witness == 0,
            "fraction_k2t_free": frac_free,
            "free_rule_applicable": free_rule_applicable,
            "free_rule_ok": free_ok,
            "frieze_center": frieze_center,
            "frieze_working_bound": frieze_working,
            "frieze_fraction_within_25pct": frieze_frac,
            "frieze_ok": frieze_ok,
            "tolerances_are_engineering_choices": True,
        },
    }


def _one_sample(args: tuple[RandomRecipe, int]) -> dict:
    recipe, index = args
    g = sample_gnp(recipe.n, recipe.p, recipe.seed, stream=index)
    wc = k2t_witness_count(g, recipe.t)
    if recipe.n <= _EXACT_ALPHA_LIMIT:
        res = max_independent_set_exact(g)
        alpha, alpha_exact = res.lower, res.exact
    else:
        alpha, _ = greedy_alpha(g)
        alpha_exact = False
    return {
        "index": index,
        "edges": g.edge_count(),
        "witness_count": wc,
        "k2t_free": wc == 0,
        "alpha": alpha,
        "alpha_exact": alpha_exact,
    }
