"""Closed-form bound arithmetic and the replayable certification pipeline.

The lower-bound engine: pick a prime power q with t | q - 1 in a window sized
by (m, t), take the multiplicative construction's parameters (n = q(q-1)/t,
d = q - 1, lambda = sqrt(q)), and check the two steps that turn the spectral
inequality into r_k(K_{2,t}; K_m) > n — a threshold clique order m' <= m
(step 1) and a negative log left-hand side of the product-of-terms inequality
(step 2).  Everything an auditor needs to replay the arithmetic is recorded in
the certificate.  Each formula of the recipe is written once, with the
arithmetic passed in: ``certify`` evaluates it in floats (``math``), and
``replay_certificate`` re-derives each check in 50-digit ``mpmath`` (with mpf
operands wherever an int quotient would round).

Inequality evaluation is in log space throughout (the raw terms overflow
doubles at realistic m); when a log-LHS lands within 1e-6 of zero the sign is
re-decided in extended precision before it is trusted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from math import log, sqrt

from .fields import is_prime_power

_REPLAY_DPS = 50
_SIGN_GUARD = 1e-6


def _tool_version() -> str:
    from . import __version__
    return __version__


@dataclass(frozen=True)
class BoundQuery:
    """A Ramsey query r_k(K_{2,t}; K_m): k bipartite colors, one clique color."""

    k: int
    t: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.t < 2:
            raise ValueError("t must be >= 2")
        if self.m < 3:
            raise ValueError("m must be >= 3")

    def to_dict(self) -> dict:
        return asdict(self)


# -- closed-form bounds -----------------------------------------------------------


def simple_lower(query: BoundQuery) -> int:
    """(m-1)(t+1): the blow-up colouring bound.  Strict: r > this value."""
    return (query.m - 1) * (query.t + 1)


def kst_upper(n: int | float, t: int) -> tuple[float, float]:
    """Extremal edge bounds for K_{2,t+1}-free n-vertex graphs:
    (refined, relaxed) = (0.5*sqrt(t-1)*n^1.5 + n/2, sqrt(t)*n^1.5)."""
    if not 2 <= t <= n:
        raise ValueError("need 2 <= t <= n")
    refined = 0.5 * sqrt(t - 1) * n**1.5 + n / 2
    relaxed = sqrt(t) * n**1.5
    return refined, relaxed


def aks_alpha_lower(n: float, d: float, s_triangles: float, c: float) -> float:
    """(c*n/d) * (log d - 0.5*log(s/n)): independence bound from triangle sparsity."""
    if d <= 1 or s_triangles <= 0 or c <= 0 or n <= 0:
        raise ValueError("need n > 0, d > 1, s_triangles > 0, c > 0")
    return (c * n / d) * (log(d) - 0.5 * log(s_triangles / n))


def prop1_upper(query: BoundQuery, c1: float) -> float:
    """c2 * m^2 t / log^2 m with c2 = 256 k^2 / c1^2 (c1 from the caller;
    it descends from an unspecified absolute constant and has no default)."""
    if not 0 < c1 <= 1:
        raise ValueError("c1 must lie in (0, 1]")
    c2 = 256.0 * query.k**2 / c1**2
    return c2 * query.m**2 * query.t / log(query.m) ** 2


# -- prime powers -----------------------------------------------------------------


def find_prime_power(t: int, congruence: str, lo: int, hi: int) -> int | None:
    """Largest prime power q in [lo, hi] with q = 1 (mod t) for congruence
    "one", or q a power of t's prime divisible by t for congruence "zero"."""
    if t < 2:
        raise ValueError("t must be >= 2")
    if lo > hi:
        return None
    lo = max(lo, 2)
    if congruence == "one":
        q = hi - (hi - 1) % t
        while q >= lo:
            if q >= 2 and is_prime_power(q):
                return q
            q -= t
        return None
    if congruence == "zero":
        pp = is_prime_power(t)
        if pp is None:
            return None
        p = pp[0]
        best = None
        q = 1
        while q <= hi // p:
            q *= p
            if lo <= q <= hi and q % t == 0:
                best = q
        return best
    raise ValueError("congruence must be 'one' or 'zero'")


# -- the spectral-inequality left-hand side ----------------------------------------


def _log_lhs(ar, n, d, lam, k, m):
    """The expression of ``alon_rodl_log_lhs`` in the arithmetic ``ar``."""
    ln_n = ar.log(n)
    term1 = (2 * k * n * ln_n / d) * ar.log(ar.e * m * d * d / (4 * lam * n * ln_n))
    term2 = k * m * ar.log(2 * ar.e * lam * n / (m * d))
    term3 = m * (k - 1) * ar.log(m / n)
    return term1 + term2 + term3


def alon_rodl_log_lhs(n: float, d: float, lam: float, k: int, m: float) -> float:
    """Natural log of the product bounding the failure probability:
    (2kn log n / d) log(e m d^2 / (4 lam n log n)) + k m log(2 e lam n / (m d))
    + m (k-1) log(m / n).  Negative certifies the inequality.

    The underlying theorem also assumes m >= (2n/d) log n; callers report that
    hypothesis, this function only evaluates the expression.
    """
    if min(n, d, lam, k, m) <= 0:
        raise ValueError("all parameters must be positive")
    return _log_lhs(math, n, d, lam, k, m)


def theorem5_hypothesis(n: float, d: float, m: float) -> tuple[float, bool]:
    """The clique-order hypothesis (2n/d) log n of the spectral inequality."""
    required = (2 * n / d) * log(n)
    return required, m >= required


# -- certificates -----------------------------------------------------------------


class HypothesisViolation(ValueError):
    """The query fails the recipe's entry hypothesis; no certificate is issued."""


@dataclass(frozen=True)
class Certificate:
    """Replayable record of one certification attempt (success or not).

    certified_n is present iff the prime-power search succeeded, step 1 held
    (m >= m'), and the log-LHS was negative; ``failure`` names the first
    failing stage otherwise.
    """

    query: BoundQuery
    variant: str  # "k2" | "k3plus"
    s: int
    L: int
    window_lo: int
    window_hi: int
    q: int | None
    n: int | None
    d: int | None
    m_prime: float | None
    step1_ok: bool
    ineq_log_lhs: float | None
    ineq_ok: bool
    certified_n: int | None
    achieved_ratio: float | None
    theorem5_required: float | None
    theorem5_ok: bool | None
    failure: str | None

    def to_dict(self) -> dict:
        doc = asdict(self)  # the query nests as {"k", "t", "m"}
        doc["window"] = {"lo": doc.pop("window_lo"), "hi": doc.pop("window_hi")}
        doc["theorem5_hypothesis"] = {"required_m": doc.pop("theorem5_required"),
                                      "ok": doc.pop("theorem5_ok")}
        doc["lambda"] = {"sqrtq_of": self.q} if self.q is not None else None
        doc["tool_version"] = _tool_version()
        return doc


def _recipe(k: int) -> tuple[str, int, int]:
    """(variant, s, L) of the recipe for k bipartite colours."""
    if k == 2:
        return "k2", 2, 8
    if k >= 3:
        return "k3plus", 1, 4 * k
    raise ValueError("the certification recipe needs k >= 2")


def _window(ar, m: int, t: int, s: int, L: int) -> tuple[int, int]:
    """(lo, hi) = (ceil(ell t / 2), floor(ell t)), ell = m / (L log^s(mt))."""
    ell = m / (L * ar.log(m * t) ** s)
    return int(ar.ceil(ell * t / 2)), int(ar.floor(ell * t))


def _m_prime(ar, variant: str, k: int, n, d: int):
    """The threshold clique order m': (n/d) log^2 n for k2, 2k (n/d) log n else."""
    if variant == "k2":
        return (n / d) * ar.log(n) ** 2
    return 2 * k * (n / d) * ar.log(n)


def _ratio(ar, n: int, m: int, t: int, s: int):
    """The achieved ratio n log^(2s)(mt) / (m^2 t)."""
    return n * ar.log(m * t) ** (2 * s) / (m * m * t)


def certify(query: BoundQuery) -> Certificate:
    """Run the two-step pipeline for a query and record every intermediate.

    The recipe variant follows from k: "k2" for k = 2 (s = 2, L = 8, entry
    hypothesis m >= 128 log^2 t, threshold m' = (n/d) log^2 n), "k3plus" for
    k >= 3 (s = 1, L = 4k, hypothesis m >= 16 k log t, m' = 2k (n/d) log n);
    k = 1 raises ValueError.  A failed stage still yields a certificate (with
    ``failure`` set); only a violated entry hypothesis refuses outright.
    """
    k, t, m = query.k, query.t, query.m
    variant, s, L = _recipe(k)
    need, rule = ((128 * log(t) ** 2, "128 log^2 t") if variant == "k2"
                  else (16 * k * log(t), "16 k log t"))
    if m < need:
        raise HypothesisViolation(f"m = {m} < {rule} = {need:.3f}")

    lo, hi = _window(math, m, t, s, L)
    q = find_prime_power(t, "one", lo, hi) if hi >= lo else None
    if q is None:
        return Certificate(
            query=query, variant=variant, s=s, L=L, window_lo=lo, window_hi=hi,
            q=None, n=None, d=None, m_prime=None, step1_ok=False,
            ineq_log_lhs=None, ineq_ok=False, certified_n=None,
            achieved_ratio=None, theorem5_required=None, theorem5_ok=None,
            failure="no-prime-power-in-window",
        )

    n = q * (q - 1) // t
    d = q - 1
    m_prime = _m_prime(math, variant, k, n, d)
    step1_ok = m >= m_prime
    log_lhs = alon_rodl_log_lhs(n, d, sqrt(q), k, m_prime)
    if abs(log_lhs) < _SIGN_GUARD:  # too near 0 to trust the float's sign
        import mpmath

        with mpmath.workdps(_REPLAY_DPS):
            log_lhs = float(_log_lhs(mpmath, n, d, mpmath.sqrt(q), k, mpmath.mpf(m_prime)))
    ineq_ok = log_lhs < 0
    required, t5_ok = theorem5_hypothesis(n, d, m_prime)
    ok = step1_ok and ineq_ok
    failure = None if ok else ("step1" if not step1_ok else "inequality")
    return Certificate(
        query=query, variant=variant, s=s, L=L, window_lo=lo, window_hi=hi,
        q=q, n=n, d=d, m_prime=m_prime, step1_ok=step1_ok,
        ineq_log_lhs=log_lhs, ineq_ok=ineq_ok,
        certified_n=n if ok else None, achieved_ratio=_ratio(math, n, m, t, s),
        theorem5_required=required, theorem5_ok=t5_ok, failure=failure,
    )


def replay_certificate(cert: dict) -> dict:
    """Re-derive every recorded check of a certificate dict in 50-digit
    arithmetic; each check reports (recorded, replayed, ok), plus overall ok.

    Relative tolerance 1e-9 on real-valued quantities; integer and boolean
    fields must match exactly.
    """
    import mpmath

    checks: dict[str, dict] = {}

    def add(name: str, recorded, replayed, ok: bool | None = None) -> None:
        ok = recorded == replayed if ok is None else ok
        checks[name] = {"recorded": recorded, "replayed": replayed, "ok": bool(ok)}

    def add_real(name: str, recorded, replayed) -> None:
        replayed = float(replayed)
        add(name, recorded, replayed, math.isclose(float(recorded), replayed, rel_tol=1e-9))

    k, t, m = (cert["query"][key] for key in "ktm")
    variant, s, L = cert["variant"], cert["s"], cert["L"]
    recipe = _recipe(k) if k >= 2 else None  # the variant follows from k
    add("recipe-constants", (s, L), recipe and recipe[1:], (variant, s, L) == recipe)
    with mpmath.workdps(_REPLAY_DPS):
        add("window", (cert["window"]["lo"], cert["window"]["hi"]), _window(mpmath, m, t, s, L))

    q = cert.get("q")
    if q is None:
        ok_all = all(c["ok"] for c in checks.values()) and cert["certified_n"] is None
        return {"ok": bool(ok_all), "checks": checks}

    add("q-congruence", q % t, 1)
    pp = is_prime_power(q)
    add("q-prime-power", q, pp, pp is not None)
    n = q * (q - 1) // t
    add("n-formula", cert["n"], n)
    add("d-formula", cert["d"], q - 1)
    with mpmath.workdps(_REPLAY_DPS):
        m_prime = _m_prime(mpmath, variant, k, mpmath.mpf(n), q - 1)
        add_real("m-prime", cert["m_prime"], m_prime)
        add("step1", cert["step1_ok"], bool(m >= m_prime))
        log_lhs = _log_lhs(mpmath, n, q - 1, mpmath.sqrt(q), k, m_prime)
        add_real("ineq-log-lhs", cert["ineq_log_lhs"], log_lhs)
        add("ineq-sign", cert["ineq_ok"], bool(log_lhs < 0))
        add_real("achieved-ratio", cert["achieved_ratio"], _ratio(mpmath, n, m, t, s))
    add("certified-n", cert["certified_n"], n if cert["step1_ok"] and cert["ineq_ok"] else None)
    ok_all = all(c["ok"] for c in checks.values())
    return {"ok": bool(ok_all), "checks": checks}


def bounds_table(ks, ts, ms, c1: float = 1.0) -> list[dict]:
    """One row per (k, t, m): the simple bound, the random-recipe scale
    m^2 t / log^2(mt), the certified n when the pipeline succeeds, and the
    upper bound with caller-supplied c1."""
    rows = []
    for k in ks:
        for t in ts:
            for m in ms:
                query = BoundQuery(k=k, t=t, m=m)
                row = {
                    "k": k, "t": t, "m": m,
                    "simple_lower": simple_lower(query),
                    "random_recipe_scale": m * m * t / log(m * t) ** 2,
                    "prop1_upper": prop1_upper(query, c1),
                    "certified_n": None,
                    "certify_failure": None,
                }
                if k >= 2:
                    try:
                        cert = certify(query)
                        row["certified_n"] = cert.certified_n
                        row["certify_failure"] = cert.failure
                    except HypothesisViolation as exc:
                        row["certify_failure"] = f"hypothesis: {exc}"
                else:
                    row["certify_failure"] = "k below recipe range"
                rows.append(row)
    return rows
