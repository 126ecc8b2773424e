"""Closed-form bounds, prime-power search, and the certification pipeline."""

import copy
import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ramseycert import bounds
from ramseycert.bounds import (
    BoundQuery,
    HypothesisViolation,
    aks_alpha_lower,
    alon_rodl_log_lhs,
    bounds_table,
    certify,
    find_prime_power,
    is_prime_power,
    kst_upper,
    prop1_upper,
    replay_certificate,
    simple_lower,
    theorem5_hypothesis,
)


# -- closed forms -------------------------------------------------------------------


def test_simple_lower_examples():
    assert simple_lower(BoundQuery(1, 2, 3)) == 6
    assert simple_lower(BoundQuery(4, 5, 10)) == 9 * 6


def test_kst_upper_examples():
    refined, relaxed = kst_upper(100, 2)
    assert refined == 550.0  # 0.5*1*1000 + 50, exact in binary
    assert relaxed == pytest.approx(math.sqrt(2) * 1000, rel=1e-15)
    with pytest.raises(ValueError):
        kst_upper(3, 5)


def test_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(0, 2, 3)
    with pytest.raises(ValueError):
        BoundQuery(1, 1, 3)
    with pytest.raises(ValueError):
        BoundQuery(1, 2, 2)


def _mp_prop1(k, t, m, c1):
    with mpmath.workdps(50):
        c2 = 256 * mpmath.mpf(k) ** 2 / mpmath.mpf(c1) ** 2
        return c2 * mpmath.mpf(m) ** 2 * t / mpmath.log(m) ** 2


def _mp_aks(n, d, s, c):
    with mpmath.workdps(50):
        n, d, s, c = map(mpmath.mpf, (n, d, s, c))
        return (c * n / d) * (mpmath.log(d) - mpmath.log(s / n) / 2)


SWEEP = [(k, t, 10 * (i + 2), n)
         for i, (k, t, n) in enumerate(
             (k, t, n) for k in (2, 3, 4, 5) for t in (4, 16) for n in (10**4, 10**6))]
assert len(SWEEP) == 16


@pytest.mark.parametrize("k,t,m,n", SWEEP + [(2, 2, 30, 10**3), (6, 50, 10**7, 10**9),
                                             (3, 3, 11, 47), (9, 40, 10**5, 10**8)])
def test_closed_forms_match_extended_precision(k, t, m, n):
    q = BoundQuery(k, t, m)
    for c1 in (1.0, 0.25):
        got = prop1_upper(q, c1)
        ref = float(_mp_prop1(k, t, m, c1))
        assert got == pytest.approx(ref, rel=1e-12)
    d, s, c = math.sqrt(n * t), (n * t) ** 0.75, 0.1
    assert aks_alpha_lower(n, d, s, c) == pytest.approx(float(_mp_aks(n, d, s, c)), rel=1e-12)


def aks_alpha_lower_corollary(n: float, d: float, f: float, c: float) -> float:
    """(c*n/(2d)) * log f: the form for neighborhoods spanning <= d^2/f edges."""
    return (c * n / (2 * d)) * math.log(f)


def appendix_exponent(k: int) -> Fraction:
    """The symbolic exponent on (nt) after the d = sqrt(nt), lam = (nt)^(1/4),
    m = 2k sqrt(n/t) log n substitutions: 1/4 + k/4 - (k-1)/2.
    Non-positive iff k >= 3."""
    return Fraction(1, 4) + Fraction(k, 4) - Fraction(k - 1, 2)


def test_aks_forms_agree():
    # s = d^2/f triangles per vertex <-> f in the corollary form, at f = d
    n, d = 10**6, 1000.0
    assert aks_alpha_lower(n, d, n * d, 1.0) == pytest.approx(
        aks_alpha_lower_corollary(n, d, d, 1.0), rel=1e-12)


def test_closed_form_domains():
    with pytest.raises(ValueError):
        aks_alpha_lower(10, 1.0, 5, 1)
    with pytest.raises(ValueError):
        prop1_upper(BoundQuery(2, 2, 10), 0.0)
    with pytest.raises(ValueError):
        prop1_upper(BoundQuery(2, 2, 10), 1.5)


def test_appendix_exponent_values():
    assert [appendix_exponent(k) for k in (2, 3, 4, 5)] == [
        Fraction(1, 4), Fraction(0), Fraction(-1, 4), Fraction(-1, 2)]
    for k in range(2, 40):
        assert (appendix_exponent(k) <= 0) == (k >= 3)


# -- prime powers -------------------------------------------------------------------


def test_is_prime_power_values():
    assert is_prime_power(64) == (2, 6)
    assert is_prime_power(81) == (3, 4)
    assert is_prime_power(121) == (11, 2)
    assert is_prime_power(2**31 - 1) == (2**31 - 1, 1)
    # the double nearest this prime is 23 below it, so a search over float
    # roots r that tries r - 1, r, r + 1 misses it
    assert is_prime_power(487116986083713431) == (487116986083713431, 1)
    assert is_prime_power(3**37) == (3, 37)
    assert is_prime_power(2 * 487116986083713431) is None
    # two prime factors near 10^9: trial division would need ~5*10^8 steps
    assert is_prime_power((10**9 + 7) * (10**9 + 9)) is None
    assert is_prime_power((10**9 + 7) ** 2) == (10**9 + 7, 2)
    for n in (0, 1, 12, 100, 1000):
        assert is_prime_power(n) is None


def _trial_division_pp(n):
    if n < 2:
        return None
    p = next(f for f in range(2, n + 1) if n % f == 0)
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return (p, a) if n == 1 else None


@given(st.integers(0, 10**5))
@settings(max_examples=300, deadline=None)
def test_is_prime_power_matches_trial_division(n):
    assert is_prime_power(n) == _trial_division_pp(n)


@given(st.integers(2, 10**12), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_is_prime_power_of_large_powers(b, e):
    # b^e reaches 10^72, far past float roots; sympy factors b itself
    f = sympy.factorint(b)
    expected = next((r, k * e) for r, k in f.items()) if len(f) == 1 else None
    assert is_prime_power(b**e) == expected


def test_find_prime_power_examples():
    assert find_prime_power(6, "one", 30, 200) == 199
    assert find_prime_power(4, "zero", 8, 100) == 64
    assert find_prime_power(6, "zero", 2, 10**6) is None  # 6 is not a prime power
    assert find_prime_power(30, "one", 62, 91) is None  # only candidate is 91 = 7*13
    assert find_prime_power(5, "one", 50, 40) is None
    with pytest.raises(ValueError):
        find_prime_power(1, "one", 2, 10)
    with pytest.raises(ValueError):
        find_prime_power(5, "largest", 2, 10)


@given(st.integers(2, 20), st.integers(2, 5000), st.integers(0, 400))
@settings(max_examples=120, deadline=None)
def test_find_prime_power_one_matches_scan(t, lo, width):
    hi = lo + width
    got = find_prime_power(t, "one", lo, hi)
    want = next((q for q in range(hi, lo - 1, -1)
                 if q % t == 1 % t and _trial_division_pp(q)), None)
    assert got == want


@given(st.integers(2, 64), st.integers(2, 3000), st.integers(0, 3000))
@settings(max_examples=80, deadline=None)
def test_find_prime_power_zero_matches_scan(t, lo, width):
    hi = lo + width
    got = find_prime_power(t, "zero", lo, hi)
    want = None
    if (pp := _trial_division_pp(t)) is not None:
        p = pp[0]
        q = p
        while q <= hi:
            if q >= lo and q % t == 0:
                want = q
            q *= p
    assert got == want


# -- inequality evaluation ----------------------------------------------------------


def _mp_log_lhs(n, d, lam, k, m):
    """Independent transcription of the log-LHS in 50-digit arithmetic."""
    with mpmath.workdps(50):
        n, d, lam, m = mpmath.mpf(n), mpmath.mpf(d), mpmath.mpf(lam), mpmath.mpf(m)
        ln_n = mpmath.log(n)
        term1 = (2 * k * n * ln_n / d) * mpmath.log(mpmath.e * m * d * d / (4 * lam * n * ln_n))
        term2 = k * m * mpmath.log(2 * mpmath.e * lam * n / (m * d))
        term3 = m * (k - 1) * mpmath.log(m / n)
        return term1 + term2 + term3


def test_log_lhs_paths_agree():
    for n, d, lam, k, m in ((10**6, 10**3, 31.6, 3, 10**4),
                            (2304480, 4800, math.sqrt(4801), 2, 103045.4),
                            (10**8, 10**4, 100.0, 5, 10**5)):
        a = alon_rodl_log_lhs(n, d, lam, k, m)
        b = float(_mp_log_lhs(n, d, lam, k, m))
        assert a == pytest.approx(b, rel=1e-9)
    with pytest.raises(ValueError):
        alon_rodl_log_lhs(10, 0, 1, 2, 5)


def test_theorem5_hypothesis():
    required, ok = theorem5_hypothesis(1000, 10, 1382)
    assert required == pytest.approx(200 * math.log(1000), rel=1e-15)
    assert ok
    assert theorem5_hypothesis(1000, 10, 1381)[1] is False


# -- certification ------------------------------------------------------------------


def test_certify_k2_example():
    cert = certify(BoundQuery(2, 10, 10**6))
    assert cert.variant == "k2" and (cert.s, cert.L) == (2, 8)
    assert (cert.window_lo, cert.window_hi) == (2406, 4811)
    assert cert.q == 4801 and cert.n == 2304480 and cert.d == 4800
    assert cert.m_prime == pytest.approx(103045.405, abs=1e-2)
    assert cert.step1_ok and cert.ineq_ok
    assert cert.ineq_log_lhs == pytest.approx(-20385.489, abs=1e-2)
    assert cert.certified_n == 2304480 and cert.failure is None
    assert cert.theorem5_ok


def test_certify_k3_example_fails_inequality():
    cert = certify(BoundQuery(3, 10, 10**6))
    assert cert.variant == "k3plus" and (cert.s, cert.L) == (1, 12)
    assert cert.q == 51691 and cert.n == 267190779
    assert cert.step1_ok
    assert cert.ineq_log_lhs > 10**6  # decisively positive
    assert not cert.ineq_ok
    assert cert.certified_n is None and cert.failure == "inequality"


def test_certify_empty_window():
    cert = certify(BoundQuery(2, 2, 62))
    assert cert.q is None and cert.failure == "no-prime-power-in-window"
    assert not cert.step1_ok and cert.certified_n is None
    assert replay_certificate(cert.to_dict())["ok"]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.integers(2, 40), st.floats(1.5, 7.0))
def test_step1_holds_whenever_the_window_has_a_q(k, t, log10_m):
    """The window caps q at ell t, so n = q(q-1)/t < (mt)^2 and m' < m/2 for
    k = 2, m' < m for k >= 3: no query can end in failure "step1"."""
    m = int(10**log10_m)
    try:
        cert = certify(BoundQuery(k, t, m))
    except HypothesisViolation:
        return
    if cert.q is not None:
        assert cert.step1_ok and cert.failure != "step1"
        assert cert.m_prime < (m / 2 if k == 2 else m)


def test_certify_hypothesis_gates():
    with pytest.raises(HypothesisViolation):
        certify(BoundQuery(2, 10, 678))  # 128 log^2 10 = 678.64
    certify(BoundQuery(2, 10, 679))
    with pytest.raises(HypothesisViolation):
        certify(BoundQuery(3, 10, 110))  # 16*3*log 10 = 110.52
    certify(BoundQuery(3, 10, 111))


@pytest.mark.parametrize("k,t,m", [(2, 10, 10**6), (3, 10, 10**6), (2, 4, 10**5),
                                   (4, 16, 10**7), (2, 25, 2 * 10**6)])
def test_replay_round_trip(k, t, m):
    cert = certify(BoundQuery(k, t, m)).to_dict()
    rep = replay_certificate(cert)
    assert rep["ok"], {k: v for k, v in rep["checks"].items() if not v["ok"]}
    assert all(c["ok"] for c in rep["checks"].values())


@pytest.mark.parametrize("field,mutate", [
    ("q", lambda v: v + 6),  # preserves the congruence, breaks primality or formulas
    ("n", lambda v: v + 1),
    ("d", lambda v: v - 1),
    ("m_prime", lambda v: v * 1.001),
    ("ineq_log_lhs", lambda v: -v),
    ("certified_n", lambda v: (v or 0) + 5),
    ("step1_ok", lambda v: not v),
])
def test_replay_detects_tampering(field, mutate):
    cert = certify(BoundQuery(2, 10, 10**6)).to_dict()
    cert = copy.deepcopy(cert)
    cert[field] = mutate(cert[field])
    rep = replay_certificate(cert)
    assert not rep["ok"]
    assert any(not c["ok"] for c in rep["checks"].values())


@pytest.mark.parametrize("k,t,m", [(2, 10, 10**6), (3, 10, 10**6), (2, 2, 679), (4, 16, 10**7),
                                   (2, 3, 10**12), (6, 3, 10**5), (2, 2, 62)])
def test_sign_guard_branch_keeps_the_verdicts(monkeypatch, k, t, m):
    # every log-LHS through the 50-digit branch: the same verdicts, a value
    # within 1e-9 of the float one, and a certificate that replays
    plain = certify(BoundQuery(k, t, m))
    monkeypatch.setattr(bounds, "_SIGN_GUARD", math.inf)
    guarded = certify(BoundQuery(k, t, m))
    keep = ("q", "n", "m_prime", "step1_ok", "ineq_ok", "certified_n", "failure")
    assert [getattr(guarded, f) for f in keep] == [getattr(plain, f) for f in keep]
    if plain.q is not None:
        assert guarded.ineq_log_lhs == pytest.approx(plain.ineq_log_lhs, rel=1e-9)
    assert replay_certificate(guarded.to_dict())["ok"]


def test_replay_tolerates_float_noise():
    cert = certify(BoundQuery(2, 10, 10**6)).to_dict()
    cert["m_prime"] *= 1 + 1e-12  # below the 1e-9 replay tolerance
    assert replay_certificate(cert)["ok"]


# -- the table ----------------------------------------------------------------------


def test_bounds_table_shape_and_gates():
    rows = bounds_table([1, 2, 3], [10], [10**6])
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {"k", "t", "m", "simple_lower", "random_recipe_scale",
                            "prop1_upper", "certified_n", "certify_failure"}
        assert row["simple_lower"] == simple_lower(BoundQuery(row["k"], 10, 10**6))
        assert row["random_recipe_scale"] == pytest.approx(
            10**12 * 10 / math.log(10**7) ** 2, rel=1e-12)
    by_k = {r["k"]: r for r in rows}
    assert by_k[1]["certify_failure"] == "k below recipe range"
    assert by_k[2]["certified_n"] == 2304480 and by_k[2]["certify_failure"] is None
    assert by_k[3]["certified_n"] is None and by_k[3]["certify_failure"] == "inequality"


def test_bounds_table_records_hypothesis_violations():
    (row,) = bounds_table([2], [10], [100])
    assert row["certified_n"] is None
    assert row["certify_failure"].startswith("hypothesis:")
