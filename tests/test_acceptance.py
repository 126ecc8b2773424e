"""The package's acceptance gate: ten numbered guarantees, one test and one
printed PASS/FAIL line each (the line lands in the terminal even with capture
on, so a plain ``pytest -v`` run shows the verdict per guarantee).

Three sub-claims below are asserted exactly as stated even though the
constructions provably do not satisfy them; the audits record the true values
and the tests stay red rather than asserting something weaker:

 - 01 asserts every vertex pair has exactly t common neighbors and every
   graph carries q-1 loops.  True: no pair exceeds t (that is the freeness
   theorem, and it holds on all 94 graphs), but same-coset pairs have t-1
   common neighbors and equal-field-coordinate pairs have 0; loops are q-1
   except in even characteristic with t < q, where they number (t-1)q/t.
 - 08 asserts the log left-hand side is negative on the whole substitution
   grid.  True: the symbolic exponent on (nt) is <= 0 iff k >= 3, but at
   k = 3 it is exactly 0 and the dropped constants (~109) dominate 1/log n
   for every feasible n, so the k = 3 rows are positive.
"""

import math
import random
import time

import mpmath
import pytest

from ramseycert.bounds import (
    BoundQuery,
    aks_alpha_lower,
    alon_rodl_log_lhs,
    certify,
    find_prime_power,
    kst_upper,
    prop1_upper,
    replay_certificate,
    simple_lower,
)
from ramseycert.fields import make_field
from ramseycert.graphs import structural_audit
from ramseycert.independence import (
    alpha_bruteforce,
    conjecture_check,
    explicit_qr_set,
    max_independent_set_exact,
    verify_independent,
)
from ramseycert.random_model import lemma_parameters, monte_carlo_check, sample_gnp
from ramseycert.spectral import gauss_sum, make_character, verify_spectrum
from conftest import ALL_CASES, cached_graph


@pytest.fixture
def announce(capsys):
    def _line(tag: str, ok: bool, detail: str = "") -> None:
        tail = f" — {detail}" if detail else ""
        with capsys.disabled():
            print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}{tail}")
    return _line


def test_01_construction_audit(announce):
    t0 = time.monotonic()
    core_bad, loop_bad, exact_t_bad = [], [], []
    for variant, q, t in ALL_CASES:
        rep = structural_audit(cached_graph(variant, q, t))
        if not (rep.n_formula_ok and rep.is_regular and rep.degree_claim_ok
                and rep.k2t1_free):
            core_bad.append((variant, q, t))
        if not rep.loop_claim_ok:
            loop_bad.append((variant, q, t))
        if not rep.exactly_t_all_pairs:
            exact_t_bad.append((variant, q, t))
    elapsed = time.monotonic() - t0
    ok = not core_bad and not loop_bad and not exact_t_bad and elapsed < 60
    detail = (
        f"{len(ALL_CASES)} graphs in {elapsed:.1f}s; n = q(q-1)/t, (q-1)-regularity and "
        f"K_(2,t+1)-freeness hold on all {len(ALL_CASES)}; loop count q-1 fails on "
        f"{len(loop_bad)} even-characteristic t<q graphs (true count (t-1)q/t); "
        f"exactly-t-common-neighbors fails on {len(exact_t_bad)}/{len(ALL_CASES)} "
        f"(same-coset pairs have t-1, equal-field-coordinate pairs have 0)")
    announce("01 construction-audit", ok, detail)
    assert ok, detail


def test_02_spectrum(announce):
    t0 = time.monotonic()
    bad_annihilator, bad_closed_form = [], []
    for variant, q, t in ALL_CASES:
        rep = verify_spectrum(cached_graph(variant, q, t))
        if not (rep.annihilator_verified and rep.identities_ok):
            bad_annihilator.append((variant, q, t))
        if q % 2 == 1 and rep.matches_lemma is not True:
            bad_closed_form.append((variant, q, t))
    pinned = (
        verify_spectrum(cached_graph("plus", 9, 3)).multiplicities
        == {"q-1": 1, "+sqrt(q)": 7, "-sqrt(q)": 7, "+1": 1, "-1": 1, "0": 7}
        and verify_spectrum(cached_graph("times", 7, 3)).multiplicities
        == {"q-1": 1, "+sqrt(q)": 3, "-sqrt(q)": 3, "+1": 3, "-1": 3, "0": 1})
    elapsed = time.monotonic() - t0
    ok = not bad_annihilator and not bad_closed_form and pinned and elapsed < 120
    detail = (f"{len(ALL_CASES)} spectra in {elapsed:.1f}s; annihilator exact on all "
              f"(including characteristic 2), closed-form multiplicities exact on all "
              f"odd-characteristic cases, pinned examples "
              f"{'match' if pinned else 'MISMATCH'}")
    announce("02 spectrum", ok, detail)
    assert ok, detail


def test_03_gauss_sums(announce):
    cases = {5: (5, 1), 7: (7, 1), 9: (3, 2), 11: (11, 1), 13: (13, 1), 25: (5, 2)}
    worst_rel = 0.0
    bad = []
    for q, (p, a) in cases.items():
        F = make_field(p, a)
        root = math.sqrt(q)
        for i in range(q):
            chi = make_character(F, "additive-on-field", i)
            for j in range(q - 1):
                phi = make_character(F, "multiplicative-on-field", j)
                s = gauss_sum(chi, phi)
                if i == 0 and j == 0:
                    ok = abs(s - (q - 1)) <= 1e-9
                elif i > 0 and j > 0:
                    rel = abs(abs(s) - root) / root
                    worst_rel = max(worst_rel, rel)
                    ok = rel <= 1e-9
                elif j > 0:  # principal additive side -> 0
                    ok = abs(s) <= 1e-9
                else:        # principal multiplicative side -> -1
                    ok = abs(s + 1) <= 1e-9
                if not ok:
                    bad.append((q, i, j, s))
    ok = not bad
    detail = (f"all character pairs over q in {sorted(cases)}; non-principal "
              f"|sum| within {worst_rel:.1e} relative of sqrt(q) (tolerance 1e-9); "
              f"mixed cases 0/-1 per the principal side")
    announce("03 gauss-sums", ok, detail)
    assert ok, (bad, detail)


def test_04_independence_reference_values(announce):
    t0 = time.monotonic()
    sems = None
    for a in (3, 4):
        found = set(conjecture_check(a=a)["matching_semantics"])
        sems = found if sems is None else sems & found
    targets = [(8, 4, 4), (16, 8, 5), (64, 32, 8), (9, 3, 8), (25, 5, 24)]
    results = {}
    if len(sems) >= 1:
        sem = sorted(sems)[0]
        for q, t, want in targets:
            res = max_independent_set_exact(cached_graph("plus", q, t),
                                            semantics=sem, time_budget=300.0)
            results[(q, t)] = (res.exact, res.lower, want)
    elapsed = time.monotonic() - t0
    ok = (len(sems) == 1 and elapsed < 5 * 300
          and all(exact and got == want for exact, got, want in results.values()))
    detail = (f"semantics identified: {sorted(sems)}; "
              + ", ".join(f"alpha(plus({q},{t}))={got}{'' if got == want else f'!={want}'}"
                          for (q, t), (_, got, want) in results.items())
              + f"; {elapsed:.1f}s total")
    announce("04 independence-reference-values", ok, detail)
    assert ok, detail


@pytest.mark.long
def test_04_long_even_characteristic_a7_a8(announce):
    t0 = time.monotonic()
    got = {}
    for a, want in ((7, 9), (8, 16)):
        rep = conjecture_check(a=a, time_budget=3600.0)
        got[a] = (rep["status"], rep["reference_alpha"], want)
    elapsed = time.monotonic() - t0
    ok = all(status == "match" and ref == want for status, ref, want in got.values())
    detail = (f"a=7 expected 9: {got[7][0]}; a=8 expected 16: {got[8][0]}; "
              f"{elapsed:.1f}s (budget 1h each)")
    announce("04-long even-characteristic a=7,8", ok, detail)
    assert ok, detail


@pytest.mark.overnight
def test_04_overnight_even_characteristic_a9_a10(announce):
    # Exhaustive searches at n = 1022 and n = 2046; hours of single-core work.
    # Deliberately outside the default suite (see the conftest skip hook);
    # `ramseycert conjecture --a 9` (and --a 10) with large --budget-nodes and
    # --budget-secs runs the same searches standalone.
    t0 = time.monotonic()
    got = {}
    for a in (9, 10):
        rep = conjecture_check(a=a, node_budget=1 << 62, time_budget=7 * 86400.0)
        got[a] = (rep["status"], rep["reference_alpha"])
    elapsed = time.monotonic() - t0
    ok = all(status == "match" for status, _ in got.values())
    announce("04-overnight even-characteristic a=9,10", ok,
             f"{got}; {elapsed:.0f}s")
    assert ok, got


def test_05_explicit_independent_set(announce):
    t0 = time.monotonic()
    bad = []
    for p in (3, 5, 7, 11):
        g = cached_graph("plus", p * p, p)
        vs = explicit_qr_set(p, g)
        if not (verify_independent(g, vs, "ignore-loops")
                and len(vs) == (p * p) // 2):
            bad.append(p)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 10
    detail = (f"p in (3, 5, 7, 11): residue sets independent with size "
              f"floor(p^2/2); {elapsed:.2f}s")
    announce("05 explicit-independent-set", ok, detail)
    assert ok, (bad, detail)


def test_06_mis_oracle_equivalence(announce):
    t0 = time.monotonic()
    mismatches = []
    for seed in range(100):
        n = 12 + seed % 13              # 12..24
        p = 0.15 + 0.07 * (seed % 10)   # 0.15..0.78
        g = sample_gnp(n, p, seed=seed)
        res = max_independent_set_exact(g)
        bf = alpha_bruteforce(g)
        if not (res.exact and res.lower == bf):
            mismatches.append((seed, n, p, res.lower, bf))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 120
    detail = (f"100 seeded graphs (n 12..24), branch-and-bound == 2^n scan on all; "
              f"{elapsed:.1f}s")
    announce("06 mis-oracle-equivalence", ok, detail)
    assert ok, (mismatches, detail)


def test_07_random_model(announce):
    t0 = time.monotonic()
    recipe = lemma_parameters(100, 10, 1.0)
    rep = monte_carlo_check(recipe, samples=50)
    s = rep["summary"]
    elapsed = time.monotonic() - t0
    free_gate = (not s["free_rule_applicable"]) or (
        s["free_rule_ok"] and s["fraction_k2t_free"] >= 0.9)
    ok = (s["edge_within_4sigma"] and s["witness_within_3x"] and free_gate
          and elapsed < 300)
    detail = (f"n={recipe.n}, p={recipe.p:.4e}, 50 samples in {elapsed:.1f}s; "
              f"witness mean {s['witness_mean']} vs analytic "
              f"{s['analytic_expected']:.2e}; "
              f"K_(2,10)-free fraction {s['fraction_k2t_free']:.2f}; "
              f"edge counts within 4 sigma")
    announce("07 random-model", ok, detail)
    assert ok, detail


def test_08_inequality_pipeline(announce):
    t0 = time.monotonic()
    positive_rows = []
    for k in (3, 4, 5):
        for t in (4, 16):
            for n in (10**6, 10**8):
                d, lam = math.sqrt(n * t), (n * t) ** 0.25
                m = 2 * k * math.sqrt(n / t) * math.log(n)
                value = alon_rodl_log_lhs(n, d, lam, k, m)
                if value >= 0:
                    positive_rows.append((k, t, n, round(value, 1)))
    replays = {}
    for k in (2, 3):
        cert = certify(BoundQuery(k, 10, 10**6)).to_dict()
        replays[k] = replay_certificate(cert)["ok"]
    elapsed = time.monotonic() - t0
    ok = not positive_rows and all(replays.values()) and elapsed < 10
    detail = (f"substitution grid: {len(positive_rows)}/12 rows have positive "
              f"log-LHS (all k=3: the (nt)-exponent is 0 there and the dropped "
              f"constants win): {positive_rows}; certificate replays at 1e-9 "
              f"relative: k=2 {replays[2]}, k=3 {replays[3]}; {elapsed:.1f}s")
    announce("08 inequality-pipeline", ok, detail)
    assert ok, detail


def _prime_power_table(limit):
    sieve = list(range(limit + 1))  # smallest prime factor
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i] == i:
            for j in range(i * i, limit + 1, i):
                if sieve[j] == j:
                    sieve[j] = i
    table = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if sieve[p] == p:
            q = p
            while q <= limit:
                table[q] = 1
                q *= p
    return table


def test_09_prime_power_search(announce):
    t0 = time.monotonic()
    limit = 10**5
    table = _prime_power_table(limit)
    rng = random.Random(20260815)
    disagreements = []
    calls = 0
    for t in range(2, 51):
        windows = [(2, limit)]
        for _ in range(12):
            lo = rng.randrange(2, limit)
            hi = min(lo + rng.choice((0, 1, 10, 100, 1000, 10000)), limit)
            windows.append((lo, hi))
        for lo, hi in windows:
            calls += 2
            got = find_prime_power(t, "one", lo, hi)
            want = next((q for q in range(hi, lo - 1, -1)
                         if q % t == 1 % t and table[q]), None)
            if got != want:
                disagreements.append(("one", t, lo, hi, got, want))
            got = find_prime_power(t, "zero", lo, hi)
            want = _zero_oracle(t, lo, hi)
            if got != want:
                disagreements.append(("zero", t, lo, hi, got, want))
    example_ok = find_prime_power(6, "one", 30, 200) == 199
    elapsed = time.monotonic() - t0
    ok = not disagreements and example_ok and elapsed < 30
    detail = (f"{calls} windowed searches for t <= 50 agree with the sieve "
              f"oracle; (t=6, [30,200]) -> 199: {example_ok}; {elapsed:.1f}s")
    announce("09 prime-power-search", ok, detail)
    assert ok, (disagreements[:5], detail)


def _zero_oracle(t, lo, hi):
    """Largest power of t's prime in [lo, hi] divisible by t, by direct scan.
    None when t is not itself a prime power (no such q exists)."""
    p = next(c for c in range(2, t + 1) if t % c == 0)
    m = t
    while m % p == 0:
        m //= p
    if m != 1:
        return None
    best = None
    q = p
    while q <= hi:
        if q >= lo and q % t == 0:
            best = q
        q *= p
    return best


def test_10_bound_formulas(announce):
    t0 = time.monotonic()
    exact_ok = (simple_lower(BoundQuery(1, 2, 3)) == 6
                and kst_upper(100, 2)[0] == 550.0)
    worst = 0.0
    points = [(k, t, m) for k in (2, 3, 4, 5, 6) for t in (4, 16)
              for m in (10**4, 10**6)]
    assert len(points) == 20
    for k, t, m in points:
        with mpmath.workdps(50):
            ref_prop = float(256 * mpmath.mpf(k) ** 2 * mpmath.mpf(m) ** 2 * t
                             / mpmath.log(m) ** 2)
            n = mpmath.mpf(m) ** 2
            d, s, c = mpmath.sqrt(n * t), (n * t) ** mpmath.mpf("0.75"), mpmath.mpf("0.5")
            ref_aks = float((c * n / d) * (mpmath.log(d) - mpmath.log(s / n) / 2))
        rel1 = abs(prop1_upper(BoundQuery(k, t, m), 1.0) - ref_prop) / ref_prop
        rel2 = abs(aks_alpha_lower(float(m) ** 2, math.sqrt(float(m) ** 2 * t),
                                   (float(m) ** 2 * t) ** 0.75, 0.5) - ref_aks) / abs(ref_aks)
        worst = max(worst, rel1, rel2)
    elapsed = time.monotonic() - t0
    ok = exact_ok and worst <= 1e-12 and elapsed < 5
    detail = (f"simple_lower(1,2,3)=6 and kst_upper(100,2)=550 exact; 20-point "
              f"sweep vs 50-digit evaluation, worst relative error {worst:.2e} "
              f"(tolerance 1e-12); {elapsed:.2f}s")
    announce("10 bound-formulas", ok, detail)
    assert ok, detail
