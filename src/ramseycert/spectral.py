"""Exact spectrum certification for the coset graphs, by integer arithmetic.

The eigenvalues of both constructions lie in {q-1, +sqrt(q), -sqrt(q), +1,
-1, 0}, so the six multiplicities are pinned by the power-sum moments
tr(M^j) for j = 0..5.  On every construction the codegree matrix is
M^2 = Q = qI + tJ - S_c - t S_x, S_c marking the pairs in the same coset and
S_x the pairs with the same field coordinate.  That is checked exactly once
per graph, on one row of M^2 per orbit of the verified field maps
(``graphs.Graph._m2_is_q``, which the audit reads too), and then the
annihilator and the moments follow with no matrix product at all
(``verify_spectrum``, ``_q_moments``): times(121,2) certifies in 0.03 s,
and plus(256,2), whose float32 M alone would take 4.3 GB, in under a
second.  A graph whose M^2 is not Q (a tampered or a vertex-permuted file)
takes the dense route, M^3 in float32 and the annihilator as a float64
product (``_dense_route``).
Each route asserts its own exactness bounds.  Either way the odd moments are
solved in closed form for (mult of q-1, (m_+ - m_-)*sqrt(q), m_1 - m_-1) and
the even ones for the paired sums, all over Fractions; sqrt(q) is no float.

The field's characters and their Gauss sums, |G| = sqrt(q) for a
non-principal pair, are here too.  The numeric route that explains the
spectrum (characters of the two factor groups give an eigenbasis, with
eigenvalue the character sum Gamma = sum over nonzero z of chi(z)*phi(z)) is
the oracle in ``tests/test_spectral.py``.
"""

from __future__ import annotations

import cmath
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .fields import Field
from .graphs import (_BLOCK, _FLOAT32_EXACT, Graph, _check_construction, _check_memory, _layout,
                     _regular_view)


class SpectralSolveError(Exception):
    """Moment system singular or non-integral: the graph is not the claimed shape."""


# -- exact moments --------------------------------------------------------------


def solve_multiplicities(moments: tuple[int, ...], q: int, n: int) -> dict[str, int]:
    """Recover exact multiplicities on the support {q-1, ±sqrt q, ±1, 0}.

    Odd moments j = 1, 3, 5 determine (A, V, E) where A = mult(q-1),
    V = (m_plus - m_minus)*sqrt(q) and E = m_1 - m_-1, from the rows
    A d^j + V q^((j-1)/2) + E = tr(M^j), d = q - 1, eliminated in closed form
    over the pivot d q (q-2)(d^2-q), which is zero only at q = 2.  For
    non-square q the irrational part forces V = 0, for square q it must
    divide by sqrt(q) exactly.  Even moments j = 2, 4 then give the paired
    sums, and j = 0 the kernel dimension.  Everything is checked integral and
    non-negative.
    """
    if len(moments) < 6:
        raise ValueError("need moments tr(M^0..5)")
    c0, c1, c2, c3, c4, c5 = (Fraction(x) for x in moments[:6])
    d = q - 1
    pivot = d * q * (q - 2) * (d * d - q)
    if pivot == 0:
        raise SpectralSolveError("singular moment system")
    # (c3-c1)/d = A(d^2-1) + V and (c5-c3)/d = A d^2(d^2-1) + V q, d^2-1 = q(q-2)
    A = (c5 - c3 - q * (c3 - c1)) / pivot
    V = (c3 - c1) / d - A * q * (q - 2)
    E = c1 - A * d - V
    # even part: S = m_plus + m_minus, T = m_1 + m_-1 from j = 2, 4
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
    vals = {
        "q-1": A,
        "+sqrt(q)": (S + W) / 2,
        "-sqrt(q)": (S - W) / 2,
        "+1": (T + E) / 2,
        "-1": (T - E) / 2,
        "0": Z,
    }
    out: dict[str, int] = {}
    for name, v in vals.items():
        if v.denominator != 1 or v < 0:
            raise SpectralSolveError(f"multiplicity of {name} solved to {v}, not a non-negative integer")
        out[name] = int(v)
    if sum(out.values()) != n:
        raise SpectralSolveError("multiplicities do not sum to n")
    return out


def closed_form_multiplicities(variant: str, q: int, t: int) -> dict[str, int]:
    """Odd-characteristic closed forms for the six multiplicities.

    plus:  {q-1: 1, ±sqrt(q): (q/t-1)(q-2)/2 each, ±1: (q/t-1)/2 each, 0: q-2}
    times: {q-1: 1, ±sqrt(q): ((q-1)/t-1)(q-1)/2 each, ±1: (q-1)/2 each,
            0: (q-1)/t - 1}
    """
    if variant == "plus":
        half = (q // t - 1) * (q - 2)
        ones = q // t - 1
        zero = q - 2
    elif variant == "times":
        half = ((q - 1) // t - 1) * (q - 1)
        ones = q - 1
        zero = (q - 1) // t - 1
    else:
        raise ValueError(f"no closed form for variant {variant!r}")
    if half % 2 or ones % 2:
        raise ValueError("closed forms require odd characteristic")
    return {
        "q-1": 1,
        "+sqrt(q)": half // 2,
        "-sqrt(q)": half // 2,
        "+1": ones // 2,
        "-1": ones // 2,
        "0": zero,
    }


def _dense_route(g: Graph, q: int) -> tuple[tuple[int, ...], float]:
    """tr(M^j), j = 0..5, and the largest |entry| of the annihilator
    M (M^2 - qI)(M^2 - I)(M - (q-1)I), regrouped as
    (M^3 - qM)(M^3 - (q-1)M^2 - M + (q-1)I): the route of a graph whose M^2
    is not Q.

    M, M^2 and M^3 = M^2 M are float32 walk counts, tr(M^j) is the float64
    sum of M^a o M^b (a = ceil(j/2), b = floor(j/2), M symmetric), and the
    product runs in 512-row float64 blocks.  Three bounds on the measured
    maximum degree d make each step exact and are asserted up front
    (ValueError): d^2 < 2^24, as a partial sum of M^3 in row i is at most
    the 2-walks out of i; n d^4 < 2^53, as a partial sum of tr(M^j), j <= 5,
    is at most n d^(j-1); and n (d^2 + q)(d^2 + (q-1)(d+1) + 1) < 2^53, as
    the factors' entries are at most d^2 + q and d^2 + (q-1)(d+1) + 1.  So a
    zero residual is an exact zero.  Refused too when 21 n^2 bytes (M, M^2,
    M^3, the float64 factor and n^2 to spare) exceed physical memory.
    """
    n = g.n
    _check_memory(21 * n * n, f"dense walk matrices at n = {n}")
    d = int(np.diff(g.start).max(initial=0))
    if d * d >= _FLOAT32_EXACT:
        raise ValueError(f"maximum degree {d} is too large for exact float32 walks")
    if n * d**4 >= 1 << 53:
        raise ValueError(f"tr(M^5) may exceed 2^53 at n = {n}, maximum degree {d}")
    if n * (d * d + q) * (d * d + (q - 1) * (d + 1) + 1) >= 1 << 53:
        raise ValueError(f"annihilator partial sums may exceed 2^53 at n = {n}, "
                         f"maximum degree {d}, q = {q}")
    m = g.adjacency_matrix(dtype=np.float32)
    m2 = m @ m
    m3 = m2 @ m
    f64 = np.float64
    traces = [np.einsum("ii->", m, dtype=f64)] + [
        np.einsum("ij,ij->", a, b, dtype=f64) for a, b in ((m, m), (m2, m), (m2, m2), (m3, m2))]
    right = m2.astype(f64)
    right *= -(q - 1)
    right += m3
    right -= m
    right.flat[:: n + 1] += q - 1
    worst = 0.0
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        left = m[rows].astype(f64)
        left *= -q
        left += m3[rows]
        worst = max(worst, float(np.abs(left @ right).max()))
    return (n, *(int(x) for x in traces)), worst


def _q_moments(g: Graph) -> tuple[int, ...] | None:
    """tr(M^j), j = 0..5, once M^2 = Q = qI + tJ - S_c - t S_x is checked
    (``Graph._m2_is_q``); None when it fails.

    The moments are exact ints from four counts of M's ones: E all of them,
    D the diagonal, P_c the same-c pairs and P_x the same-x pairs; vertex i
    is (c, x) = divmod(i, w), w from ``graphs._layout``, and C = n / w.
    tr M^2 = E; tr M^3 = sum of M o Q = qD + tE - P_c - t P_x; tr M^4 = sum
    of Q o Q, whose row has q - 1 on the diagonal, t - 1 at its w - 1 coset
    mates, 0 at its C - 1 other vertices with the same x and t elsewhere;
    tr M^5 = sum of M o Q^2, where S_c^2 = w S_c, S_x^2 = C S_x and S_c S_x
    = J give Q^2 = q^2 I + (2qt + t^2 n - 2tw - 2t^2 C + 2t) J
    + (w - 2q) S_c + (t^2 C - 2qt) S_x.
    """
    if not g._m2_is_q:
        return None
    n, q, t = g.n, g.meta.q, g.meta.t
    w, _ = _layout(g.meta.variant, q)
    C = n // w
    owner, nbr = np.arange(n)[:, None], _regular_view(g)
    E, D = nbr.size, int(np.count_nonzero(nbr == owner))
    Pc = int(np.count_nonzero(nbr // w == owner // w))
    Px = int(np.count_nonzero(nbr % w == owner % w))
    tr4 = n * ((q - 1) ** 2 + (w - 1) * (t - 1) ** 2 + (n - w - C + 1) * t * t)
    j_coef = 2 * q * t + t * t * n - 2 * t * w - 2 * t * t * C + 2 * t  # of J in Q^2
    tr5 = q * q * D + j_coef * E + (w - 2 * q) * Pc + (t * t * C - 2 * q * t) * Px
    return (n, D, E, q * D + t * E - Pc - t * Px, tr4, tr5)


@dataclass(frozen=True)
class SpectrumReport:
    """Exact multiplicities plus every identity that was checked.

    ``eigenvalues`` entries are exact algebraic numbers rational + coeff*sqrt(q)
    with integer multiplicities.  ``matches_lemma`` is None in even
    characteristic, where no closed form is asserted (the solve is still
    exact and recorded).  lambda2 / lambda_abs are both sqrt(q); they are
    reported separately because "second largest" and "second largest in
    absolute value" coincide here but are distinct hypotheses downstream.
    """

    variant: str
    q: int
    t: int
    n: int
    moments_used: tuple[int, ...]
    multiplicities: dict[str, int]
    annihilator_verified: bool
    identities_ok: bool
    closed_form: dict[str, int] | None
    matches_lemma: bool | None

    @property
    def passed(self) -> bool:
        """Annihilator and identities verified, and the lemma not contradicted."""
        return self.annihilator_verified and self.identities_ok and self.matches_lemma is not False

    def eigenvalue_rows(self) -> list[dict]:
        q = self.q
        shape = {
            "q-1": (q - 1, 0), "+sqrt(q)": (0, 1), "-sqrt(q)": (0, -1),
            "+1": (1, 0), "-1": (-1, 0), "0": (0, 0),
        }
        return [
            {"rational": r, "sqrtq_coeff": s, "multiplicity": self.multiplicities[name]}
            for name, (r, s) in shape.items()
        ]

    def to_dict(self) -> dict:
        return {**asdict(self), "eigenvalues": self.eigenvalue_rows(),
                "lambda2": {"sqrtq_of": self.q}, "lambda_abs": {"sqrtq_of": self.q}}


def verify_spectrum(g: Graph) -> SpectrumReport:
    """Certify the spectrum of a constructed graph exactly.

    Solves the multiplicities from integer moments, checks the degree sum
    tr(M^2) = n(q-1), verifies the annihilating polynomial
    M (M^2 - qI)(M^2 - I)(M - dI) = 0, d = q - 1, and in odd characteristic
    compares against the closed forms.  Metadata that is not a construction
    on n vertices raises ValueError first.

    The annihilator holds once M^2 = Q = qI + tJ - S_c - t S_x
    (``Graph._m2_is_q``), by the Kronecker argument: S_c = I (x) J,
    S_x = J (x) I and J commute, so Q's eigenvalues are d^2 (the all-ones
    vector), q, 1 and 0, and for q >= 3 d^2 is none of the others, so it
    belongs to the all-ones vector alone.  M commutes with M^2 = Q, so it
    maps the all-ones vector to a multiple of it, and M >= 0 makes that
    M 1 = d 1.  Every other eigenvalue of the symmetric M squares to q, 1 or
    0, so M's eigenvalues lie in {d, +-sqrt(q), +-1, 0}, the roots of the
    annihilator.  The moments then come from four counts of M's ones
    (``_q_moments``).  A graph whose M^2 is not Q takes ``_dense_route``.
    """
    if g.meta.variant not in ("plus", "times"):
        raise ValueError("spectrum certification applies to the plus/times constructions")
    _check_construction(g.meta, g.n)
    q, t, n = g.meta.q, g.meta.t, g.n
    # q < 3 only in plus(2,2), n = 1: its solve raises SpectralSolveError on
    # either route, as the pivot has the factor q - 2
    moments = _q_moments(g)
    verified = moments is not None
    if not verified:
        moments, residual = _dense_route(g, q)
        verified = residual == 0.0
    mult = solve_multiplicities(moments, q, n)

    # the solve meets tr(M^j), j <= 5, exactly: its rows j = 1, 2 are the
    # first and second moment identities, and j = 0 makes the multiplicities
    # sum to n.  Not implied is tr(M^2) = n(q-1), the degree sum.
    identities_ok = moments[2] == n * (q - 1)

    if g.meta.p % 2 == 1:
        closed = closed_form_multiplicities(g.meta.variant, q, t)
        matches = mult == closed
    else:
        closed, matches = None, None

    return SpectrumReport(
        variant=g.meta.variant, q=q, t=t, n=n,
        moments_used=moments, multiplicities=mult,
        annihilator_verified=verified,
        identities_ok=identities_ok,
        closed_form=closed, matches_lemma=matches,
    )


# -- characters and Gauss sums ----------------------------------------------------


@dataclass(frozen=True)
class Character:
    """A character of GF(q)'s additive or multiplicative group, evaluated via
    exp/Tr/log; ``index`` enumerates the group, 0 being the principal one.

    Additive (index c, an element): x -> exp(2*pi*i * Tr(c*x) / p).
    Multiplicative (index j): x -> exp(2*pi*i * j * log(x) / (q-1)).
    """

    field: Field
    kind: str
    index: int

    def __call__(self, x: int) -> complex:
        f = self.field
        if self.kind == "additive-on-field":
            tr = f.trace(f.mul(self.index, x))
            return cmath.exp(2j * cmath.pi * tr / f.p)
        if x == 0:
            raise ValueError("multiplicative character undefined at 0")
        return cmath.exp(2j * cmath.pi * self.index * f.log[x] / (f.q - 1))


def make_character(field: Field, kind: str, index: int) -> Character:
    """The index-th character of kind "additive-on-field" (q of them) or
    "multiplicative-on-field" (q - 1)."""
    orders = {"additive-on-field": field.q, "multiplicative-on-field": field.q - 1}
    if kind not in orders:
        raise ValueError(f"unknown character kind {kind!r}")
    if not 0 <= index < orders[kind]:
        raise ValueError(f"index {index} out of range for group order {orders[kind]}")
    return Character(field=field, kind=kind, index=index)


def gauss_sum(chi_additive: Character, phi_multiplicative: Character) -> complex:
    """Sum over nonzero x of chi(x)*phi(x); |.| = sqrt(q) when both non-principal.

    With phi principal the sum collapses to -chi(0-term) = -1 for non-principal
    chi, and with chi principal to 0 for non-principal phi.
    """
    if chi_additive.kind != "additive-on-field" or phi_multiplicative.kind != "multiplicative-on-field":
        raise ValueError("gauss_sum takes full-field additive and multiplicative characters")
    f = chi_additive.field
    return sum(chi_additive(x) * phi_multiplicative(x) for x in f.units())
