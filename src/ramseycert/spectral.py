"""Exact spectrum certification for the coset graphs, via two independent routes.

Route 1 is exact integer arithmetic: the eigenvalues of both constructions lie
in {q-1, +sqrt(q), -sqrt(q), +1, -1, 0}, so the six multiplicities are pinned
by the power-sum moments tr(M^j) for j = 0..5.  The walk matrices M, M^2 and
M^3 = M^2 M are formed in float32, exact because d^2 < 2^24 is asserted for
the measured maximum degree d; float64 is used only for the trace sums
(tr(M^5) = sum of M^3 o M^2, and so on) and the annihilator product, each
under an asserted bound, so every number is an exact integer (see
``graphs._exact_walks``).  The odd moments are solved for (mult of q-1,
(m_+ - m_-)*sqrt(q), m_1 - m_-1) and the even ones for the paired sums, all
over Fractions; sqrt(q) never appears as a float.  Independently, the
annihilating identity M (M^2 - qI)(M^2 - I)(M - (q-1)I) = 0 is verified as an
exact matrix product.

Route 2 is a numeric cross-check of *why* the spectrum looks like that:
characters of the two factor groups give an eigenbasis, with eigenvalue the
character sum Gamma = sum over nonzero z of chi(z)*phi(z), and |Gamma| lands in
{q-1, sqrt(q), 1, 0} according to which of chi, phi are principal (the Gauss
sum bound covers the doubly non-principal case).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .fields import Field, Subgroup, make_field, subgroup
from .graphs import Graph, _exact_walks


class SpectralSolveError(Exception):
    """Moment system singular or non-integral: the graph is not the claimed shape."""


# -- exact moments --------------------------------------------------------------


def _moments(walks: list[np.ndarray], jmax: int) -> tuple[int, ...]:
    """tr(M^j), j = 0..jmax, from walks = [M, M^2, ...]: tr(M) is the diagonal
    sum, and tr(M^(a+b)) = sum of M^a o M^b for a = ceil(j/2), b = floor(j/2)
    (M is symmetric)."""
    f64 = np.float64
    out = [walks[0].shape[0]]
    for j in range(1, jmax + 1):
        high = walks[(j + 1) // 2 - 1]
        if j == 1:
            out.append(int(np.einsum("ii->", high, dtype=f64)))
        else:
            out.append(int(np.einsum("ij,ij->", high, walks[j // 2 - 1], dtype=f64)))
    return tuple(out)


def eigen_moments(g: Graph, jmax: int = 5) -> tuple[int, ...]:
    """Exact traces tr(M^j), j = 0..jmax (jmax <= 6), for the adjacency matrix.

    tr(M^0) = n, tr(M) = loop count, tr(M^2) = n*degree on regular graphs.
    Raises ValueError if the exactness bounds of ``graphs._exact_walks`` fail.
    """
    if not 0 <= jmax <= 6:
        raise ValueError("jmax must be in 0..6")
    if jmax == 0:
        return (g.n,)
    return _moments(_exact_walks(g, (jmax + 1) // 2, jmax=jmax), jmax)


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


def solve_multiplicities(moments: tuple[int, ...], q: int, n: int) -> dict[str, int]:
    """Recover exact multiplicities on the support {q-1, ±sqrt q, ±1, 0}.

    Odd moments j = 1, 3, 5 determine (A, V, E) where A = mult(q-1),
    V = (m_plus - m_minus)*sqrt(q) and E = m_1 - m_-1; for non-square q the
    irrational part forces V = 0, for square q it must divide by sqrt(q)
    exactly.  Even moments j = 2, 4 then give the paired sums, and j = 0 the
    kernel dimension.  Everything is checked integral and non-negative.
    """
    if len(moments) < 6:
        raise ValueError("need moments tr(M^0..5)")
    c0, c1, c2, c3, c4, c5 = (Fraction(x) for x in moments[:6])
    d = q - 1
    A, V, E = _solve3([
        [Fraction(d), Fraction(1), Fraction(1), c1],
        [Fraction(d**3), Fraction(q), Fraction(1), c3],
        [Fraction(d**5), Fraction(q * q), Fraction(1), c5],
    ])
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


def _annihilator(walks: list[np.ndarray], q: int) -> float:
    """Max |entry| of (M^3 - qM)(M^3 - (q-1)M^2 - M + (q-1)I), from walks = [M, M^2, M^3].

    This is M (M^2 - qI)(M^2 - I)(M - (q-1)I) regrouped.  The right factor is
    built in float64 and the product runs in float64 row blocks, exact under
    the bound ``_exact_walks`` asserted for q, so a zero is an exact zero.
    """
    m, m2, m3 = walks
    n = m.shape[0]
    f64 = np.float64
    right = m2.astype(f64)
    right *= -(q - 1)
    right += m3
    right -= m
    right.flat[:: n + 1] += q - 1
    worst = 0.0
    block = 512
    for i in range(0, n, block):
        rows = slice(i, i + block)
        left = m[rows].astype(f64)
        left *= -q
        left += m3[rows]
        worst = max(worst, float(np.abs(left @ right).max()))
    return worst


def annihilator_residual(g: Graph) -> float:
    """Max |entry| of M (M^2 - qI)(M^2 - I)(M - (q-1)I); exactly 0.0 on the constructions.

    q comes from the construction metadata; the evaluation is exact (a zero
    is an exact zero) or raises ValueError.
    """
    q = g.meta.q
    if q <= 0:
        raise ValueError("annihilator check needs construction metadata (q)")
    return _annihilator(_exact_walks(g, 3, q=q), q)


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
        return {
            "variant": self.variant,
            "q": self.q,
            "t": self.t,
            "n": self.n,
            "moments_used": list(self.moments_used),
            "eigenvalues": self.eigenvalue_rows(),
            "multiplicities": dict(self.multiplicities),
            "annihilator_verified": self.annihilator_verified,
            "identities_ok": self.identities_ok,
            "lambda2": {"sqrtq_of": self.q},
            "lambda_abs": {"sqrtq_of": self.q},
            "closed_form": dict(self.closed_form) if self.closed_form else None,
            "matches_lemma": self.matches_lemma,
        }


def verify_spectrum(g: Graph) -> SpectrumReport:
    """Certify the spectrum of a constructed graph exactly.

    Solves the multiplicities from integer moments, re-checks the first two
    moment identities symbolically (rational and sqrt(q) parts separately),
    verifies the annihilating polynomial as an exact matrix identity, and in
    odd characteristic compares against the closed forms.
    """
    if g.meta.variant not in ("plus", "times"):
        raise ValueError("spectrum certification applies to the plus/times constructions")
    q, t, n = g.meta.q, g.meta.t, g.n
    walks = _exact_walks(g, 3, jmax=5, q=q)
    moments = _moments(walks, 5)
    resid = _annihilator(walks, q)
    mult = solve_multiplicities(moments, q, n)

    # first/second moment identities with sqrt(q) kept symbolic
    rational1 = mult["q-1"] * (q - 1) + mult["+1"] - mult["-1"]
    irrational1 = mult["+sqrt(q)"] - mult["-sqrt(q)"]
    loops = moments[1]
    root = isqrt(q)
    if root * root == q:
        ok1 = rational1 + irrational1 * root == loops
    else:
        ok1 = rational1 == loops and irrational1 == 0
    ok2 = (
        mult["q-1"] * (q - 1) ** 2
        + (mult["+sqrt(q)"] + mult["-sqrt(q)"]) * q
        + mult["+1"] + mult["-1"]
    ) == moments[2] == n * (q - 1)
    identities_ok = bool(ok1 and ok2 and sum(mult.values()) == n)

    if g.meta.p % 2 == 1:
        closed = closed_form_multiplicities(g.meta.variant, q, t)
        matches = mult == closed
    else:
        closed, matches = None, None

    return SpectrumReport(
        variant=g.meta.variant, q=q, t=t, n=n,
        moments_used=moments, multiplicities=mult,
        annihilator_verified=resid == 0.0,
        identities_ok=identities_ok,
        closed_form=closed, matches_lemma=matches,
    )


# -- characters and Gauss/Gamma sums --------------------------------------------

CHARACTER_KINDS = (
    "additive-on-field",
    "multiplicative-on-field",
    "additive-on-quotient",
    "multiplicative-on-quotient",
)


def h_perp(field: Field, H: Subgroup) -> list[int]:
    """The c with Tr(c*h) = 0 for all h in H: parameters of the quotient's characters."""
    basis = [h for h in H.elements if h]
    return sorted(c for c in field.elements()
                  if all(field.trace(field.mul(c, h)) == 0 for h in basis))


@dataclass(frozen=True)
class Character:
    """A character of one of the four groups in play, evaluated via exp/Tr/log.

    Additive characters: x -> exp(2*pi*i * Tr(c*x) / p); quotient versions
    restrict c to the trace-annihilator of H so they are constant on cosets.
    Multiplicative characters: x -> exp(2*pi*i * j * log(x) / (q-1)); quotient
    versions use j a multiple of t.  ``index`` enumerates the character group
    (0 = principal); ``param`` is the realized c or j.
    """

    field: Field
    kind: str
    index: int
    param: int
    group_order: int

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def __call__(self, x: int) -> complex:
        f = self.field
        if self.kind.startswith("additive"):
            tr = f.trace(f.mul(self.param, x))
            return cmath.exp(2j * cmath.pi * tr / f.p)
        if x == 0:
            raise ValueError("multiplicative character undefined at 0")
        return cmath.exp(2j * cmath.pi * self.param * f.log[x] / (f.q - 1))

    def conjugate_index(self) -> int:
        """Index of the complex-conjugate character within the same group."""
        if self.index == 0:
            return 0
        return self.group_order - self.index


def make_character(field: Field, sub: Subgroup | None, kind: str, index: int) -> Character:
    """Build a character by kind and index; quotient kinds need the subgroup."""
    if kind not in CHARACTER_KINDS:
        raise ValueError(f"unknown character kind {kind!r}")
    q = field.q
    if kind == "additive-on-field":
        order = q
        if not 0 <= index < order:
            raise ValueError(f"index {index} out of range for group order {order}")
        param = index  # elements are 0..q-1, so the index doubles as c
    elif kind == "multiplicative-on-field":
        order = q - 1
        if not 0 <= index < order:
            raise ValueError(f"index {index} out of range for group order {order}")
        param = index
    elif kind == "additive-on-quotient":
        if sub is None or sub.kind != "additive":
            raise ValueError("additive-on-quotient needs the additive subgroup")
        annihilator = h_perp(field, sub)
        order = len(annihilator)
        if not 0 <= index < order:
            raise ValueError(f"index {index} out of range for group order {order}")
        param = annihilator[index]
    else:  # multiplicative-on-quotient
        if sub is None or sub.kind != "multiplicative":
            raise ValueError("multiplicative-on-quotient needs the multiplicative subgroup")
        order = (q - 1) // sub.order
        if not 0 <= index < order:
            raise ValueError(f"index {index} out of range for group order {order}")
        param = index * sub.order
    return Character(field=field, kind=kind, index=index, param=param, group_order=order)


def gauss_sum(chi_additive: Character, phi_multiplicative: Character) -> complex:
    """Sum over nonzero x of chi(x)*phi(x); |.| = sqrt(q) when both non-principal.

    With phi principal the sum collapses to -chi(0-term) = -1 for non-principal
    chi, and with chi principal to 0 for non-principal phi.
    """
    if chi_additive.kind != "additive-on-field" or phi_multiplicative.kind != "multiplicative-on-field":
        raise ValueError("gauss_sum takes full-field additive and multiplicative characters")
    f = chi_additive.field
    return sum(chi_additive(x) * phi_multiplicative(x) for x in f.units())


def gamma_sum(chi: Character, phi: Character, variant: str) -> complex:
    """The eigenvalue sum Gamma = sum over nonzero z of chi(z)phi(z) for a variant.

    plus:  chi on the additive quotient, phi on the units.
    times: chi on the unit-group quotient, phi additive on the field.
    |Gamma| is q-1 (both principal), 0 / -1 (one principal, per side), or
    sqrt(q) (both non-principal, the Gauss-sum case).
    """
    if variant == "plus":
        want = ("additive-on-quotient", "multiplicative-on-field")
    elif variant == "times":
        want = ("multiplicative-on-quotient", "additive-on-field")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if (chi.kind, phi.kind) != want:
        raise ValueError(f"variant {variant} needs character kinds {want}, got ({chi.kind}, {phi.kind})")
    f = chi.field
    return sum(chi(z) * phi(z) for z in f.units())


def construction_parts(g: Graph) -> tuple[Field, Subgroup]:
    """Rebuild the field and subgroup behind a constructed graph's labels."""
    if g.meta.variant == "plus":
        F = make_field(g.meta.p, g.meta.a)
        return F, subgroup(F, "additive", g.meta.t)
    if g.meta.variant == "times":
        F = make_field(g.meta.p, g.meta.a)
        return F, subgroup(F, "multiplicative", g.meta.t)
    raise ValueError("not a constructed graph")


def character_vector(g: Graph, chi: Character, phi: Character) -> np.ndarray:
    """The vector v[(coset, x)] = chi(coset rep) * phi(x): an eigenvector of M.

    M v equals gamma_sum(chi, phi) times the vector of the conjugate pair
    (numeric identity used as a cross-check of the exact route).
    """
    _, H = construction_parts(g)
    reps = H.reps
    out = np.empty(g.n, dtype=np.complex128)
    for i, (cid, x) in enumerate(g.labels):
        out[i] = chi(reps[cid]) * phi(x)
    return out
