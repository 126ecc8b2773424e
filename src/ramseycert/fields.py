"""Arithmetic in GF(p^a) with int-encoded elements, plus subgroup/coset machinery.

An element is an int in 0..q-1 whose base-p digits (little-endian) are the
coefficients of a polynomial of degree < a over GF(p); 0 and 1 are the additive
and multiplicative identities in every field.  The reducing modulus is monic of
degree a and chosen so that the monomial x is a *primitive* element: among
moduli x^a + tail ordered by the tail's encoding, we take the first for which x
has multiplicative order q-1.  Irreducibility is implied: the q-1 distinct
powers of x are units, so every nonzero element of the quotient ring is one and
the ring is a field.  The canonical generator is the reduction of x itself (for
a = 1 the modulus is x + k and x reduces to -k).  Pinning primitivity into the
modulus keeps downstream constructions that exponentiate the generator
(powers, quadratic residues, multiplicative subgroups) canonical.

Arithmetic modulo the modulus is one int64 matrix C, multiplication by x:
row 0 of C^e is x^e, read by repeated squaring in the primitivity test and by
doubling for the exp table; the generator is row 0 of C.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

MAX_Q = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs (and beyond 3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n stays small (< 2^20) here."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _iroot(n: int, a: int) -> int:
    """floor(n^(1/a)) for n >= 1, exactly: integer Newton steps from 2^ceil(bits/a)."""
    r = 1 << -(-n.bit_length() // a)
    while (s := ((a - 1) * r + n // r ** (a - 1)) // a) < r:
        r = s
    return r


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, a) with n = p^a, or None.  Exact for any n, at one prime test plus
    one integer root per exponent a < log2 n."""
    if is_prime(n):
        return n, 1
    for a in range(2, n.bit_length()):
        r = _iroot(n, a)
        if r**a == n and is_prime(r):
            return r, a
    return None


# -- polynomials over GF(p): little-endian coefficient tuples, companion matrix


def _encode(coeffs: tuple[int, ...], p: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _decode(v: int, p: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(v % p)
        v //= p
    return tuple(out)


def _is_primitive(c: np.ndarray, p: int, q: int) -> bool:
    """Has x order q - 1 modulo the modulus of companion matrix c?  Checks
    x^(q-1) = 1 and x^((q-1)/r) != 1 for each prime r | q - 1; x^e is row 0
    of c^e mod p, by repeated squaring (a product sum is < a p^2 <= 2^40)."""
    one = np.eye(1, len(c), dtype=np.int64)[0]

    def x_to(e: int) -> np.ndarray:
        r, b = one, c
        while e:
            if e & 1:
                r = r @ b % p
            b = b @ b % p
            e >>= 1
        return r

    return ((x_to(q - 1) == one).all()
            and all((x_to((q - 1) // r) != one).any() for r in factorize(q - 1)))


@dataclass(frozen=True)
class Field:
    """GF(p^a) with element encoding 0..q-1 and precomputed discrete logs.

    ``modulus`` is the full little-endian coefficient tuple (length a+1, leading
    coefficient 1).  ``generator`` is the reduction of the monomial x and is
    primitive by construction.  ``exp[i] = generator^i`` for 0 <= i < q-1 and
    ``log[exp[i]] = i`` (log[0] = -1 sentinel, never a valid exponent).
    """

    p: int
    a: int
    q: int
    modulus: tuple[int, ...]
    generator: int
    exp: tuple[int, ...] = dc_field(repr=False)
    log: tuple[int, ...] = dc_field(repr=False)

    # -- ring ops (add, neg and sub also work elementwise on int arrays) --------

    def add(self, x: int, y: int) -> int:
        return self._digitwise(x, y, 1)

    def neg(self, x: int) -> int:
        return self._digitwise(0, x, -1)

    def sub(self, x: int, y: int) -> int:
        return self._digitwise(x, y, -1)

    def _digitwise(self, x: int, y: int, s: int) -> int:
        """(x + s*y) mod p digit by digit in base p, for s = +1 or -1."""
        p = self.p
        if p == 2:
            return x ^ y
        out, mul = (x + s * y) % p, 1
        for _ in range(self.a - 1):
            x = x // p  # rebinding, not //=, so an int array is never mutated
            y = y // p
            mul *= p
            out += (x + s * y) % p * mul
        return out

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.log[x] + self.log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.exp[(-self.log[x]) % (self.q - 1)]

    def power(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if e else 1
        return self.exp[self.log[x] * e % (self.q - 1)]

    def trace(self, x: int) -> int:
        """Absolute trace GF(q) -> GF(p): x + x^p + ... + x^(p^(a-1))."""
        acc, cur = 0, x
        for _ in range(self.a):
            acc = self.add(acc, cur)
            cur = self.power(cur, self.p)
        assert acc < self.p, "trace landed outside the prime subfield"
        return acc

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)


def field_ops(field: Field, op: str, x: int, y: int | None = None) -> int:
    """Dispatch a named field operation; the CLI and quick scripts use this.
    Operands must be elements 0..q-1; the exponent of ``pow`` is any int."""
    operands = (x,) if op == "pow" else (x, y)
    for v in operands:
        if v is not None and not 0 <= v < field.q:
            raise ValueError(f"operand {v} is not an element of GF({field.q})")
    unary = {"neg": field.neg, "inv": field.inv, "trace": field.trace}
    binary = {"add": field.add, "sub": field.sub, "mul": field.mul, "pow": field.power}
    if op in unary:
        return unary[op](x)
    if op in binary:
        if y is None:
            raise ValueError(f"operation {op!r} needs two operands")
        return binary[op](x, y)
    raise ValueError(f"unknown field operation {op!r}")


def _powers_of_x(c: np.ndarray, p: int, q: int) -> np.ndarray:
    """Encoded x^0..x^(q-2) modulo the modulus of companion matrix c, by
    doubling: coefficient rows k..2k-1 are rows 0..k-1 times x^k, whose matrix
    ``mul`` (row j = x^j * x^k, c^k) squares as k doubles.  Rows take the
    narrowest signed type holding a product entry, at most a * (p-1)^2: one
    byte a coefficient for GF(2^20)."""
    a = len(c)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).max >= a * (p - 1) ** 2)
    rows = np.zeros((q - 1, a), dtype=dtype)
    rows[0, 0] = 1
    mul = c.astype(dtype)
    k = 1
    while k < q - 1:
        m = min(k, q - 1 - k)
        rows[k:k + m] = rows[:m] @ mul % p
        k, mul = k + m, mul @ mul % p
    return sum(rows[:, j].astype(np.int64) * p**j for j in range(a))


@lru_cache(maxsize=None)
def make_field(p: int, a: int) -> Field:
    """Construct GF(p^a), selecting the primitive-monomial modulus."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if a < 1:
        raise ValueError("a must be >= 1")
    q = p**a
    if q > MAX_Q:
        raise ValueError(f"q = {q} exceeds the desk-scale limit {MAX_Q}")

    for enc in range(1, q):
        tail = _decode(enc, p, a)
        c = np.eye(a, k=1, dtype=np.int64)  # the companion matrix: row j is x^(j+1)
        c[-1] = [-v % p for v in tail]  # x^a = -tail
        if _is_primitive(c, p, q):
            break
    else:  # pragma: no cover - primitive polynomials always exist
        raise AssertionError("no primitive-monomial modulus found")

    powers = _powers_of_x(c, p, q)
    log = np.full(q, -1)
    log[powers] = np.arange(q - 1)
    assert (log[1:] >= 0).all(), "generator is not primitive"
    # row 0 of c is the monomial x reduced: -tail[0] when a = 1
    return Field(p=p, a=a, q=q, modulus=tail + (1,), generator=_encode(tuple(c[0].tolist()), p),
                 exp=tuple(powers.tolist()), log=tuple(log.tolist()))


# -- subgroups and cosets ------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup H of (GF(q), +) or (GF(q)^*, ·) with its coset table.

    ``coset_id[e]`` maps every element of the ambient group to the index of its
    coset, and 0 to -1 when the group is GF(q)^*; coset ids are assigned by
    ascending minimum representative, and ``reps[cid]`` is that minimum.
    ``coset_id`` is a read-only int64 array that takes no part in equality or
    hashing: the other fields determine it.
    Additive H of order p^b is the GF(p)-span of the reduced monomials
    x^1..x^b, grown as p shifted copies per monomial by the elementwise
    ``Field.add``; multiplicative H of order t is exp[k (q-1)/t], the group
    generated by g^((q-1)/t).  H is an int array: for t <= 2048 closure is
    checked by one ``np.isin`` over the t x t table of products, and the
    ascending scan of the ambient group writes each new coset e·H in one
    indexed assignment.
    """

    field: Field
    kind: str  # "additive" | "multiplicative"
    order: int
    elements: frozenset[int]
    coset_id: np.ndarray = dc_field(compare=False, repr=False)
    reps: tuple[int, ...]

    @property
    def num_cosets(self) -> int:
        return len(self.reps)


def subgroup(field: Field, kind: str, order: int) -> Subgroup:
    """Build the canonical subgroup of the given order with its coset table."""
    q, p = field.q, field.p
    if kind == "additive":
        # order must be p^b
        b = 0
        o = order
        while o > 1 and o % p == 0:
            o //= p
            b += 1
        if o != 1 or order > q:
            raise ValueError(f"additive subgroup order {order} is not a power of p = {p} dividing q")
        H = np.zeros(1, dtype=np.int64)
        for v in (field.exp[i % (q - 1)] for i in range(1, b + 1)):  # x^1..x^b
            shifts = [H]  # H + j v for j = 0..p-1
            for _ in range(p - 1):
                shifts.append(field.add(shifts[-1], v))
            H = np.concatenate(shifts)
        elements = frozenset(H.tolist())
        if len(elements) != order:
            raise AssertionError("monomial span has unexpected size")
        ambient: range = field.elements()
        combine = field.add
    elif kind == "multiplicative":
        if order < 1 or (q - 1) % order != 0:
            raise ValueError(f"multiplicative subgroup order {order} does not divide q - 1 = {q - 1}")
        H = np.array(field.exp[::(q - 1) // order])
        elements = frozenset(H.tolist())
        if len(elements) != order:
            raise AssertionError("generated subgroup has unexpected size")
        ambient = field.units()
        exp, log = np.array(field.exp), np.array(field.log)

        def combine(x, y):
            return exp[(log[x] + log[y]) % (q - 1)]
    else:
        raise ValueError(f"unknown subgroup kind {kind!r}")

    if order <= 2048:  # closure is cheap to certify exhaustively at desk scale
        assert np.isin(combine(H[:, None], H), H).all(), "subgroup not closed"

    coset_id = np.full(q, -1, dtype=np.int64)
    reps = []
    for e in ambient:
        if coset_id[e] < 0:  # ascending scan => first unseen element is the min rep
            coset_id[combine(e, H)] = len(reps)
            reps.append(e)
    assert len(reps) * order == len(ambient)
    coset_id.flags.writeable = False
    return Subgroup(field=field, kind=kind, order=order, elements=elements,
                    coset_id=coset_id, reps=tuple(reps))
