"""Field arithmetic against independent oracles (sympy) and algebraic laws."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ramseycert.fields import (
    MAX_Q,
    Field,
    Subgroup,
    factorize,
    field_ops,
    is_prime,
    is_prime_power,
    make_field,
    subgroup,
)
from ramseycert.graphs import fleet

# the fields every construction in the acceptance fleet lives in
FLEET_PA = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
            (3, 1), (3, 2), (3, 3), (3, 4),
            (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (11, 2), (13, 1)]

# frozen before implementation: smallest-encoding primitive-monomial moduli
# (little-endian coefficient tuples) and the resulting canonical generators
FROZEN = {
    (2, 2): ((1, 1, 1), 2),         # x^2 + x + 1
    (2, 3): ((1, 1, 0, 1), 2),      # x^3 + x + 1
    (2, 4): ((1, 1, 0, 0, 1), 2),   # x^4 + x + 1
    (3, 1): ((1, 1), 2),            # x + 1, generator -1 = 2
    (3, 2): ((2, 1, 1), 3),         # x^2 + x + 2
    (5, 1): ((2, 1), 3),            # x + 2, generator -2 = 3
    (5, 2): ((2, 1, 1), 5),         # x^2 + x + 2
    (7, 1): ((2, 1), 5),
    (11, 1): ((3, 1), 8),
    # at scale, recorded before the companion-matrix rewrite
    (2, 20): ((1, 0, 0, 1) + (0,) * 16 + (1,), 2),             # x^20 + x^3 + 1
    (3, 12): ((2, 2, 2, 1, 2) + (0,) * 7 + (1,), 3),
    (5, 8): ((3, 2, 1, 0, 0, 0, 0, 0, 1), 5),
    (1021, 1): ((10, 1), 1011),
    (65537, 1): ((3, 1), 65534),
}


def fields_strategy():
    return st.sampled_from([make_field(p, a) for p, a in FLEET_PA if p**a <= 121])


def _to_poly(e: int, F: Field, z):
    digits = []
    while e:
        digits.append(e % F.p)
        e //= F.p
    return sum(c * z**i for i, c in enumerate(digits))


def _sympy_mulmod(F: Field, x: int, y: int) -> int:
    """Independent product oracle: polynomial arithmetic done by sympy."""
    z = sympy.Symbol("z")
    mod = sympy.Poly(sum(c * z**i for i, c in enumerate(F.modulus)), z, modulus=F.p)
    prod = sympy.Poly(_to_poly(x, F, z) * _to_poly(y, F, z), z, modulus=F.p)
    rem = prod.rem(mod)
    coeffs = [int(c) % F.p for c in reversed(rem.all_coeffs())]
    out = 0
    for c in reversed(coeffs):
        out = out * F.p + c
    return out


# -- primality / factorization ---------------------------------------------------


@given(st.integers(0, 10**6))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_large_composites():
    # strong-pseudoprime bait for weak Miller-Rabin base sets
    for n in (3215031751, 3825123056546413051, 25326001, 2**31 - 1):
        assert is_prime(n) == sympy.isprime(n)


@given(st.integers(2, 10**6))
def test_factorize_matches_sympy(n):
    assert factorize(n) == sympy.factorint(n)


# -- field construction ----------------------------------------------------------


@pytest.mark.parametrize("p,a", FLEET_PA)
def test_modulus_is_irreducible_and_monic(p, a):
    F = make_field(p, a)
    assert len(F.modulus) == a + 1 and F.modulus[-1] == 1
    z = sympy.Symbol("z")
    poly = sympy.Poly(sum(c * z**i for i, c in enumerate(F.modulus)), z, modulus=p)
    assert poly.is_irreducible


@pytest.mark.parametrize("p,a", FLEET_PA)
def test_generator_is_primitive(p, a):
    F = make_field(p, a)
    # exp enumerates every unit exactly once iff the generator is primitive
    assert sorted(F.exp) == list(F.units())
    assert F.exp[0] == 1 and F.exp[1] == F.generator


@pytest.mark.parametrize("p,a", sorted(FROZEN))
def test_frozen_modulus_and_generator(p, a):
    F = make_field.__wrapped__(p, a)  # uncached: GF(2^20)'s tables hold 2M ints
    assert (F.modulus, F.generator) == FROZEN[(p, a)]
    assert F.exp[1] == F.generator and F.log[F.generator] == 1


def _is_primitive_modulus(tail, p):
    """sympy oracle: is x^a + tail irreducible, with x of order p^a - 1?"""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod

    q, f = p ** len(tail), [1] + list(reversed(tail))  # big-endian, monic
    if not gf_irreducible_p(f, p, ZZ):
        return False
    one = [1]
    return (gf_pow_mod([1, 0], q - 1, f, p, ZZ) == one
            and all(gf_pow_mod([1, 0], (q - 1) // r, f, p, ZZ) != one
                    for r in sympy.factorint(q - 1)))


@pytest.mark.parametrize("q", [q for q in range(2, 1025) if len(sympy.factorint(q)) == 1])
def test_modulus_is_the_first_primitive_tail(q):
    ((p, a),) = sympy.factorint(q).items()
    F = make_field(p, a)
    tail = F.modulus[:-1]
    assert F.modulus[-1] == 1 and _is_primitive_modulus(tail, p)
    enc = sum(c * p**i for i, c in enumerate(tail))
    for smaller in range(1, enc):
        assert not _is_primitive_modulus(tuple(smaller // p**i % p for i in range(a)), p)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(2, 21)  # 2^21 > MAX_Q
    assert 2**20 == MAX_Q


# -- arithmetic laws and oracles ---------------------------------------------------


@given(st.data())
def test_additive_group_laws(data):
    F = data.draw(fields_strategy())
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.integers(0, F.q - 1))
    w = data.draw(st.integers(0, F.q - 1))
    assert F.add(x, y) == F.add(y, x)
    assert F.add(F.add(x, y), w) == F.add(x, F.add(y, w))
    assert F.add(x, 0) == x
    assert F.add(x, F.neg(x)) == 0
    assert F.sub(x, y) == F.add(x, F.neg(y))


@given(st.data())
def test_multiplicative_group_laws(data):
    F = data.draw(fields_strategy())
    x = data.draw(st.integers(1, F.q - 1))
    y = data.draw(st.integers(1, F.q - 1))
    w = data.draw(st.integers(0, F.q - 1))
    assert F.mul(x, y) == F.mul(y, x)
    assert F.mul(x, 1) == x
    assert F.mul(x, F.inv(x)) == 1
    assert F.mul(F.mul(x, y), w) == F.mul(x, F.mul(y, w))
    # distributivity ties the exp/log tables back to the polynomial structure
    assert F.mul(x, F.add(y, w)) == F.add(F.mul(x, y), F.mul(x, w))


@settings(max_examples=50)
@given(st.data())
def test_product_matches_sympy_oracle(data):
    F = data.draw(fields_strategy())
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.integers(0, F.q - 1))
    assert F.mul(x, y) == _sympy_mulmod(F, x, y)


@given(st.data())
def test_power_is_iterated_product(data):
    F = data.draw(fields_strategy())
    x = data.draw(st.integers(1, F.q - 1))
    e = data.draw(st.integers(0, 3 * (F.q - 1)))
    acc = 1
    for _ in range(e % (F.q - 1) if x != 0 else e):
        acc = F.mul(acc, x)
    assert F.power(x, e) == acc
    assert F.power(x, -1) == F.inv(x)


def test_zero_has_no_inverse():
    F = make_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.power(0, -2)
    assert F.power(0, 0) == 1 and F.power(0, 5) == 0


@given(st.data())
def test_trace_is_linear_into_prime_subfield(data):
    F = data.draw(fields_strategy())
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.integers(0, F.q - 1))
    c = data.draw(st.integers(0, F.p - 1))
    assert 0 <= F.trace(x) < F.p
    assert F.trace(F.add(x, y)) == (F.trace(x) + F.trace(y)) % F.p
    assert F.trace(F.mul(c, x)) == c * F.trace(x) % F.p
    # Frobenius invariance
    assert F.trace(F.power(x, F.p)) == F.trace(x)


@pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_trace_kernel_size_and_surjectivity(p, a):
    F = make_field(p, a)
    values = [F.trace(x) for x in F.elements()]
    # the trace is a surjective GF(p)-linear map, so every fiber has q/p points
    for v in range(p):
        assert values.count(v) == F.q // p


def test_char2_addition_is_xor():
    F = make_field(2, 4)
    for x in range(16):
        for y in range(16):
            assert F.add(x, y) == x ^ y


@pytest.mark.parametrize("p,a", FLEET_PA)
def test_array_ops_match_scalar_ops(p, a):
    # the table-driven builders add and subtract whole int64 arrays
    F = make_field(p, a)
    x, y = np.divmod(np.arange(F.q * F.q, dtype=np.int64), F.q)
    x0, y0 = x.copy(), y.copy()
    add, sub, neg = F.add(x, y), F.sub(x, y), F.neg(x)
    assert (x == x0).all() and (y == y0).all()
    pairs = list(zip(x0.tolist(), y0.tolist()))
    assert add.tolist() == [F.add(u, v) for u, v in pairs]
    assert sub.tolist() == [F.sub(u, v) for u, v in pairs]
    assert neg.tolist() == [F.neg(u) for u in x0.tolist()]


def test_field_ops_dispatch():
    F = make_field(3, 2)
    assert field_ops(F, "mul", 3, 3) == 7
    assert field_ops(F, "add", 1, 2) == 0
    assert field_ops(F, "neg", 1) == 2
    assert field_ops(F, "trace", 3) == F.trace(3)
    with pytest.raises(ValueError):
        field_ops(F, "mul", 3)  # missing second operand
    with pytest.raises(ValueError):
        field_ops(F, "gcd", 3, 3)
    for op, x, y in [("add", 9, 1), ("mul", 1, -1), ("neg", 9, None), ("inv", -1, None),
                     ("pow", 9, 2)]:
        with pytest.raises(ValueError, match="not an element"):
            field_ops(F, op, x, y)
    assert field_ops(F, "pow", 3, -1) == F.inv(3)  # the exponent may be any int


# -- subgroups -----------------------------------------------------------------


@pytest.mark.parametrize("p,a,order", [(3, 2, 3), (2, 3, 4), (2, 4, 8), (5, 2, 5), (3, 3, 9)])
def test_additive_subgroup_structure(p, a, order):
    F = make_field(p, a)
    H = subgroup(F, "additive", order)
    assert len(H.elements) == order and 0 in H.elements
    for x in H.elements:
        for y in H.elements:
            assert F.add(x, y) in H.elements
    # cosets partition the field, ids assigned by ascending minimum rep
    seen = {}
    for e in F.elements():
        seen.setdefault(H.coset_id[e], []).append(e)
    assert len(seen) == F.q // order == H.num_cosets
    assert all(len(v) == order for v in seen.values())
    assert list(H.reps) == sorted(min(v) for v in seen.values())


@pytest.mark.parametrize("p,a,order", [(7, 1, 3), (11, 1, 5), (3, 2, 4), (5, 2, 6), (13, 1, 4)])
def test_multiplicative_subgroup_structure(p, a, order):
    F = make_field(p, a)
    H = subgroup(F, "multiplicative", order)
    assert len(H.elements) == order and 1 in H.elements
    for x in H.elements:
        assert F.power(x, order) == 1
    covered = set()
    for e in F.units():
        covered.add(H.coset_id[e])
    assert len(covered) == (F.q - 1) // order
    assert H.coset_id[0] < 0  # 0 is not in the multiplicative group


def test_subgroup_rejects_bad_orders():
    F = make_field(3, 2)
    with pytest.raises(ValueError):
        subgroup(F, "additive", 6)
    with pytest.raises(ValueError):
        subgroup(F, "multiplicative", 3)  # 3 does not divide 8
    with pytest.raises(ValueError):
        subgroup(F, "dihedral", 2)


# the scalar construction the array path replaced, kept as its oracle


def _span_additive(field: Field, b: int) -> set[int]:
    """GF(p)-span of the reduced monomials x, x^2, ..., x^b."""
    basis = [field.power(field.generator, i) for i in range(1, b + 1)]
    span = {0}
    for v in basis:
        new = set()
        for s in span:
            cur = s
            for _ in range(field.p - 1):
                cur = field.add(cur, v)
                new.add(cur)
        span |= new
    return span


def _subgroup_oracle(field: Field, kind: str, order: int) -> Subgroup:
    q, p = field.q, field.p
    if kind == "additive":
        b = 0
        o = order
        while o > 1 and o % p == 0:
            o //= p
            b += 1
        assert o == 1 and order <= q
        elems = _span_additive(field, b)
        ambient: range = field.elements()
        combine = field.add
    else:
        h = field.power(field.generator, (q - 1) // order)
        elems = {1}
        cur = 1
        for _ in range(order - 1):
            cur = field.mul(cur, h)
            elems.add(cur)
        ambient = field.units()
        combine = field.mul
    assert len(elems) == order
    if order <= 2048:
        for ei in elems:
            for ej in elems:
                assert combine(ei, ej) in elems, "subgroup not closed"
    coset_id = [-1] * q
    reps = []
    for e in ambient:
        if coset_id[e] == -1:
            cid = len(reps)
            reps.append(e)
            for h in elems:
                coset_id[combine(e, h)] = cid
    assert len(reps) * order == len(ambient)
    return Subgroup(field=field, kind=kind, order=order, elements=frozenset(elems),
                    coset_id=tuple(coset_id), reps=tuple(reps))


def _subgroup_orders(p: int, a: int):
    q = p**a
    for b in range(a + 1):
        yield "additive", p**b
    for t in range(1, q):
        if (q - 1) % t == 0:
            yield "multiplicative", t


def _assert_matches_oracle(F: Field, kind: str, order: int):
    H = subgroup(F, kind, order)
    oracle = _subgroup_oracle(F, kind, order)
    assert H == oracle, (F.q, kind, order)
    assert H.coset_id.tolist() == list(oracle.coset_id), (F.q, kind, order)
    assert H.coset_id.dtype == np.int64 and not H.coset_id.flags.writeable
    for values in (H.elements, H.reps):
        assert all(type(v) is int for v in values)


@pytest.mark.parametrize("pa", [pa for q in range(2, 256) if (pa := is_prime_power(q))],
                         ids="{0[0]}^{0[1]}".format)
def test_subgroup_matches_scalar_oracle_below_256(pa):
    """Every subgroup of every field with q < 256, each order p^b (b >= 0) and
    each divisor of q - 1, equals the scalar construction's, field for field."""
    F = make_field(*pa)
    for kind, order in _subgroup_orders(*pa):
        _assert_matches_oracle(F, kind, order)


def test_subgroup_matches_scalar_oracle_on_the_fleet():
    for variant, q, t in fleet():
        F = make_field(*is_prime_power(q))
        _assert_matches_oracle(F, "additive" if variant == "plus" else "multiplicative", t)


def test_subgroup_matches_scalar_oracle_at_the_closure_gate():
    """GF(4096)'s additive subgroup of order 2048, the largest whose closure
    is checked (the search graph of ``conjecture --a 12``)."""
    _assert_matches_oracle(make_field(2, 12), "additive", 2048)

