import json
import pickle
import random
import time

import pytest
from sympy import GF, ZZ, Poly, symbols
from sympy.polys.galoistools import gf_pow_mod

from cyclores import resfield
from cyclores.cycint import CycInt, cyc_new, cyc_zero, field_ctx
from cyclores.cycunits import unit_minus
from cyclores.ntheory import is_prime, multiplicative_order
from cyclores.resfield import (
    ResidueDegreeError,
    _fmul,
    _fpow,
    _ftup,
    _pdivmod,
    _pgcd,
    _pmul,
    _powers,
    _ppowmod,
    galois_image,
    ideal_dividing,
    ideal_from_modulus,
    ideal_from_root,
    ideal_to_json,
    residue,
    split_prime,
)

CTX5 = field_ctx(5)
CTX7 = field_ctx(7)
T = symbols("t")
# q = 2^61 - 1 makes product digits wider than 8 bytes
FIELD_QS = [2, 3, 56809, (1 << 61) - 1]


def trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def school_mul(a, b, q):
    """Oracle: the schoolbook product over F_q, trimmed."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % q
    return trim(out)


def long_divmod(a, b, q):
    """Oracle: quotient and remainder over F_q by any nonzero b, monic
    or not."""
    b = trim([c % q for c in b])
    inv = pow(b[-1], -1, q)
    rem = [c % q for c in a]
    db = len(b) - 1
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % q
        quot[i - db] = c
        for j, cb in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - c * cb) % q
    return trim(quot), trim(rem)


def euclid_gcd(a, b, q):
    """Oracle: the monic gcd by Euclid's algorithm over long_divmod."""
    a, b = trim([c % q for c in a]), trim([c % q for c in b])
    while b:
        a, b = b, long_divmod(a, b, q)[1]
    return [c * pow(a[-1], -1, q) % q for c in a] if a else a


def to_sympy(cs, q):
    return Poly(list(reversed(cs)) or [0], T, domain=GF(q))


def from_sympy(poly, q):
    return trim([int(c) % q for c in reversed(poly.all_coeffs())])


def random_poly(rng, q, degree, monic=False):
    cs = [rng.randrange(q) for _ in range(degree)]
    return cs + [1 if monic else rng.randrange(1, q)]


def fone(ideal):
    return 1 if ideal.f == 1 else (1,) + (0,) * (ideal.f - 1)


def fmul(u, v, ideal):
    """Product of two residues at the ideal, in the form residue() returns."""
    if ideal.f == 1:
        return u * v % ideal.q
    return _fmul(u, v, ideal.field_modulus, ideal.q, ideal.f)


def fadd(u, v, ideal):
    if ideal.f == 1:
        return (u + v) % ideal.q
    return tuple((x + y) % ideal.q for x, y in zip(u, v))


def fpow(u, e, ideal):
    out = fone(ideal)
    for _ in range(e):
        out = fmul(out, u, ideal)
    return out


def horner_residue(a, ideal):
    """Oracle: evaluate a's coefficients at w by Horner's rule."""
    q, f = ideal.q, ideal.f
    if f == 1:
        acc = 0
        for c in reversed(a.coeffs):
            acc = (acc * ideal.w + c) % q
        return acc
    acc = (0,) * f
    for c in reversed(a.coeffs):
        acc = _fmul(acc, ideal.w, ideal.field_modulus, q, f)
        acc = ((acc[0] + c) % q,) + acc[1:]
    return acc


def cyclotomic_factors(p, q):
    """Oracle: sympy's monic irreducible factors of Phi_p over GF(q), sorted."""
    return sorted(tuple(int(c) % q for c in reversed(g.all_coeffs()))
                  for g, _ in Poly([1] * p, T, domain=GF(q)).factor_list()[1])


def minpoly(orbit, m0, q):
    """Oracle: the product of (X - r) over a Frobenius orbit in
    F_q[t]/(m0); its coefficients land in F_q."""
    f = len(orbit)
    poly = [_ftup((1,), f)]
    for r in orbit:
        neg = tuple(-c % q for c in r)
        nxt = [_ftup((), f) for _ in range(len(poly) + 1)]
        for i, coef in enumerate(poly):
            nxt[i + 1] = tuple((a + b) % q for a, b in zip(nxt[i + 1], coef))
            prod = _fmul(coef, neg, m0, q, f)
            nxt[i] = tuple((a + b) % q for a, b in zip(nxt[i], prod))
        poly = nxt
    assert not any(any(coef[1:]) for coef in poly)
    return tuple(coef[0] for coef in poly)


def frobenius_galois_image(ideal, k):
    """Oracle: the image's root w^(1/k) and its conjugates by repeated
    q-th powers, looked up in the canonical split."""
    ctx, q, f = ideal.ctx, ideal.q, ideal.f
    inv = pow(k, -1, ctx.p)
    if f == 1:
        return ideal_from_root(ctx, q, pow(ideal.w, inv, q))
    conj = _fpow(ideal.w, inv, ideal.field_modulus, q, f)
    orbit = []
    for _ in range(f):
        orbit.append(conj)
        conj = _fpow(conj, q, ideal.field_modulus, q, f)
    assert conj == orbit[0]  # the orbit closes after f steps
    return next(cand for cand in split_prime(ctx, q) if cand.w == min(orbit))


def test_split_examples_p5():
    ideals = split_prime(CTX5, 11)
    assert [i.w for i in ideals] == [3, 4, 5, 9]
    assert all(i.f == 1 for i in ideals)
    assert ideals[0].modulus == (8, 1)  # t - 3 over F_11

    ideals = split_prime(CTX5, 19)
    assert len(ideals) == 2 and ideals[0].f == 2

    ideals = split_prime(CTX5, 7)
    assert len(ideals) == 1 and ideals[0].f == 4
    assert ideals[0].modulus == (1, 1, 1, 1, 1)


def test_value_semantics_the_caches_rely_on():
    # split_prime is memoized on FieldCtx arguments that callers build
    # afresh, so equal values must compare and hash equal, and no value
    # may change after it is built
    ctx, again = field_ctx(11), field_ctx(11)
    assert ctx is not again and ctx == again and hash(ctx) == hash(again)
    assert ctx != field_ctx(13) and ctx != (11, 6)
    split_prime.cache_clear()
    ideals = split_prime(ctx, 23)
    assert split_prime(again, 23) is ideals
    assert split_prime.cache_info().hits == 1

    a = CycInt(ctx, tuple(range(10)))
    b = CycInt(again, tuple(range(10)))
    assert a == b and hash(a) == hash(b) and a != CycInt(ctx, (0,) * 10)
    ideal = ideals[0]
    same = ideal_from_root(again, 23, ideal.w)
    assert ideal is not same and ideal == same and hash(ideal) == hash(same)
    assert ideal != ideals[1]
    # residues are plain ints (f = 1) or tuples (f > 1), immutable as such
    ra, rb = residue(a, ideal), residue(b, same)
    assert type(ra) is int and ra == rb
    fa, fb = residue(a, split_prime(ctx, 43)[0]), residue(b, split_prime(again, 43)[0])
    assert type(fa) is tuple and len(fa) == 2 and fa == fb and hash(fa) == hash(fb)
    for value in (ctx, a, ideal):
        assert pickle.loads(pickle.dumps(value)) == value
    for value, name in ((ctx, "p"), (a, "coeffs"), (ideal, "q")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_split_rejects_bad_q():
    with pytest.raises(ValueError):
        split_prime(CTX5, 10)
    with pytest.raises(ValueError):
        split_prime(CTX5, 5)


def test_roots_have_exact_order_p():
    for p, qs in ((5, (11, 19, 7, 2, 31)), (7, (29, 43, 2, 3, 13))):
        ctx = field_ctx(p)
        for q in qs:
            for ideal in split_prime(ctx, q):
                w = residue(cyc_new(ctx, [(1, 1)]), ideal)
                assert w == ideal.w
                one = fone(ideal)
                assert w != one  # w != 1
                assert fpow(w, p, ideal) == one  # w^p = 1
                # and the p powers of w are pairwise distinct
                assert len(set(ideal.w_powers)) == p


def test_ideal_count_times_f():
    for p in (5, 7):
        ctx = field_ctx(p)
        for q in (2, 3, 11, 13, 19, 23, 29, 31, 41, 43):
            if q == p:
                continue
            ideals = split_prime(ctx, q)
            assert len(ideals) * ideals[0].f == p - 1


def test_moduli_match_sympy_factorization():
    for p in (5, 7, 11):
        ctx = field_ctx(p)
        for q in (2, 3, 11, 13, 19, 23, 29):
            if q == p:
                continue
            got = sorted(i.modulus for i in split_prime(ctx, q))
            assert got == cyclotomic_factors(p, q), (p, q)


# inert (11, 7) and (61, 397); q = 2 at f = 3, 5, 7; and f = 2, 3, 4 at
# the benchmark's split sizes (p in [101, 160], q in [2^15, 2^16))
@pytest.mark.parametrize("p, q", [(11, 7), (61, 397), (7, 2), (31, 2), (127, 2),
                                  (103, 33577), (103, 33119), (113, 34141)])
def test_moduli_are_orbit_products(p, q):
    ideals = split_prime(field_ctx(p), q)
    f = multiplicative_order(q, p)
    factors = cyclotomic_factors(p, q)
    assert sorted(ideal.modulus for ideal in ideals) == factors
    for ideal in ideals:
        assert ideal.f == f and ideal.field_modulus == factors[0]
        # the orbit by repeated q-th powers, not read off a table
        orbit = [ideal.w]
        for _ in range(f - 1):
            orbit.append(_fpow(orbit[-1], q, factors[0], q, f))
        assert ideal.w == min(orbit)
        assert ideal.modulus == minpoly(orbit, factors[0], q)
        # the split's own ideal object, never a rebuilt copy
        for k in range(1, p):
            image = galois_image(ideal, k)
            assert any(image is other for other in ideals)


def test_residue_examples():
    ideal = ideal_from_root(CTX5, 11, 5)
    assert residue(cyc_new(CTX5, [(0, 2), (1, 1)]), ideal) == 7
    assert residue(cyc_zero(CTX5), ideal) == 0
    assert residue(unit_minus(CTX5, 2), ideal) == 7
    # f = 2 over F_19[t]/(t^2+5t+1): zeta -> w = t, so 2 + zeta -> (2, 1)
    ideal = split_prime(CTX5, 19)[0]
    assert ideal.w == (0, 1)
    assert residue(cyc_new(CTX5, [(0, 2), (1, 1)]), ideal) == (2, 1)
    assert residue(cyc_zero(CTX5), ideal) == (0, 0)
    # zeta^2 = t^2 = -5t - 1 = (18, 14)
    assert residue(cyc_new(CTX5, [(2, 1)]), ideal) == (18, 14)


# (p, q) with f = 1, 2, 3, 4, 4 (inert) and q = 2 (f = 5)
RESIDUE_CASES = [(5, 11), (5, 19), (7, 11), (13, 5), (5, 7), (31, 2)]


@pytest.mark.parametrize("p, q", RESIDUE_CASES)
def test_residue_matches_horner(p, q):
    rng = random.Random(p * q)
    ctx = field_ctx(p)
    ideals = split_prime(ctx, q)
    assert ideals[0].f == multiplicative_order(q, p)
    draws = [
        lambda: rng.randrange(-9, 10),  # negative and small
        lambda: rng.randrange(q, 50 * q),  # past q
        lambda: -rng.randrange(q, 50 * q),
        lambda: rng.randrange(-(1 << 3000), 1 << 3000),  # thousands of bits
    ]
    for ideal in ideals:
        for draw in draws:
            for _ in range(5):
                a = CycInt(ctx, tuple(draw() for _ in range(p - 1)))
                assert residue(a, ideal) == horner_residue(a, ideal)
        a = CycInt(ctx, tuple(-(q**200) - i for i in range(p - 1)))
        assert residue(a, ideal) == horner_residue(a, ideal)


def test_residue_is_ring_homomorphism():
    rng = random.Random(7)
    for p, q in ((5, 11), (5, 19), (5, 7), (7, 29), (7, 2), (7, 3)):
        ctx = field_ctx(p)
        for ideal in split_prime(ctx, q):
            for _ in range(20):
                a = CycInt(ctx, tuple(rng.randrange(-9, 10) for _ in range(p - 1)))
                b = CycInt(ctx, tuple(rng.randrange(-9, 10) for _ in range(p - 1)))
                ra, rb = residue(a, ideal), residue(b, ideal)
                assert residue(a * b, ideal) == fmul(ra, rb, ideal)
                assert residue(a + b, ideal) == fadd(ra, rb, ideal)


def test_one_minus_zeta_product_is_p():
    for p, qs in ((5, (11, 31, 41)), (7, (29, 43, 71))):
        ctx = field_ctx(p)
        one_minus = cyc_new(ctx, [(0, 1), (1, -1)])
        for q in qs:
            prod = 1
            for ideal in split_prime(ctx, q):
                prod = prod * residue(one_minus, ideal) % q
            assert prod == p % q


def test_ideal_dividing_examples():
    ideal = ideal_dividing(CTX5, 11, 2, 1, 1)
    assert ideal is not None and ideal.w == 5
    ideal = ideal_dividing(CTX5, 31, 2, 1, -1)
    assert ideal is not None and ideal.w == 16
    with pytest.raises(ResidueDegreeError):
        ideal_dividing(CTX5, 19, 2, 1, 1)
    # degree 1 exists but no root matches: -y/x = -1 has order 2, not 5
    assert ideal_dividing(CTX5, 11, 1, 1, 1) is None


def test_ideal_dividing_preconditions():
    with pytest.raises(ValueError):
        ideal_dividing(CTX5, 10, 2, 1, 1)
    with pytest.raises(ValueError):
        ideal_dividing(CTX5, 11, 11, 1, 1)
    with pytest.raises(ValueError):
        ideal_dividing(CTX5, 11, 2, 1, 2)


def test_ideal_dividing_checks_before_primality(monkeypatch):
    # a primality test costs time that grows with q; the sign, q mod p
    # and p*x*y mod q are checked first
    calls = []
    real = resfield.is_prime
    monkeypatch.setattr(resfield, "is_prime", lambda n: calls.append(n) or real(n))
    huge = 10**1500 + 3  # 1501 digits, 3 mod 5
    with pytest.raises(ResidueDegreeError):
        ideal_dividing(CTX5, huge, 2, 1, 1)
    with pytest.raises(ValueError):
        ideal_dividing(CTX5, huge, 2, 1, 0)
    with pytest.raises(ResidueDegreeError):
        ideal_dividing(CTX5, 5, 2, 1, 1)  # q = p: ramified
    with pytest.raises(ValueError):
        ideal_dividing(CTX5, 11, 2, 11, 1)  # q | p*x*y
    assert calls == []
    with pytest.raises(ValueError):
        ideal_dividing(CTX5, 21, 2, 1, 1)  # 1 mod 5, composite
    assert ideal_dividing(CTX5, 11, 2, 1, 1).w == 5
    assert calls == [21, 11]


def test_ideal_dividing_refuses_a_large_q_by_its_size():
    # q = 2053 m, 16 000 bits, 1 mod 5 and free of primes below 2^11,
    # so only a full primality test would find it composite; its size is
    # refused first, and the message names the bit length, not q
    m = next(m for m in range((1 << 15988) + 1, (1 << 15988) + 10**5, 2)
             if 2053 * m % 5 == 1 and all(m % d for d in range(3, 2048, 2)))
    q = 2053 * m
    assert q.bit_length() == 16000
    start = time.perf_counter()
    with pytest.raises(ValueError, match="q has 16000 bits") as info:
        ideal_dividing(CTX5, q, 2, 1, 1)
    assert time.perf_counter() - start < 1
    assert len(str(info.value)) < 100


def test_ideal_from_root_validation():
    with pytest.raises(ValueError):
        ideal_from_root(CTX5, 11, 2)  # order of 2 mod 11 is 10, not 5
    with pytest.raises(ValueError):
        ideal_from_root(CTX5, 11, 1)
    assert ideal_from_root(CTX5, 11, 9).w == 9


def test_galois_image_f1(monkeypatch):
    # at f = 1 the image is named by its root, without a split: q may be
    # past what split_prime accepts
    monkeypatch.setattr(resfield, "split_prime", None)
    q = (1 << 64) + 745  # prime, 1 mod 5
    ideal = ideal_from_root(CTX5, q, pow(2, (q - 1) // 5, q))
    assert galois_image(ideal, 2).w == pow(ideal.w, 3, q)
    ideal = ideal_from_root(CTX5, 11, 5)
    for k in range(1, 5):
        img = galois_image(ideal, k)
        inv = pow(k, -1, 5)
        assert img.w == pow(5, inv, 11)
    # group law on images
    img = galois_image(galois_image(ideal, 2), 3)
    assert img == galois_image(ideal, 6 % 5)


def test_galois_image_f2_stays_canonical():
    ideals = split_prime(CTX5, 19)
    for ideal in ideals:
        for k in range(1, 5):
            img = galois_image(ideal, k)
            assert img in ideals


# at p = 13, k^2 lies outside <q> for some k at each f, so a root
# w^k in place of w^(1/k) lands on another ideal
@pytest.mark.parametrize("p, q", [(13, 53), (13, 103), (13, 3), (13, 5), (7, 2)])
def test_galois_image_matches_frobenius_orbit(p, q):
    ctx = field_ctx(p)
    ideals = split_prime(ctx, q)
    moved = 0
    for ideal in ideals:
        for k in range(1, p):
            img = galois_image(ideal, k)
            assert img == frobenius_galois_image(ideal, k), (ideal.w, k)
            assert img in ideals and galois_image(img, pow(k, -1, p)) == ideal
            moved += img != frobenius_galois_image(ideal, pow(k, -1, p))
    assert moved or p == 7  # at (7, 2) k and 1/k always share a coset
    assert {ideal.f for ideal in ideals} == {multiplicative_order(q, p)}


def test_splitting_is_deterministic_and_frozen():
    # frozen expected factors of the degree-2 case over F_19
    ideals = split_prime(CTX5, 19)
    assert [i.modulus for i in ideals] == [(1, 5, 1), (1, 15, 1)]
    assert ideals[0].field_modulus == (1, 5, 1)
    assert [i.w for i in ideals] == [(0, 1), (5, 5)]


def test_split_char2():
    ctx = field_ctx(7)
    ideals = split_prime(ctx, 2)
    assert len(ideals) == 2 and ideals[0].f == 3
    assert sorted(i.modulus for i in ideals) == [(1, 0, 1, 1), (1, 1, 0, 1)]


def test_modulus_divides_cyclotomic():
    for p, q in ((5, 19), (7, 2), (7, 13), (11, 23)):
        ctx = field_ctx(p)
        for ideal in split_prime(ctx, q):
            f = ideal.f
            assert multiplicative_order(q, p) == f
            # check divisibility with sympy over GF(q)
            t = symbols("t")
            phi = Poly([1] * p, t, domain=GF(q))
            m = Poly(list(reversed(ideal.modulus)), t, domain=GF(q))
            assert phi.rem(m).is_zero


def test_ideal_json_round_trip():
    for ctx, q in ((CTX5, 11), (CTX5, 19), (CTX7, 2)):
        for ideal in split_prime(ctx, q):
            blob = json.loads(json.dumps(ideal_to_json(ideal)))
            assert blob["q"] == q and blob["f"] == ideal.f
            if ideal.f == 1:
                back = ideal_from_root(ctx, q, int(blob["w"]))
            else:
                back = ideal_from_modulus(ctx, q, [int(c) for c in blob["modulus"]])
            assert back == ideal
    blob = ideal_to_json(ideal_from_root(CTX5, 11, 5))
    assert blob == {"q": 11, "f": 1, "w": "5", "modulus": ["6", "1"]}


def test_ideal_from_modulus():
    ideal = ideal_from_modulus(CTX5, 19, (1, 15, 1))
    assert ideal.modulus == (1, 15, 1)
    with pytest.raises(ValueError):
        ideal_from_modulus(CTX5, 19, (2, 3, 1))


def test_big_q_split():
    # splitting still works for 60-bit q
    q = 2**60 + 33  # prime
    assert is_prime(q)
    ideals = split_prime(CTX5, q)
    assert len(ideals) * ideals[0].f == 4


@pytest.mark.parametrize("q", FIELD_QS)
def test_product_matches_schoolbook_and_sympy(q):
    rng = random.Random(q)
    for da, db in ((0, 0), (0, 5), (1, 1), (3, 7), (12, 12), (30, 4)):
        a, b = random_poly(rng, q, da), random_poly(rng, q, db)
        got = _pmul(a, b, q)
        assert got == school_mul(a, b, q)
        assert got == from_sympy(to_sympy(a, q) * to_sympy(b, q), q)
    assert _pmul([], [1, 2], q) == _pmul([0, 0], [1], q) == []
    # unreduced and negative coefficients come out reduced
    a, b = [-5, 3 * q + 1, q], [q - 1, -(q * q), 7]
    assert _pmul(a, b, q) == school_mul([c % q for c in a], [c % q for c in b], q)


@pytest.mark.parametrize("q", FIELD_QS)
def test_product_at_its_bound(q):
    # every coefficient q - 1: the middle one of the product is
    # n (q-1)^2, the bound itself; n = 2^k covers eight consecutive
    # bound lengths, so one of them fills its digits to the last bit
    for n in (1 << k for k in range(9)):
        a = [q - 1] * n
        assert _pmul(a, a, q) == school_mul(a, a, q)
        assert _pmul(a, a[: n // 2 + 1], q) == school_mul(a, a[: n // 2 + 1], q)


@pytest.mark.parametrize("q", FIELD_QS)
def test_division_matches_long_division_and_sympy(q):
    rng = random.Random(q + 1)
    for da, dm in ((0, 0), (0, 3), (3, 3), (9, 1), (20, 6), (40, 17)):
        a, m = random_poly(rng, q, da), random_poly(rng, q, dm, monic=True)
        quot, rem = _pdivmod(a, m, q)
        assert (quot, rem) == long_divmod(a, m, q)
        squot, srem = to_sympy(a, q).div(to_sympy(m, q))
        assert (quot, rem) == (from_sympy(squot, q), from_sympy(srem, q))
        assert len(rem) < len(m)
    assert _pdivmod([q + 2, -1, q], [3, 1], q) == long_divmod([q + 2, -1, q], [3, 1], q)


@pytest.mark.parametrize("q", FIELD_QS)
def test_gcd_matches_euclid_and_sympy(q):
    rng = random.Random(q + 2)
    for dg, da, db in ((0, 0, 0), (1, 2, 3), (3, 4, 0), (5, 6, 7), (2, 15, 9), (0, 9, 9)):
        # a common factor g, every factor non-monic, and b sometimes a
        # scalar multiple of the gcd
        g = random_poly(rng, q, dg)
        a = school_mul(g, random_poly(rng, q, da), q)
        b = school_mul(g, random_poly(rng, q, db), q)
        got = _pgcd(a, b, q)
        assert got == euclid_gcd(a, b, q)
        assert got == from_sympy(to_sympy(a, q).gcd(to_sympy(b, q)), q)
        assert got[-1] == 1 and not long_divmod(a, got, q)[1]
        assert _pgcd(b, a, q) == got
    lone = random_poly(rng, q, 4)  # gcd(a, 0) is a made monic
    assert _pgcd(lone, [], q) == _pgcd([], lone, q) == euclid_gcd(lone, [], q)
    assert _pgcd([], [], q) == []


@pytest.mark.parametrize("q", FIELD_QS)
def test_powmod_matches_sympy(q):
    rng = random.Random(q + 3)
    for db, dm, e in ((3, 4, 0), (3, 4, 1), (7, 5, 2), (10, 6, 1000), (2, 9, q**3 + 5)):
        base, m = random_poly(rng, q, db), random_poly(rng, q, dm, monic=True)
        got = _ppowmod(base, e, m, q)
        want = gf_pow_mod(base[::-1], e, m[::-1], q, ZZ)
        assert got == trim([int(c) for c in reversed(want)])
        if e <= 2:
            slow = [1]
            for _ in range(e):
                slow = long_divmod(school_mul(slow, base, q), m, q)[1]
            assert got == long_divmod(slow, m, q)[1]


@pytest.mark.parametrize("p, q", [(5, 19), (7, 2), (11, 3), (13, 5), (31, 2), (41, 56809)])
def test_equal_degree_factor_finds_every_factor(p, q):
    # every factor is some ideal's modulus, the quotient by each gcd
    # included
    f = multiplicative_order(q, p)
    want = cyclotomic_factors(p, q)
    assert sorted(resfield._equal_degree_factor([1] * p, f, q)) == want
    assert len(want) == (p - 1) // f


def test_powers_table():
    for q in FIELD_QS:
        def mul(a, b):
            return a * b % q

        for w in (0, 1, 2, q - 1, 12345 % q):
            assert _powers(w, 20, mul) == [pow(w, i, q) for i in range(20)]
        assert _powers(5, 0, mul) == [] and _powers(5, 1, mul) == [1]
    for p, q in ((5, 19), (13, 5), (7, 2), (31, 2), (11, 3)):
        ideal = split_prime(field_ctx(p), q)[-1]
        m0, f = ideal.field_modulus, ideal.f
        table = _powers(ideal.w, 2 * p, lambda u, v: _fmul(u, v, m0, q, f), _ftup((1,), f))
        assert table == [_fpow(ideal.w, i, m0, q, f) for i in range(2 * p)]
        assert tuple(table[:p]) == ideal.w_powers and table[p:] == table[:p]


def test_ideal_from_modulus_checks_before_splitting(monkeypatch):
    calls = []
    real = resfield.split_prime
    monkeypatch.setattr(resfield, "split_prime", lambda *args: calls.append(args) or real(*args))
    # over F_19, Phi_5 = (t^2 + 5t + 1)(t^2 + 15t + 1) and f = 2
    for bad in [(), (1,), (4, 1), (1, 5, 1, 1), (1, 5, 1, 0), (2, 10, 2), (1, 5, 2), (1, 0, 1)]:
        with pytest.raises(ValueError):
            ideal_from_modulus(CTX5, 19, bad)
    with pytest.raises(ValueError):
        ideal_from_modulus(CTX5, 5, (1, 1, 1, 1, 1))  # q = p: ramified
    with pytest.raises(ValueError):  # past the split ceiling
        ideal_from_modulus(field_ctx(1009), 2, [0] * 504 + [1])
    # at f = 1 a dividing t - w names its ideal without a split
    with pytest.raises(ValueError):
        ideal_from_modulus(CTX5, 11, (9, 1))  # 2 has order 10 mod 11
    assert ideal_from_modulus(CTX5, 11, (8, 1)) == ideal_from_root(CTX5, 11, 3)
    assert calls == []
    assert ideal_from_modulus(CTX5, 19, (-18, 15, 20)).modulus == (1, 15, 1)
    assert len(calls) == 1


def test_split_work_ceiling():
    # refused at once; factoring Phi_1009 over F_2 (f = 504) takes hours
    with pytest.raises(ValueError, match="past"):
        split_prime(field_ctx(1009), 2)
    work = resfield.SPLIT_WORK_MAX
    assert 160**2 * 4 * 16 < work  # p < 160, f <= 4, q < 2^16
    assert 60**2 * 60 * 9 < work  # p < 62, q < 400 at any f
    assert 156**2 * 78 * 16 >= work  # p = 157, q = 50893: f = 78
