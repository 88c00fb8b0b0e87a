import json
import pickle
import random

import pytest
from sympy import GF, Poly, symbols

from cyclores.cycint import CycInt, cyc_new, cyc_zero, field_ctx
from cyclores.cycunits import inv_one_plus_zeta, unit_minus
from cyclores.ntheory import is_prime, multiplicative_order
from cyclores.resfield import (
    ResidueDegreeError,
    _fmul,
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
    # split_prime and inv_one_plus_zeta are memoized on FieldCtx
    # arguments that callers build afresh, so equal values must compare
    # and hash equal, and no value may change after it is built
    ctx, again = field_ctx(11), field_ctx(11)
    assert ctx is not again and ctx == again and hash(ctx) == hash(again)
    assert ctx != field_ctx(13) and ctx != (11, 6)
    split_prime.cache_clear()
    ideals = split_prime(ctx, 23)
    assert split_prime(again, 23) is ideals
    assert split_prime.cache_info().hits == 1
    inv_one_plus_zeta.cache_clear()
    assert inv_one_plus_zeta(again) is inv_one_plus_zeta(ctx)
    assert inv_one_plus_zeta.cache_info().hits == 1

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
    t = symbols("t")
    for p in (5, 7, 11):
        ctx = field_ctx(p)
        for q in (2, 3, 11, 13, 19, 23, 29):
            if q == p:
                continue
            fl = Poly([1] * p, t, domain=GF(q)).factor_list()
            expected = sorted(
                tuple(int(c) % q for c in reversed(f.all_coeffs())) for f, _ in fl[1]
            )
            got = sorted(i.modulus for i in split_prime(ctx, q))
            assert got == expected, (p, q)


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


def test_ideal_from_root_validation():
    with pytest.raises(ValueError):
        ideal_from_root(CTX5, 11, 2)  # order of 2 mod 11 is 10, not 5
    with pytest.raises(ValueError):
        ideal_from_root(CTX5, 11, 1)
    assert ideal_from_root(CTX5, 11, 9).w == 9


def test_galois_image_f1():
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
