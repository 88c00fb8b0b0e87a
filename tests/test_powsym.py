import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclores.cycint import CycInt, cyc_int, cyc_mul, cyc_new, field_ctx, galois
from cyclores.cycunits import unit_minus, unit_plus
from cyclores.ntheory import is_prime
from cyclores.powsym import (
    NotCoprimeError,
    UnsupportedIdealError,
    residue_symbol,
    symbol,
    zeta_symbol,
)
from cyclores.resfield import (
    galois_image,
    ideal_from_root,
    residue,
    split_prime,
)

CTX5 = field_ctx(5)
CTX7 = field_ctx(7)


def test_symbol_worked_examples():
    ideal = ideal_from_root(CTX5, 11, 3)
    assert symbol(cyc_int(CTX5, 2), ideal) == 4  # 2^2 = 4 = 3^4 mod 11
    ideal = ideal_from_root(CTX5, 11, 5)
    assert symbol(cyc_new(CTX5, [(0, 2), (1, 1)]), ideal) == 1  # 7^2 = 5 = w


def test_pth_powers_have_trivial_symbol():
    rng = random.Random(3)
    for p, q in ((5, 11), (5, 31), (7, 29)):
        ctx = field_ctx(p)
        for ideal in split_prime(ctx, q):
            for _ in range(5):
                a = CycInt(ctx, tuple(rng.randrange(-4, 5) for _ in range(p - 1)))
                if not residue(a, ideal):
                    continue
                assert symbol(reduce(cyc_mul, [a] * p), ideal) == 0


def test_zeta_symbol_values():
    assert zeta_symbol(ideal_from_root(CTX5, 11, 5)) == 2
    assert zeta_symbol(ideal_from_root(CTX5, 31, 16)) == 1
    ideal101 = split_prime(CTX5, 101)[0]
    assert zeta_symbol(ideal101) == 0  # 101 = 1 mod 25


def test_zeta_symbol_equals_symbol_of_zeta():
    for p, qs in ((5, (11, 31, 41, 61, 101)), (7, (29, 43, 71, 113))):
        ctx = field_ctx(p)
        zeta = cyc_new(ctx, [(1, 1)])
        for q in qs:
            for ideal in split_prime(ctx, q):
                assert zeta_symbol(ideal) == symbol(zeta, ideal)
    # also beyond residue degree 1
    for ideal in split_prime(CTX5, 19):
        assert zeta_symbol(ideal) == symbol(cyc_new(CTX5, [(1, 1)]), ideal)


def test_zeta_symbol_trivial_iff_p2_divides():
    for p in (5, 7):
        ctx = field_ctx(p)
        for q in range(2, 600):
            if not is_prime(q) or q == p or q % p != 1:
                continue
            ideal = split_prime(ctx, q)[0]
            assert (zeta_symbol(ideal) == 0) == ((q - 1) % (p * p) == 0), q


def test_symbol_examples_at_two_ideals():
    ideal = ideal_from_root(CTX5, 11, 5)
    assert symbol(cyc_int(CTX5, 1), ideal) == 0
    items = (cyc_new(CTX5, [(0, 2), (1, 1)]), unit_minus(CTX5, 2))
    assert [symbol(a, ideal) for a in items] == [1, 1]
    ideal = ideal_from_root(CTX5, 31, 16)
    items = (cyc_new(CTX5, [(0, 2), (1, 1)]), cyc_int(CTX5, 3), unit_plus(CTX5, 2))
    assert [symbol(a, ideal) for a in items] == [1, 1, 2]


def test_residue_symbol_on_plain_values():
    # residues are ints at f = 1 and length-f tuples beyond
    for p, q in ((5, 11), (5, 19), (7, 29), (7, 2)):
        ctx = field_ctx(p)
        a = cyc_new(ctx, [(0, 5), (1, 1), (2, 3)])
        for ideal in split_prime(ctx, q):
            r = residue(a, ideal)
            e = residue_symbol(ideal, r)
            assert e == symbol(a, ideal)
            if ideal.f == 1:
                assert r == (5 + ideal.w + 3 * ideal.w**2) % q
                assert pow(r, (q - 1) // p, q) == pow(ideal.w, e, q)
            zero = 0 if ideal.f == 1 else (0,) * ideal.f
            with pytest.raises(NotCoprimeError):
                residue_symbol(ideal, zero)


def test_not_coprime_single():
    ideal = ideal_from_root(CTX5, 11, 3)
    with pytest.raises(NotCoprimeError):
        symbol(cyc_new(CTX5, [(0, 2), (2, 1)]), ideal)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(5, 11), (5, 31), (7, 29)]), st.data())
def test_multiplicativity(pq, data):
    p, q = pq
    ctx = field_ctx(p)
    ideal = split_prime(ctx, q)[0]
    vecs = st.lists(st.integers(-6, 6), min_size=p - 1, max_size=p - 1).map(tuple)
    a = CycInt(ctx, data.draw(vecs))
    b = CycInt(ctx, data.draw(vecs))
    if not (residue(a, ideal) and residue(b, ideal)):
        return
    assert symbol(cyc_mul(a, b), ideal) == (symbol(a, ideal) + symbol(b, ideal)) % p


def test_galois_equivariance_degree_one():
    rng = random.Random(11)
    for p, q in ((5, 11), (7, 29)):
        ctx = field_ctx(p)
        ideal = split_prime(ctx, q)[0]
        for _ in range(10):
            a = CycInt(ctx, tuple(rng.randrange(-5, 6) for _ in range(p - 1)))
            if not residue(a, ideal):
                continue
            e = symbol(a, ideal)
            for k in range(1, p):
                img = galois_image(ideal, k)
                assert symbol(galois(a, k), img) == k * e % p


def test_galois_equivariance_degree_two():
    ideal = split_prime(CTX5, 19)[0]
    a = cyc_new(CTX5, [(0, 2), (1, 1)])
    e = symbol(a, ideal)
    for k in range(1, 5):
        img = galois_image(ideal, k)
        assert symbol(galois(a, k), img) == k * e % 5


def test_symbol_of_p_is_sum_over_one_minus_zeta():
    for p, qs in ((5, (11, 31, 101)), (7, (29, 43))):
        ctx = field_ctx(p)
        for q in qs:
            for ideal in split_prime(ctx, q):
                total = sum(
                    symbol(cyc_new(ctx, [(0, 1), (j, -1)]), ideal) for j in range(1, p)
                )
                assert symbol(cyc_int(ctx, p), ideal) == total % p


def test_euler_oracle_small():
    # symbol(a) = 0 iff residue(a) is a p-th power, by exhaustive enumeration
    rng = random.Random(5)
    for p, q in ((5, 41), (7, 43)):
        ctx = field_ctx(p)
        powers = {pow(u, p, q) for u in range(1, q)}
        for ideal in split_prime(ctx, q):
            for _ in range(25):
                a = CycInt(ctx, tuple(rng.randrange(-6, 7) for _ in range(p - 1)))
                r = residue(a, ideal)
                if r == 0:
                    continue
                assert (symbol(a, ideal) == 0) == (r in powers)


def test_unsupported_ideals_rejected():
    # f = 10 for q = 2, p = 11: beyond the supported symbol range
    ctx11 = field_ctx(11)
    ideal = split_prime(ctx11, 2)[0]
    assert ideal.f == 10
    with pytest.raises(UnsupportedIdealError):
        symbol(cyc_int(ctx11, 3), ideal)
    with pytest.raises(UnsupportedIdealError):
        zeta_symbol(ideal)
    # q^f at or above 2^128 is rejected even for small f
    q = 2**33 + 35  # prime, = 2 mod 5, so f = 4 and q^4 > 2^132
    ideal = split_prime(CTX5, q)[0]
    assert ideal.f == 4
    with pytest.raises(UnsupportedIdealError):
        symbol(cyc_int(CTX5, 3), ideal)
