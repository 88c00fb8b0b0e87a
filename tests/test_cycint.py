import json
import random
import sys
from functools import reduce
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclores import cycint
from cyclores.cycint import (
    P_MAX,
    ContextMismatchError,
    CycInt,
    InternalError,
    _pack,
    _unpack,
    coeffs_to_json,
    cyc_add,
    cyc_from_json,
    cyc_int,
    cyc_mul,
    cyc_new,
    cyc_one,
    cyc_zero,
    field_ctx,
    galois,
    int_from_json,
    int_to_decimal,
    int_to_json,
    kronecker_mul,
    norm,
    zeta_power,
)
from cyclores.ntheory import is_prime

CTX5 = field_ctx(5)
CTX7 = field_ctx(7)


def _mul_convolve(ac, bc, p):
    # reference schoolbook convolution mod zeta^p - 1, then the
    # elimination zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    vec = [0] * p
    for i, ci in enumerate(ac):
        for j, cj in enumerate(bc):
            vec[(i + j) % p] += ci * cj
    return tuple(c - vec[p - 1] for c in vec[: p - 1])


def coeff_vectors(p, lo=-9, hi=9):
    return st.lists(st.integers(lo, hi), min_size=p - 1, max_size=p - 1).map(tuple)


def elements(p):
    ctx = field_ctx(p)
    return coeff_vectors(p).map(lambda cs: CycInt(ctx, cs))


def test_field_ctx_validation():
    assert CTX5.inv2 == 3
    with pytest.raises(ValueError):
        field_ctx(4)
    with pytest.raises(ValueError):
        field_ctx(3)
    with pytest.raises(ValueError):
        field_ctx(2)
    below = max(n for n in range(P_MAX - 64, P_MAX) if is_prime(n))
    above = min(n for n in range(P_MAX, P_MAX + 64) if is_prime(n))
    assert field_ctx(below).p == below
    for p in (above, 2**61 - 1):
        with pytest.raises(ValueError):
            field_ctx(p)


def test_cyc_new_examples():
    assert cyc_new(CTX5, [(0, 1)]).coeffs == (1, 0, 0, 0)
    assert cyc_new(CTX5, [(4, 1)]).coeffs == (-1, -1, -1, -1)
    assert cyc_new(CTX5, [(2, 1), (3, 1)]).coeffs == (0, 0, 1, 1)
    # exponents fold mod p before reduction
    assert cyc_new(CTX5, [(9, 1)]) == cyc_new(CTX5, [(4, 1)])
    assert cyc_new(CTX5, [(-1, 2)]) == cyc_new(CTX5, [(4, 2)])


def test_add_examples():
    z = zeta_power(CTX5, 1)
    assert cyc_add(z, z).coeffs == (0, 2, 0, 0)
    a = cyc_new(CTX5, [(0, 3), (2, -1)])
    assert cyc_add(a, cyc_zero(CTX5)) == a
    assert cyc_add(zeta_power(CTX5, 3), zeta_power(CTX5, 4)).coeffs == (-1, -1, -1, 0)


def test_mul_examples():
    assert cyc_mul(zeta_power(CTX5, 2), cyc_new(CTX5, [(0, 1), (1, 1)])).coeffs == (0, 0, 1, 1)
    lhs = cyc_mul(cyc_new(CTX5, [(0, 1), (1, -1)]), cyc_new(CTX5, [(0, 1), (1, 1), (2, 1), (3, 1)]))
    # (1 - zeta) * (1 + zeta + zeta^2 + zeta^3) = 1 - zeta^4
    assert lhs == cyc_new(CTX5, [(0, 1), (4, -1)])
    assert lhs.coeffs == (2, 1, 1, 1)
    a = cyc_new(CTX5, [(0, 5), (3, -2)])
    assert cyc_mul(a, cyc_one(CTX5)) == a


def test_galois_examples():
    assert galois(zeta_power(CTX5, 1), 2) == zeta_power(CTX5, 2)
    a = cyc_new(CTX5, [(0, 1), (1, -1)])
    assert galois(a, 4).coeffs == (2, 1, 1, 1)
    assert galois(a, 1) == a
    with pytest.raises(ValueError):
        galois(a, 5)
    with pytest.raises(ValueError):
        galois(a, 0)


def test_norm_examples():
    assert norm(cyc_new(CTX5, [(0, 1), (1, -1)])) == 5
    assert norm(cyc_one(CTX5)) == 1
    assert norm(cyc_zero(CTX5)) == 0
    assert norm(cyc_int(CTX5, 3)) == 3**4
    assert norm(zeta_power(CTX5, 2)) == 1


def _norm_brute(a):
    # independent oracle: multiply conjugates one by one, schoolbook only
    p = a.ctx.p
    out = cyc_one(a.ctx)
    for k in range(1, p):
        out = CycInt(a.ctx, _mul_convolve(out.coeffs, galois(a, k).coeffs, p))
    assert not any(out.coeffs[1:])
    return out.coeffs[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7, 11]), st.data())
def test_norm_matches_brute_force(p, data):
    a = data.draw(elements(p))
    assert norm(a) == _norm_brute(a)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([5, 7, 11]), st.data())
def test_ring_laws(p, data):
    a = data.draw(elements(p))
    b = data.draw(elements(p))
    c = data.draw(elements(p))
    assert cyc_mul(a, b) == cyc_mul(b, a)
    assert cyc_mul(cyc_mul(a, b), c) == cyc_mul(a, cyc_mul(b, c))
    assert cyc_mul(a, cyc_add(b, c)) == cyc_add(cyc_mul(a, b), cyc_mul(a, c))


# digit widths in bytes that kronecker_mul picks: struct's signed
# formats (1, 2, 4, 8) and, past 8 bytes, per-digit to_bytes (9, 17)
DIGIT_WIDTHS = [1, 2, 4, 8, 9, 17]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([5, 7, 11, 67, 199, 1009]), st.sampled_from(DIGIT_WIDTHS), st.data())
def test_packed_mul_matches_schoolbook(p, nb, data):
    # the packed product must agree with the literal convolution, with
    # mixed-sign coefficients and with same-sign operands whose product
    # coefficients reach the largest size nb-byte digits hold (top), or
    # just pass it (top + 1), where kronecker_mul takes the next width
    top = isqrt(((1 << (8 * nb - 1)) - 1) // (p - 1))  # top^2 (p-1) < 2^(8nb-1)
    assume(top > 0)
    ctx = field_ctx(p)
    if data.draw(st.booleans()):
        a = data.draw(coeff_vectors(p, -top, top))
        b = data.draw(coeff_vectors(p, -top, top))
    else:
        size = data.draw(st.sampled_from([top, top + 1]))
        a = (data.draw(st.sampled_from([size, -size])),) * (p - 1)
        b = (data.draw(st.sampled_from([size, -size])),) * (p - 1)
    packed = cyc_mul(CycInt(ctx, a), CycInt(ctx, b)).coeffs
    assert packed == _mul_convolve(a, b, p)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_width_crosses_from_8_to_9_bytes(monkeypatch, n):
    # n equal coefficients t: the middle product coefficient is n t^2,
    # the bound itself; the largest t with n t^2 < 2^63 fits 8-byte
    # digits, and t + 1 needs 9
    widths = []

    def spy(digits, nb, *signed):
        widths.append(nb)
        return pack(digits, nb, *signed)

    pack = cycint._pack
    monkeypatch.setattr(cycint, "_pack", spy)
    top = isqrt(((1 << 63) - 1) // n)
    for t, nb in ((top, 8), (top + 1, 9)):
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a, b = [sa * t] * n, [sb * t] * n
            widths.clear()
            want = [sa * sb * t * t * min(k + 1, 2 * n - 1 - k) for k in range(2 * n - 1)]
            assert kronecker_mul(a, b, 0, 2 * n - 1) == want
            assert widths == [nb, nb]


def _convolve(a, b):
    # reference schoolbook product of two integer polynomials
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


@pytest.mark.parametrize("nb", DIGIT_WIDTHS)
def test_nonnegative_mul_packs_unsigned_digits(monkeypatch, nb):
    # nonnegative operands, zeros among them, are packed and read as
    # unsigned digits of the width the signed rule picks: n coefficients
    # t make the bound n t^2, whose largest t below 2^(8nb-1) takes nb
    # bytes and t + 1 the next width; windows of the product agree with
    # the schoolbook one
    packs = []

    def spy(digits, nb, *signed):
        packs.append((nb,) + signed)
        return pack(digits, nb, *signed)

    pack = cycint._pack
    monkeypatch.setattr(cycint, "_pack", spy)
    rng = random.Random(nb)
    wider = {1: 2, 2: 4, 4: 8}.get(nb, nb + 1)
    for n in (1, 2, 3, 7, 66):
        top = isqrt(((1 << (8 * nb - 1)) - 1) // n)
        for t, width in ((top, nb), (top + 1, wider)):
            packs.clear()
            assert kronecker_mul([t] * n, [t] * n, 0, 2 * n - 1) == _convolve([t] * n, [t] * n)
            assert packs == [(width, False)] * 2
            a = [rng.choice((0, t, rng.randrange(t + 1))) for _ in range(n)]
            b = [rng.choice((0, t, rng.randrange(t + 1))) for _ in range(rng.randrange(1, n + 2))]
            full = _convolve(a, b)
            ends = range(len(full) + 1) if n < 66 else (0, 1, n, len(full))
            for lo in ends:
                for hi in ends:
                    if lo <= hi:
                        assert kronecker_mul(a, b, lo, hi) == full[lo:hi]
    # zeros, and the empty operand: the zero polynomial
    assert kronecker_mul([0] * 5, [0, 3], 0, 6) == [0] * 6
    for b in ([0], [7], [0, 255, 1]):
        for lo in range(len(b)):
            for hi in range(lo, len(b)):
                assert kronecker_mul([], b, lo, hi) == kronecker_mul(b, [], lo, hi) == [0] * (hi - lo)
    assert kronecker_mul([], [], 0, 0) == []
    assert {signed for _, signed in packs} == {False}


@pytest.mark.parametrize("nb", list(range(1, 10)) + [17])
def test_pack_unpack_round_trip(nb):
    top = (1 << (8 * nb - 1)) - 1
    digits = [0, top, -top, -top, 0, top, 1, -1, -top - 1, 0]
    n = len(digits)
    value = _pack(digits, nb)
    assert value == sum(d << (8 * nb * i) for i, d in enumerate(digits))
    full = _unpack(value, nb, n, 0, n)
    assert full == digits
    for lo in range(n + 1):
        for hi in range(lo, n + 1):
            assert _unpack(value, nb, n, lo, hi) == full[lo:hi]
    # a top digit of 2^(8nb-1) or -2^(8nb-1) - 1 has no nb-byte form
    shift = 8 * nb * (n - 1)
    for bad in (value + ((top + 1) << shift), value - ((top + 2) << shift)):
        with pytest.raises(InternalError):
            _unpack(bad, nb, n, 0, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_galois_is_ring_homomorphism(p, data):
    a = data.draw(elements(p))
    b = data.draw(elements(p))
    k = data.draw(st.integers(1, p - 1))
    assert galois(cyc_mul(a, b), k) == cyc_mul(galois(a, k), galois(b, k))
    assert galois(cyc_add(a, b), k) == cyc_add(galois(a, k), galois(b, k))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_galois_group_law_p7(data):
    a = data.draw(elements(7))
    j = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 6))
    assert galois(galois(a, j), k) == galois(a, j * k % 7)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_norm_multiplicative(p, data):
    a = data.draw(elements(p))
    b = data.draw(elements(p))
    assert norm(cyc_mul(a, b)) == norm(a) * norm(b)


def test_norm_of_one_minus_zeta_powers():
    for p in (5, 7, 11, 13):
        ctx = field_ctx(p)
        for j in range(1, p):
            assert norm(cyc_new(ctx, [(0, 1), (j, -1)])) == p


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([5, 7, 11]), st.data())
def test_canonical_round_trip(p, data):
    a = data.draw(elements(p))
    rebuilt = cyc_new(a.ctx, list(enumerate(a.coeffs)))
    assert rebuilt == a


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        cyc_add(cyc_one(CTX5), cyc_one(CTX7))
    with pytest.raises(ContextMismatchError):
        cyc_mul(cyc_one(CTX5), cyc_one(CTX7))


def test_pow_and_scalar_ops():
    # Z[zeta] has no power or scalar operator; a power is a chain of cyc_mul
    z = zeta_power(CTX5, 1)
    assert reduce(cyc_mul, [z] * 5) == cyc_one(CTX5)
    assert (-z).coeffs == (0, -1, 0, 0)


def test_json_round_trip():
    a = cyc_new(CTX5, [(0, 10**30), (3, -7)])
    blob = coeffs_to_json(a)
    assert blob == [str(10**30), "0", "0", "-7"]
    assert cyc_from_json(CTX5, blob) == a
    with pytest.raises(ValueError):
        cyc_from_json(CTX5, ["1", "2"])
    assert cyc_from_json(CTX5, [-3, "-0", "07", 2**70]).coeffs == (-3, 0, 7, 2**70)
    for bad in (5, "1234", ("1", "2", "3", "4"), None, {"0": 1}):
        with pytest.raises(ValueError):
            cyc_from_json(CTX5, bad)
    for entry in (None, True, False, 1.5, 2.0, "", "+1", "1.0", "1e3", " 1", "1_0", [1], {}):
        with pytest.raises(ValueError):
            cyc_from_json(CTX5, [entry, 0, 0, 0])


def decimal_by_words(n):
    """Oracle: decimal digits nine at a time, by repeated division."""
    words, m = [], abs(n)
    while True:
        m, r = divmod(m, 10**9)
        words.append(r)
        if not m:
            break
    digits = str(words[-1]) + "".join(f"{w:09d}" for w in reversed(words[:-1]))
    return "-" + digits if n < 0 else digits


BIG_INTS = [0, 7, -7, 10**511, 10**512 - 1, 2**1700, 2**1701, 10**4300 - 1, -(10**4300),
            10**9000 + 1, 3**20000, -(7**12345) // 11]


def test_decimal_round_trip_past_the_str_limit():
    # past 4300 digits str(n) and int(s) raise by default; the helpers
    # split by powers of ten and leave the interpreter-wide limit alone
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for n in BIG_INTS:
        text = int_to_decimal(n)
        assert text == decimal_by_words(n)
        assert int_from_json(text) == n
        assert int_from_json(text.replace("-", "-000") if n < 0 else "000" + text) == n
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_int_to_json_writes_a_number_where_str_can():
    for n in BIG_INTS:
        try:
            str(n)
        except ValueError:  # past the interpreter's limit: a decimal string
            assert int_to_json(n) == int_to_decimal(n)
        else:
            assert int_to_json(n) is n
        assert int_from_json(json.loads(json.dumps(int_to_json(n)))) == n


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str limit")
def test_decimal_helpers_hold_under_the_lowest_str_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in BIG_INTS:
            assert int_from_json(int_to_decimal(n)) == n
    finally:
        sys.set_int_max_str_digits(limit)
