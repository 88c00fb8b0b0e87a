import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclores.cycint import (
    ContextMismatchError,
    CycInt,
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
    norm,
    zeta_power,
)

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


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([5, 7, 11]), st.data())
def test_packed_mul_matches_schoolbook(p, data):
    # the packed product must agree with the literal convolution,
    # including with large mixed-sign coefficients
    lo, hi = -(10**12), 10**12
    ctx = field_ctx(p)
    a = data.draw(coeff_vectors(p, lo, hi))
    b = data.draw(coeff_vectors(p, lo, hi))
    packed = cyc_mul(CycInt(ctx, a), CycInt(ctx, b)).coeffs
    assert packed == _mul_convolve(a, b, p)


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
    z = zeta_power(CTX5, 1)
    assert z**5 == cyc_one(CTX5)
    assert z**0 == cyc_one(CTX5)
    assert (2 * z).coeffs == (0, 2, 0, 0)
    assert (z * 3 - z).coeffs == (0, 2, 0, 0)
    assert (-z).coeffs == (0, -1, 0, 0)
    with pytest.raises(ValueError):
        z ** (-1)


def test_json_round_trip():
    a = cyc_new(CTX5, [(0, 10**30), (3, -7)])
    blob = coeffs_to_json(a)
    assert blob == [str(10**30), "0", "0", "-7"]
    assert cyc_from_json(CTX5, blob) == a
    with pytest.raises(ValueError):
        cyc_from_json(CTX5, ["1", "2"])
