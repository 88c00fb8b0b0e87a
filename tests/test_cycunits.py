import pytest

from cyclores.cycint import (
    cyc_mul,
    cyc_new,
    cyc_one,
    field_ctx,
    galois,
    norm,
    zeta_power,
)
from cyclores.cycunits import (
    inv_one_plus_zeta,
    unit_minus,
    unit_plus,
    unit_product_check,
)
from cyclores.resfield import ideal_from_root, residue

CTX5 = field_ctx(5)
CTX7 = field_ctx(7)


def test_index_one_is_one():
    for p in (5, 7, 11, 13, 23):
        ctx = field_ctx(p)
        assert unit_minus(ctx, 1) == cyc_one(ctx)
        assert unit_plus(ctx, 1) == cyc_one(ctx)


def test_unit_minus_example():
    # index 2 for p = 5: zeta^2 (1 + zeta)
    assert unit_minus(CTX5, 2).coeffs == (0, 0, 1, 1)


def test_index_flip_identities():
    assert unit_minus(CTX7, 3) == -unit_minus(CTX7, 4)
    assert unit_plus(CTX7, 3) == unit_plus(CTX7, 4)
    for p in (5, 7, 11, 13):
        ctx = field_ctx(p)
        for a in range(1, p):
            assert unit_minus(ctx, a) == -unit_minus(ctx, p - a)
            assert unit_plus(ctx, a) == unit_plus(ctx, p - a)


def test_units_have_unit_norm():
    for p in (5, 7, 11):
        ctx = field_ctx(p)
        for a in range(1, p):
            assert norm(unit_minus(ctx, a)) in (1, -1)
            assert norm(unit_plus(ctx, a)) in (1, -1)


def test_units_fixed_by_complex_conjugation():
    for p in (5, 7, 11):
        ctx = field_ctx(p)
        for a in range(1, p):
            assert galois(unit_minus(ctx, a), p - 1) == unit_minus(ctx, a)
            assert galois(unit_plus(ctx, a), p - 1) == unit_plus(ctx, a)


def test_definition_unwound():
    # (1 - zeta^a) = unit_minus(a) * zeta^((a-1)/2) * (1 - zeta)
    for p in (5, 7, 11):
        ctx = field_ctx(p)
        one_minus = cyc_new(ctx, [(0, 1), (1, -1)])
        for a in range(1, p):
            lhs = cyc_new(ctx, [(0, 1), (a, -1)])
            shift = zeta_power(ctx, (a - 1) * ctx.inv2 % p)
            assert lhs == cyc_mul(cyc_mul(unit_minus(ctx, a), shift), one_minus)


def test_inverse_of_one_plus_zeta():
    for p in (5, 7, 11, 31):
        ctx = field_ctx(p)
        u = inv_one_plus_zeta(ctx)
        assert cyc_mul(cyc_new(ctx, [(0, 1), (1, 1)]), u) == cyc_one(ctx)
        # closed form: -(zeta + zeta^3 + ... + zeta^(p-2))
        closed = cyc_new(ctx, [(j, -1) for j in range(1, p - 1, 2)])
        assert u == closed


def test_unit_plus_residue_example():
    ideal = ideal_from_root(CTX5, 31, 16)
    assert residue(unit_plus(CTX5, 2), ideal).lift() == 17


def test_product_identity():
    for p in (5, 7, 11):
        assert unit_product_check(field_ctx(p))


def test_index_range_errors():
    with pytest.raises(ValueError):
        unit_minus(CTX5, 0)
    with pytest.raises(ValueError):
        unit_minus(CTX5, 5)
    with pytest.raises(ValueError):
        unit_plus(CTX5, -1)
