import json
import time
from functools import reduce

import pytest

from cyclores import cli
from cyclores.cycint import (
    CycInt,
    coeffs_to_json,
    cyc_int,
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
    inv_unit_minus,
    inv_unit_plus,
    unit_minus,
    unit_plus,
    unit_product_check,
)
from cyclores.ntheory import is_prime
from cyclores.resfield import ideal_from_root, residue

CTX5 = field_ctx(5)
CTX7 = field_ctx(7)
PRIMES_TO_101 = [p for p in range(5, 102) if is_prime(p)]


# ----------------------------------------------------------------------
# oracles: the algorithms the closed forms replaced

def solved_inv_one_plus_zeta(ctx):
    """Inverse of 1 + zeta by solving (1+zeta)u = 1 over Z.  After
    eliminating zeta^(p-1) the system is bidiagonal: with d = c_{p-2},
    c_0 = 1 + d and c_i = d - c_{i-1}, and the closure c_{p-2} = d pins d."""
    p = ctx.p
    alpha, beta = [1], [1]
    for _ in range(1, p - 1):
        alpha.append(-alpha[-1])
        beta.append(1 - beta[-1])
    den = 1 - beta[-1]
    assert den and alpha[-1] % den == 0
    d = alpha[-1] // den
    return CycInt(ctx, tuple(a + b * d for a, b in zip(alpha, beta)))


def divided_unit_plus(ctx, a):
    """zeta^((1-a)/2) * (1 + zeta^a) times the solved inverse of 1 + zeta."""
    shift = (1 - a) * ctx.inv2 % ctx.p
    numer = cyc_new(ctx, [(shift, 1), (shift + a, 1)])
    return cyc_mul(numer, solved_inv_one_plus_zeta(ctx))


def chained_product_check(ctx, plus):
    """The product identity along a linear chain of dense products."""
    prod = cyc_one(ctx)
    for u in plus:
        prod = cyc_mul(prod, u)
    prod = reduce(cyc_mul, [cyc_new(ctx, [(0, 1), (1, 1)])] * (ctx.p - 1), prod)
    return prod == zeta_power(ctx, -ctx.inv2 % ctx.p)


def norm_units_json(p):
    """The units command's output computed the old way: plus units by
    division, unit-ness by conjugate-product norms, the product identity
    by a linear chain."""
    ctx = field_ctx(p)
    minus = {a: unit_minus(ctx, a) for a in range(1, p)}
    plus = {a: divided_unit_plus(ctx, a) for a in range(1, p)}
    inv = solved_inv_one_plus_zeta(ctx)
    return {
        "p": p,
        "minus": {str(a): coeffs_to_json(u) for a, u in minus.items()},
        "plus": {str(a): coeffs_to_json(u) for a, u in plus.items()},
        "checks": {
            "minus_antisymmetry": all(minus[a] == -minus[p - a] for a in minus),
            "plus_symmetry": all(plus[a] == plus[p - a] for a in plus),
            "norms_unit": all(norm(minus[a]) in (1, -1) and norm(plus[a]) in (1, -1)
                              for a in minus),
            "product_identity": chained_product_check(ctx, plus.values()),
            "inverse_check": cyc_mul(cyc_new(ctx, [(0, 1), (1, 1)]), inv) == cyc_one(ctx),
        },
    }


def units_cli(capsys, p):
    code = cli.run(["units", "--p", str(p)])
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


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
    # the oracle of the units command's "norms_unit" check
    for p in PRIMES_TO_101:
        ctx = field_ctx(p)
        for a in range(1, p):
            assert norm(unit_minus(ctx, a)) == 1
            assert norm(unit_plus(ctx, a)) == 1


def test_closed_form_inverses():
    for p in PRIMES_TO_101:
        ctx = field_ctx(p)
        one = cyc_one(ctx)
        for a in range(1, p):
            assert cyc_mul(unit_minus(ctx, a), inv_unit_minus(ctx, a)) == one
            assert cyc_mul(unit_plus(ctx, a), inv_unit_plus(ctx, a)) == one


def test_unit_plus_matches_division():
    for p in (5, 7, 11, 13, 31, 67):
        ctx = field_ctx(p)
        for a in range(1, p):
            assert unit_plus(ctx, a) == divided_unit_plus(ctx, a)


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
        assert u == solved_inv_one_plus_zeta(ctx)
        # closed form: -(zeta + zeta^3 + ... + zeta^(p-2))
        closed = cyc_new(ctx, [(j, -1) for j in range(1, p - 1, 2)])
        assert u == closed


def test_unit_plus_residue_example():
    ideal = ideal_from_root(CTX5, 31, 16)
    assert residue(unit_plus(CTX5, 2), ideal) == 17


def test_product_identity():
    for p in (5, 7, 11, 13, 31):
        ctx = field_ctx(p)
        plus = [unit_plus(ctx, a) for a in range(1, p)]
        assert unit_product_check(ctx, plus)
        assert chained_product_check(ctx, plus)
        # one wrong factor, unit or not, breaks both products
        for bad in (cyc_mul(plus[2], zeta_power(ctx, 1)), cyc_int(ctx, 2)):
            wrong = plus[:2] + [bad] + plus[3:]
            assert not unit_product_check(ctx, wrong)
            assert not chained_product_check(ctx, wrong)


def test_index_range_errors():
    with pytest.raises(ValueError):
        unit_minus(CTX5, 0)
    with pytest.raises(ValueError):
        unit_minus(CTX5, 5)
    with pytest.raises(ValueError):
        unit_plus(CTX5, -1)


def test_units_command_matches_norm_oracle(capsys):
    for p in range(5, 62):
        if is_prime(p):
            code, out = units_cli(capsys, p)
            assert code == 0
            assert out == json.dumps(norm_units_json(p), separators=(",", ":")) + "\n"


def test_units_p199_takes_no_norm_path(capsys):
    # the conjugate-product path took about 5 s of CPU time here
    start = time.process_time()
    code, out = units_cli(capsys, 199)
    elapsed = time.process_time() - start
    got = json.loads(out)
    assert code == 0
    assert all(got["checks"].values()) and len(got["plus"]) == 198
    assert elapsed < 2.5


def _times_zeta(family):
    return lambda ctx, a: cyc_mul(family(ctx, a), zeta_power(ctx, 1))


def _two_at(family, index):
    return lambda ctx, a: cyc_int(ctx, 2) if a == index else family(ctx, a)


@pytest.mark.parametrize("name, mutant, failing", [
    ("unit_minus", _times_zeta(unit_minus), {"norms_unit"}),
    ("unit_minus", _two_at(unit_minus, 1), {"norms_unit"}),
    ("unit_plus", _times_zeta(unit_plus), {"norms_unit", "product_identity"}),
    ("unit_plus", _two_at(unit_plus, 1), {"norms_unit", "product_identity", "plus_symmetry"}),
], ids=["minus-wrong-unit", "minus-non-unit", "plus-wrong-unit", "plus-non-unit"])
def test_units_command_catches_a_broken_family(capsys, monkeypatch, name, mutant, failing):
    monkeypatch.setattr(cli, name, mutant)
    code, out = units_cli(capsys, 13)
    checks = json.loads(out)["checks"]
    assert code == 2
    assert {key for key, ok in checks.items() if not ok} >= failing
