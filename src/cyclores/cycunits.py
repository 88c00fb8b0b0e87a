"""Totally real cyclotomic units, their inverses and their exact identities.

Two one-parameter families over Z[zeta], indexed by 1 <= a <= p-1:

    unit_minus(a) = zeta^((1-a)/2) * (1 - zeta^a) / (1 - zeta)
    unit_plus(a)  = zeta^((1-a)/2) * (1 + zeta^a) / (1 + zeta)

The half exponent (1-a)/2 is read modulo p (multiplication by the
inverse of 2), so even a is fine.  Both families are units, fixed by
complex conjugation, with

    unit_minus(1) = unit_plus(1) = 1,
    unit_minus(p-a) = -unit_minus(a),
    unit_plus(p-a) = unit_plus(a),

and the exact product identity checked by :func:`unit_product_check`.

Every unit and every inverse is a signed geometric sum of at most 2p
powers of zeta (Washington, Introduction to Cyclotomic Fields, Lemma
1.3), so nothing is divided, solved or multiplied out.  For b odd,

    (1 - zeta^a) / (1 - zeta) = sum_{i<a} zeta^i,
    (1 + zeta^b) / (1 + zeta) = sum_{i<b} (-zeta)^i,

and an even a in the plus family is read as a + p, since zeta^a =
zeta^(a+p).  With c = a^(-1) mod p, zeta = (zeta^a)^c gives the
inverses the same way:

    (1 - zeta) / (1 - zeta^a) = sum_{i<c} zeta^(a i),
    (1 + zeta) / (1 + zeta^a) = sum_{i<c'} (-zeta^a)^i,

c' being whichever of c and c + p is odd.
"""

from __future__ import annotations

from itertools import cycle
from typing import Sequence

from .cycint import CycInt, FieldCtx, cyc_mul, cyc_new, zeta_power

__all__ = [
    "unit_minus",
    "unit_plus",
    "inv_unit_minus",
    "inv_unit_plus",
    "inv_one_plus_zeta",
    "unit_product_check",
]


def _shift(ctx: FieldCtx, a: int) -> int:
    """(1-a)/2 mod p, after checking 1 <= a <= p-1."""
    if not 1 <= a <= ctx.p - 1:
        raise ValueError(f"unit index must satisfy 1 <= a <= p-1, got {a}")
    return (1 - a) * ctx.inv2 % ctx.p


def _odd(n: int, p: int) -> int:
    """n or n + p, whichever is odd (p is odd)."""
    return n if n % 2 else n + p


def _geometric(ctx: FieldCtx, shift: int, step: int, count: int, sign: int) -> CycInt:
    """zeta^shift * sum_{i<count} (sign * zeta^step)^i, sign = +-1."""
    return cyc_new(ctx, zip(range(shift, shift + step * count, step), cycle((1, sign))))


def unit_minus(ctx: FieldCtx, a: int) -> CycInt:
    """zeta^((1-a)/2) * (1 + zeta + ... + zeta^(a-1)), exactly."""
    return _geometric(ctx, _shift(ctx, a), 1, a, 1)


def unit_plus(ctx: FieldCtx, a: int) -> CycInt:
    """zeta^((1-a)/2) * (1 - zeta + zeta^2 - ... + zeta^(b-1)), exactly,
    b = a for odd a and a + p for even a."""
    return _geometric(ctx, _shift(ctx, a), 1, _odd(a, ctx.p), -1)


def inv_unit_minus(ctx: FieldCtx, a: int) -> CycInt:
    """Inverse of unit_minus(a): zeta^((a-1)/2) * sum_{i<c} zeta^(a i),
    c = a^(-1) mod p."""
    return _geometric(ctx, -_shift(ctx, a), a, pow(a, -1, ctx.p), 1)


def inv_unit_plus(ctx: FieldCtx, a: int) -> CycInt:
    """Inverse of unit_plus(a): zeta^((a-1)/2) * sum_{i<c'} (-zeta^a)^i,
    c' the odd one of c and c + p, c = a^(-1) mod p."""
    return _geometric(ctx, -_shift(ctx, a), a, _odd(pow(a, -1, ctx.p), ctx.p), -1)


def inv_one_plus_zeta(ctx: FieldCtx) -> CycInt:
    """Exact inverse of the unit 1 + zeta: (1 - zeta) / (1 - zeta^2), that
    is 1 + zeta^2 + zeta^4 + ... + zeta^(p-1), since 2^(-1) = (p+1)/2."""
    return _geometric(ctx, 0, 2, ctx.inv2, 1)


def unit_product_check(ctx: FieldCtx, plus: Sequence[CycInt]) -> bool:
    """Exact identity: prod_a unit_plus(a) * (1+zeta)^(p-1) = zeta^(-1/2),
    checked on the table ``plus`` = [unit_plus(1), ..., unit_plus(p-1)].

    The exponent -1/2 is -inv2 mod p.  (In symbol form the zeta factor
    disappears whenever the zeta-symbol is trivial.)  Each factor
    unit_plus(a) * (1+zeta) is multiplied out, then the p-1 factors are
    multiplied in a balanced tree, so operands grow together instead of
    one dense product growing by one factor a step.
    """
    one_plus = cyc_new(ctx, [(0, 1), (1, 1)])
    factors = [cyc_mul(u, one_plus) for u in plus]
    while len(factors) > 1:
        paired = [cyc_mul(u, v) for u, v in zip(factors[::2], factors[1::2])]
        factors = paired + factors[2 * len(paired):]
    return factors == [zeta_power(ctx, -ctx.inv2 % ctx.p)]
