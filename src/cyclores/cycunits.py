"""Totally real cyclotomic units and their exact identities.

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
The quotient (1 - zeta^a)/(1 - zeta) is a geometric sum, so no division
ever happens; the plus family needs the inverse of the unit 1 + zeta,
solved once per field and cached.
"""

from __future__ import annotations

from functools import lru_cache

from .cycint import (
    CycInt,
    FieldCtx,
    InternalError,
    cyc_mul,
    cyc_new,
    cyc_one,
    zeta_power,
)

__all__ = [
    "unit_minus",
    "unit_plus",
    "inv_one_plus_zeta",
    "unit_product_check",
]


def _check_index(ctx: FieldCtx, a: int) -> None:
    if not 1 <= a <= ctx.p - 1:
        raise ValueError(f"unit index must satisfy 1 <= a <= p-1, got {a}")


def unit_minus(ctx: FieldCtx, a: int) -> CycInt:
    """zeta^((1-a)/2) * (1 + zeta + ... + zeta^(a-1)), exactly."""
    _check_index(ctx, a)
    shift = (1 - a) * ctx.inv2 % ctx.p
    return cyc_new(ctx, [(shift + i, 1) for i in range(a)])


@lru_cache(maxsize=None)
def inv_one_plus_zeta(ctx: FieldCtx) -> CycInt:
    """Exact inverse of the unit 1 + zeta, by solving (1+zeta)u = 1 over Z.

    After eliminating zeta^(p-1) the linear system is bidiagonal: with
    d = c_{p-2} the coefficients obey c_0 = 1 + d and c_i = d - c_{i-1},
    and the closure c_{p-2} = d pins d.  Every c_i is affine in d, so one
    forward pass plus one exact division solves the system.
    """
    p = ctx.p
    alpha = [0] * (p - 1)
    beta = [0] * (p - 1)
    alpha[0], beta[0] = 1, 1
    for i in range(1, p - 1):
        alpha[i] = -alpha[i - 1]
        beta[i] = 1 - beta[i - 1]
    den = 1 - beta[p - 2]
    if den == 0 or alpha[p - 2] % den:
        raise InternalError("inverse of 1+zeta: closure equation is not solvable")
    d = alpha[p - 2] // den
    u = CycInt(ctx, tuple(alpha[i] + beta[i] * d for i in range(p - 1)))
    if cyc_mul(cyc_new(ctx, [(0, 1), (1, 1)]), u) != cyc_one(ctx):
        raise InternalError("inverse of 1+zeta failed its defining equation")
    return u


def unit_plus(ctx: FieldCtx, a: int) -> CycInt:
    """zeta^((1-a)/2) * (1 + zeta^a) * (1 + zeta)^(-1), exactly."""
    _check_index(ctx, a)
    shift = (1 - a) * ctx.inv2 % ctx.p
    numer = cyc_new(ctx, [(shift, 1), (shift + a, 1)])
    return cyc_mul(numer, inv_one_plus_zeta(ctx))


def unit_product_check(ctx: FieldCtx) -> bool:
    """Exact identity: prod_a unit_plus(a) * (1+zeta)^(p-1) = zeta^(-1/2).

    The exponent -1/2 is -inv2 mod p.  (In symbol form the zeta factor
    disappears whenever the zeta-symbol is trivial.)
    """
    p = ctx.p
    prod = cyc_one(ctx)
    for a in range(1, p):
        prod = cyc_mul(prod, unit_plus(ctx, a))
    one_plus = cyc_new(ctx, [(0, 1), (1, 1)])
    prod = cyc_mul(prod, one_plus ** (p - 1))
    return prod == zeta_power(ctx, -ctx.inv2 % p)
