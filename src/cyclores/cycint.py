"""Exact arithmetic in the ring of integers of a prime cyclotomic field.

Elements of Z[zeta], zeta a primitive p-th root of unity (p an odd prime),
are coefficient vectors on the power basis 1, zeta, ..., zeta^(p-2).  The
power zeta^(p-1) is eliminated through the minimal-polynomial relation

    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)),

so the representation is canonical and two elements are equal exactly when
their coefficient tuples are equal.  Coefficients are Python ints, hence
arbitrary precision throughout.

Products are quadratic convolutions of coefficient vectors.  The
convolution is evaluated by packing each vector into one big integer and
multiplying those (Kronecker substitution), which moves the inner loop
into native multi-word arithmetic.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ntheory import is_prime, primitive_root

__all__ = [
    "ContextMismatchError",
    "InternalError",
    "FieldCtx",
    "CycInt",
    "GaloisElt",
    "field_ctx",
    "cyc_new",
    "cyc_add",
    "cyc_sub",
    "cyc_mul",
    "cyc_int",
    "cyc_zero",
    "cyc_one",
    "zeta_power",
    "galois",
    "norm",
    "coeffs_to_json",
    "cyc_from_json",
]

#: Automorphisms zeta -> zeta^k are addressed by the plain integer k,
#: 1 <= k <= p-1 (any k not divisible by p is folded into that range).
GaloisElt = int


class ContextMismatchError(ValueError):
    """Operands belong to different cyclotomic fields."""


class InternalError(RuntimeError):
    """An arithmetic invariant failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class FieldCtx:
    """Context of the p-th cyclotomic field: p and the inverse of 2 mod p."""

    p: int
    inv2: int

    def __post_init__(self):
        p = self.p
        if p <= 3 or p.bit_length() > 62 or not is_prime(p):
            raise ValueError(f"p must be an odd prime > 3 in a machine word, got {p}")
        if 2 * self.inv2 % p != 1:
            raise ValueError("inv2 is not the inverse of 2 mod p")


def field_ctx(p: int) -> FieldCtx:
    """Context for the p-th cyclotomic field."""
    return FieldCtx(p, (p + 1) // 2)


@dataclass(frozen=True)
class CycInt:
    """Element of Z[zeta] in canonical form.

    ``coeffs[i]`` is the coefficient of zeta^i, 0 <= i <= p-2.
    """

    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ctx.p - 1:
            raise ValueError("coefficient vector must have length p-1")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        if isinstance(other, CycInt):
            return cyc_add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, CycInt):
            return cyc_sub(self, other)
        return NotImplemented

    def __neg__(self) -> CycInt:
        return CycInt(self.ctx, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CycInt):
            return cyc_mul(self, other)
        if isinstance(other, int):
            return CycInt(self.ctx, tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> CycInt:
        if e < 0:
            raise ValueError("negative powers are not defined in Z[zeta]")
        out = cyc_one(self.ctx)
        base = self
        while e:
            if e & 1:
                out = cyc_mul(out, base)
            e >>= 1
            if e:
                base = cyc_mul(base, base)
        return out

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = "" if abs(c) == 1 and i else str(abs(c))
            var = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            sep = "*" if mag and var else ""
            terms.append(("-" if c < 0 else "+") + (mag + sep + var or "1"))
        if not terms:
            return "0"
        head = terms[0].lstrip("+")
        return " ".join([head] + [f"{t[0]} {t[1:]}" for t in terms[1:]])


def _same_ctx(a: CycInt, b: CycInt) -> None:
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"mixed contexts p={a.ctx.p} and p={b.ctx.p}")


def _reduce(vec: list[int], p: int) -> tuple[int, ...]:
    # eliminate zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    d = vec[p - 1]
    if d:
        return tuple(vec[i] - d for i in range(p - 1))
    return tuple(vec[: p - 1])


def cyc_new(ctx: FieldCtx, raw: Iterable[tuple[int, int]]) -> CycInt:
    """Canonical element equal to the sum of c * zeta^e over the (e, c) pairs.

    Exponents may be any integers; they are folded mod p before the
    minimal-polynomial reduction.
    """
    p = ctx.p
    vec = [0] * p
    for e, c in raw:
        vec[e % p] += c
    return CycInt(ctx, _reduce(vec, p))


def cyc_zero(ctx: FieldCtx) -> CycInt:
    return CycInt(ctx, (0,) * (ctx.p - 1))


def cyc_one(ctx: FieldCtx) -> CycInt:
    return cyc_int(ctx, 1)


def cyc_int(ctx: FieldCtx, n: int) -> CycInt:
    """The rational integer n as an element of Z[zeta]."""
    return CycInt(ctx, (n,) + (0,) * (ctx.p - 2))


def zeta_power(ctx: FieldCtx, e: int) -> CycInt:
    """zeta^e, e arbitrary."""
    return cyc_new(ctx, [(e, 1)])


def cyc_add(a: CycInt, b: CycInt) -> CycInt:
    _same_ctx(a, b)
    return CycInt(a.ctx, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def cyc_sub(a: CycInt, b: CycInt) -> CycInt:
    _same_ctx(a, b)
    return CycInt(a.ctx, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def _pack(cs: Sequence[int], width: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc << width) + c
    return acc


def _convolve_packed(ac: Sequence[int], bc: Sequence[int], p: int) -> list[int]:
    # Digit width large enough that convolution coefficients never reach
    # +-2^(width-1); balanced digit extraction then recovers signed values.
    amax = max(abs(c) for c in ac)
    bmax = max(abs(c) for c in bc)
    width = (amax * bmax * (p - 1)).bit_length() + 2
    prod = _pack(ac, width) * _pack(bc, width)
    vec = [0] * p
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    for m in range(2 * p - 3):
        d = prod & mask
        if d >= half:
            d -= mask + 1
        prod = (prod - d) >> width
        if d:
            vec[m if m < p else m - p] += d
    if prod:
        raise InternalError("kronecker unpack left a nonzero carry")
    return vec


def cyc_mul(a: CycInt, b: CycInt) -> CycInt:
    _same_ctx(a, b)
    p = a.ctx.p
    nza = [(i, c) for i, c in enumerate(a.coeffs) if c]
    if not nza:
        return a
    nzb = [(j, c) for j, c in enumerate(b.coeffs) if c]
    if not nzb:
        return b
    if len(nza) * len(nzb) <= 4 * p:
        vec = [0] * p
        for i, ci in nza:
            for j, cj in nzb:
                idx = i + j
                vec[idx if idx < p else idx - p] += ci * cj
        return CycInt(a.ctx, _reduce(vec, p))
    return CycInt(a.ctx, _reduce(_convolve_packed(a.coeffs, b.coeffs, p), p))


def galois(a: CycInt, k: GaloisElt) -> CycInt:
    """Image of a under the automorphism zeta -> zeta^k, k nonzero mod p."""
    p = a.ctx.p
    k %= p
    if k == 0:
        raise ValueError("galois index must be nonzero modulo p")
    if k == 1:
        return a
    vec = [0] * p
    for i, c in enumerate(a.coeffs):
        if c:
            vec[i * k % p] += c
    return CycInt(a.ctx, _reduce(vec, p))


def norm(a: CycInt) -> int:
    """Product of all p-1 Galois conjugates of a; a rational integer.

    The conjugate product is accumulated along the cyclic group: with
    sigma generating Gal(Q(zeta)/Q) and P_m the product of the first m
    conjugates, P_2m = P_m * sigma^m(P_m), so only O(log p) ring
    multiplications are needed instead of p-1.
    """
    p = a.ctx.p
    if a.is_zero():
        return 0
    g = primitive_root(p)
    result, m = a, 1
    for bit in bin(p - 1)[3:]:
        result = cyc_mul(result, galois(result, pow(g, m, p)))
        m <<= 1
        if bit == "1":
            result = cyc_mul(a, galois(result, g))
            m += 1
    if m != p - 1:
        raise InternalError("conjugate-product chain ended at the wrong length")
    head, *tail = result.coeffs
    if any(tail):
        raise InternalError("norm did not land in Z; arithmetic bug")
    return head


def coeffs_to_json(a: CycInt) -> list[str]:
    """Coefficient vector as decimal strings, little-endian by power."""
    return [str(c) for c in a.coeffs]


def cyc_from_json(ctx: FieldCtx, items: Sequence[str | int]) -> CycInt:
    """Rebuild an element from its serialized coefficient vector."""
    if len(items) != ctx.p - 1:
        raise ValueError(f"expected {ctx.p - 1} coefficients, got {len(items)}")
    return CycInt(ctx, tuple(int(c) for c in items))
