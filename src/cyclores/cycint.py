"""Exact arithmetic in the ring of integers of a prime cyclotomic field.

Elements of Z[zeta], zeta a primitive p-th root of unity (p an odd prime),
are coefficient vectors on the power basis 1, zeta, ..., zeta^(p-2).  The
power zeta^(p-1) is eliminated through the minimal-polynomial relation

    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)),

so the representation is canonical and two elements are equal exactly when
their coefficient tuples are equal.  Coefficients are Python ints, hence
arbitrary precision throughout.

A product is a convolution of coefficient vectors, evaluated by Kronecker
substitution: each vector is packed into one big integer, one digit of
1, 2, 4 or 8 bytes (or more, past 8) per coefficient, the two integers
are multiplied, and the product is read back digit by digit.  Packing
and unpacking are linear in the length, so the big-integer multiply
dominates.  Digits are signed, in two's complement, unless neither
operand has a negative coefficient; then they are unsigned, and the
borrows of packing and the offset of unpacking are skipped.
``kronecker_mul`` is the one packed product of the package, over F_p in
``regulab`` and F_q in ``resfield`` too, whose residues and chirps are
nonnegative, so unsigned.  All values are immutable.
"""

from __future__ import annotations

import re
import struct
from itertools import repeat
from operator import add, attrgetter, sub
from typing import Iterable, Sequence

from .ntheory import is_prime, primitive_root

__all__ = [
    "P_MAX",
    "ContextMismatchError",
    "InternalError",
    "Frozen",
    "FieldCtx",
    "CycInt",
    "check_p",
    "field_ctx",
    "cyc_new",
    "cyc_add",
    "cyc_sub",
    "cyc_mul",
    "kronecker_mul",
    "cyc_int",
    "cyc_zero",
    "cyc_one",
    "zeta_power",
    "galois",
    "norm",
    "coeffs_to_json",
    "cyc_from_json",
    "int_from_json",
    "int_to_decimal",
    "int_to_json",
]

#: Exclusive upper limit on the prime p of any field this package builds;
#: tables of about p entries are cheap below it.
P_MAX = 1 << 20


def check_p(p: int) -> None:
    """Raise ValueError unless p is an odd prime below P_MAX."""
    if not 3 <= p < P_MAX or not is_prime(p):
        shown = f"p={p}" if abs(p) < P_MAX else f"p of {p.bit_length()} bits"
        raise ValueError(f"{shown} is not an odd prime below {P_MAX}")


class ContextMismatchError(ValueError):
    """Operands belong to different cyclotomic fields."""


class InternalError(RuntimeError):
    """An arithmetic invariant failed; indicates a bug, not bad input."""


class Frozen:
    """Base of the immutable value classes.

    A subclass lists its fields in ``_fields`` and sets them in
    ``__init__`` through ``object.__setattr__``; afterwards every
    assignment raises AttributeError.  Instances of one class compare
    and hash by their field values, in order, and are pickled and
    copied by calling the constructor on those values.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        # a plain callable, not a method: called as self._values(self); of
        # one field it gives the value itself, which compares and hashes too
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({args})"


class FieldCtx(Frozen):
    """Context of the p-th cyclotomic field: p, and ``inv2``, the inverse of
    2 mod p, derived from it."""

    __slots__ = ("p", "inv2")
    _fields = ("p",)
    p: int
    inv2: int

    def __init__(self, p: int):
        check_p(p)
        if p == 3:
            raise ValueError("the field needs p > 3")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "inv2", (p + 1) // 2)


def field_ctx(p: int) -> FieldCtx:
    """Context for the p-th cyclotomic field."""
    return FieldCtx(p)


class CycInt(Frozen):
    """Element of Z[zeta] in canonical form.

    ``coeffs[i]`` is the coefficient of zeta^i, 0 <= i <= p-2.  The ring
    operations are ``cyc_add``, ``cyc_sub`` and ``cyc_mul``; the class
    adds only unary minus and ``is_zero`` (every element is truthy).
    """

    __slots__ = _fields = ("ctx", "coeffs")
    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        if len(coeffs) != ctx.p - 1:
            raise ValueError("coefficient vector must have length p-1")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __neg__(self) -> CycInt:
        return CycInt(self.ctx, tuple(-c for c in self.coeffs))


def _same_ctx(a: CycInt, b: CycInt) -> None:
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"mixed contexts p={a.ctx.p} and p={b.ctx.p}")


def _reduce(vec: list[int], p: int) -> tuple[int, ...]:
    # eliminate zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    d = vec[p - 1]
    if d:
        return tuple(map(sub, vec[: p - 1], repeat(d)))
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


# struct format codes of the little-endian integers of nb bytes: signed
# here, unsigned in upper case
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _ones(nb: int, count: int) -> int:
    """The integer whose count digits of nb bytes are each 1."""
    return int.from_bytes(b"\1".ljust(nb, b"\0") * count, "little")


def _pack(digits: Sequence[int], nb: int, signed: bool = True) -> int:
    """sum_i digits[i] * 2^(8*nb*i) for digits of size below 2^(8nb-1).

    The digits are written as nb-byte integers and read back as one
    unsigned integer u.  Unsigned digits (signed false, every digit
    nonnegative) give the sum at once.  Signed ones are written in two's
    complement: a negative digit borrows 2^(8nb) from the next one, and
    the borrows, marked by the digits' sign bits, are taken off at once.
    """
    n = len(digits)
    code = _STRUCT_CODES.get(nb)
    if code:
        raw = struct.pack(f"<{n}{code if signed else code.upper()}", *digits)
    else:
        raw = b"".join(d.to_bytes(nb, "little", signed=signed) for d in digits)
    u = int.from_bytes(raw, "little")
    if not signed:
        return u
    w = 8 * nb
    return u - (((u >> (w - 1)) & _ones(nb, n)) << w)


def _unpack(value: int, nb: int, count: int, lo: int, hi: int,
            signed: bool = True) -> list[int]:
    """Digits lo..hi-1 of value written as count digits of nb bytes,
    signed, or unsigned if signed is false.

    Adding 2^(8nb-1) to every signed digit makes them all nonnegative
    without a carry, and the xor takes it off again in two's complement,
    so one to_bytes call splits the whole value; unsigned digits need
    no offset.  A value that has no such digits raises InternalError.
    """
    if signed:
        offset = _ones(nb, count) << (8 * nb - 1)
        value = (value + offset) ^ offset
    try:
        raw = value.to_bytes(nb * count, "little")
    except OverflowError:
        raise InternalError("kronecker unpack: a digit overflows its width") from None
    k = hi - lo
    code = _STRUCT_CODES.get(nb)
    if code:
        return list(struct.unpack_from(f"<{k}{code if signed else code.upper()}", raw, nb * lo))
    return [
        int.from_bytes(raw[i : i + nb], "little", signed=signed)
        for i in range(nb * lo, nb * hi, nb)
    ]


def kronecker_mul(a: Sequence[int], b: Sequence[int], lo: int, hi: int) -> list[int]:
    """Coefficients lo..hi-1 of the product of two integer polynomials.

    a and b are coefficient lists, lowest power first; an empty one is
    the zero polynomial.  With |a| the largest size in a, every
    coefficient of a, b and a*b is at most
    bound = max(|a| |b| min(len a, len b), |a|, |b|) in size; a digit
    holds +-bound in bound.bit_length() // 8 + 1 bytes, rounded up to 1,
    2, 4 or 8 bytes where that is at most 8.  When neither operand has a
    negative coefficient, nor has the product, and its digits are packed
    and read unsigned.
    """
    if not (a and b):
        return [0] * (hi - lo)
    alo, blo = min(a), min(b)
    amax, bmax = max(max(a), -alo), max(max(b), -blo)
    bound = max(amax * bmax * min(len(a), len(b)), amax, bmax)
    nb = bound.bit_length() // 8 + 1
    if nb <= 8:
        nb = 1 << (nb - 1).bit_length()
    signed = alo < 0 or blo < 0
    product = _pack(a, nb, signed) * _pack(b, nb, signed)
    return _unpack(product, nb, len(a) + len(b) - 1, lo, hi, signed)


def cyc_mul(a: CycInt, b: CycInt) -> CycInt:
    _same_ctx(a, b)
    p = a.ctx.p
    conv = kronecker_mul(a.coeffs, b.coeffs, 0, 2 * p - 3)
    # fold zeta^m, m >= p, onto zeta^(m-p)
    head, tail = conv[:p], conv[p:]
    return CycInt(a.ctx, _reduce(list(map(add, head, tail)) + head[len(tail) :], p))


def galois(a: CycInt, k: int) -> CycInt:
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
    try:
        return [str(c) for c in a.coeffs]
    except ValueError:  # str() refuses ints past the interpreter's digit limit
        return [int_to_decimal(c) for c in a.coeffs]


_DECIMAL = re.compile(r"-?[0-9]+")

# Digits converted by one str() or int() call.  CPython refuses longer
# conversions past a per-interpreter limit (4300 digits by default, 640
# at the least; sys.set_int_max_str_digits), which is the caller's to
# set, so bigger values are split by powers of ten instead.
_CHUNK_DIGITS = 512
_CHUNK_BITS = 1700  # 2^1700 < 10^512
_LOG10_2 = 0.30102999566398120


def int_to_decimal(n: int) -> str:
    """Decimal string of an int of any size, exactly as str() writes it."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    half = int(n.bit_length() * _LOG10_2) // 2  # 10^half <= n
    hi, lo = divmod(n, 10**half)
    return int_to_decimal(hi) + int_to_decimal(lo).rjust(half, "0")


def int_to_json(n: int) -> int | str:
    """n as a JSON number, or as its decimal string (which ``int_from_json``
    reads too) where str(), and so json.dumps, refuses it: past the
    interpreter's digit limit."""
    try:
        str(n)
    except ValueError:
        return int_to_decimal(n)
    return n


def _int_from_decimal(digits: str) -> int:
    """The int spelled by a string of decimal digits, of any length."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _int_from_decimal(digits[:-half]) * 10**half + _int_from_decimal(digits[-half:])


def int_from_json(value: object) -> int:
    """An integer read from JSON: an int (not a bool) or a decimal string
    of any length (see ``int_to_decimal``).

    Anything else (null, a bool, a float, another string, a list or an
    object) raises ValueError instead of being truncated or coerced; its
    message gives the value's type and length, never the value.
    """
    if type(value) is int:
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        if value[0] == "-":
            return -_int_from_decimal(value[1:])
        return _int_from_decimal(value)
    size = f" of length {len(value)}" if isinstance(value, (str, list, dict)) else ""
    raise ValueError(f"not an integer: a {type(value).__name__}{size}")


def cyc_from_json(ctx: FieldCtx, items: list[str | int]) -> CycInt:
    """Rebuild an element from its serialized coefficient vector: a list
    of p-1 integers (see ``int_from_json``), else ValueError."""
    if not isinstance(items, list):
        raise ValueError(f"expected a list of coefficients, got {type(items).__name__}")
    if len(items) != ctx.p - 1:
        raise ValueError(f"expected {ctx.p - 1} coefficients, got {len(items)}")
    return CycInt(ctx, tuple(int_from_json(c) for c in items))
