"""Splitting of rational primes in Z[zeta_p] and residue-field reduction.

A prime q != p splits into (p-1)/f prime ideals, where f is the
multiplicative order of q mod p.  Ideals are labelled by the monic
irreducible factors of the p-th cyclotomic polynomial over F_q.  The
conventions below make every output reproducible bit for bit:

* f = 1: the residue field is F_q itself and the ideals are listed by
  increasing root w in [2, q); the modulus of an ideal is t - w.
* f > 1: one concrete field F_q[t]/(m0) is fixed, m0 being the smallest
  irreducible factor in little-endian coefficient-vector order.  The
  p-th roots of unity in that field are the powers of t, and their
  Frobenius orbits correspond to the ideals.  Each ideal's w is the
  smallest element of its orbit (same coefficient order), its modulus is
  the minimal polynomial of w over F_q, and ideals are listed by
  increasing w.

A residue-field element is written as the ideal's ``w`` is: an int in
[0, q) at f = 1, else a little-endian coefficient tuple of fixed length
f over the ideal's field F_q[t]/(field_modulus), entries in [0, q).
Everything here is immutable.

An ideal's table ``w_powers`` of w^0..w^(p-1) is the one source of
residue-field values.  Reduction is a dot product with it: the image of
sum a_i zeta^i is sum a_i w^i, taken per coordinate at f > 1.  The
Frobenius conjugates of w^j are w^(j q^i), i < f, read off it by index;
so is the orbit of the root w^(1/k) of a Galois image.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from operator import mul
from typing import Sequence

from .cycint import ContextMismatchError, CycInt, FieldCtx, Frozen, InternalError
from .ntheory import is_prime, multiplicative_order, root_of_unity

__all__ = [
    "Q_MAX",
    "ResidueDegreeError",
    "PrimeIdealRep",
    "split_prime",
    "residue",
    "ideal_dividing",
    "ideal_from_root",
    "ideal_from_modulus",
    "galois_image",
    "ideal_to_json",
]


#: Exclusive upper limit on q for an ideal addressed by its root or its
#: modulus, and on q^f for a symbol (``powsym``).  Checked before any
#: primality test, whose cost grows with q.
Q_MAX = 1 << 128


def _check_q_size(q: int, limit: int) -> None:
    # the message names q's size, not q, which may have any length
    if not -limit < q < limit:
        raise ValueError(f"q has {q.bit_length()} bits; it must be below 2^{limit.bit_length() - 1}")


class ResidueDegreeError(ValueError):
    """No ideal of the required residue degree exists above q."""


class PrimeIdealRep(Frozen):
    """A prime ideal of Z[zeta] above the rational prime q.

    ``modulus`` is the monic irreducible degree-f factor of the p-th
    cyclotomic polynomial mod q attached to this ideal (for f = 1 it is
    t - w).  ``w`` is the image of zeta under reduction: an integer for
    f = 1, otherwise a length-f tuple over the shared field
    F_q[t]/(field_modulus).
    """

    # no __slots__: the cached properties live in the instance __dict__
    _fields = ("ctx", "q", "f", "w", "modulus", "field_modulus")
    ctx: FieldCtx
    q: int
    f: int
    w: int | tuple[int, ...]
    modulus: tuple[int, ...]
    field_modulus: tuple[int, ...] | None

    def __init__(self, ctx: FieldCtx, q: int, f: int, w: int | tuple[int, ...],
                 modulus: tuple[int, ...], field_modulus: tuple[int, ...] | None = None):
        for name, value in zip(self._fields, (ctx, q, f, w, modulus, field_modulus)):
            object.__setattr__(self, name, value)

    @cached_property
    def euler_exponent(self) -> int:
        """(q^f - 1)/p, the exponent of the residue-symbol power map."""
        return (self.q**self.f - 1) // self.ctx.p

    @cached_property
    def w_powers(self) -> tuple:
        """w^e for e = 0..p-1; the p-th roots of unity seen by this ideal."""
        p = self.ctx.p
        if self.f == 1:
            out = [1]
            for _ in range(p - 1):
                out.append(out[-1] * self.w % self.q)
            return tuple(out)
        out = [_fone(self.f)]
        for _ in range(p - 1):
            out.append(_fmul(out[-1], self.w, self.field_modulus, self.q, self.f))
        return tuple(out)

    @cached_property
    def _dlog(self) -> dict:
        return {v: e for e, v in enumerate(self.w_powers)}


# ----------------------------------------------------------------------
# dense little-endian polynomial arithmetic over F_q

def _ptrim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pmul(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % q
    return _ptrim(out)


def _pmod(a: Sequence[int], m: Sequence[int], q: int) -> list[int]:
    # m monic
    a = [c % q for c in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % q
    del a[dm:]
    return a


def _pdivmod(a: Sequence[int], b: Sequence[int], q: int) -> tuple[list[int], list[int]]:
    b = _ptrim([c % q for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, q)
    rem = [c % q for c in a]
    db = len(b) - 1
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % q
        if c:
            quot[i - db] = c
            for j, cb in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - c * cb) % q
    return _ptrim(quot), _ptrim(rem)


def _pgcd(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    a = _ptrim([c % q for c in a])
    b = _ptrim([c % q for c in b])
    while b:
        a, b = b, _pdivmod(a, b, q)[1]
    if a:
        inv = pow(a[-1], -1, q)
        a = [c * inv % q for c in a]
    return a


def _ppowmod(base: Sequence[int], e: int, m: Sequence[int], q: int) -> list[int]:
    out = [1]
    base = _pmod(base, m, q)
    while e:
        if e & 1:
            out = _pmod(_pmul(out, base, q), m, q)
        e >>= 1
        if e:
            base = _pmod(_pmul(base, base, q), m, q)
    return _ptrim(out)


# fixed-length residue-field helpers (length f, zero padded)

def _ftup(cs: Sequence[int], f: int) -> tuple[int, ...]:
    return tuple(cs) + (0,) * (f - len(cs))


def _fone(f: int) -> tuple[int, ...]:
    return _ftup((1,), f)


def _fmul(u, v, m0, q, f) -> tuple[int, ...]:
    return _ftup(_pmod(_pmul(list(u), list(v), q), m0, q), f)


def _fpow(u, e, m0, q, f) -> tuple[int, ...]:
    return _ftup(_ppowmod(list(u), e, m0, q), f)


# ----------------------------------------------------------------------

def _degree_one(ctx: FieldCtx, q: int, w: int) -> PrimeIdealRep:
    # the degree-1 ideal at which zeta maps to w; its modulus is t - w
    return PrimeIdealRep(ctx, q, 1, w, ((q - w) % q, 1))


def _equal_degree_factor(fpoly: list[int], f: int, q: int) -> list[tuple[int, ...]]:
    """All monic irreducible factors of fpoly, known to have degree f.

    Cantor-Zassenhaus splitting with a deterministic seed; the caller
    sorts the result, so the output order never depends on the RNG.
    """
    rng = random.Random(0x5EED ^ (len(fpoly) << 24) ^ (q & 0xFFFFFFFF) ^ f)
    out: list[tuple[int, ...]] = []
    stack = [_ptrim([c % q for c in fpoly])]
    while stack:
        cur = stack.pop()
        if len(cur) - 1 == f:
            out.append(tuple(cur))
            continue
        while True:
            r = _ptrim([rng.randrange(q) for _ in range(len(cur) - 1)])
            if not r:
                continue
            if q == 2:
                # additive splitting by the trace map over F_2
                acc = _ftup(r, len(cur) - 1)
                sq = list(r)
                for _ in range(f - 1):
                    sq = _pmod(_pmul(sq, sq, 2), cur, 2)
                    acc = tuple((x + y) % 2 for x, y in zip(acc, _ftup(sq, len(cur) - 1)))
                g = _pgcd(cur, _ptrim(list(acc)), 2)
            else:
                h = _ppowmod(r, (q**f - 1) // 2, cur, q)
                h = list(h) if h else [0]
                h[0] = (h[0] - 1) % q
                g = _pgcd(cur, _ptrim(h), q)
            if 0 < len(g) - 1 < len(cur) - 1:
                quot, rem = _pdivmod(cur, g, q)
                if rem:
                    raise InternalError("factor does not divide its parent")
                stack.append(g)
                stack.append(quot)
                break
    return out


def _minpoly(orbit: list[tuple[int, ...]], m0, q: int) -> tuple[int, ...]:
    # product of (X - r) over a Frobenius orbit; lands in F_q[X]
    f = len(orbit)
    poly = [_fone(f)]
    for r in orbit:
        neg = tuple(-c % q for c in r)
        nxt = [_ftup((), f) for _ in range(len(poly) + 1)]
        for i, coef in enumerate(poly):
            nxt[i + 1] = tuple((a + b) % q for a, b in zip(nxt[i + 1], coef))
            prod = _fmul(coef, neg, m0, q, f)
            nxt[i] = tuple((a + b) % q for a, b in zip(nxt[i], prod))
        poly = nxt
    out = []
    for coef in poly:
        if any(coef[1:]):
            raise InternalError("minimal polynomial has non-scalar coefficients")
        out.append(coef[0])
    return tuple(out)


def _orbit_ideal(ctx: FieldCtx, q: int, orbit: list, m0) -> PrimeIdealRep:
    # the ideal at which zeta maps into the Frobenius orbit; its w is the
    # orbit's least element, m0 (None at f = 1) the field it lives in
    w = min(orbit)
    if m0 is None:
        return _degree_one(ctx, q, w)
    return PrimeIdealRep(ctx, q, len(orbit), w, _minpoly(orbit, m0, q), m0)


@lru_cache(maxsize=256)
def split_prime(ctx: FieldCtx, q: int) -> tuple[PrimeIdealRep, ...]:
    """All prime ideals of Z[zeta] above q, in canonical order."""
    p = ctx.p
    _check_q_size(q, 1 << 63)
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if q == p:
        raise ValueError("q = p is ramified and not handled here")
    f = multiplicative_order(q, p)
    if f == 1:
        z = root_of_unity(p, q)
        roots = sorted(pow(z, i, q) for i in range(1, p))
        return tuple(_degree_one(ctx, q, w) for w in roots)
    phi = [1 % q] * p
    if f == p - 1:
        factors = [tuple(phi)]
    else:
        factors = _equal_degree_factor(phi, f, q)
    m0 = min(factors)
    # every p-th root of unity is a power of t; orbits are cosets of <q>
    tpows: dict[int, tuple[int, ...]] = {}
    cur = _ftup((0, 1), f)
    tpows[1] = cur
    for j in range(2, p):
        cur = _fmul(cur, tpows[1], m0, q, f)
        tpows[j] = cur
    subgroup = sorted(pow(q, i, p) for i in range(f))
    seen: set[int] = set()
    ideals = []
    for j in range(1, p):
        if j in seen:
            continue
        coset = [j * h % p for h in subgroup]
        seen.update(coset)
        ideals.append(_orbit_ideal(ctx, q, [tpows[jj] for jj in coset], m0))
    ideals.sort(key=lambda ideal: ideal.w)
    return tuple(ideals)


def residue(a: CycInt, ideal: PrimeIdealRep) -> int | tuple[int, ...]:
    """Reduction of a modulo the ideal: sum_i a_i w^i, read off ``w_powers``."""
    if a.ctx != ideal.ctx:
        raise ContextMismatchError("element and ideal live in different fields")
    q = ideal.q
    if ideal.f == 1:
        return sum(map(mul, a.coeffs, ideal.w_powers)) % q
    return tuple(sum(map(mul, a.coeffs, column)) % q for column in zip(*ideal.w_powers))


def ideal_dividing(
    ctx: FieldCtx, q: int, x: int, y: int, sign: int
) -> PrimeIdealRep | None:
    """The degree-1 prime above q dividing x*zeta + sign*y, if any.

    Raises ResidueDegreeError when q has no degree-1 ideal at all
    (order of q mod p exceeds 1), which is distinct from returning None
    (degree 1 but no matching root).  The matching ideal is unique when
    it exists: the roots are distinct and x is invertible mod q.
    """
    p = ctx.p
    # the cheap checks first: a primality test costs time that grows with q
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if q % p != 1:  # for a prime q != p, the same as q having order 1 mod p
        raise ResidueDegreeError("q is not 1 mod p, so no unramified degree-1 ideal lies above it")
    if (p * x * y) % q == 0:
        raise ValueError("q must not divide p*x*y")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    w = -sign * y * pow(x, -1, q) % q
    if w == 1 or pow(w, p, q) != 1:
        return None
    return _degree_one(ctx, q, w)


def ideal_from_root(ctx: FieldCtx, q: int, w: int) -> PrimeIdealRep:
    """Degree-1 ideal above q with zeta mapping to the given root w."""
    p = ctx.p
    _check_q_size(q, Q_MAX)
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if q == p:
        raise ValueError("q = p is ramified")
    w %= q
    if w in (0, 1) or pow(w, p, q) != 1:
        raise ValueError(f"w={w} does not have multiplicative order {p} mod {q}")
    return _degree_one(ctx, q, w)


def ideal_from_modulus(ctx: FieldCtx, q: int, coeffs: Sequence[int]) -> PrimeIdealRep:
    """Ideal above q addressed by its modulus polynomial (any degree)."""
    _check_q_size(q, Q_MAX)
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    wanted = tuple(c % q for c in coeffs)
    if len(wanted) == 2 and wanted[1] == 1:
        return ideal_from_root(ctx, q, (q - wanted[0]) % q)
    for ideal in split_prime(ctx, q):
        if ideal.modulus == wanted:
            return ideal
    raise ValueError("modulus does not label a prime ideal above q")


def galois_image(ideal: PrimeIdealRep, k: int) -> PrimeIdealRep:
    """The image of the ideal under zeta -> zeta^k.

    Its root is w^(1/k): reducing zeta^k - w' to zero forces the new
    image of zeta to be the k-th-inverse power of the old one.  The
    Frobenius orbit of that root is w^(q^i/k), i < f, read off
    ``w_powers``.
    """
    p, q = ideal.ctx.p, ideal.q
    k %= p
    if k == 0:
        raise ValueError("galois index must be nonzero modulo p")
    inv = pow(k, -1, p)
    orbit = [ideal.w_powers[inv * pow(q, i, p) % p] for i in range(ideal.f)]
    return _orbit_ideal(ideal.ctx, q, orbit, ideal.field_modulus)


def ideal_to_json(ideal: PrimeIdealRep) -> dict:
    """JSON-friendly ideal label: {"q", "f", "w", "modulus"[, "field_modulus"]}."""
    if ideal.f == 1:
        w = str(ideal.w)
    else:
        w = ",".join(str(c) for c in ideal.w)
    out = {
        "q": ideal.q,
        "f": ideal.f,
        "w": w,
        "modulus": [str(c) for c in ideal.modulus],
    }
    if ideal.field_modulus is not None:
        out["field_modulus"] = [str(c) for c in ideal.field_modulus]
    return out
