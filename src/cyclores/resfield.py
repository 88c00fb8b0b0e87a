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
  the Cantor-Zassenhaus factor that vanishes at w, and ideals are listed
  by increasing w.

A residue-field element is written as the ideal's ``w`` is: an int in
[0, q) at f = 1, else a little-endian coefficient tuple of fixed length
f over the ideal's field F_q[t]/(field_modulus), entries in [0, q).
Everything here is immutable.

An ideal's table ``w_powers`` of w^0..w^(p-1) is the one source of
residue-field values.  Reduction is a dot product with it: the image of
sum a_i zeta^i is sum a_i w^i, taken per coordinate at f > 1.  The
Frobenius conjugates of w^j are w^(j q^i), i < f, read off it by index;
so is the orbit of the root w^(1/k) of a Galois image.

F_q[t] has one product (``cycint.kronecker_mul`` reduced mod q; its
operands are residues, so their digits are packed unsigned), one
division (by a monic divisor) and one power table (``_powers``, which
``regulab`` shares).  A power mod a modulus of degree 8 or more reduces
by a reciprocal that the division computes once per power
(``_barrett``), so each squaring takes three products and no division.
``SPLIT_WORK_MAX`` caps the work of a split at f > 1.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from itertools import accumulate, islice, repeat
from operator import mul
from typing import Sequence

from .cycint import ContextMismatchError, CycInt, FieldCtx, Frozen, InternalError, kronecker_mul
from .ntheory import is_prime, multiplicative_order, root_of_unity

__all__ = [
    "Q_MAX",
    "SPLIT_WORK_MAX",
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


#: Exclusive upper limit on q for an ideal addressed by its root, its
#: modulus or the element x*zeta + s*y it divides, and on q^f for a
#: symbol (``powsym``).  Checked before any
#: primality test, whose cost grows with q.
Q_MAX = 1 << 128

#: Exclusive ceiling on (p-1)^2 f bits(q), the work of a split at f > 1
#: (Cantor-Zassenhaus powers mod degree p - 1 have about f bits(q) bits),
#: set by running time.  That work is real only where Cantor-Zassenhaus
#: has factors to separate, (p-1)/f >= 2: an inert split returns Phi_p
#: at once, but is refused past the ceiling too.  On a 2-core x86-64
#: machine (CPython 3.11), near it: p = 349, q = 62819 (f = 2) 0.4-0.6 s;
#: p = 181, q = 2305843009213696751 (62 bits, f = 2) 1.1-1.2 s; p = 127,
#: q = 3 (f = 126, inert) 0.01 s.  Past it: p = 157, q = 50893 (f = 78)
#: 0.4 s; p = 181, q = 2 (f = 180, inert) 0.02 s.
SPLIT_WORK_MAX = 1 << 22


def _check_q(p: int, q: int, limit: int) -> None:
    # q must be a prime below limit other than p.  Its size comes first,
    # as a primality test's cost grows with q, and names q's length only
    if not -limit < q < limit:
        raise ValueError(f"q has {q.bit_length()} bits; it must be below 2^{limit.bit_length() - 1}")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if q == p:
        raise ValueError("q = p is ramified")


def _check_split_work(p: int, q: int, f: int) -> None:
    if f > 1 and (p - 1) ** 2 * f * q.bit_length() >= SPLIT_WORK_MAX:
        raise ValueError(f"p={p}, f={f}: the split work (p-1)^2 f bits(q) is past SPLIT_WORK_MAX")


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
        p, q, f, m0 = self.ctx.p, self.q, self.f, self.field_modulus
        if f == 1:
            return tuple(_powers(self.w, p, lambda a, b: a * b % q))
        return tuple(_powers(self.w, p, lambda u, v: _fmul(u, v, m0, q, f), _ftup((1,), f)))

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
    """The product over F_q, trimmed, of two integer coefficient lists."""
    if not a or not b:
        return []
    return _ptrim([c % q for c in kronecker_mul(a, b, 0, len(a) + len(b) - 1)])


def _pdivmod(a: Sequence[int], m: Sequence[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder, trimmed, of a by the monic m over F_q."""
    rem = [c % q for c in a]
    dm = len(m) - 1
    quot = [0] * max(0, len(rem) - dm)
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i]
        if c:
            quot[i - dm] = c
            # zip stops before m's leading 1, whose term rem[i] is dropped below
            rem[i - dm : i] = [(r - c * mj) % q for r, mj in zip(rem[i - dm : i], m)]
    del rem[dm:]
    return _ptrim(quot), _ptrim(rem)


def _pgcd(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    """The monic gcd over F_q; each divisor is made monic first, which
    leaves the gcd as it is."""
    a = _ptrim([c % q for c in a])
    b = _ptrim([c % q for c in b]) or a
    while b:
        inv = pow(b[-1], -1, q)
        monic = [c * inv % q for c in b]
        a, b = monic, _pdivmod(a, monic, q)[1]
    return a


# Least modulus degree at which _ppowmod reduces by _barrett.  Below it
# the long division is cheaper: on a 2-core x86-64 machine (CPython
# 3.11), with q near 2^16 and 2^61, a power took 1.1-2.0x the long
# division's time at degrees 2-7, 0.99-1.04x at 8 and 0.89-0.90x at 10.
_BARRETT_DEGREE = 8


def _barrett(m: Sequence[int], q: int):
    """Reduction mod the monic m, of degree n >= 2 over F_q, of a trimmed
    product a = top t^n + low of two residues, so deg a <= 2n - 2.

    Barrett's method with the reciprocal mu = t^(2n-2) // m, of degree
    n - 2, whose reversal is rev(m)^(-1) mod t^(n-1) (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, 9.1): the quotient a // m is
    coefficients n-2.. of top mu, and the remainder is low minus the
    quotient times m, mod t^n.  Two products and no long division.
    """
    n = len(m) - 1
    mu = _pdivmod([0] * (2 * n - 2) + [1], m, q)[0]
    low = m[:n]

    def reduce(a: list[int]) -> list[int]:
        top = a[n:]
        if not top:
            return a
        quot = [c % q for c in kronecker_mul(top, mu, n - 2, n - 2 + len(top))]
        return _ptrim([(x - y) % q for x, y in zip(a, kronecker_mul(quot, low, 0, n))])

    return reduce


def _ppowmod(base: Sequence[int], e: int, m: Sequence[int], q: int) -> list[int]:
    """base^e mod the monic m over F_q, by squaring; each product is
    reduced by ``_barrett`` from degree ``_BARRETT_DEGREE`` on."""
    reduce = _barrett(m, q) if len(m) > _BARRETT_DEGREE else lambda a: _pdivmod(a, m, q)[1]
    out = [1]
    base = _pdivmod(base, m, q)[1]
    while e:
        if e & 1:
            out = reduce(_pmul(out, base, q))
        e >>= 1
        if e:
            base = reduce(_pmul(base, base, q))
    return out


def _powers(w, n: int, mul, one=1) -> list:
    """w^0..w^(n-1) under the product mul, whose unit is one."""
    return list(islice(accumulate(repeat(w), mul, initial=one), n))


# fixed-length residue-field helpers (length f, zero padded)

def _ftup(cs: Sequence[int], f: int) -> tuple[int, ...]:
    return tuple(cs) + (0,) * (f - len(cs))


def _fmul(u, v, m0, q, f) -> tuple[int, ...]:
    return _ftup(_pdivmod(_pmul(u, v, q), m0, q)[1], f)


def _fpow(u, e, m0, q, f) -> tuple[int, ...]:
    return _ftup(_ppowmod(u, e, m0, q), f)


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
                acc = sq = _ftup(r, len(cur) - 1)
                for _ in range(f - 1):
                    sq = _fmul(sq, sq, cur, 2, len(cur) - 1)
                    acc = tuple((x + y) % 2 for x, y in zip(acc, sq))
                g = _pgcd(cur, acc, 2)
            else:
                h = _ppowmod(r, (q**f - 1) // 2, cur, q) or [0]
                h[0] -= 1
                g = _pgcd(cur, h, q)
            if 0 < len(g) - 1 < len(cur) - 1:
                quot, rem = _pdivmod(cur, g, q)  # g is monic
                if rem:
                    raise InternalError("factor does not divide its parent")
                stack.append(g)
                stack.append(quot)
                break
    return out


@lru_cache(maxsize=256)
def split_prime(ctx: FieldCtx, q: int) -> tuple[PrimeIdealRep, ...]:
    """All prime ideals of Z[zeta] above q, in canonical order."""
    p = ctx.p
    _check_q(p, q, 1 << 63)
    f = multiplicative_order(q, p)
    _check_split_work(p, q, f)
    if f == 1:
        roots = _powers(root_of_unity(p, q), p, lambda a, b: a * b % q)[1:]
        return tuple(_degree_one(ctx, q, w) for w in sorted(roots))
    factors = sorted(_equal_degree_factor([1] * p, f, q))
    m0 = factors[0]
    # every p-th root of unity is a power of t; orbits are cosets of <q>
    tpows = _powers(_ftup((0, 1), f), p, lambda u, v: _fmul(u, v, m0, q, f), _ftup((1,), f))
    subgroup = [pow(q, i, p) for i in range(f)]
    ideals = []
    for coset in {frozenset(j * h % p for h in subgroup) for j in range(1, p)}:
        # the orbit's modulus is the factor g with g(t^j) = 0: a dot
        # product of g's coefficients with t^(ij), i <= f, per coordinate
        j = min(coset)
        rows = [tpows[i * j % p] for i in range(f + 1)]
        modulus = next((g for g in factors
                        if not any(sum(map(mul, g, column)) % q for column in zip(*rows))), None)
        if modulus is None:
            raise InternalError("no factor vanishes on a Frobenius orbit")
        w = min(tpows[jj] for jj in coset)
        ideals.append(PrimeIdealRep(ctx, q, f, w, modulus, m0))
    return tuple(sorted(ideals, key=lambda ideal: ideal.w))


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
    _check_q(p, q, Q_MAX)
    w = -sign * y * pow(x, -1, q) % q
    if w == 1 or pow(w, p, q) != 1:
        return None
    return _degree_one(ctx, q, w)


def ideal_from_root(ctx: FieldCtx, q: int, w: int) -> PrimeIdealRep:
    """Degree-1 ideal above q with zeta mapping to the given root w."""
    p = ctx.p
    _check_q(p, q, Q_MAX)
    w %= q
    if w in (0, 1) or pow(w, p, q) != 1:
        raise ValueError(f"w={w} does not have multiplicative order {p} mod {q}")
    return _degree_one(ctx, q, w)


def ideal_from_modulus(ctx: FieldCtx, q: int, coeffs: Sequence[int]) -> PrimeIdealRep:
    """Ideal above q addressed by its modulus: a monic degree-f divisor of
    the p-th cyclotomic polynomial mod q, which is checked before any split."""
    p = ctx.p
    _check_q(p, q, Q_MAX)
    wanted = tuple(c % q for c in coeffs)
    f = multiplicative_order(q, p)
    if len(wanted) - 1 != f or wanted[-1] != 1:
        raise ValueError(f"the modulus must be monic of degree f={f}")
    _check_split_work(p, q, f)
    if _pdivmod([1] * p, wanted, q)[1]:
        raise ValueError("the modulus does not divide the cyclotomic polynomial mod q")
    if f == 1:
        return _degree_one(ctx, q, -wanted[0] % q)
    # a monic degree-f divisor is one of the irreducible factors
    return {ideal.modulus: ideal for ideal in split_prime(ctx, q)}[wanted]


def galois_image(ideal: PrimeIdealRep, k: int) -> PrimeIdealRep:
    """The image of the ideal under zeta -> zeta^k.

    Its root is w^(1/k): reducing zeta^k - w' to zero forces the new
    image of zeta to be the k-th-inverse power of the old one.  At f = 1
    that root names the ideal, with no split.  At f > 1 the image is the
    ideal of ``split_prime`` whose w is the least of the root's Frobenius
    orbit w^(q^i/k), i < f, read off ``w_powers``.
    """
    p, q = ideal.ctx.p, ideal.q
    k %= p
    if k == 0:
        raise ValueError("galois index must be nonzero modulo p")
    inv = pow(k, -1, p)
    if ideal.f == 1:
        return _degree_one(ideal.ctx, q, ideal.w_powers[inv])
    w = min(ideal.w_powers[inv * pow(q, i, p) % p] for i in range(ideal.f))
    return {image.w: image for image in split_prime(ideal.ctx, q)}[w]


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
