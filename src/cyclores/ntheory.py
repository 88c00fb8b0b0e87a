"""Integer utilities: primality, sieves, orders, exact roots."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod

__all__ = [
    "PSI_12",
    "is_prime",
    "primes_upto",
    "factorize",
    "multiplicative_order",
    "root_of_unity",
    "primitive_root",
    "iroot",
    "kth_root_exact",
    "valuation",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Sieve lookup below 2^11, one gcd with the primes below 2^11, then
    strong-pseudoprime tests.

    Below 2^64 the bases are Jim Sinclair's seven (2011), each reduced
    mod n and a 0 skipped, which admit no composite there: checked
    against Feitsma and Galway's list of every base-2 strong pseudoprime
    below 2^64.  Above, they are the twelve primes 2..37, which admit none
    below PSI_12 (about 3.19e23), the least composite passing them all
    (Sorenson and Webster, Math. Comp. 86 (2017)).  False is always
    proven, by a divisor or a witness base; an n >= PSI_12 that passes
    every base raises ValueError instead of returning True.
    """
    if n < 2048:
        return n in _SMALL_PRIMES
    if gcd(n, _SMALL_PRODUCT) != 1:
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _SINCLAIR_BASES if n < 1 << 64 else _MR_BASES:
        if a % n == 0:  # n divides a Sinclair base
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_12:
        raise ValueError(f"cannot prove primality at or above {PSI_12}")
    return True


@lru_cache(maxsize=16)
def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by a byte sieve."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = frozenset(primes_upto(2047))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; meant for small n."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in (Z/p)^x, p prime."""
    a %= p
    if a == 0:
        raise ValueError("a must be invertible mod p")
    order = p - 1
    for r in factorize(p - 1):
        while order % r == 0 and pow(a, order // r, p) == 1:
            order //= r
    return order


def root_of_unity(n: int, q: int) -> int:
    """The first u^((q-1)/n), u = 1, 2, ..., of order exactly n mod the prime q.

    n must divide q - 1; with n = q - 1 this is the least primitive root.
    """
    if n < 1 or (q - 1) % n:
        raise ValueError(f"n={n} does not divide q - 1 = {q - 1}")
    cofactor = (q - 1) // n
    primes = tuple(factorize(n))
    for u in range(1, q):
        w = pow(u, cofactor, q)
        if all(pow(w, n // r, q) != 1 for r in primes):
            return w
    raise ValueError(f"no element of order {n} mod {q}; is {q} prime?")


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the prime p."""
    return root_of_unity(p - 1, p)


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 (integer Newton iteration)."""
    if n < 0:
        raise ValueError("iroot requires n >= 0")
    if k < 1:
        raise ValueError("iroot requires k >= 1")
    if n < 2 or k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def kth_root_exact(n: int, k: int) -> int | None:
    """Exact integer k-th root of n, or None.  Negative n ok for odd k."""
    if n < 0:
        if k % 2 == 0:
            return None
        r = kth_root_exact(-n, k)
        return None if r is None else -r
    r = iroot(n, k)
    return r if r**k == n else None


def valuation(n: int, p: int) -> tuple[int, int]:
    """(v, n / p**v) with p**v the exact power of p dividing n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n
