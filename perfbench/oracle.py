"""Independent arithmetic for generating inputs and checking outputs.

Nothing here imports ``cyclores``: every expected value is recomputed
with plain modular arithmetic, closed forms, sympy or published tables,
so a check can never agree with the program merely because both call
the same code.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from sympy import bernoulli, isprime

# OEIS A000927: relative class number h^- of Q(zeta_p), p prime <= 101.
H_MINUS_A000927 = {
    3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 3, 29: 8, 31: 9,
    37: 37, 41: 121, 43: 211, 47: 695, 53: 4889, 59: 41241, 61: 76301,
    67: 853513, 71: 3882809, 73: 11957417, 79: 100146415,
    83: 838216959, 89: 13379363737, 97: 411322824001,
    101: 3547404378125,
}


@lru_cache(maxsize=4)
def primes_upto(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return tuple(i for i, f in enumerate(flags) if f)


def primes_between(lo: int, hi: int) -> list[int]:
    return [r for r in primes_upto(hi) if r >= lo]


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def order_mod(a: int, p: int) -> int:
    """Multiplicative order of a modulo the prime p."""
    order = p - 1
    for r in prime_factors(p - 1):
        while order % r == 0 and pow(a, order // r, p) == 1:
            order //= r
    return order


def smallest_generator(p: int) -> int:
    return next(g for g in range(2, p) if order_mod(g, p) == p - 1)


def root_of_order(p: int, q: int) -> int:
    """Some element of order p in F_q (q = 1 mod p)."""
    return next(z for z in (pow(u, (q - 1) // p, q) for u in range(2, q)) if z != 1)


# ----------------------------------------------------------------------
# residue symbols at the degree-1 ideal of root w above q

class DegreeOne:
    """Symbol exponents at the ideal where zeta reduces to w (mod q)."""

    def __init__(self, p: int, q: int, w: int):
        self.p, self.q, self.w = p, q, w
        self.pw = [pow(w, e, q) for e in range(p)]
        self.dlog = {v: e for e, v in enumerate(self.pw)}
        self.exp = (q - 1) // p

    def sym(self, value: int) -> int | None:
        """e with value^((q-1)/p) = w^e mod q; None when q divides value."""
        value %= self.q
        if value == 0:
            return None
        return self.dlog[pow(value, self.exp, self.q)]

    def at(self, coeffs) -> int:
        """Value of sum c_i zeta^i at zeta = w."""
        return sum(c * self.pw[i % self.p] for i, c in enumerate(coeffs)) % self.q

    def geometric(self, shift: int, a: int, sign: int) -> int:
        """w^shift (w^a - sign) / (w - sign): the closed-form unit at w."""
        q, pw = self.q, self.pw
        num = (pw[a % self.p] - sign) % q
        den = (pw[1] - sign) % q
        return pw[shift % self.p] * num * pow(den, -1, q) % q


def scan_symbols(p: int, x: int, y: int, sign: int, ideal: DegreeOne) -> dict:
    """The symbol table a scan record carries, from closed forms."""
    inv2 = (p + 1) // 2
    table = {"zeta": ideal.exp % p, "x+y": ideal.sym(x + y)}
    family, unit_sign = ("unit_minus", 1) if sign == 1 else ("unit_plus", -1)
    for k in range(1, p - 1):
        table[f"x+zeta^{k}*y"] = ideal.sym(x + ideal.pw[k] * y)
        j = k + 1
        table[f"{family}[{j}]"] = ideal.sym(ideal.geometric((1 - j) * inv2, j, unit_sign))
    return table


def scan_factors(p: int, x: int, y: int, sign: int, trial_bound: int):
    """(N, primes q found, unfactored cofactor or None) for one scan.

    Every prime factor of N besides p is 1 mod 2p, so trial division
    steps through that progression; a composite d never divides what is
    left because its smaller prime factors were removed first.
    """
    n = (x**p + sign * y**p) // (x + sign * y)
    rem = n
    while rem % p == 0:
        rem //= p
    found = []
    d = 2 * p + 1
    while d <= trial_bound and d * d <= rem:
        if rem % d == 0:
            found.append(d)
            while rem % d == 0:
                rem //= d
        d += 2 * p
    cofactor = None
    if rem > 1:
        if rem.bit_length() <= 63 and isprime(rem):
            found.append(rem)
        else:
            cofactor = rem
    return n, sorted(found), cofactor


def scan_root(p: int, x: int, y: int, sign: int, q: int) -> int:
    """w with x*w + sign*y = 0 mod q."""
    return -sign * y * pow(x, -1, q) % q


def scan_record(p: int, x: int, y: int, sign: int, n: int, q: int) -> dict:
    """A scan record in the program's JSON layout, built independently."""
    w = scan_root(p, x, y, sign, q)
    return {
        "p": p, "x": x, "y": y, "sign": "plus" if sign == 1 else "minus",
        "N": str(n), "q": q, "q_mod_p2": q % (p * p),
        "ideal": {"q": q, "f": 1, "w": str(w), "modulus": [str((q - w) % q), "1"]},
        "symbols": scan_symbols(p, x, y, sign, DegreeOne(p, q, w)),
    }


# ----------------------------------------------------------------------
# polynomials over F_q, little-endian coefficient lists

def poly_rem(a: list[int], m: list[int], q: int) -> list[int]:
    """a mod the monic m over F_q."""
    a = [c % q for c in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % q
    return a[:dm]


def field_mul(u, v, m0, q):
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] += a * b
    out = poly_rem(prod, m0, q)
    return tuple(out + [0] * (len(m0) - 1 - len(out)))


def field_pow(u, e, m0, q):
    out = tuple([1] + [0] * (len(m0) - 2))
    while e:
        if e & 1:
            out = field_mul(out, u, m0, q)
        u = field_mul(u, u, m0, q)
        e >>= 1
    return out


def field_eval(poly, w, m0, q):
    """Horner value of an F_q polynomial at w in F_q[t]/(m0)."""
    f = len(m0) - 1
    acc = tuple([0] * f)
    for c in reversed(poly):
        acc = field_mul(acc, w, m0, q)
        acc = ((acc[0] + c) % q,) + acc[1:]
    return acc


# ----------------------------------------------------------------------
# regularity data

@lru_cache(maxsize=None)
def irregular_ks(p: int) -> tuple[int, ...]:
    """Even k in [2, p-3] with p dividing the numerator of B_k (sympy)."""
    return tuple(k for k in range(2, p - 2, 2) if bernoulli(k).p % p == 0)


def h_minus_mod(p: int, ell: int) -> int:
    """h^- mod ell by the product formula h^- = 2p prod_{chi odd} (-B_{1,chi}/2),
    evaluated exactly in F_ell with ell = 1 mod (p-1) (Washington Thm 4.17)."""
    n = p - 1
    g = smallest_generator(p)
    a = [pow(g, t, p) for t in range(n)]
    omega = next(z for z in (pow(u, (ell - 1) // n, ell) for u in range(2, ell))
                 if order_mod(z, ell) == n)
    opow = [pow(omega, i, ell) for i in range(n)]
    prod = 1
    for j in range(1, n, 2):
        prod = prod * sum(a[t] * opow[j * t % n] for t in range(n)) % ell
    scale = -pow(2 * p, -1, ell) % ell
    return 2 * p * pow(scale, n // 2, ell) * prod % ell


def check_primes_for(p: int, count: int = 2) -> list[int]:
    """The first primes ell = 1 mod (p-1) above 2^31."""
    out, ell = [], (1 << 31) // (p - 1) * (p - 1) + 1
    while len(out) < count:
        if isprime(ell):
            out.append(ell)
        ell += p - 1
    return out


def eigencomponent_symbol(p: int, k: int, ideal: DegreeOne) -> int:
    """Symbol of prod_a sigma_a(u)^(a^-k), u = unit_minus(g), at the ideal,
    from sigma_a(u)(w) = u(w^a) = w^(a*shift) (w^(a*g) - 1)/(w^a - 1)."""
    g = smallest_generator(p)
    shift = (1 - g) * ((p + 1) // 2) % p
    q, pw = ideal.q, ideal.pw
    total = 0
    for a in range(1, p):
        value = pw[a * shift % p] * (pw[a * g % p] - 1) * pow(pw[a] - 1, -1, q)
        total += pow(pow(a, k, p), -1, p) * ideal.sym(value)
    return total % p


def vandiver_candidates(p: int, count: int) -> list[int]:
    out, m = [], 2
    while len(out) < count:
        if isprime(m * p + 1):
            out.append(m * p + 1)
        m += 2
    return out


def roots_of_unity(p: int, q: int) -> list[int]:
    z = root_of_order(p, q)
    return sorted(pow(z, i, q) for i in range(1, p))


# ----------------------------------------------------------------------
# cyclotomic units on the power basis 1, zeta, ..., zeta^(p-2)

def reduce_vec(vec: list[int], p: int) -> list[int]:
    d = vec[p - 1]
    return [c - d for c in vec[: p - 1]]


def unit_minus_coeffs(p: int, a: int) -> list[int]:
    shift = (1 - a) * ((p + 1) // 2) % p
    vec = [0] * p
    for i in range(a):
        vec[(shift + i) % p] += 1
    return reduce_vec(vec, p)


def times_one_plus_zeta(coeffs: list[int], p: int) -> list[int]:
    vec = list(coeffs) + [0]
    for i, c in enumerate(coeffs):
        vec[i + 1] += c
    return reduce_vec(vec, p)


def unit_plus_numerator(p: int, a: int) -> list[int]:
    """zeta^shift (1 + zeta^a), which unit_plus(a) * (1 + zeta) must equal."""
    shift = (1 - a) * ((p + 1) // 2) % p
    vec = [0] * p
    vec[shift] += 1
    vec[(shift + a) % p] += 1
    return reduce_vec(vec, p)


# ----------------------------------------------------------------------
# Barlow-Abel formats

def exact_root(n: int, k: int) -> int | None:
    if n < 0:
        r = exact_root(-n, k) if k % 2 else None
        return None if r is None else -r
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**k == n else None


def barlow_holds(p: int, x: int, y: int, z: int) -> list[bool]:
    first = exact_root(x + y, p) is not None
    second = False
    s = x + z
    if s:
        v, rest = 0, s
        while rest % p == 0:
            rest //= p
            v += 1
        second = v >= p - 1 and (v + 1) % p == 0 and exact_root(rest, p) is not None
    coprime = gcd(x, y) == 1 and gcd(y, z) == 1 and gcd(x, z) == 1
    return [first, second, y % p == 0, coprime, x**p + y**p + z**p == 0]
