"""Regularity data for prime cyclotomic fields.

Exact Bernoulli numbers, irregular pairs from the Bernoulli numbers
modulo p (one Newton inversion of a power series over F_p), the
relative class number h^- reconstructed by CRT from its residues
modulo word primes under an exact bound on h^- itself, and one-sided
witnesses that a cyclotomic-unit eigencomponent is not a p-th power.

Every function taking a prime p accepts only odd primes p < P_MAX = 2^20
(``cycint.check_p``) and raises ValueError otherwise, before it builds
any table of about p entries.

The witness search is one-sided by design: a nonzero residue symbol of
the eigencomponent proves it is not a p-th power in the field, while an
all-zero result is merely inconclusive and is never reported as a
failure of Vandiver's conjecture.
"""

from __future__ import annotations

import threading
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .cycint import FieldCtx, InternalError, check_p, field_ctx, kronecker_mul
from .ntheory import is_prime, primitive_root, root_of_unity
from .powsym import residue_symbol
from .resfield import PrimeIdealRep, split_prime

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "IrregularPair",
    "VandiverWitness",
    "bernoulli",
    "irregular_pairs",
    "h_minus",
    "vandiver_witness",
    "eigencomponent_symbol",
]


class IrregularPair(NamedTuple):
    """(p, k): even k in [2, p-3] with p dividing the numerator of B_k."""

    p: int
    k: int


class VandiverWitness(NamedTuple):
    """Certificate (q, w, e): at the degree-1 ideal of root w above q the
    k-eigencomponent of the cyclotomic units has symbol exponent e != 0."""

    pair: IrregularPair
    q: int
    w: int
    e: int


_bern: list[Fraction] = []
_bern_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact B_n (convention B_1 = -1/2) via the binomial recurrence.

    sum_{j=0}^{n} C(n+1, j) B_j = 0 with B_0 = 1; results are memoized.
    ``fractions`` is imported on the first call, not with the package:
    nothing else here needs it, and importing it costs every process.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n < len(_bern):
        return _bern[n]
    from fractions import Fraction

    with _bern_lock:
        if not _bern:
            _bern.append(Fraction(1))
        while len(_bern) <= n:
            m = len(_bern)
            s = sum(comb(m + 1, j) * _bern[j] for j in range(m))
            _bern.append(-s / (m + 1))
    return _bern[n]


def _bernoulli_mod_p(p: int) -> list[int]:
    """B_n mod p for 0 <= n <= p-3, all p-integral there (von Staudt-Clausen).

    Inverts (e^x - 1)/x = sum_i x^i/(i+1)! as a power series over F_p;
    the inverse x/(e^x - 1) has coefficients B_n/n!.  Newton iteration
    doubles the precision of the inverse g each step: if f*g = 1 + x^k*e
    mod x^(2k), then g - x^k*e*g is the inverse mod x^(2k).  Both
    truncated products are Kronecker-packed integer products, and the
    inverse factorials come from one modular inversion.
    """
    size = p - 2
    fact = [1] * (size + 1)
    for i in range(1, size + 1):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [1] * (size + 1)
    inv_fact[size] = pow(fact[size], -1, p)
    for i in range(size, 1, -1):
        inv_fact[i - 1] = inv_fact[i] * i % p
    series = inv_fact[1:]
    inverse = [1]
    while len(inverse) < size:
        k = len(inverse)
        n = min(2 * k, size)
        error = _mul_mod(series[:n], inverse, p, k, n)
        inverse += [-c % p for c in _mul_mod(inverse[: n - k], error, p, 0, n - k)]
    return [c * f % p for c, f in zip(inverse, fact)]


def _mul_mod(a: list[int], b: list[int], p: int, lo: int, hi: int) -> list[int]:
    """Coefficients lo..hi-1 of a*b over F_p; a and b hold values in [0, p)."""
    bound = min(len(a), len(b)) * (p - 1) ** 2
    return [c % p for c in kronecker_mul(a, b, bound, lo, hi)]


def irregular_pairs(p: int) -> list[IrregularPair]:
    """All even k in [2, p-3] with p | numerator(B_k); empty iff p regular."""
    check_p(p)
    bern = _bernoulli_mod_p(p)
    return [IrregularPair(p, k) for k in range(2, p - 2, 2) if bern[k] == 0]


def h_minus(p: int) -> int:
    """Relative class number h^- of the p-th cyclotomic field, exactly.

    With m = (p-1)/2, g the least primitive root and
    G(T) = sum_{t<m} c_t T^t, c_t = 2*(g^t mod p) - p, the analytic class
    number formula h^- = 2p * prod over odd characters chi of
    (-B_{1,chi}/2) reads h^- = (-1)^m * P / (2p)^(m-1) with the rational
    integer P = prod_{j odd} G(omega^j), omega a primitive (p-1)-th root
    of unity (Washington, Introduction to Cyclotomic Fields, Thm 4.17).

    P is evaluated modulo word primes l = 1 (mod p-1), and each residue
    is turned into h^- mod l; CRT rebuilds h^- itself, never P.  It stops
    once modulus^2 > S^m // (2p)^(2m-2), S = sum_t c_t^2.  That bound on
    (h^-)^2 is exact: the m points omega^j, j odd, are the roots of
    T^m = -1, so by Parseval over them (deg G < m) the |G(omega^j)|^2
    sum to m*S, and AM-GM gives P^2 <= S^m.  Hence modulus > h^- and the
    least nonnegative CRT value is h^-.  One spare prime guards the
    evaluation: its residue must match the value, which must be
    positive, or InternalError is raised.
    """
    check_p(p)
    n = p - 1
    m = n // 2
    g = primitive_root(p)
    coeffs = []
    a = 1
    for _ in range(m):
        coeffs.append(2 * a - p)
        a = a * g % p
    bound = sum(c * c for c in coeffs) ** m // (2 * p) ** (2 * m - 2)
    scale = (-1) ** m * (2 * p) ** (m - 1)
    value, modulus = 0, 1
    ell = ((1 << 62) - 2) // n * n + 1
    while True:
        ell -= n
        if not is_prime(ell):
            continue
        r = _odd_character_product(coeffs, n, ell) * pow(scale, -1, ell) % ell
        if modulus * modulus > bound:
            break
        # Garner step: keep value = h^- mod modulus, 0 <= value < modulus
        t = (r - value) * pow(modulus % ell, -1, ell) % ell
        value += modulus * t
        modulus *= ell
    if r != value % ell or value <= 0:
        raise InternalError(f"h^-({p}) evaluation failed its spare-prime check")
    return value


def _odd_character_product(coeffs: list[int], n: int, ell: int) -> int:
    """prod_{k<m} G(omega^(2k+1)) mod ell, omega of order n in F_ell.

    Chirp-z (Bluestein): 2kt = k^2 + t^2 - (k-t)^2 turns the m values
    into omega^(k^2) * C[k+m-1], C the convolution of
    A_t = c_t omega^(t^2+t) with B_d = omega^(-(d-m+1)^2); the chirps are
    built incrementally and C is one Kronecker-packed integer product.
    """
    m = len(coeffs)
    omega = root_of_unity(n, ell)
    omega2 = omega * omega % ell
    chirp_a, step = [], omega2  # omega^(t^2+t); ratio omega^(2t+2)
    cur = 1
    for c in coeffs:
        chirp_a.append(c * cur % ell)
        cur = cur * step % ell
        step = step * omega2 % ell
    inv_omega = pow(omega, -1, ell)
    inv_omega2 = inv_omega * inv_omega % ell
    chirp_b, step = [], inv_omega  # omega^(-s^2); ratio omega^(-2s-1)
    cur = 1
    for _ in range(m):
        chirp_b.append(cur)
        cur = cur * step % ell
        step = step * inv_omega2 % ell
    chirp_b = chirp_b[:0:-1] + chirp_b
    conv = kronecker_mul(chirp_a, chirp_b, m * (ell - 1) ** 2, m - 1, 2 * m - 1)
    total = pow(omega, (m - 1) * m * (2 * m - 1) // 6 % n, ell)
    for c in conv:
        total = total * c % ell
    return total


def vandiver_witness(p: int, k: int, q_candidates: int) -> VandiverWitness | None:
    """Search the first q_candidates primes q = 1 mod p for a witness.

    Tries every degree-1 ideal above each candidate q in canonical order
    with :func:`eigencomponent_symbol`.  Returns the first (q, ideal)
    certificate with e != 0, or None if every candidate yields 0
    (inconclusive).
    """
    pairs = {pair.k for pair in irregular_pairs(p)}
    if k not in pairs:
        raise ValueError(f"({p}, {k}) is not an irregular pair")
    if q_candidates < 1:
        raise ValueError("q_candidates must be >= 1")
    ctx = field_ctx(p)
    seen = 0
    m = 2
    while seen < q_candidates:
        q = m * p + 1
        m += 2
        if not is_prime(q):
            continue
        seen += 1
        for ideal in split_prime(ctx, q):
            e = eigencomponent_symbol(ctx, k, ideal)
            if e:
                return VandiverWitness(IrregularPair(p, k), q, ideal.w, e)
    return None


def eigencomponent_symbol(ctx: FieldCtx, k: int, ideal: PrimeIdealRep) -> int:
    """Symbol exponent of the k-eigencomponent unit at the given ideal.

    Fixes g = smallest primitive root mod p, u = unit_minus(g) and the
    exponent vector n_a = a^(-k) mod p (representatives in [0, p)); the
    eigencomponent is prod_a sigma_a(u)^(n_a), and its symbol exponent is
    sum_a n_a * symbol(sigma_a(u)) mod p.  The power product is never
    expanded in Z[zeta], and neither are the conjugates: the residue of
    sigma_a(u) is u evaluated at w^a, where
    u = zeta^shift * (1 + zeta + ... + zeta^(g-1)), shift = (1-g)/2 mod p.
    Changing the representatives n_a alters e only by p-th-power
    contributions, so whether e vanishes does not depend on that choice.
    """
    p, q = ctx.p, ideal.q
    g = primitive_root(p)
    shift = (1 - g) * ctx.inv2 % p
    points = ideal.w_powers
    total = 0
    for a in range(1, p):
        terms = [points[a * (shift + i) % p] for i in range(g)]
        if ideal.f == 1:
            value = sum(terms) % q
        else:
            value = tuple(sum(col) % q for col in zip(*terms))
        total += pow(pow(a, k, p), -1, p) * residue_symbol(ideal, value)
    return total % p
