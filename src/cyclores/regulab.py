"""Regularity data for prime cyclotomic fields.

Exact Bernoulli numbers, irregular pairs from Voronoi's congruence
modulo p, the relative class number h^- rebuilt by CRT from its
residues modulo word primes under an exact bound on h^- itself, and
one-sided witnesses that a cyclotomic-unit eigencomponent is not a
p-th power.  The irregular pairs and each residue of h^- are values of
one chirp-z transform, ``_odd_transform``, of m = (p-1)/2 coefficients
at an omega of order 2m: its chirp repeats up to sign with period m, so
Bluestein's convolution folds to one m x m Kronecker product.

Every function taking a prime p accepts only odd primes p < P_MAX = 2^20
(``cycint.check_p``) and raises ValueError otherwise, before it builds
any table of about p entries.  ``h_minus`` also needs p < HMINUS_P_MAX,
and ``irregular_pairs``, so ``vandiver_witness`` too, p < IRREGULAR_P_MAX.

A word prime of h^- at p = 2m + 1 is a prime l = 1 (mod p-1) with
l^2 m < 2^63.  Every digit of its transform's product, a sum of at most
m products of residues below l, then fits in 8 bytes, and every other
step works on one-digit ints.

The witness search is one-sided by design: a nonzero residue symbol of
the eigencomponent proves it is not a p-th power in the field, while an
all-zero result is merely inconclusive and is never reported as a
failure of Vandiver's conjecture.  By its twist law the eigencomponent's
symbol at one ideal above q decides every ideal above q.
"""

from __future__ import annotations

from math import comb, isqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .cycint import InternalError, check_p, field_ctx, kronecker_mul
from .ntheory import is_prime, primitive_root, root_of_unity
from .powsym import residue_symbol
from .resfield import PrimeIdealRep, _powers, ideal_from_root

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "HMINUS_P_MAX",
    "IRREGULAR_P_MAX",
    "IrregularPair",
    "VandiverWitness",
    "bernoulli",
    "irregular_pairs",
    "h_minus",
    "vandiver_witness",
    "eigencomponent_symbol",
]


# Exclusive ceiling on the p of h_minus, set by the supply of word primes
# and by running time.  Below it the word primes cover the CRT bound with
# room to spare: at p = 4093 it takes 294 and the spare of 3338, while at
# p = 16381 only 572 exist, all short of the bound.  The time grows like
# p^2.6 to p^2.7: 0.04 s at p = 1009, 0.24 s at 2039 and 1.5 s at 4093 on
# a 2-core x86-64 machine (CPython 3.11).
HMINUS_P_MAX = 1 << 12

# Exclusive ceiling on the p of irregular_pairs, and so of
# vandiver_witness, set by running time, which grows like p^1.5 to p^1.7:
# on a 2-core x86-64 machine (CPython 3.11), 0.33 s at p = 65521 and
# 1.0 s at 131071, the largest p below it; past it 3.2 s at 262139,
# 9.3 s at 524287, and 26 s with a 127 MB peak at 1048573, just below P_MAX.
IRREGULAR_P_MAX = 1 << 17


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


def bernoulli(n: int) -> Fraction:
    """Exact B_n (convention B_1 = -1/2) via the binomial recurrence.

    sum_{j=0}^{n} C(n+1, j) B_j = 0 with B_0 = 1; results are memoized.
    ``fractions`` is imported on the first call, not with the package:
    nothing else here needs it, and importing it costs every process.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    from fractions import Fraction

    if not _bern:
        _bern.append(Fraction(1))
    while len(_bern) <= n:
        m = len(_bern)
        s = sum(comb(m + 1, j) * _bern[j] for j in range(m))
        _bern.append(-s / (m + 1))
    return _bern[n]


def irregular_pairs(p: int) -> list[IrregularPair]:
    """All even k in [2, p-3] with p | numerator(B_k); empty iff p regular.

    Voronoi's congruence, g prime to p and k even: (g^k - 1) B_k =
    k g^(k-1) sum_{0<j<p} j^(k-1) floor(jg/p) (mod p) (Buhler, Crandall,
    Ernvall and Metsankyla, Math. Comp. 61 (1993); Buhler and Harvey,
    Irregular primes to 163 million, Math. Comp. 80 (2011)).  For g the
    least primitive root and 2 <= k <= p-3, g^k - 1, k and g are units,
    so p | B_k iff the sum vanishes.  Pairing j with p - j halves it, as
    floor((p-j)g/p) = g - 1 - floor(jg/p) and (p-j)^(k-1) = -j^(k-1):
    over j = g^i mod p, i < m = (p-1)/2, it is G(g^(k-1)) with
    G(T) = sum_i c_i T^i, c_i = 2 floor(g (g^i mod p)/p) - g + 1.  With
    k - 1 = 2k' + 1, k' < m - 1, one ``_odd_transform`` gives them all.
    """
    check_p(p)
    if p >= IRREGULAR_P_MAX:
        raise ValueError(f"irregular pairs need p < {IRREGULAR_P_MAX}")
    g = primitive_root(p)
    coeffs = [2 * (g * a // p) - g + 1 for a in _powers(g, (p - 1) // 2, lambda a, b: a * b % p)]
    values = _odd_transform(coeffs, (p - 3) // 2, g, p)
    return [IrregularPair(p, 2 * k + 2) for k, v in enumerate(values) if v == 0]


def h_minus(p: int) -> int:
    """Relative class number h^- of the p-th cyclotomic field, exactly.

    With m = (p-1)/2, g the least primitive root and
    G(T) = sum_{t<m} c_t T^t, c_t = 2*(g^t mod p) - p, the analytic class
    number formula h^- = 2p * prod over odd characters chi of
    (-B_{1,chi}/2) reads h^- = (-1)^m * P / (2p)^(m-1) with the rational
    integer P = prod_{j odd} G(omega^j), omega a primitive (p-1)-th root
    of unity (Washington, Introduction to Cyclotomic Fields, Thm 4.17).

    P is evaluated modulo the word primes l = 1 (mod p-1), l^2 m < 2^63,
    taken downward from the largest (``_word_primes``), so each digit of
    a transform's packed product is 8 bytes.  Each residue is turned
    into h^- mod l; CRT rebuilds h^- itself, never P.  It stops
    once modulus^2 > S^m // (2p)^(2m-2), S = sum_t c_t^2.  That bound on
    (h^-)^2 is exact: the m points omega^j, j odd, are the roots of
    T^m = -1, so by Parseval over them (deg G < m) the |G(omega^j)|^2
    sum to m*S, and AM-GM gives P^2 <= S^m.  Hence modulus > h^- and the
    least nonnegative CRT value is h^-.  One spare prime guards the
    evaluation: its residue must match the value, which must be
    positive, or InternalError is raised.

    p must be below HMINUS_P_MAX, or ValueError is raised first.
    """
    check_p(p)
    if p >= HMINUS_P_MAX:
        raise ValueError(f"h_minus needs p < {HMINUS_P_MAX}")
    n = p - 1
    m = n // 2
    coeffs = [2 * a - p for a in _powers(primitive_root(p), m, lambda a, b: a * b % p)]
    bound = sum(c * c for c in coeffs) ** m // (2 * p) ** (2 * m - 2)
    scale = (-1) ** m * (2 * p) ** (m - 1)
    value, modulus = 0, 1
    for ell in _word_primes(n):
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


def _word_primes(n: int) -> Iterator[int]:
    """The primes l = 1 (mod n), n = 2m even, with l^2 m < 2^63, largest
    first; InternalError once they run out."""
    ell = (isqrt(((1 << 63) - 1) // (n // 2)) - 1) // n * n + 1
    while ell > n:
        if is_prime(ell):
            yield ell
        ell -= n
    raise InternalError(f"no word prime = 1 (mod {n}) is left")


def _odd_character_product(coeffs: list[int], n: int, ell: int) -> int:
    """prod_{k<m} G(omega^(2k+1)) mod ell, omega of order n in F_ell: the
    transform's values times omega^(sum_{k<m} k^2)."""
    m = len(coeffs)
    omega = root_of_unity(n, ell)
    total = pow(omega, (m - 1) * m * (2 * m - 1) // 6 % n, ell)
    for value in _odd_transform(coeffs, m, omega, ell):
        total = total * value % ell
    return total


def _odd_transform(coeffs: list[int], count: int, omega: int, ell: int) -> list[int]:
    """G(omega^(2k+1)) * omega^(-k^2) mod ell for k < count, ell prime,
    G(T) = sum_t coeffs[t] T^t and omega^(2m) = 1 (mod ell), m = len(coeffs).

    Chirp-z (Bluestein): 2kt = k^2 + t^2 - (k-t)^2 makes the k-th value
    sum_t A_t B_(k-t) with A_t = c_t omega^(t^2+t) and B_d = omega^(-d^2),
    -m < k-t < m.  As omega^(2m) = 1, B_(d+m) = s B_d with
    s = omega^(-m^2) = +-1, and B_(m-d) = s B_d, so only B_0..B_(m//2)
    are walked and the rest mirrored.  With L the product of A and
    B_0..B_(m-1), one Kronecker-packed m x m integer product, the value is
    L_k + s L_(k+m): a cyclic fold for s = 1 (m even), a negacyclic one
    for s = -1 (m odd and omega^m = -1).  A digit of L sums at most m
    products of residues below ell, so it fits 8 bytes where ell^2 m < 2^63.
    ValueError unless 0 <= count <= m and omega^(2m) = 1, before any
    chirp is built.
    """
    m = len(coeffs)
    if not 0 <= count <= m:
        raise ValueError(f"count must be in [0, {m}]")
    if pow(omega, 2 * m, ell) != 1:
        raise ValueError("omega^(2m) must be 1 modulo ell")
    cyclic = pow(omega, m * m, ell) == 1
    chirp_a = [c * z % ell for c, z in zip(coeffs, _chirp(omega, 1, m, ell))]
    chirp_b = _chirp(pow(omega, -1, ell), 0, m // 2 + 1, ell)
    mirror = chirp_b[(m - 1) // 2:0:-1]
    chirp_b += mirror if cyclic else [ell - b for b in mirror]
    conv = kronecker_mul(chirp_a, chirp_b, 0, 2 * m - 1) + [0]
    if cyclic:
        return [(x + y) % ell for x, y in zip(conv[:count], conv[m:])]
    return [(x - y) % ell for x, y in zip(conv[:count], conv[m:])]


def _chirp(omega: int, c: int, count: int, ell: int) -> list[int]:
    """omega^(s^2 + c*s) mod ell for s < count, by the ratios omega^(2s+1+c)."""
    omega2 = omega * omega % ell
    out, cur, step = [], 1, pow(omega, 1 + c, ell)
    for _ in range(count):
        out.append(cur)
        cur = cur * step % ell
        step = step * omega2 % ell
    return out


def vandiver_witness(p: int, k: int, q_candidates: int) -> VandiverWitness | None:
    """Search the first q_candidates primes q = 1 mod p for a witness.

    Evaluates :func:`eigencomponent_symbol` at the first ideal above each
    candidate q, which decides q by the twist law: the degree-1 ideal of
    the least p-th root of unity w mod q, built alone, as q is not split.
    Returns the first (q, ideal) certificate with e != 0, or None if every
    candidate yields 0 (inconclusive).  The checks on k and q_candidates that need no
    Bernoulli data come before ``irregular_pairs``.
    """
    check_p(p)
    if k % 2 or not 2 <= k <= p - 3:
        raise ValueError(f"k must be even and in [2, p-3] for p = {p}")
    if q_candidates < 1:
        raise ValueError("q_candidates must be >= 1")
    if IrregularPair(p, k) not in irregular_pairs(p):
        raise ValueError(f"k is not the index of an irregular pair of p = {p}")
    ctx = field_ctx(p)
    seen = 0
    m = 2
    while seen < q_candidates:
        q = m * p + 1
        m += 2
        if not is_prime(q):
            continue
        seen += 1
        # q = 1 (mod p) has f = 1: its least root names split_prime's first ideal
        w = min(_powers(root_of_unity(p, q), p, lambda a, b: a * b % q)[1:])
        ideal = ideal_from_root(ctx, q, w)
        e = eigencomponent_symbol(k, ideal)
        if e:
            return VandiverWitness(IrregularPair(p, k), q, ideal.w, e)
    return None


def eigencomponent_symbol(k: int, ideal: PrimeIdealRep) -> int:
    """Symbol exponent e_k of the k-eigencomponent unit at the given ideal.

    Fixes g = smallest primitive root mod p, u = unit_minus(g) and the
    exponent vector n_a = a^(-k) mod p (representatives in [0, p)); the
    eigencomponent is E_k = prod_a sigma_a(u)^(n_a), and its symbol
    exponent is sum_a n_a * symbol(sigma_a(u)) mod p.  The power product
    is never expanded in Z[zeta], and neither are the conjugates: the
    residue of sigma_a(u) is u evaluated at w^a, where
    u = zeta^shift * (1 + zeta + ... + zeta^(g-1)), shift = (1-g)/2 mod p.
    Changing the representatives n_a alters e only by p-th-power
    contributions, so whether e vanishes does not depend on that choice.

    Twist law: e_k(``galois_image``(I, b)) = b^(1-k) e_k(I) (mod p) at any
    ideal I.  Proof: sigma_c(E_k) is E_k^(c^k) times a p-th power, as
    sigma_c permutes the conjugates, and the symbol (sigma_c(x)/I) is
    (x/sigma_c^(-1)(I))^c, so c^k e_k(I) = c e_k(sigma_c^(-1)(I)); put
    b = 1/c (Washington, Introduction to Cyclotomic Fields, Ch. 8).  As
    the Galois group permutes the ideals above q transitively, e_k
    vanishes at all of them or at none.
    """
    p, q = ideal.ctx.p, ideal.q
    g = primitive_root(p)
    shift = (1 - g) * ideal.ctx.inv2 % p
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
