"""Regularity data for prime cyclotomic fields.

Exact Bernoulli numbers, irregular pairs from Voronoi's congruence
modulo p, the relative class number h^- rebuilt by CRT from its
residues modulo word primes under an exact bound on h^- itself, and
one-sided witnesses that a cyclotomic-unit eigencomponent is not a
p-th power.  Voronoi's polynomial G has one coefficient list
(``_voronoi_coeffs``), and it serves all three: its values at the odd
powers of the least primitive root g decide the irregular pairs, which
``vandiver_witness`` checks at its one k by Horner's rule, and its
values at the odd powers of a (p-1)-th root of unity mod a word prime
give a residue of h^-.  Both sets of values come from one chirp-z
convolution, ``_odd_convolution``, of m = (p-1)/2 coefficients at an
omega with omega^m = +-1: its chirp repeats up to sign with period m,
so Bluestein's convolution folds to one m x m Kronecker product, whose
halves each caller adds as it reads them.

Every function taking a prime p accepts only odd primes p < P_MAX = 2^20
(``cycint.check_p``) and raises ValueError otherwise, before it builds
any table of about p entries.  ``h_minus`` also needs p < HMINUS_P_MAX,
and ``irregular_pairs`` and ``vandiver_witness`` p < IRREGULAR_P_MAX,
which ``_voronoi_coeffs`` enforces for both.

A word prime of h^- at p = 2m + 1 is a prime l = 1 (mod p-1) with
l^2 m < 2^63.  Every digit of its convolution's product, a sum of at most
m products of residues below l, then fits in 8 bytes, and every other
step works on one-digit ints.  Each such l is below 2^32, and so is each
witness candidate q = mp + 1 with m < 2^32/p: ``is_prime`` proves both
in three rounds.

The witness search is one-sided by design: a nonzero residue symbol of
the eigencomponent proves it is not a p-th power in the field, while an
all-zero result is merely inconclusive and is never reported as a
failure of Vandiver's conjecture.  The eigencomponent's symbol is one
power map of one residue, the product of the conjugates' residues each
raised to its weight, and by its twist law its value at one ideal above
q decides every ideal above q and gives the value at each of them.
"""

from __future__ import annotations

from math import comb, isqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .cycint import InternalError, check_p, field_ctx, kronecker_mul
from .ntheory import is_prime, primitive_root, root_of_unity
from .powsym import residue_symbol
from .resfield import PrimeIdealRep, _fmul, _fpow, _ftup, _powers, ideal_from_root

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
# room to spare: at p = 4093 it takes 277 and the spare of 3338, while at
# p = 16381 the 572 that exist fall short of it (13 402 bits against the
# 36 869 of the bound's square root).  The time grows like p^2.6: 0.034 s
# at p = 1009, 0.22 s at 2039 and 1.35 s at 4093 on a 2-core x86-64
# machine (CPython 3.11).
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
    over j = g^i mod p, i < m = (p-1)/2, it is G(g^(k-1)) with G from
    ``_voronoi_coeffs``.  With k - 1 = 2k' + 1, k' < m - 1, one
    ``_odd_convolution`` at omega = g, folded, gives them all.
    """
    g, coeffs = _voronoi_coeffs(p)
    conv, s = _odd_convolution(coeffs, g, p)
    m = len(coeffs)
    return [IrregularPair(p, 2 * k + 2)
            for k, (x, y) in enumerate(zip(conv[:m - 1], conv[m:])) if (x + s * y) % p == 0]


def _voronoi_coeffs(p: int) -> tuple[int, list[int]]:
    """g, the least primitive root, and the coefficients
    c_i = 2 floor(g (g^i mod p)/p) - g + 1, i < (p-1)/2, of Voronoi's G:
    p | B_k iff G(g^(k-1)) = 0 (mod p) for even k in [2, p-3], and
    ``h_minus`` reads h^- off G too.

    ValueError unless p is an odd prime below IRREGULAR_P_MAX, before
    any table is built.
    """
    check_p(p)
    if p >= IRREGULAR_P_MAX:
        raise ValueError(f"irregular pairs need p < {IRREGULAR_P_MAX}")
    g = primitive_root(p)
    return g, [2 * (g * a // p) - g + 1 for a in _powers(g, (p - 1) // 2, lambda a, b: a * b % p)]


def h_minus(p: int) -> int:
    """Relative class number h^- of the p-th cyclotomic field, exactly.

    With m = (p-1)/2, g the least primitive root and a_t = g^t mod p, the
    analytic class number formula h^- = 2p * prod over odd characters chi
    of (-B_{1,chi}/2) reads h^- = (-1)^m * P / (2p)^(m-1) with the
    rational integer P = prod_{j odd} G_h(omega^j), where
    G_h(T) = sum_{t<m} (2 a_t - p) T^t and omega is a primitive (p-1)-th
    root of unity (Washington, Introduction to Cyclotomic Fields,
    Thm 4.17).  The m points omega^j, j odd, are the roots r of T^m = -1.

    Voronoi's G = sum_{t<m} c_t T^t of ``_voronoi_coeffs``,
    c_t = 2 floor(g a_t/p) - g + 1, serves instead (Buhler, Crandall,
    Ernvall and Metsankyla, Math. Comp. 61 (1993)).  As
    g a_t = p floor(g a_t/p) + a_(t+1) and a_m = p - 1,
    p G(T) = (g - 1/T) G_h(T) wherever T^m = -1; over those roots
    prod (g - r) = g^m + 1, so with Q = prod_{j odd} G(omega^j) and the
    integer t = (g^m + 1)/p, h^- = (-1)^m Q / (2^(m-1) t).

    Q is evaluated modulo the word primes l = 1 (mod p-1), l^2 m < 2^63,
    taken downward from the largest (``_word_primes``), so each digit of
    a convolution's packed product is 8 bytes.  A word prime l dividing t
    (g^m = -1 mod l) cannot invert the scale 2^(m-1) t and is skipped.
    Each residue is turned into h^- mod l; CRT rebuilds h^- itself, never
    Q.  It stops once modulus^2 > S^m // (4^(m-1) t^2), S = sum_t c_t^2.
    That bound on (h^-)^2 is exact: by Parseval over the m roots of
    T^m = -1 (deg G < m) the |G(omega^j)|^2 sum to m*S, and AM-GM gives
    Q^2 <= S^m.  Hence modulus > h^- and the least nonnegative CRT value
    is h^-.  One spare prime guards the evaluation: its residue must
    match the value, which must be positive, or InternalError is raised.

    p must be below HMINUS_P_MAX, or ValueError is raised first.
    """
    check_p(p)
    if p >= HMINUS_P_MAX:
        raise ValueError(f"h_minus needs p < {HMINUS_P_MAX}")
    g, coeffs = _voronoi_coeffs(p)
    n = p - 1
    m = n // 2
    t = (g**m + 1) // p
    bound = sum(c * c for c in coeffs) ** m // (4 ** (m - 1) * t * t)
    scale = (-1) ** m * (1 << (m - 1)) * t
    value, modulus = 0, 1
    for ell in _word_primes(n):
        if t % ell == 0:  # g^m = -1 (mod ell): the scale is not a unit
            continue
        omega = root_of_unity(n, ell)
        # the folded values are G(omega^(2k+1)) omega^(-k^2): restore omega^(sum k^2)
        r = pow(omega, (m - 1) * m * (2 * m - 1) // 6 % n, ell) * pow(scale, -1, ell) % ell
        conv, s = _odd_convolution(coeffs, omega, ell)
        for x, y in zip(conv, conv[m:]):
            r = r * (x + s * y) % ell
        if modulus * modulus > bound:
            break
        # Garner step: keep value = h^- mod modulus, 0 <= value < modulus
        step = (r - value) * pow(modulus % ell, -1, ell) % ell
        value += modulus * step
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


def _odd_convolution(coeffs: list[int], omega: int, ell: int) -> tuple[list[int], int]:
    """(L, s) with G(omega^(2k+1)) * omega^(-k^2) = L_k + s L_(k+m) (mod
    ell) for k < m = len(coeffs), G(T) = sum_t coeffs[t] T^t.

    The contract: ell > 1 and omega^m = +-1 (mod ell), so omega is a unit
    with omega^(2m) = 1; ell need not be prime.  At a prime ell,
    omega^(2m) = 1 alone implies omega^m = +-1, which a composite ell
    such as p^3 does not give, so the check is on omega^m.

    Chirp-z (Bluestein): 2kt = k^2 + t^2 - (k-t)^2 makes the k-th value
    sum_t A_t B_(k-t) with A_t = c_t omega^(t^2+t) and B_d = omega^(-d^2),
    -m < k-t < m.  As omega^(2m) = 1, B_(d+m) = s B_d with
    s = omega^(-m^2) = +-1, and B_(m-d) = s B_d, so only B_0..B_(m//2)
    are walked and the rest mirrored; A is scaled by c_t within its walk.
    L, the product of A and B_0..B_(m-1) padded by one 0 to 2m entries,
    is one Kronecker-packed m x m integer product, and the fold is cyclic
    for s = 1 (m even or omega^m = 1) and negacyclic for s = -1.  A digit
    of L sums at most m products of residues below ell, so it fits 8
    bytes where ell^2 m < 2^63.  Each caller folds L as it reads it.
    ValueError outside the contract, before any chirp is built.
    """
    m = len(coeffs)
    half = pow(omega, m, ell)
    if half not in (1, ell - 1):
        raise ValueError("omega^m must be 1 or -1 modulo ell")
    s = 1 if half == 1 or m % 2 == 0 else -1
    omega2 = omega * omega % ell
    chirp_a, z, step = [], 1, omega2
    for c in coeffs:  # z = omega^(t^2+t), by the ratios omega^(2t+2)
        chirp_a.append(c * z % ell)
        z = z * step % ell
        step = step * omega2 % ell
    inv = pow(omega, -1, ell)
    inv2 = inv * inv % ell
    chirp_b, z, step = [], 1, inv
    for _ in range(m // 2 + 1):  # z = omega^(-d^2), by the ratios omega^(-2d-1)
        chirp_b.append(z)
        z = z * step % ell
        step = step * inv2 % ell
    mirror = chirp_b[(m - 1) // 2:0:-1]
    chirp_b += mirror if s == 1 else [ell - b for b in mirror]
    return kronecker_mul(chirp_a, chirp_b, 0, 2 * m - 1) + [0], s


def vandiver_witness(p: int, k: int, q_candidates: int) -> VandiverWitness | None:
    """Search the first q_candidates primes q = 1 mod p for a witness.

    (p, k) must be an irregular pair, which is checked at k alone: one
    Horner evaluation of Voronoi's G (``_voronoi_coeffs``) at g^(k-1) mod
    p, which vanishes iff p | B_k, with no convolution over every k.
    Then :func:`eigencomponent_symbol` is evaluated once per candidate q,
    at the degree-1 ideal I0 of the p-th root of unity w0 that
    ``root_of_unity`` finds mod q, built alone, as q is not split.  The
    certificate names ``split_prime``'s first ideal, that of the least
    root w = w0^j, read off I0's own ``w_powers`` with no second walk of
    the roots.  That ideal is ``galois_image``(I0, 1/j), so by the twist
    law (see :func:`eigencomponent_symbol`) its e is j^(k-1) e_k(I0)
    mod p, nonzero iff e_k(I0) is.  Returns the first (q, w, e)
    certificate with e != 0, or None if every candidate yields 0
    (inconclusive).  The checks on k and q_candidates that need no
    Bernoulli data come before ``_voronoi_coeffs``, which refuses
    p >= IRREGULAR_P_MAX.
    """
    check_p(p)
    if k % 2 or not 2 <= k <= p - 3:
        raise ValueError(f"k must be even and in [2, p-3] for p = {p}")
    if q_candidates < 1:
        raise ValueError("q_candidates must be >= 1")
    g, coeffs = _voronoi_coeffs(p)
    t, value = pow(g, k - 1, p), 0
    for c in reversed(coeffs):
        value = (value * t + c) % p
    if value:
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
        # q = 1 (mod p) has f = 1; e_k moves to the least root's ideal by the twist law
        ideal = ideal_from_root(ctx, q, root_of_unity(p, q))
        e = eigencomponent_symbol(k, ideal)
        if e:
            roots = ideal.w_powers
            j = min(range(1, p), key=roots.__getitem__)
            return VandiverWitness(IrregularPair(p, k), q, roots[j], pow(j, k - 1, p) * e % p)
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
    As the symbol is a homomorphism to Z/p, that sum is the symbol of the
    one residue prod_a u(w^a)^(n_a), taken in the residue field with
    a = g^i and n_a = g^(-ik) walked together; so one power map serves
    every conjugate, at any f.  Changing the representatives n_a alters
    e only by p-th-power contributions, so whether e vanishes does not
    depend on that choice.

    Twist law: e_k(``galois_image``(I, b)) = b^(1-k) e_k(I) (mod p) at any
    ideal I.  Proof: sigma_c(E_k) is E_k^(c^k) times a p-th power, as
    sigma_c permutes the conjugates, and the symbol (sigma_c(x)/I) is
    (x/sigma_c^(-1)(I))^c, so c^k e_k(I) = c e_k(sigma_c^(-1)(I)); put
    b = 1/c (Washington, Introduction to Cyclotomic Fields, Ch. 8).  As
    the Galois group permutes the ideals above q transitively, e_k
    vanishes at all of them or at none.
    """
    p, q, f, m0 = ideal.ctx.p, ideal.q, ideal.f, ideal.field_modulus
    g = primitive_root(p)
    shift = (1 - g) * ideal.ctx.inv2 % p
    ratio = pow(g, -k, p)
    points = ideal.w_powers
    total = 1 if f == 1 else _ftup((1,), f)
    a = n = 1
    for _ in range(p - 1):
        terms = [points[a * (shift + i) % p] for i in range(g)]
        if f == 1:
            total = total * pow(sum(terms), n, q) % q
        else:
            value = tuple(sum(col) % q for col in zip(*terms))
            total = _fmul(total, _fpow(value, n, m0, q, f), m0, q, f)
        a = a * g % p
        n = n * ratio % p
    return residue_symbol(ideal, total)
