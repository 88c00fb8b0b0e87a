import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd, prod
from operator import mul

import pytest

from cyclores import cycint, regulab
from cyclores.cycint import InternalError, cyc_mul, cyc_one, field_ctx, galois, kronecker_mul
from cyclores.cycunits import unit_minus
from cyclores.ntheory import factorize, is_prime, multiplicative_order, primes_upto, primitive_root
from cyclores.powsym import symbol
from cyclores.regulab import (
    IrregularPair,
    VandiverWitness,
    bernoulli,
    eigencomponent_symbol,
    h_minus,
    irregular_pairs,
    vandiver_witness,
)
from cyclores.resfield import galois_image, ideal_from_root, split_prime

# OEIS A000927: h^- of the p-th cyclotomic field
H_MINUS_A000927 = {
    3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 3, 29: 8, 31: 9,
    37: 37, 41: 121, 43: 211, 47: 695, 53: 4889, 59: 41241, 61: 76301,
    67: 853513, 71: 3882809, 73: 11957417, 79: 100146415,
    83: 838216959, 89: 13379363737, 97: 411322824001,
    101: 3547404378125,
}


def bernoulli_akiyama_tanigawa(n):
    """B_n by the Akiyama-Tanigawa triangle; independent of `bernoulli`.

    The raw triangle produces the B_1 = +1/2 convention; the sign is
    flipped at n = 1 so both routines agree everywhere.
    """
    if n == 1:
        return Fraction(-1, 2)
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def h_minus_mod_direct(p, ell):
    """h^- mod ell straight from h^- = 2p prod_{chi odd} (-B_{1,chi}/2),
    B_{1,chi} = (1/p) sum_a chi(a) a, every character sum evaluated
    term by term in F_ell (ell = 1 mod p-1): O(p^2) operations."""
    n = p - 1
    g = primitive_root(p)
    omega = next(
        z for z in (pow(u, (ell - 1) // n, ell) for u in range(2, ell))
        if all(pow(z, n // r, ell) != 1 for r in factorize(n))
    )
    omega_pow = [pow(omega, i, ell) for i in range(n)]
    chi_arg = [pow(g, t, p) for t in range(n)]  # chi_j(g^t) = omega^(jt)
    inv_2p = pow(2 * p, -1, ell)
    h = 2 * p
    for j in range(1, n, 2):
        b1 = sum(chi_arg[t] * omega_pow[j * t % n] for t in range(n))  # p * B_{1,chi_j}
        h = h * (-b1 * inv_2p) % ell
    return h


def bernoulli_mod_p_recurrence(p):
    """B_n mod p for n <= p-3 by the O(p^2) series-inversion recurrence:
    the inverse of sum_i x^i/(i+1)! has coefficients B_n/n!."""
    size = p - 2
    fact = [1] * (size + 1)
    for i in range(1, size + 1):
        fact[i] = fact[i - 1] * i % p
    series = [pow(fact[i + 1], -1, p) for i in range(size)]
    inverse = [1]
    for n in range(1, size):
        inverse.append(-sum(map(mul, series[1 : n + 1], reversed(inverse))) % p)
    return [c * fact[n] % p for n, c in enumerate(inverse)]


def bernoulli_mod_p_newton(p):
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
        error = mul_mod(series[:n], inverse, p, k, n)
        inverse += [-c % p for c in mul_mod(inverse[: n - k], error, p, 0, n - k)]
    return [c * f % p for c, f in zip(inverse, fact)]


def mul_mod(a, b, p, lo, hi):
    """Coefficients lo..hi-1 of a*b over F_p; a and b hold values in [0, p)."""
    return [c % p for c in kronecker_mul(a, b, lo, hi)]


def odd_transform_direct(coeffs, count, omega, ell):
    """G(omega^(2k+1)) * omega^(-k^2) mod ell, term by term."""
    out = []
    for k in range(count):
        z = pow(omega, 2 * k + 1, ell)
        value = sum(c * pow(z, t, ell) for t, c in enumerate(coeffs))
        out.append(value * pow(omega, -k * k, ell) % ell)
    return out


def odd_character_coeffs(p):
    """c_t = 2*(g^t mod p) - p for t < (p-1)/2, g the least primitive root."""
    g = primitive_root(p)
    return [2 * pow(g, t, p) - p for t in range((p - 1) // 2)]


def parseval_bound(p):
    """S^m // (2p)^(2m-2), S = sum_t c_t^2: h_minus's bound on (h^-)^2."""
    m = (p - 1) // 2
    return sum(c * c for c in odd_character_coeffs(p)) ** m // (2 * p) ** (2 * m - 2)


def h_minus_full_product(p):
    """h^- by rebuilding P = prod_{j odd} G(omega^j) itself: CRT against
    the bound 2 (sum |c_t|)^m on |P|, then exact division by (2p)^m."""
    n = p - 1
    m = n // 2
    coeffs = odd_character_coeffs(p)
    bound = 2 * sum(map(abs, coeffs)) ** m
    value, modulus = 0, 1
    for ell in primes_one_mod(n, 1 << 40, bound.bit_length() // 40 + 1):
        r = regulab._odd_character_product(coeffs, n, ell)
        value += modulus * ((r - value) * pow(modulus, -1, ell) % ell)
        modulus *= ell
    assert modulus > bound
    if value > modulus // 2:
        value -= modulus
    h, rem = divmod(2 * p * (-1) ** m * value, (2 * p) ** m)
    assert rem == 0 and h > 0
    return h


def primes_one_mod(n, start, count):
    out, ell = [], start // n * n + 1
    while len(out) < count:
        if ell > start and is_prime(ell):
            out.append(ell)
        ell += n
    return out


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_cross_validation():
    for n in range(81):
        assert bernoulli(n) == bernoulli_akiyama_tanigawa(n), n


def test_von_staudt_clausen():
    # denominator of B_2m = product of primes l with (l-1) | 2m
    for m in range(1, 31):
        n = 2 * m
        expected = 1
        for ell in range(2, n + 2):
            if is_prime(ell) and n % (ell - 1) == 0:
                expected *= ell
        assert bernoulli(n).denominator == expected, n


def test_irregular_pairs():
    assert irregular_pairs(7) == []
    assert irregular_pairs(37) == [IrregularPair(37, 32)]
    assert irregular_pairs(59) == [IrregularPair(59, 44)]
    assert irregular_pairs(67) == [IrregularPair(67, 58)]
    with pytest.raises(ValueError):
        irregular_pairs(9)


def test_bernoulli_mod_p_matches_recurrence():
    for p in primes_upto(600)[1:]:
        assert bernoulli_mod_p_newton(p) == bernoulli_mod_p_recurrence(p), p


def test_irregular_pairs_match_newton_bernoulli():
    # Voronoi's congruence against the power-series inverse.  At 40487
    # the least primitive root 5 has 5^(p-1) = 1 mod p^2, so the sum at
    # k = p - 1, one past the last even k, vanishes and must be left out
    for p in primes_upto(3000)[1:] + (16381, 40487):
        bern = bernoulli_mod_p_newton(p)
        expected = [k for k in range(2, p - 2, 2) if bern[k] == 0]
        assert [pair.k for pair in irregular_pairs(p)] == expected, p


# (1 << 62) - 57, above every word prime; 715827817, the first word prime
# of h_minus(37), at the edge of the 8-byte digits: 18 (l-1)^2 < 2^63
@pytest.mark.parametrize("ell", [37, 4611686018427387847, 715827817])
def test_odd_transform_matches_direct_sum(ell):
    # omega^(2m) = 1 is the transform's contract, so omega is drawn from
    # the roots of order dividing gcd(2m, l-1); m = 1, 7 fold
    # negacyclically where omega^m = -1, m = 2, 18 always cyclically
    rng = random.Random(ell)
    for n in (1, 2, 7, 18):
        coeffs = [rng.randrange(-ell, ell) for _ in range(n)]
        omega = pow(rng.randrange(2, ell - 1), (ell - 1) // gcd(2 * n, ell - 1), ell)
        for count in (0, 1, n - 1, n):
            assert regulab._odd_transform(coeffs, count, omega, ell) == odd_transform_direct(
                coeffs, count, omega, ell), (n, count)
    for n in (18, 17):  # every chirp product at its largest; 17 folds negacyclically
        extremes = [ell - 1] * n
        assert regulab._odd_transform(extremes, n, ell - 1, ell) == odd_transform_direct(
            extremes, n, ell - 1, ell)


def odd_transform_unmirrored(coeffs, count, omega, ell):
    """_odd_transform with its B chirp walked over all of B_0..B_(m-1)."""
    m = len(coeffs)
    chirp_a = [c * z % ell for c, z in zip(coeffs, regulab._chirp(omega, 1, m, ell))]
    chirp_b = regulab._chirp(pow(omega, -1, ell), 0, m, ell)
    conv = kronecker_mul(chirp_a, chirp_b, 0, 2 * m - 1) + [0]
    s = pow(omega, -m * m, ell)
    return [(x + s * y) % ell for x, y in zip(conv[:count], conv[m:])]


@pytest.mark.parametrize("ell", [37, 4611686018427387847, 715827817])
def test_odd_transform_b_chirp_mirror(ell):
    # B_(m-d) = s B_d with s = omega^(-m^2) = +-1, which the transform
    # uses to walk only half of B; m = 1 and 2 have no mirrored entry
    rng = random.Random(ell + 1)
    for n in (1, 2, 3, 4, 9, 18, 35, 36):
        omega = pow(rng.randrange(2, ell - 1), (ell - 1) // gcd(2 * n, ell - 1), ell)
        chirp_b = regulab._chirp(pow(omega, -1, ell), 0, n, ell)
        s = pow(omega, -n * n, ell)
        assert s in (1, ell - 1)
        assert all(chirp_b[n - d] == s * chirp_b[d] % ell for d in range(1, n)), n
        coeffs = [rng.randrange(ell) for _ in range(n)]
        assert regulab._odd_transform(coeffs, n, omega, ell) == odd_transform_unmirrored(
            coeffs, n, omega, ell), n


@pytest.mark.parametrize("ell", [37, 4611686018427387847, 715827817])
def test_odd_transform_refuses_outside_its_contract(monkeypatch, ell):
    def no_chirp(*args):
        raise AssertionError("a chirp was built")

    monkeypatch.setattr(regulab, "_chirp", no_chirp)
    rng = random.Random(ell)
    for n in (1, 2, 7):
        coeffs = [rng.randrange(ell) for _ in range(n)]
        omega = rng.randrange(2, ell - 1)
        while pow(omega, 2 * n, ell) == 1:
            omega = rng.randrange(2, ell - 1)
        with pytest.raises(ValueError, match="omega"):
            regulab._odd_transform(coeffs, n, omega, ell)
        for count in (n + 1, -1):
            with pytest.raises(ValueError, match="count"):
                regulab._odd_transform(coeffs, count, ell - 1, ell)


def mul_mod_schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


@pytest.mark.parametrize("p", [5, 443, 4093])
def test_mul_mod_matches_schoolbook(p):
    rng = random.Random(p)
    for la, lb in [(1, 1), (2, 7), (40, 25), (300, 300), (1000, 700)]:
        for a, b in [
            ([rng.randrange(p) for _ in range(la)], [rng.randrange(p) for _ in range(lb)]),
            ([p - 1] * la, [p - 1] * lb),  # every coefficient at its largest
        ]:
            full = mul_mod_schoolbook(a, b, p)
            n = len(full)
            for lo, hi in [(0, n), (0, 1), (n - 1, n), (n // 3, n // 2), (la - 1, n), (0, 0)]:
                assert mul_mod(a, b, p, lo, hi) == full[lo:hi], (la, lb, lo, hi)


def test_irregular_pairs_match_exact_bernoulli():
    for p in primes_upto(200)[1:]:
        expected = [k for k in range(2, p - 2, 2) if bernoulli(k).numerator % p == 0]
        assert [pair.k for pair in irregular_pairs(p)] == expected, p


def test_h_minus_values():
    assert h_minus(5) == 1
    assert h_minus(7) == 1
    assert h_minus(23) == 3
    assert h_minus(37) == 37
    with pytest.raises(ValueError):
        h_minus(10)


def test_h_minus_matches_oeis_a000927():
    for p, h in H_MINUS_A000927.items():
        assert h_minus(p) == h, p


def test_h_minus_mod_direct_character_product():
    # the library combines residues modulo primes below 2^32; these
    # check primes lie above 2^62, so the comparison shares none of them
    for p in (5, 29, 67, 101, 157, 211, 257, 293):
        h = h_minus(p)
        for ell in primes_one_mod(p - 1, 1 << 62, 2):
            assert h % ell == h_minus_mod_direct(p, ell), (p, ell)


def test_h_minus_matches_full_product_reconstruction():
    for p in primes_upto(300)[1:]:
        assert h_minus(p) == h_minus_full_product(p), p


def test_h_minus_within_parseval_bound():
    for p in primes_upto(467)[1:]:
        assert h_minus(p) ** 2 <= parseval_bound(p), p


def test_h_minus_packs_word_digits(monkeypatch):
    # the word primes keep every digit of every transform's packed
    # product within 8 bytes, the struct path of cycint._pack
    widths = []
    real = cycint._pack

    def spy(digits, nb, *signed):
        widths.append(nb)
        return real(digits, nb, *signed)

    monkeypatch.setattr(cycint, "_pack", spy)
    for p in primes_upto(500)[1:] + (1021,):
        widths.clear()
        h_minus(p)
        assert widths and max(widths) <= 8, p


@pytest.mark.parametrize("p", [4093, 4091, 4079])  # the largest below HMINUS_P_MAX
def test_h_minus_word_primes_cover_the_bound(p):
    n = p - 1
    m = n // 2
    bound = parseval_bound(p)
    ells = regulab._word_primes(n)
    modulus = 1
    while modulus * modulus <= bound:
        ell = next(ells)
        assert ell % n == 1 and ell * ell * m < 1 << 63 and is_prime(ell)
        modulus *= ell
    assert next(ells) < ell  # the spare


def test_word_primes_run_out_with_internal_error():
    # at p = 16381, past HMINUS_P_MAX, the 572 word primes fall short of
    # the bound
    p = 16381
    n, m = p - 1, (p - 1) // 2
    ells = []
    with pytest.raises(InternalError):
        for ell in regulab._word_primes(n):
            ells.append(ell)
    assert len(ells) == 572
    assert ells == sorted(ells, reverse=True) and ells[-1] > n
    assert all(ell % n == 1 and ell * ell * m < 1 << 63 for ell in ells)
    assert prod(ells) ** 2 <= parseval_bound(p)


def test_h_minus_refused_at_its_ceiling_before_any_table(monkeypatch):
    def no_table(p):
        raise AssertionError("a table was built")

    monkeypatch.setattr(regulab, "primitive_root", no_table)
    for p in (regulab.HMINUS_P_MAX + 3, 16381, 1048573):
        with pytest.raises(ValueError):
            h_minus(p)


def test_irregular_pairs_refused_at_their_ceiling_before_any_table(monkeypatch):
    # vandiver_witness inherits the ceiling through irregular_pairs
    def no_table(p):
        raise AssertionError("a table was built")

    monkeypatch.setattr(regulab, "primitive_root", no_table)
    for p in (131101, 262139, 1048573):  # primes at or past IRREGULAR_P_MAX = 2^17
        assert p >= regulab.IRREGULAR_P_MAX
        with pytest.raises(ValueError, match="irregular pairs need p < 131072"):
            irregular_pairs(p)
        with pytest.raises(ValueError, match="irregular pairs need p < 131072"):
            vandiver_witness(p, 2, 1)


@pytest.mark.parametrize("wrong_call", ["first", "spare"])
def test_h_minus_spare_prime_catches_a_wrong_residue(monkeypatch, wrong_call):
    exact = regulab._odd_character_product
    ells = []

    def spy(coeffs, n, ell):
        ells.append(ell)
        return exact(coeffs, n, ell)

    monkeypatch.setattr(regulab, "_odd_character_product", spy)
    assert h_minus(101) == H_MINUS_A000927[101]
    bad_ell = ells[0] if wrong_call == "first" else ells[-1]

    def corrupt(coeffs, n, ell):
        r = exact(coeffs, n, ell)
        return (r + 1) % ell if ell == bad_ell else r

    monkeypatch.setattr(regulab, "_odd_character_product", corrupt)
    with pytest.raises(InternalError):
        h_minus(101)


def kummer_log_moments(p, offset=0):
    """M_k = sum_b b^(k+offset) L_b mod p for even k in [2, p-3], where
    L = log(1 + t) in F_p[zeta]/(zeta^p - 1), t = u/g - 1, g the least
    primitive root and u = unit_minus(g).

    t is nilpotent (t^p = 0, as u = g mod 1 - zeta), so the series stops
    at t^(p-1), each power one Kronecker product folded mod zeta^p - 1.
    zeta d/dzeta is a derivation that sends zeta^b to b zeta^b, and in
    zeta = e^x it is d/dx, so at zeta = 1 its k-th power takes log u to
    (g^k - 1) B_k / k (mod p).  Kummer's logarithmic-derivative criterion
    follows: for even k in [2, p-3], M_k = 0 iff p | B_k (Washington,
    Introduction to Cyclotomic Fields, Ch. 8; Ribenboim, 13 Lectures on
    Fermat's Last Theorem, Lecture VI).  u's zeta-power factor adds a
    multiple of x to log u and so touches only k = 1.  offset != 0 is a
    control that must break the criterion.
    """
    g = primitive_root(p)
    g_inv = pow(g, -1, p)
    t = [c * g_inv % p for c in unit_minus(field_ctx(p), g).coeffs] + [0]
    t[0] = (t[0] - 1) % p
    log, power = t, t
    for n in range(2, p):
        conv = kronecker_mul(power, t, 0, 2 * p - 1) + [0]
        power = [(x + y) % p for x, y in zip(conv[:p], conv[p:])]
        coef = (-1) ** (n + 1) * pow(n, -1, p)
        log = [(a + coef * b) % p for a, b in zip(log, power)]
    return {k: sum(pow(b, k + offset, p) * c for b, c in enumerate(log)) % p
            for k in range(2, p - 2, 2)}


def test_irregular_pairs_match_kummer_log_derivative():
    # a third route to the pairs, beside Voronoi's congruence (library)
    # and the Newton inverse of x/(e^x - 1) (tests)
    for p in primes_upto(300)[2:]:
        moments = kummer_log_moments(p)
        assert [k for k, v in moments.items() if v == 0] == [
            pair.k for pair in irregular_pairs(p)], p


def test_kummer_log_derivative_control_breaks():
    # weights b^(k+2) in place of b^k miss the pairs at every irregular p
    primes = primes_upto(200)[2:]
    broken = [p for p in primes
              if [k for k, v in kummer_log_moments(p, 2).items() if v == 0]
              != [pair.k for pair in irregular_pairs(p)]]
    assert broken == [p for p in primes if irregular_pairs(p)]


def test_kummer_criterion_small():
    for p in primes_upto(200)[2:]:
        assert (h_minus(p) % p == 0) == bool(irregular_pairs(p)), p


def test_vandiver_witness_regression():
    w = vandiver_witness(37, 32, 10)
    assert w is not None
    assert (w.q, w.w, w.e) == (149, 5, 23)
    assert w.pair == IrregularPair(37, 32)
    # determinism
    again = vandiver_witness(37, 32, 10)
    assert again == w


def vandiver_witness_by_split(p, k, q_candidates):
    """The witness search over split_prime's first ideal of each candidate."""
    ctx = field_ctx(p)
    for q in itertools.islice(filter(is_prime, itertools.count(2 * p + 1, 2 * p)), q_candidates):
        ideal = split_prime(ctx, q)[0]
        e = eigencomponent_symbol(k, ideal)
        if e:
            return VandiverWitness(IrregularPair(p, k), ideal.q, ideal.w, e)
    return None


def test_vandiver_witness_matches_split_oracle():
    # every irregular pair below 500, the three of 491 included
    pairs = [pair for p in primes_upto(500)[1:] for pair in irregular_pairs(p)]
    assert len(pairs) == 34 and [pair.k for pair in pairs if pair.p == 491] == [292, 336, 338]
    for pair in pairs:
        for candidates in (1, 10):
            assert vandiver_witness(pair.p, pair.k, candidates) == vandiver_witness_by_split(
                pair.p, pair.k, candidates), pair


def test_vandiver_witness_preconditions():
    with pytest.raises(ValueError):
        vandiver_witness(7, 2, 5)  # 7 is regular
    with pytest.raises(ValueError):
        vandiver_witness(37, 30, 5)  # (37, 30) is not irregular
    with pytest.raises(ValueError):
        vandiver_witness(37, 32, 0)


@pytest.mark.parametrize("k, candidates", [(1, 10), (36, 10), (32, 0)])
def test_vandiver_witness_cheap_checks_come_first(monkeypatch, k, candidates):
    def no_pairs(p):
        raise AssertionError("irregular_pairs was called")

    monkeypatch.setattr(regulab, "irregular_pairs", no_pairs)
    with pytest.raises(ValueError):
        vandiver_witness(37, k, candidates)


def test_vandiver_witness_reverifies_independently():
    # recompute the certificate by one residue-field exponentiation:
    # multiply the unit conjugate residues first, Euler-power once
    p, k = 37, 32
    w = vandiver_witness(p, k, 10)
    q = w.q
    prod = 1
    u = unit_minus(field_ctx(p), primitive_root(p))
    wpow = [pow(w.w, j, q) for j in range(p)]
    for a in range(1, p):
        val = 0
        for i, c in enumerate(u.coeffs):
            val = (val + c * wpow[i * a % p]) % q
        n_a = pow(pow(a, k, p), -1, p)
        prod = prod * pow(val, n_a, q) % q
    r = pow(prod, (q - 1) // p, q)
    assert r == wpow[w.e]
    assert w.e != 0


def test_eigencomponent_symbol_matches_dense_conjugates():
    # oracle: sum_a a^(-k) * symbol(sigma_a(u)) with every conjugate
    # expanded densely in Z[zeta]; degree-1 ideals and one of degree 2
    p, k = 37, 32
    ctx = field_ctx(p)
    u = unit_minus(ctx, primitive_root(p))
    conjugates = [galois(u, a) for a in range(1, p)]
    ideals = list(split_prime(ctx, 149)[:6]) + [split_prime(ctx, 73)[0]]
    assert ideals[-1].f == 2
    for ideal in ideals:
        dense = sum(
            pow(pow(a, k, p), -1, p) * symbol(conjugates[a - 1], ideal)
            for a in range(1, p)
        ) % p
        assert eigencomponent_symbol(k, ideal) == dense, ideal.w


def test_vandiver_vanishing_is_ideal_independent():
    p, k = 37, 32
    ctx = field_ctx(p)
    w = vandiver_witness(p, k, 10)
    values = [eigencomponent_symbol(k, ideal) for ideal in split_prime(ctx, w.q)]
    assert all(v != 0 for v in values)


@pytest.mark.parametrize("p", [37, 59, 67, 101])
def test_eigencomponent_twist_law(p):
    # e_k(sigma_b(I)) = b^(1-k) e_k(I) for every b, at the ideals above the
    # least q of each residue degree f <= 4 that occurs; the control
    # exponent b^(k-1) fails at some nonzero e_k
    ctx = field_ctx(p)
    control_failed = False
    for f in (1, 2, 3, 4):
        if (p - 1) % f:
            continue
        q = next(q for q in range(2, 10**4)
                 if q != p and is_prime(q) and multiplicative_order(q, p) == f)
        ideals = split_prime(ctx, q)
        for pair in irregular_pairs(p):
            k = pair.k
            e = {ideal.w: eigencomponent_symbol(k, ideal) for ideal in ideals}
            first = ideals[0]
            for b in range(1, p):
                assert e[galois_image(first, b).w] == pow(b, 1 - k, p) * e[first.w] % p, (q, k, b)
            control_failed |= any(e[galois_image(first, b).w] != pow(b, k - 1, p) * e[first.w] % p
                                  for b in range(1, p))
            if f % 2 == 0:  # sigma_(-1) fixes each ideal, and (-1)^(1-k) = -1
                assert set(e.values()) == {0}, q
    assert control_failed


def test_vandiver_soundness_against_expanded_product():
    # expanding the power product in Z[zeta] must give the same symbol
    p, k = 37, 32
    ctx = field_ctx(p)
    g = primitive_root(p)
    u = unit_minus(ctx, g)
    prod = cyc_one(ctx)
    for a in range(1, p):
        n_a = pow(pow(a, k, p), -1, p)
        prod = reduce(cyc_mul, [galois(u, a)] * n_a, prod)
    w = vandiver_witness(p, k, 10)
    ideal = ideal_from_root(ctx, w.q, w.w)
    assert symbol(prod, ideal) == w.e
