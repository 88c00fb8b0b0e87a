import random

import pytest
import sympy
from sympy.ntheory import n_order

from cyclores.ntheory import (
    PSI_12,
    factorize,
    iroot,
    is_prime,
    kth_root_exact,
    multiplicative_order,
    primes_upto,
    primitive_root,
    root_of_unity,
    valuation,
)


def _naive_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, n)) if n > 2 else True


def test_is_prime_matches_naive_below_2000():
    for n in range(2000):
        assert is_prime(n) == _naive_prime(n), n


def test_is_prime_large_strong_pseudoprime_inputs():
    assert is_prime(2**61 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime((2**31 - 1) * (2**61 - 1))


# strong pseudoprimes to base 2; the last is strong to every base up to 23
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + (
    2039, 2053,  # the primes on each side of 2^11, where lookup ends
    2**64 - 59, 2**64 + 13,  # and of 2^64, where the base sets change
    407521, 299210837, 407521**2,  # primes dividing a base of Sinclair's set
    # 48781 * 97561, the least strong pseudoprime to 2, 7 and 61 (Jaeschke),
    # where Sinclair's bases take over, and the primes on each side of 2^32
    4759123141, 4294967291, 4294967311,
    # strong pseudoprimes to two of 2, 7 and 61 each, both factors past
    # the gcd screen: to 2 and 61, to 2 and 7, and to 7 and 61
    9863461, 19328653, 77594653,
))
def test_is_prime_matches_sympy_at_the_edges(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_matches_sympy_on_random_odd_numbers_below_2_32():
    # the range of Jaeschke's bases 2, 7 and 61
    rng = random.Random(2**32)
    for _ in range(20000):
        n = rng.randrange(2**11, 2**32) | 1
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_sympy_on_random_odd_numbers_below_2_64():
    rng = random.Random(2**64)
    for _ in range(20000):
        n = rng.randrange(2**40, 2**64) | 1
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_pseudoprimes_past_psi_12():
    # psi_12 and psi_13 (Sorenson-Webster): composites that are strong
    # pseudoprimes to every base 2..37
    psi_13 = 3317044064679887385961981
    for n in (PSI_12, psi_13):
        assert not sympy.isprime(n)
        with pytest.raises(ValueError):
            is_prime(n)
    assert PSI_12 == 318665857834031151167461
    assert is_prime(sympy.prevprime(PSI_12))
    # a witness base still proves compositeness at any size, but a prime
    # past PSI_12 cannot be told from a pseudoprime
    assert not is_prime(PSI_12 + 2) and not sympy.isprime(PSI_12 + 2)
    with pytest.raises(ValueError):
        is_prime(sympy.nextprime(PSI_12))


@pytest.mark.parametrize("n, q", [
    (5, 11), (101, 607), (1009, 12109), (127, 4611686018427387587),  # n prime
    (10, 11), (606, 607), (36, 37), (4611686018427387700, 4611686018427387701),  # n = q - 1
    (6, 31), (15, 31), (100, 4611686018427387701), (202, 607),  # n composite
])
def test_root_of_unity_matches_sympy(n, q):
    assert sympy.isprime(q) and (q - 1) % n == 0
    w = root_of_unity(n, q)
    assert n_order(w, q) == n
    # the first u^((q-1)/n), u = 1, 2, ..., of exact order n
    cofactor = (q - 1) // n
    first = next(pow(u, cofactor, q) for u in range(1, q)
                 if n_order(pow(u, cofactor, q), q) == n)
    assert w == first


def test_root_of_unity_of_order_one_is_one():
    # the search starts at u = 2, which q = 2 does not have
    for q in (2, 3, 11, 4294967291):
        assert root_of_unity(1, q) == 1


def test_root_of_unity_rejects_n_not_dividing_q_minus_1():
    for n, q in ((3, 11), (0, 11), (4, 11)):
        with pytest.raises(ValueError):
            root_of_unity(n, q)


def test_primes_upto():
    assert primes_upto(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert primes_upto(1) == ()


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    assert factorize(1) == {}


def test_multiplicative_order_brute():
    for p in (5, 7, 11, 13):
        for a in range(1, p):
            k = 1
            x = a % p
            while x != 1:
                x = x * a % p
                k += 1
            assert multiplicative_order(a, p) == k


def test_primitive_root_is_smallest():
    for p in (5, 7, 11, 13, 23, 37):
        g = primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        assert all(multiplicative_order(h, p) < p - 1 for h in range(2, g))
        assert g == sympy.primitive_root(p) == root_of_unity(p - 1, p)


def test_iroot_and_exact_roots():
    for n in range(200):
        for k in (2, 3, 5):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k
    assert kth_root_exact(32, 5) == 2
    assert kth_root_exact(-32, 5) == -2
    assert kth_root_exact(-4, 2) is None
    assert kth_root_exact(33, 5) is None
    big = 12345678901234567890
    assert kth_root_exact(big**7, 7) == big


def test_valuation():
    assert valuation(625, 5) == (4, 1)
    assert valuation(-50, 5) == (2, -2)
    assert valuation(7, 5) == (0, 7)
