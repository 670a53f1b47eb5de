import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torsiondeg import arith


def phi_brute(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def phi_table(limit):
    """Independent phi oracle: classic in-place sieve, no package code."""
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # q prime
            for k in range(q, limit + 1, q):
                phi[k] -= phi[k] // q
    return phi


def phi_array(limit):
    """phi(0..limit) as an int64 array: the same sieve, vectorised."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for q in range(2, limit + 1):
        if phi[q] == q:  # q prime
            phi[q::q] -= phi[q::q] // q
    return phi


def gl_count_brute(m, p, n):
    """Count invertible m x m matrices over Z/p^n by direct enumeration."""
    assert m == 2, "oracle only written for m = 2"
    mod = p**n
    count = 0
    for a in range(mod):
        for b in range(mod):
            for c in range(mod):
                for d in range(mod):
                    if (a * d - b * c) % p != 0:
                        count += 1
    return count


def test_euler_phi_against_brute_force():
    for n in range(1, 201):
        assert arith.euler_phi(n) == phi_brute(n)


@given(st.integers(1, 500), st.integers(1, 500))
def test_phi_multiplicative_on_coprime(a, b):
    if math.gcd(a, b) == 1:
        assert arith.euler_phi(a * b) == arith.euler_phi(a) * arith.euler_phi(b)


def test_primes_upto():
    assert arith.primes_upto(1) == []
    assert arith.primes_upto(2) == [2]
    assert arith.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = arith.primes_upto(10**4)
    assert len(ps) == 1229
    assert all(arith.is_prime(q) for q in ps[:100])
    # brute-force oracle for the one bytearray sieve, at every x <= 2000
    oracle = [q for q in range(2001) if arith.is_prime(q)]
    for x in range(-2, 2001):
        assert arith.primes_upto(x) == [q for q in oracle if q <= x], x
    # the numpy view of the same sieve, and the sieve-free count
    big = arith.primes_array(2**20)
    assert big.dtype == np.int64
    assert big.tolist() == arith.primes_upto(2**20)
    assert len(big) == arith.prime_count(2**20) == 82025


@given(st.integers(2, 10**6))
def test_is_prime_matches_trial_division(n):
    brute = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert arith.is_prime(n) == brute


# OEIS A014233: psi_k is the least odd composite that is a strong
# pseudoprime to each of the first k prime bases
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)


def test_is_prime_rejects_or_refuses_every_psi_of_a014233():
    assert _PSI[11] == 399165290221 * 798330580441
    assert _PSI[12] == 1287836182261 * 2575672364521
    for psi in _PSI[:12]:
        assert not arith.is_prime(psi), psi
    # no proven witness set reaches psi_13, so the answer is refused
    with pytest.raises(ValueError, match=str(_PSI[12])):
        arith.is_prime(_PSI[12])
    assert arith.is_prime(2 ** 61 - 1) and not arith.is_prime(2 ** 62 - 1)


def test_is_prime_matches_the_sieve():
    sieve = arith.prime_sieve(2 * 10 ** 5)
    assert [n for n in range(len(sieve)) if arith.is_prime(n)] == [
        n for n in range(len(sieve)) if sieve[n]]


def test_factorize_roundtrip():
    for n in list(range(1, 500)) + [2**10 * 3**4 * 97, 10**12 + 39]:
        prod = 1
        for q, e in arith.factorize(n):
            assert arith.is_prime(q)
            prod *= q**e
        assert prod == n


def test_divisors():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(120) == [d for d in range(1, 121) if 120 % d == 0]


def test_ord_p():
    assert arith.ord_p(144, 2) == 4
    assert arith.ord_p(144, 3) == 2
    assert arith.ord_p(144, 5) == 0
    assert arith.ord_p(-8, 2) == 3
    with pytest.raises(ValueError):
        arith.ord_p(0, 2)
    with pytest.raises(ValueError):
        arith.ord_p(10, 4)


class TestPhiPreimageDivisors:
    def test_phi_table_oracle_is_sound(self):
        table = phi_table(300)
        for n in range(1, 301):
            assert table[n] == phi_brute(n)

    def test_small_values(self):
        assert arith.phi_preimage_divisors(1) == [1, 2]
        assert arith.phi_preimage_divisors(2) == [1, 2, 3, 4, 6]
        assert arith.phi_preimage_divisors(4) == [1, 2, 3, 4, 5, 6, 8, 10, 12]

    def test_against_brute_force(self):
        table = phi_table(2 * 50 * 50)
        for m in range(1, 51):
            expected = [n for n in range(1, 2 * m * m + 1) if m % table[n] == 0]
            assert arith.phi_preimage_divisors(m) == expected

    def test_completeness_bound_is_safe(self):
        # phi(N) >= sqrt(N/2) justifies the 2m^2 scan bound
        for n in range(1, 5000):
            assert arith.euler_phi(n) ** 2 * 2 >= n

    def test_cost_guard(self):
        with pytest.raises(ValueError, match="limit"):
            arith.phi_preimage_divisors(10**6)

    def test_sieve_and_loop_paths_agree(self):
        # m = 300 reaches N up to 2m^2 = 180000, far past the m <= 50 above
        m = 300
        table = phi_table(2 * m * m)
        expected = [n for n in range(1, 2 * m * m + 1) if m % table[n] == 0]
        assert arith.phi_preimage_divisors(m) == expected


    def test_divisor_walk_against_phi_sieve(self):
        phi = phi_array(2 * 720 * 720)
        for m in range(1, 721):
            expected = np.flatnonzero(m % phi[1:2 * m * m + 1] == 0) + 1
            assert arith.phi_preimage_divisors(m) == expected.tolist(), m


def test_prime_count_matches_sieve():
    for n in range(-3, 5001):
        assert arith.prime_count(n) == len(arith.primes_upto(n)), n
    for n in (10 ** 6, 33_366_961):
        assert arith.prime_count(n) == len(arith.primes_array(n))


class TestGlmOrder:
    def test_gl2_f2(self):
        assert arith.glm_order(2, 2, 1) == (3, 1)  # order 6

    def test_gl2_z4(self):
        assert arith.glm_order(2, 2, 2) == (3, 5)  # order 96

    def test_gl2_z9(self):
        assert arith.glm_order(2, 3, 2) == (16, 5)  # order 3888

    def test_against_brute_count(self):
        for p, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            c, g = arith.glm_order(2, p, n)
            assert c * p**g == gl_count_brute(2, p, n)

    def test_c_is_prime_to_p(self):
        for m in (1, 2, 3, 4):
            for p in (2, 3, 5, 7):
                for n in (1, 2, 3):
                    c, g = arith.glm_order(m, p, n)
                    assert c % p != 0
                    assert c > 0 and g >= 0

    def test_prime_to_p_part_independent_of_n(self):
        for p in (2, 3, 5):
            c1, _ = arith.glm_order(2, p, 1)
            for n in (2, 3, 4):
                cn, _ = arith.glm_order(2, p, n)
                assert cn == c1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            arith.glm_order(2, 4, 1)
        with pytest.raises(ValueError):
            arith.glm_order(0, 2, 1)


def test_minkowski_bound_values():
    assert arith.minkowski_bound(1) == 2
    assert arith.minkowski_bound(2) == 24
    assert arith.minkowski_bound(4) == 5760
    assert arith.minkowski_bound(8) == 2**15 * 3**5 * 5**2 * 7


def test_minkowski_bound_divisibility_chain():
    # doubling n only adds constraints, so the bound for n divides the one for 2n
    for n in range(1, 9):
        assert arith.minkowski_bound(2 * n) % arith.minkowski_bound(n) == 0

