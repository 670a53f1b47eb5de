"""Elementary number theory shared by the rest of the package.

Everything here is exact integer arithmetic.  Python integers are unbounded,
so there is no overflow regime; phi_preimage_divisors keeps an explicit
guard on its documented search range.
"""

from __future__ import annotations

import math
from itertools import compress

__all__ = [
    "divisors",
    "euler_phi",
    "factorize",
    "glm_order",
    "is_prime",
    "minkowski_bound",
    "ord_p",
    "phi_preimage_divisors",
    "prime_count",
    "prime_sieve",
    "primes_array",
    "primes_upto",
]

# Miller-Rabin with the first k primes as bases is proven to leave no
# strong pseudoprime below psi_k (OEIS A014233; Jaeschke, Math. Comp. 61,
# 1993, and Sorenson and Webster, Math. Comp. 86, 2017): each n takes the
# shortest prefix of _MR_WITNESSES proven for its size, and n >= psi_13 is
# refused rather than guessed at.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (  # (psi_k, k), ascending
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),  # = psi_8
    (3_825_123_056_546_413_051, 9),  # = psi_10 = psi_11
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < psi_13 ~ 3.3e24;
    ValueError beyond, where no proven witness set is known."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    k = next((k for bound, k in _MR_BOUNDS if n < bound), None)
    if k is None:
        raise ValueError(f"is_prime is proven only below "
                         f"{_MR_BOUNDS[-1][0]}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_sieve(limit: int) -> bytearray:
    """limit+1 bytes; byte i is 1 iff i is prime.

    A bytearray, not a numpy array: every sieve the commands run is small,
    and `cm` then starts without numpy.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[:2] = bytes(min(limit + 1, 2))
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes((limit - q * q) // q + 1)
    return sieve


def primes_array(limit: int):
    """The primes <= limit, ascending, as an int64 numpy array."""
    import numpy as np

    sieve = np.frombuffer(prime_sieve(limit), dtype=np.bool_)
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


def prime_count(n: int) -> int:
    """pi(n), the number of primes <= n, without listing them.

    Lucy's form of Legendre's recursion: S(v) counts the integers in
    [2, v] with no prime factor below p, for every v of the shape n // i.
    Sieving by each prime p <= sqrt(n) in turn,
    S(v) -= S(v // p) - S(p - 1) for v >= p^2, leaves S(v) = pi(v).
    O(n^(3/4)) exact int64 work on two arrays of length sqrt(n).
    """
    import numpy as np

    if n < 2:
        return 0
    r = math.isqrt(n)
    small = np.arange(r + 1, dtype=np.int64) - 1  # small[v] = S(v)
    large = np.zeros(r + 1, dtype=np.int64)  # large[i] = S(n // i)
    large[1:] = n // np.arange(1, r + 1, dtype=np.int64) - 1
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        sp = small[p - 1]
        top = min(r, n // (p * p))
        k = min(top, r // p)  # n // (i p) = large[i p] while i p <= r
        large[1:k + 1] -= large[p:k * p + 1:p] - sp
        i = np.arange(k + 1, top + 1, dtype=np.int64)
        large[k + 1:top + 1] -= small[n // (i * p)] - sp
        if p * p <= r:
            v = np.arange(p * p, r + 1, dtype=np.int64)
            small[p * p:] -= small[v // p] - sp
    return int(large[1])


def primes_upto(x: int) -> list[int]:
    """All primes <= x, ascending."""
    if x < 2:
        return []
    return list(compress(range(x + 1), prime_sieve(x)))


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    for q in (2, 3):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
    q = 5
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        # skip multiples of 2 and 3
        q += 2 if q % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """Sorted divisors of n >= 1."""
    out = [1]
    for q, e in factorize(n):
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    out = n
    for q, _ in factorize(n):
        out = out // q * (q - 1)
    return out


def ord_p(n: int, p: int) -> int:
    """p-adic valuation of n != 0."""
    if n == 0:
        raise ValueError("ord_p(0) is infinite")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


# The largest documented range N <= 2 m^2 that phi_preimage_divisors
# accepts: m up to 3162.
PHI_PREIMAGE_LIMIT = 2 * 10**7


def phi_preimage_divisors(m: int) -> list[int]:
    """Sorted list of all N with euler_phi(N) | m.

    Every prime q | N has (q - 1) | phi(N) | m, so the candidate primes
    are the q = e + 1 over divisors e of m, and N is found by a
    depth-first walk that multiplies in prime powers q^k while
    phi(N) = prod (q - 1) q^(k-1) still divides m.  The answer lies in
    the documented range N <= 2 m^2, since phi(N) >= sqrt(N / 2), and
    an m whose range passes PHI_PREIMAGE_LIMIT is refused.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    bound = 2 * m * m
    if bound > PHI_PREIMAGE_LIMIT:
        raise ValueError(
            f"phi preimage scan for m={m} needs N <= {bound}, past the "
            f"supported limit PHI_PREIMAGE_LIMIT = {PHI_PREIMAGE_LIMIT}")
    candidates = [e + 1 for e in divisors(m) if is_prime(e + 1)]
    found = []

    def walk(start: int, n: int, phi: int) -> None:
        found.append(n)
        for i in range(start, len(candidates)):
            q = candidates[i]
            qn, qphi = n * q, phi * (q - 1)
            while m % qphi == 0:
                walk(i + 1, qn, qphi)
                qn, qphi = qn * q, qphi * q

    walk(0, 1, 1)
    return sorted(found)


def glm_order(m: int, p: int, n: int) -> tuple[int, int]:
    """Order of GL_m(Z/p^n Z), returned as (c, G) with order = c * p**G, gcd(c, p) = 1.

    #GL_m(Z/p^n) = p^((n-1) m^2) * prod_{i=0}^{m-1} (p^m - p^i).
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = p ** ((n - 1) * m * m)
    for i in range(m):
        total *= p**m - p**i
    g = ord_p(total, p)
    return total // p**g, g


def minkowski_bound(n: int) -> int:
    """Minkowski's bound: every finite subgroup order of GL_n(Q) divides this.

    prod_p p^(e_p) with e_p = sum_{k>=0} floor(n / (p^k (p-1))); only primes
    with p - 1 <= n contribute.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = 1
    for p in primes_upto(n + 1):
        e = 0
        q = p - 1
        while q <= n:
            e += n // q
            q *= p
        out *= p**e
    return out
