"""Torsion divisibility bounds for complex-multiplication abelian
varieties.

The engine is a divisibility theorem of Gaudron and Remond: if e is the
exponent of the torsion subgroup over a degree-dF field and mu counts
the roots of unity in the relevant CM order, then phi(e) | (mu/2) dF.
Everything else here makes that usable across a whole dimension g at
once:

  * H(g) bounds the degree contribution of the endomorphism field:
    endomorphisms act through a finite subgroup of GL_d(Z) with
    d <= 2 g^2, so Minkowski's bound applies.
  * M(g) bounds mu: the center is an etale algebra whose factors have
    degrees summing to 2g, each factor contributing roots of unity
    whose count mu_i satisfies phi(mu_i) | [F_i : Q].  A per-prime
    dynamic program over the degree partitions maximizes the exponent.
  * c(g) = H(g) M(g) / 2 packages both so that a point of order N over
    a degree-d field forces phi(N) | c(g) d.

From c(g) the prime-power escalation rule follows: a point of order
p^(N + v_p(c) + 1) forces p^N | d.  cm_profile exports that rule in the
shape the density/budget pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import (
    euler_phi,
    is_prime,
    minkowski_bound,
    ord_p,
    phi_preimage_divisors,
    primes_upto,
)


@dataclass(frozen=True)
class CmBoundSet:
    """The assembled constants for one dimension."""

    g: int
    H: int
    M: int
    c: int

    def __post_init__(self):
        if min(self.g, self.H, self.M, self.c) < 1:
            raise ValueError("all bound constants must be positive")
        if self.M % 2 != 0:
            raise ValueError("M must be even")
        if 2 * self.c != self.H * self.M:
            raise ValueError("c must equal H*M/2 exactly")


def gr_check(e: int, mu: int, dF: int) -> bool:
    """The exponent-versus-degree divisibility: phi(e) | (mu/2) dF."""
    if e < 1 or mu < 1 or dF < 1:
        raise ValueError("all inputs must be positive integers")
    if mu % 2 != 0:
        raise ValueError("mu must be even (the roots of unity include -1)")
    return (mu // 2) * dF % euler_phi(e) == 0


@lru_cache(maxsize=None)
def h_bound(g: int) -> int:
    """Degree bound for the field generated by the endomorphisms.

    The endomorphism ring has additive rank at most 2 g^2, and the
    relevant Galois action is through a finite subgroup of GL over Z at
    that rank, so Minkowski's bound at 2 g^2 works for every member.
    """
    if g < 1:
        raise ValueError("g must be a positive integer")
    return minkowski_bound(2 * g * g)


def _uroot_exponent(q: int, n: int) -> int:
    """Largest k with phi(q^k) | n: the q-exponent a degree-n factor can
    contribute to the count of central roots of unity."""
    k = 0
    while n % euler_phi(q ** (k + 1)) == 0:
        k += 1
    return k


@lru_cache(maxsize=None)
def mu_bound(g: int) -> int:
    """A single integer divisible by every realizable count of central
    roots of unity in dimension g.

    The center is etale of dimension 2g over Q, i.e. a product of
    fields whose degrees n_i sum to 2g (the dimension of a product is
    the sum of the factor dimensions).  Each factor contributes at most
    q^k roots-of-unity q-part where phi(q^k) | n_i, so per prime q the
    worst case is a partition of 2g maximizing the total exponent —
    a one-dimensional dynamic program.  Primes q > 2g + 1 contribute
    nothing since phi(q) = q - 1 > 2g.
    """
    if g < 1:
        raise ValueError("g must be a positive integer")
    m = 2 * g
    out = 1
    for q in primes_upto(m + 1):
        best = [0] * (m + 1)
        for total in range(1, m + 1):
            best[total] = max(_uroot_exponent(q, part) + best[total - part]
                              for part in range(1, total + 1))
        out *= q ** best[m]
    return out


@lru_cache(maxsize=None)
def c_of_g(g: int) -> CmBoundSet:
    """Assemble H, M, and c = H*M/2 for dimension g."""
    H = h_bound(g)
    M = mu_bound(g)
    if M % 2:
        raise RuntimeError("the prime 2 always contributes to the root "
                           f"count, but M = {M}")
    return CmBoundSet(g=g, H=H, M=M, c=H * M // 2)


def allowed_exponents(g: int, d: int) -> list[int]:
    """All candidate torsion exponents N over degree-d fields: exactly
    those with phi(N) | c(g) d.

    Found by phi_preimage_divisors' walk over the primes q with
    (q - 1) | c d, complete because every answer is at most 2 (c d)^2.
    arith.PHI_PREIMAGE_LIMIT caps that documented range; c grows
    violently with g, so it refuses g = 2.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    return phi_preimage_divisors(c_of_g(g).c * d)


def cm_p1_exponent(g: int, p: int, N: int) -> int:
    """Least point order exponent forcing p^N | [F:Q]: a point of order
    p^n with n = N + v_p(c(g)) + 1 has phi(p^n) = (p-1) p^(N + v_p(c)),
    and phi(p^n) | c(g) d then forces p^N | d."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if g < 1 or N < 1:
        raise ValueError("g and N must be positive integers")
    return N + ord_p(c_of_g(g).c, p) + 1


def cm_profile(g: int):
    """Package the dimension-g constants for the budget pipeline as a
    families.FamilyProfile: p2_c = c(g) and the escalation rule of
    cm_p1_exponent.  families (and numpy) load here, not with `cm`."""
    from .families import FamilyProfile, rule_from_template

    c = c_of_g(g).c
    return FamilyProfile(p2_c=c,
                         p1_rule=rule_from_template({"kind": "cm", "c": c}))
