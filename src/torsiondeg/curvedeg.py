"""Degrees of points on curves: the X1(N) genus formula, numerical
semigroup stabilization, and closed-point degree thresholds.

Everything here is exact integer/rational arithmetic.  The genus formula
is evaluated over Fraction and checked integral, so a transcription error
cannot round itself invisible.  Semigroup questions (is a target degree a
nonnegative combination of given point degrees, and from which point on is
every multiple of their gcd one) are answered from the table of least
representable numbers per residue class modulo the smallest generator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import divisors, euler_phi, factorize


@dataclass(frozen=True)
class SemigroupSpec:
    """A finite set of positive degrees and the gcd ("index") they span."""

    generators: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(sorted({int(g) for g in self.generators}))
        if not gens:
            raise ValueError("at least one generator is required")
        if gens[0] < 1:
            raise ValueError("generators must be positive integers")
        object.__setattr__(self, "generators", gens)

    @property
    def index(self) -> int:
        return math.gcd(*self.generators)


def _spec(spec) -> SemigroupSpec:
    return spec if isinstance(spec, SemigroupSpec) else SemigroupSpec(tuple(spec))


# ---------------------------------------------------------------------------
# genus of X1(N)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def genus_x1(N: int) -> int:
    """Genus of the modular curve X1(N), by the exact closed formula.

    Zero for N <= 4; for larger N the value
    1 + (N^2/24) prod_{p|N} (1 - 1/p^2) - (1/4) sum_{d|N} phi(d) phi(N/d)
    is computed in rational arithmetic and must come out integral.
    """
    if N < 1:
        raise ValueError("the level N must be a positive integer")
    if N <= 4:
        return 0
    term = Fraction(N * N, 24)
    for q, _ in factorize(N):
        term *= 1 - Fraction(1, q * q)
    cusps = sum(euler_phi(d) * euler_phi(N // d) for d in divisors(N))
    g = 1 + term - Fraction(cusps, 4)
    if g.denominator != 1 or g < 0:
        raise RuntimeError(f"genus formula gave {g} at N={N}")
    return int(g)


@lru_cache(maxsize=None)
def min_guaranteed_degree(N: int) -> int:
    """Least degree from which points of level N are guaranteed:
    max(1, 2 * genus).  Finite for every N, so torsion is not typically
    bounded; the genus report gives it as min_degree."""
    return max(1, 2 * genus_x1(N))


# ---------------------------------------------------------------------------
# numerical semigroups
# ---------------------------------------------------------------------------

def _least_representable_by_residue(gens: tuple[int, ...]) -> list[int]:
    """For coprime generators, the least representable number in each
    residue class modulo the smallest generator (the Apery list).

    Computed as shortest paths on the residue graph with edges
    r -> r + g (mod m) of weight g.
    """
    m = gens[0]
    least = [None] * m
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        val, r = heapq.heappop(heap)
        if val > least[r]:
            continue
        for g in gens:
            nr = (r + g) % m
            nv = val + g
            if least[nr] is None or nv < least[nr]:
                least[nr] = nv
                heapq.heappush(heap, (nv, nr))
    if None in least:
        raise RuntimeError(f"generators {gens} leave a residue unreached")
    return least


@lru_cache(maxsize=None)
def _scaled_least_table(scaled_gens: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_least_representable_by_residue(scaled_gens))


def _scaled(spec: SemigroupSpec) -> tuple[int, ...]:
    I = spec.index
    return tuple(g // I for g in spec.generators)


def representable(target: int, spec) -> bool:
    """Is the target a nonnegative integer combination of the generators?"""
    spec = _spec(spec)
    if target < 0:
        raise ValueError("representability is asked of nonnegative targets")
    I = spec.index
    if target % I != 0:
        return False
    t = target // I
    least = _scaled_least_table(_scaled(spec))
    return least[t % len(least)] <= t


def stable_bound(spec) -> int:
    """Least M >= 0 such that every multiple of the index that is >= M is
    representable.

    Scaling by the index makes the generators coprime; the largest
    non-representable scaled value is max(least table) - m, so stability
    starts one step above it.
    """
    spec = _spec(spec)
    least = _scaled_least_table(_scaled(spec))
    frobenius = max(least) - len(least)
    return spec.index * (frobenius + 1)


def closed_point_degree_threshold(g: int, spec) -> int:
    """Degree from which closed points of every allowed degree exist:
    max(stable_bound, 2g - 1 + sum of generators) for positive genus.

    Genus zero needs no Riemann-Roch headroom; every positive multiple of
    the index occurs, so the threshold is the index itself.
    """
    spec = _spec(spec)
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return spec.index
    return max(stable_bound(spec), 2 * g - 1 + sum(spec.generators))


def rr_degree_bound(g: int, weierstrass: bool = True) -> int:
    """Degree bound from Riemann-Roch at a rational base point: 1 in genus
    zero, otherwise 2g, improved to g+1 when the base point is known not
    to be a Weierstrass point.  The default assumes nothing about the
    point and uses the bound valid in all cases."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return 1
    return 2 * g if weierstrass else g + 1
