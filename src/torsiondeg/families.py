"""Density analytics for divisor-structured degree sets and the
excluded-set/torsion-budget procedure.

Degree sets are finite unions of three clause shapes: "m divides d"
(divisor), "some prime l with l-1 > C satisfies (l-1) | c d"
(prime-shift) and "l^N divides d for some prime l <= L"
(prime-power-div).  Densities are exact counts at a finite cutoff x,
reported as rationals; all asymptotic statements in the surrounding
theory are only ever approximated by such finite-cutoff proxies, and
reports say so by carrying x.

Counts walk the degrees in blocks.  Every clause is closed under taking
multiples, so a block is complete once each degree is lifted to the
maximum over its divisors: one kernel, _spread_block, lifts the degrees
up to sqrt(x) by a strided pass per marked s, and each later degree d
also from d / p for every prime p <= sqrt(x), which lies in an earlier,
finished block.  A walk keeps only the degrees up to x / 2, since no
block reads past that: a density count one bit each, and the code walk
of the budget's cutoff search one uint8 code of the largest prime shift
each.  The cutoff search mostly walks no code: it reads its cutoff off
the few top progressions, whose cofactors are small (find_cutoff_C).

The main pipeline (b_epsilon_procedure) picks the least shift cutoff C
whose clause has density at most epsilon/2, converts it to a prime bound
L = C+1, picks the least exponent N whose union bound sum_{l<=L} l^-N
is within the other epsilon/2, asks the family profile for the forced
exponent at each prime, and assembles the torsion budget
B = 1 + prod l^(n_l - 1).  The emitted certificate (an exact density
recount of the union set) is checked before returning.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction
from itertools import accumulate, groupby, islice
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .arith import (
    divisors,
    factorize,
    is_prime,
    ord_p,
    prime_count,
    primes_array,
    primes_upto,
)

MAX_SIEVE = 2 * 10 ** 8

# Degrees per sieve block and per block of a walk: the scratch that the
# prime-shift path holds besides the bits of a count or the codes of the
# cutoff search.  The sieving primes it lists stop at one block too:
# 82,025 primes.
_BLOCK = 1 << 20
MAX_SIEVING_PRIME = _BLOCK

# The code walk of the cutoff search has uint8 codes and histograms them
# this many degrees at a time; the top progressions sum their marks this
# many bytes at a time.
_CODES = 256
_CHUNK = 1 << 15

# The cutoff search reads the top progressions, with cofactors k < k0 for
# k0 = 2 and then k0 = this bound plus one; a cutoff below
# c x / (bound + 1) is found by the code walk.
_MAX_COFACTOR = 7

# Budget products over every prime up to L get genuinely astronomical (L
# can reach 10^8 for tight epsilon), so materialization is capped and the
# structured outputs carry enough to compare budgets exactly without it.
PRODUCT_PRIME_CAP = 300_000
PRODUCT_DIGIT_CAP = 2_000_000


# ---------------------------------------------------------------------------
# clauses and specs
# ---------------------------------------------------------------------------

class _Clause:
    """The protocol of every clause class: KIND, its JSON kind, and
    walker(x), which returns mark(block, lo), setting members among the
    degrees [lo, lo + len(block)) of each sieve block of a walk over
    [1, x], called once per block in ascending order.  A walker refuses
    what its walk cannot do before the walk allocates anything."""

    KIND: str

    def describe(self) -> dict:
        return {"kind": self.KIND, **asdict(self)}


@dataclass(frozen=True)
class DivClause(_Clause):
    """The degrees divisible by m."""

    KIND = "divisor"
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("the modulus must be a positive integer")

    def contains(self, d: int) -> bool:
        return d >= 1 and d % self.m == 0

    def walker(self, x: int):
        m = self.m

        def mark(block, lo):
            block[-lo % m::m] = True
        return mark


@dataclass(frozen=True)
class PrimeShiftClause(_Clause):
    """The degrees d admitting a prime l with l-1 > C and (l-1) | c d."""

    KIND = "prime-shift"
    c: int
    C: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("the multiplier c must be a positive integer")
        if self.C < 0:
            raise ValueError("the cutoff C must be nonnegative")

    def contains(self, d: int) -> bool:
        """Naive trial over all candidate primes — the decidability
        contract, used as the oracle for the sieve."""
        if d < 1:
            return False
        cd = self.c * d
        return any(l - 1 > self.C and cd % (l - 1) == 0
                   for l in primes_upto(cd + 1))

    def walker(self, x: int):
        """Each mark sets the least members of its block from that
        block's (lo, t, alive) triples of _progression_blocks(c, x, C),
        sieved only past the floor C.  A degree is a member exactly when
        it is a multiple of some s with t s + 1 prime, gcd(s, c/t) = 1
        and t s > C, so marking these s is enough: density_upto's spread
        lifts every multiple of a marked degree.  No shift value is
        formed.  A c x past the sieving bound (_sieving_root) is refused
        at once, before the walk allocates anything."""
        _sieving_root(self.c, x)
        blocks = groupby(_progression_blocks(self.c, x, self.C),
                         key=itemgetter(0))

        def mark(block, lo):
            for _, _, alive in next(blocks)[1]:
                block |= alive
        return mark


def _int_nth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n (0 for n < 1); pure-integer bisection."""
    if n < 1:
        return 0
    lo, hi = 0, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class PrimePowerDivClause(_Clause):
    """{d : l^N | d for some prime l <= L} — the union of the divisor
    clauses l^N over every prime up to L, kept as one object because L
    can be large enough (10^8) that listing the primes is hostile."""

    KIND = "prime-power-div"
    N: int
    L: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("the exponent N must be a positive integer")
        if self.L < 0:
            raise ValueError("the prime bound L must be nonnegative")

    def contains(self, d: int) -> bool:
        if d < 1:
            return False
        top = min(self.L, _int_nth_root(d, self.N))
        return any(d % l ** self.N == 0 for l in primes_upto(top))

    def walker(self, x: int):
        """The walk's steps are the l^N, ascending, over the primes up to
        min(L, x^(1/N)), sieved once for every block.  Each mark reads
        the prefix of them up to its block's last degree: one strided
        pass per l^N up to 1/64 of the block's length, and the larger
        l^N, which have at most 64 multiples there each, one multiple
        apiece per gather."""
        every = primes_array(min(self.L, _int_nth_root(x, self.N)))
        every **= self.N

        def mark(block, lo):
            n = len(block)
            steps = every[:np.searchsorted(every, lo + n - 1, side="right")]
            few = int(np.searchsorted(steps, n // 64, side="right"))
            for step in steps[:few].tolist():
                block[-lo % step::step] = True
            steps = steps[few:]
            hits = -lo % steps
            while len(hits):
                inside = hits < n
                hits, steps = hits[inside], steps[inside]
                block[hits] = True
                hits += steps
        return mark


# Every clause class, in the canonical order of a spec's clauses.
_CLAUSES = (DivClause, PrimeShiftClause, PrimePowerDivClause)
_CLAUSE_KINDS = {cls.KIND: cls for cls in _CLAUSES}


@dataclass(frozen=True)
class IntegerSetSpec:
    """A finite union of clauses, canonically ordered: by class, in
    _CLAUSES order, then by field values."""

    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if type(clause) not in _CLAUSES:
                raise ValueError(f"unsupported clause {clause!r}")
        ordered = tuple(sorted(
            set(self.clauses),
            key=lambda clause: (_CLAUSES.index(type(clause)),
                                astuple(clause))))
        object.__setattr__(self, "clauses", ordered)

    def contains(self, d: int) -> bool:
        return any(clause.contains(d) for clause in self.clauses)

    def describe(self) -> list[dict]:
        return [clause.describe() for clause in self.clauses]


def _json_int(data: dict, field: str) -> int:
    """data[field] if it is a JSON integer; a float, a boolean or a string
    is refused by name rather than read as some nearby integer."""
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {field!r} must be an integer, "
                         f"got {value!r}")
    return value


def spec_from_dict(data) -> IntegerSetSpec:
    """The spec of a JSON object {"clauses": [...]}, each clause in the
    form its describe() gives; errors name the clause as clauses[i]."""
    if not isinstance(data, dict) or "clauses" not in data:
        raise ValueError("expected an object with a 'clauses' list")
    if not isinstance(data["clauses"], list) or not data["clauses"]:
        raise ValueError("'clauses' must be a nonempty list")
    parsed = []
    for i, clause in enumerate(data["clauses"]):
        where = f"clauses[{i}]"
        if not isinstance(clause, dict):
            raise ValueError(f"{where}: clause must be an object")
        kind = clause.get("kind")
        cls = _CLAUSE_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"{where}: unknown clause kind {kind!r}")
        try:
            parsed.append(cls(*(_json_int(clause, f.name)
                                for f in fields(cls))))
        except KeyError as exc:
            raise ValueError(f"{where}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    return IntegerSetSpec(tuple(parsed))


@dataclass(frozen=True)
class DensityReport:
    """Exact membership count of a set within [1, x]."""

    cutoff: int
    count: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("the cutoff must be a positive integer")
        if not 0 <= self.count <= self.cutoff:
            raise ValueError("count out of range")

    @property
    def density(self) -> Fraction:
        return Fraction(self.count, self.cutoff)


# ---------------------------------------------------------------------------
# sieves
# ---------------------------------------------------------------------------

def _sieving_root(c: int, x: int) -> int:
    """isqrt(c x + 1), refused past MAX_SIEVING_PRIME."""
    root = math.isqrt(c * x + 1)
    if root > MAX_SIEVING_PRIME:
        raise ValueError(f"prime shifts at c = {c}, x = {x} sieve by the "
                         f"primes up to {root}; the supported bound of "
                         f"the sieving primes is MAX_SIEVING_PRIME = "
                         f"{MAX_SIEVING_PRIME}")
    return root


def _progression_blocks(c: int, x: int, floor: int = 0):
    """Yield (lo, t, alive) for each block of _BLOCK degrees s in
    [lo, lo + len(alive)) and, within it, each sieved divisor t of c in
    ascending order: alive[s - lo] says that t s > floor, gcd(s, c/t) = 1
    and t s + 1 is prime.  alive is one scratch array, refilled for the
    next yield, and only its part past floor // t is sieved.

    A prime l with (l-1) | c d is l = t s + 1 for exactly one divisor
    t = gcd(l-1, c) of c and one s | d with gcd(s, c/t) = 1.  For even c
    only the even t are sieved: for odd t, c/t is even, so s is odd and
    t s + 1 is even, which leaves only l = 2 (t = s = 1), and t = 2
    already owns s = 1.  Each progression t s + 1 is sieved on its own by
    the primes up to sqrt(t x + 1), each prime's first multiple in the
    block computed afresh.
    """
    sieved = [(t, [q for q, _ in factorize(c // t)]) for t in divisors(c)
              if c % 2 or t % 2 == 0]
    sieving = primes_array(_sieving_root(c, x)).tolist()
    scratch = np.empty(min(_BLOCK, x), dtype=bool)
    for lo in range(1, x + 1, _BLOCK):
        hi = min(lo + _BLOCK, x + 1)  # the block is s in [lo, hi)
        alive = scratch[:hi - lo]
        for t, coprime in sieved:
            first = max(lo, floor // t + 1)  # the least s sieved
            alive[:first - lo] = False
            if first < hi:
                part = alive[first - lo:]
                part.fill(True)
                for q in coprime:
                    part[-first % q::q] = False  # gcd(s, c/t) = 1
                for q in sieving:
                    if q * q > t * (hi - 1) + 1:
                        break
                    if t % q == 0:
                        continue  # t s + 1 is 1 mod q
                    start = (-pow(t, -1, q) - first) % q  # t s + 1 = 0 mod q
                    if t * (first + start) + 1 == q:
                        start += q  # q itself is prime
                    part[start::q] = False
            yield lo, t, alive


def _small_passes(small: np.ndarray) -> list:
    """(s, small[s]) for each s >= 1 whose multiples need a strided pass
    of their own, with small the values of the degrees up to sqrt(x)
    before any spread: small[s] is nonzero, and no proper divisor t of s
    has small[t] >= small[s], since the pass over t then lifts the
    multiples of s as far.  The walk up s that finds the others zeroes
    them in a list copy, so small itself is only read.
    """
    left = small.tolist()
    r = len(left) - 1
    passes = []
    for s in range(1, r + 1):
        if left[s]:
            passes.append((s, left[s]))
            for t in range(2 * s, r + 1, s):
                if left[t] <= left[s]:
                    left[t] = 0
    return passes


def _degree_blocks(lo: int, hi: int, r: int):
    """Yield the spread blocks [D, E), E <= 2 D, that tile the degrees
    of [lo, hi) past r: the sieve blocks of _BLOCK degrees after the
    first come whole, and the first is cut into blocks doubling from
    r + 1."""
    D = max(lo, r + 1)
    while D < hi:
        E = min(2 * D, hi)
        yield D, E
        D = E


def _spread_block(block: np.ndarray, lo: int, r: int, passes, primes,
                  load) -> None:
    """Lift each degree d in [lo, hi), hi = lo + len(block), to the
    maximum over the divisors of d, in place; block holds the values at
    those degrees before any spread.

    passes are the _small_passes of the degrees up to r = isqrt(x):
    each is one strided maximum over its multiples in the block.  primes
    are the primes up to r, ascending, and load(a, b) returns the lifted
    values at the degrees [a, b); each prime p is one strided maximum
    that lifts every multiple d = p m in the block from m.  Either may be
    empty: the degrees up to r take passes alone, and so may a whole
    table whose blocks then take primes alone.

    Past r, blocks with r < lo and hi <= 2 lo, in ascending order, are
    exact.  Every d / p <= d / 2 lies in an earlier block, so it is
    lifted already.  A divisor e > r of d <= x has d / e < r + 1, so d
    reaches e through primes up to r, and prime powers need no passes of
    their own.  A divisor e <= r is reached by the pass over e or over a
    divisor of e at least as large.  A pass only copies a value onto a
    multiple, so the result is exact whenever the answer is
    nondecreasing along divisibility, as the largest prime shift is, and
    so the set of degrees where it exceeds C (on booleans the maximum is
    a logical or).
    """
    hi = lo + len(block)
    for s, value in passes:
        view = block[-lo % s::s]
        np.maximum(view, value, out=view)
    for p in primes:
        b = (hi - 1) // p + 1  # d = p m for m in [a, b)
        if b <= r + 1:
            break  # the passes cover every m <= r, and p only grows
        a = max(-(-lo // p), r + 1)
        if a < b:
            view = block[p * a - lo::p]
            np.maximum(view, load(a, b), out=view)


def _put_bits(bits: np.ndarray, d: int, values: np.ndarray) -> None:
    """OR values into the degrees [d, d + len(values)) of bits, where
    degree e is bit e - 1 in np.packbits order."""
    i = d - 1
    head = min(-i % 8, len(values))  # the bits up to a byte boundary
    if head:
        bits[i // 8] |= np.packbits(values[:head])[0] >> i % 8
    if len(values) > head:
        packed = np.packbits(values[head:])
        j = (i + head) // 8
        bits[j:j + len(packed)] |= packed


def _check_walk(x: int) -> None:
    """Refuse a walk over the degrees [1, x] before anything is
    allocated: x is capped at MAX_SIEVE."""
    if x < 1:
        raise ValueError("the cutoff must be a positive integer")
    if x > MAX_SIEVE:
        raise ValueError(
            f"a walk to x = {x} would keep the degrees up to x / 2, "
            f"besides blocks of {_BLOCK} degrees; the supported bound is "
            f"x <= MAX_SIEVE = {MAX_SIEVE}")


def _lifted_blocks(x: int, dtype, fill, keep, load):
    """Yield the degrees [1, x] as ascending blocks of values, each
    degree lifted to the maximum over its divisors.

    fill(block, lo) writes the values of the sieve block of _BLOCK
    degrees [lo, lo + len(block)) before any spread.  The degrees up to
    r = isqrt(x) come first, in one block lifted by their _small_passes;
    past r, each block of _degree_blocks is lifted by _spread_block.  The
    spread reads no degree past x / 2, so only those degrees of a lifted
    block go to keep(d, values), values being the degrees
    [d, d + len(values)), and load(a, b) returns the kept values of the
    degrees [a, b).  A yielded block is scratch, refilled for the next.
    """
    r = math.isqrt(x)
    half = x // 2
    small = np.zeros(r + 1, dtype=dtype)
    primes = primes_upto(r)
    scratch = np.empty(min(_BLOCK, x), dtype=dtype)
    for lo in range(1, x + 1, _BLOCK):
        hi = min(lo + _BLOCK, x + 1)
        sieved = scratch[:hi - lo]
        fill(sieved, lo)
        if lo <= r:
            top = min(hi, r + 1)
            small[lo:top] = sieved[:top - lo]
            if top == r + 1:  # the degrees up to r are all filled
                passes = _small_passes(small)
                _spread_block(small[1:], 1, r, passes, (), None)
                keep(1, small[1:half + 1])
                yield small[1:]
        for D, E in _degree_blocks(lo, hi, r):
            block = sieved[D - lo:E - lo]
            _spread_block(block, D, r, passes, primes, load)
            if D <= half:
                keep(D, block[:half + 1 - D])
            yield block


def density_upto(spec: IntegerSetSpec, x: int) -> DensityReport:
    """Exact count of members of the union in [1, x], block by block.

    _lifted_blocks walks the degrees.  Each sieve block is marked by
    the walker of every clause, in spec order, each setting members of
    the block: the least ones suffice, since every clause is closed
    under taking multiples, so the union is too, and the lift (a logical
    or along divisibility) makes it whole.  Only [1, x / 2] is kept, one
    bit per degree in np.packbits order (bit d - 1 for the degree d):
    x / 16 bytes, besides the one block of the count and the walkers'
    own.
    """
    _check_walk(x)
    marks = [clause.walker(x) for clause in spec.clauses]
    bits = np.zeros((x // 2 + 7) // 8, dtype=np.uint8)

    def load(a, b):
        i = a - 1
        return np.unpackbits(bits[i // 8:(b + 6) // 8])[
            i % 8:i % 8 + b - a].view(bool)

    def fill(block, lo):
        block.fill(False)
        for mark in marks:
            mark(block, lo)

    blocks = _lifted_blocks(x, bool, fill,
                            lambda d, values: _put_bits(bits, d, values),
                            load)
    return DensityReport(x, sum(int(np.count_nonzero(block))
                                for block in blocks))


def erdos_wagstaff_set(c: int, C: int, x: int):
    """The degrees up to x with a prime shift divisor beyond C, together
    with their exact density."""
    spec = IntegerSetSpec((PrimeShiftClause(c, C),))
    return spec, density_upto(spec, x)


def _code_histogram(c: int, x: int, floor: int, width: int) -> np.ndarray:
    """The number of degrees d in [1, x] at each code q(M(d)), M(d) the
    largest l - 1 over the primes l with (l-1) | c d: q(v) = 0 for
    v <= floor, else min(1 + (v - floor - 1) // width, _CODES - 1).

    The blocks of _progression_blocks(c, x, floor) sieve only the s with
    t s > floor.  For each divisor t, q(t s) is constant on runs of s, so
    each run takes q(t s) at its alive s by one maximum, the shifts
    formed as Python integers at the ends of the runs; an s with no shift
    past the floor keeps 0.  q is nondecreasing, so q(M(d)) is the
    maximum of q over the shifts of the divisors of d, and _lifted_blocks
    lifts the codes exactly, keeping x / 2 bytes of them.  np.bincount
    casts to int64, so it takes _CHUNK degrees at a time.
    """
    codes = np.zeros(x // 2 + 1, dtype=np.uint8)
    blocks = groupby(_progression_blocks(c, x, floor), key=itemgetter(0))

    def fill(block, lo):
        block.fill(0)
        hi = lo + len(block)
        for _, t, alive in next(blocks)[1]:
            s = max(lo, floor // t + 1)  # the least s with t s > floor
            while s < hi:  # one run [s, end) of s per code k of t s
                k = min((t * s - floor - 1) // width + 1, _CODES - 1)
                end = hi if k == _CODES - 1 else min(
                    hi, (floor + k * width) // t + 1)
                run = alive[s - lo:end - lo].view(np.uint8)
                run *= k  # alive is scratch, refilled for the next t
                view = block[s - lo:end - lo]
                np.maximum(view, run, out=view)
                s = end

    def keep(d, values):
        codes[d:d + len(values)] = values

    hist = np.zeros(_CODES, dtype=np.int64)
    for block in _lifted_blocks(x, np.uint8, fill, keep,
                                lambda a, b: codes[a:b]):
        for j in range(0, len(block), _CHUNK):
            hist += np.bincount(block[j:j + _CHUNK], minlength=_CODES)
    return hist


def _walk_cutoff(c: int, x: int, allowed: int, ceiling: int) -> int:
    """The least C >= 0 with at most `allowed` degrees d <= x of M(d) > C,
    given C <= ceiling, by code walks.

    C lies in a bracket (floor, ceiling], at first (0, ceiling]: l = 2
    gives M(d) >= 1.  Each pass of _code_histogram counts the degrees by a
    nondecreasing code of their M in _CODES - 1 = 255 buckets of the
    bracket, and the bucket that holds the (allowed + 1)-th largest is the
    next bracket, until it is one value wide.  Each pass keeps x / 2 bytes
    of codes, and later passes sieve only past their floor.
    """
    floor = 0
    while ceiling - floor > 1:
        width = -(-(ceiling - floor) // (_CODES - 1))
        hist = _code_histogram(c, x, floor, width).tolist()
        above = 0
        for k in range(_CODES - 1, 0, -1):
            above += hist[k]
            if above > allowed:
                break
        else:  # pragma: no cover - defensive
            raise RuntimeError(
                f"the cutoff left its bracket ({floor}, {ceiling}]")
        bracket = floor + (k - 1) * width, min(ceiling, floor + k * width)
        if bracket == (floor, ceiling):
            raise RuntimeError(f"a pass left the cutoff's bracket ({floor}, "
                               f"{ceiling}] as wide as before")
        floor, ceiling = bracket
    return ceiling


def _top_shift_counter(c: int, x: int, k0: int):
    """The function T -> #{d <= x : M(d) > T} for T >= F = c x // k0, M(d)
    the largest l - 1 over the primes l with (l-1) | c d.

    By the cofactor fact (find_cutoff_C) a degree d with M(d) > F is
    d = j s for a shift t s > F of _progression_blocks(c, x, F) and a j
    with cofactor k = (c/t) j < k0.  Each k marks its degrees in a bitmap
    over (k F // c, x], one bit per degree in np.packbits order from a
    byte boundary, and a d reached by several k keeps only the least,
    whose shift c d / k is M(d).  For each k, c d / k > T exactly when
    d > k T // c, so a count is a suffix of set bits per k: the bits are
    summed once per _CHUNK bytes, and a count reads one chunk per k.
    The bitmaps take about (k0 - 1) x / 16 bytes.
    """
    F = c * x // k0
    size = (x + 7) // 8
    marks = []
    for k in range(1, k0):
        start = min(k * F // c // 8, size)  # byte of the first bit kept
        marks.append((k, start, np.zeros(size - start, dtype=np.uint8)))
    for lo, t, alive in _progression_blocks(c, x, F):
        first = max(lo, F // t + 1)  # the least s with t s > F
        q = c // t
        for j in range(1, (k0 - 1) // q + 1):
            hi = min(lo + len(alive), x // j + 1)  # j s <= x
            _, start, bits = marks[q * j - 1]
            span = 8 * _CHUNK // j  # s per piece: a spread of one chunk
            for s in range(first, hi, span):
                piece = alive[s - lo:min(s + span, hi) - lo]
                spread = np.zeros(j * (len(piece) - 1) + 1, dtype=bool)
                spread[::j] = piece
                _put_bits(bits, j * s - 8 * start, spread)
    for i, (_, start, bits) in enumerate(marks):
        for _, other_start, other in marks[:i]:
            other = other[start - other_start:]
            for b in range(0, len(bits), _CHUNK):
                bits[b:b + _CHUNK] &= ~other[b:b + _CHUNK]
    tails = []
    for _, start, bits in marks:
        sums = [int(np.count_nonzero(np.unpackbits(bits[i:i + _CHUNK])))
                for i in range(0, len(bits), _CHUNK)]
        tails.append(list(accumulate(reversed(sums), initial=0))[::-1])

    def above(T):
        count = 0
        for (k, start, bits), tail in zip(marks, tails):
            i = max(k * T // c - 8 * start, 0)  # the bit of d = k T // c + 1
            byte = i // 8
            if byte < len(bits):
                chunk = byte // _CHUNK
                end = (chunk + 1) * _CHUNK
                count += (tail[chunk + 1]
                          + int(np.count_nonzero(np.unpackbits(
                              bits[byte:end])[i % 8:])))
        return count
    return F, above


def find_cutoff_C(epsilon, c: int, x: int) -> int:
    """Least C >= 0 whose prime-shift clause has density at most epsilon
    within [1, x].

    With K the largest allowed count, C is the (K+1)-th largest M(d),
    the largest l - 1 over the primes l with (l-1) | c d (0 when
    everything fits), and no table of M is formed.

    The cofactor fact: if M(d) > F for some F > 0, then k = c d / M(d) <
    c x / F, and M(d) = c d / k for the least k with k | c d and
    c d / k + 1 prime.  Proof: M(d) divides c d, so k is a positive
    integer, and k = c d / M(d) < c d / F <= c x / F.  Any k' with
    c d / k' + 1 prime has c d / k' <= M(d), so k' >= k.

    So for F = c x // k0 the degrees with M(d) > F come from the few top
    progressions of cofactor k < k0 (_top_shift_counter), and once more
    than K of them exceed F, C is the least T >= F with at most K degrees
    of M(d) > T, found by bisection on T.  k0 is 2, where only t = c is
    sieved, on s in (x / 2, x], and then _MAX_COFACTOR + 1, whose marks
    take _MAX_COFACTOR x / 16 bytes, less than the walk's x / 2.  A try
    is skipped when at most K degrees d <= x exceed F / c, since
    M(d) <= c d.  A cutoff below c x / (_MAX_COFACTOR + 1) is left to
    the code walk (_walk_cutoff) from that ceiling, after at most two
    tries: at x = 10^6 these are the epsilon from 0.4144 at c = 144,
    0.3424 at c = 6, 0.2277 at c = 2 and 0.1194 at c = 1, so an epsilon
    near 1 always walks, and epsilon = 1/2 at c = 144 pays one try
    (k0 = 8) before its walk.  The three budget epsilons at c = 144
    (1/4, 1/20, 1/200 of the shift half) take k0 = 8, 2 and 2 at
    x = 10^6 and at x = 10^8.

    A budget built on C is exact on [1, x]: this, its shift half, holds
    only there, since C grows with x and the same clause is denser past
    x, while its power half (b_epsilon_procedure) holds at every x.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    _check_walk(x)
    _sieving_root(c, x)
    allowed = int(eps * x)  # floor; count <= allowed <=> density <= eps
    if allowed >= x:
        return 0
    for k0 in (2, _MAX_COFACTOR + 1):
        F = c * x // k0
        if x - F // c <= allowed:
            continue  # M(d) <= c d, so only the d > F / c can pass F
        F, above = _top_shift_counter(c, x, k0)
        if above(F) > allowed:
            low, high = F, c * x  # above(low) > allowed >= above(high)
            while high - low > 1:
                mid = (low + high) // 2
                if above(mid) > allowed:
                    low = mid
                else:
                    high = mid
            return high
        del above  # its marks go before the larger ones are made
    return _walk_cutoff(c, x, allowed, F)


# ---------------------------------------------------------------------------
# family profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyProfile:
    """All that the budget pipeline reads of a family.

    p2_c: a point of prime order l on a member over F forces
    (l-1)/p2_c | [F:Q].  p1_rule(p, N): a point of order p^n with
    n >= p1_rule(p, N) forces p^N | [F:Q]; that it is >= 1 and
    nondecreasing in N is spot-checked wherever a profile is built.
    """

    p2_c: int
    p1_rule: Callable[[int, int], int]

    def __post_init__(self):
        if self.p2_c < 1:
            raise ValueError("p2_c must be a positive integer")
        for p in (2, 3, 5, 7):
            values = [self.p1_rule(p, N) for N in range(1, 6)]
            if values[0] < 1 or values != sorted(values):
                raise ValueError(f"p1_rule must be >= 1 and nondecreasing "
                                 f"in N, got {values} at p={p}")


def rule_from_template(template: dict) -> Callable[[int, int], int]:
    """p1 rules expressible in JSON: shift (N + offset), constant, or the
    complex-multiplication shape N + v_p(c) + 1."""
    kind = template.get("kind") if isinstance(template, dict) else None
    if kind == "shift":
        offset = _json_int(template, "offset")
        if offset < 0:
            raise ValueError("shift offset must be nonnegative")
        return lambda p, N: N + offset
    if kind == "constant":
        value = _json_int(template, "value")
        if value < 1:
            raise ValueError("constant rule must be positive")
        return lambda p, N: value
    if kind == "cm":
        c = _json_int(template, "c")
        if c < 1:
            raise ValueError("cm constant must be positive")
        return lambda p, N: N + ord_p(c, p) + 1
    raise ValueError(f"unknown p1_rule kind {kind!r}")


def profile_from_dict(data: dict) -> FamilyProfile:
    """Build a profile from its JSON form, an object with exactly the
    fields p2_c and p1_rule (a rule_from_template template)."""
    if not isinstance(data, dict):
        raise ValueError("a profile must be a JSON object")
    extra = sorted(set(data) - {"p2_c", "p1_rule"})
    if extra:
        raise ValueError(
            f"unknown profile field {', '.join(map(repr, extra))}; a "
            f"profile has only 'p2_c' and 'p1_rule'")
    return FamilyProfile(p2_c=_json_int(data, "p2_c"),
                         p1_rule=rule_from_template(data["p1_rule"]))


# ---------------------------------------------------------------------------
# the budget procedure
# ---------------------------------------------------------------------------

class _PrimesUpTo:
    """The primes <= L as an ascending sized iterable that is never
    listed whole: len() is the exact prime_count(L), and each iteration
    sieves doubling prefixes, so a reader that stops early sieves at most
    about twice as far as it read."""

    def __init__(self, L: int):
        self.L = L
        self._count = prime_count(L)

    def __len__(self):
        return self._count

    def __iter__(self):
        lo, hi = 1, 1024
        while lo < self.L:
            hi = min(hi, self.L)
            chunk = primes_array(hi)
            start = np.searchsorted(chunk, lo, side="right")
            yield from chunk[start:].tolist()
            lo, hi = hi, 2 * hi


def _tail_within(primes, N: int, budget: Fraction) -> bool:
    """Exact decision of sum(l^-N for l in primes) <= budget.

    primes must be ascending, sized and iterable more than once (an
    array, or a _PrimesUpTo).  Large prime sets use integer bracketing:
    floor terms vanish once l^N passes b*scale, so only a short ascending
    prefix is ever read, and the +count correction, which needs only
    len(primes), bounds the dropped fractional parts.
    """
    count = len(primes)
    if count == 0:
        return True
    if count <= 64:
        return sum(Fraction(1, int(p) ** N) for p in primes) <= budget
    a, b = budget.numerator, budget.denominator
    scale = 1 << 32
    for _ in range(3):
        cap = a * scale
        bQ = b * scale
        floor_sum = 0
        for p in primes:
            t = int(p) ** N
            if t > bQ:
                break  # ascending: every later floor term is 0
            floor_sum += bQ // t
            if floor_sum > cap:
                return False
        if floor_sum + count <= cap:
            return True
        scale <<= 32
    raise RuntimeError(
        "union-bound comparison undecided at 96-bit precision")


class PrimeExponentMap(Mapping):
    """The forced exponent at each prime l <= L, evaluated on demand.

    Behaves like {l: rule(l, N) for primes l <= L} without storing
    millions of entries when L is huge: primes is the ascending sized
    iterable of the primes <= L (a _PrimesUpTo in the budget procedure),
    so len() is an exact count and iteration sieves only as far as it
    is read.
    """

    def __init__(self, rule, N: int, L: int, primes):
        self._rule = rule
        self._N = N
        self.L = L
        self._primes = primes

    def __getitem__(self, l):
        if not (isinstance(l, (int, np.integer)) and 2 <= l <= self.L
                and is_prime(int(l))):
            raise KeyError(l)
        return int(self._rule(int(l), self._N))

    def __iter__(self):
        return (int(l) for l in self._primes)

    def __len__(self):
        return len(self._primes)

    def __repr__(self):
        return (f"PrimeExponentMap(N={self._N}, primes<={self.L}, "
                f"count={len(self._primes)})")


def _product_tree(factors: list[int]) -> int:
    """Balanced product: keeps the big-integer multiplications between
    operands of comparable size, which sequential accumulation does not."""
    vals = list(factors) or [1]
    while len(vals) > 1:
        nxt = [vals[i] * vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


@dataclass(frozen=True)
class BEpsilonResult:
    """Everything the budget procedure derives, plus its certificate.

    B_eps is the literal integer budget when it fits the materialization
    caps, else None with B_eps_note saying why; (C, L, N, n_map) always
    determine it exactly, and b_eps_dominates compares two results
    without needing the integers.
    """

    C: int
    L: int
    N: int
    n_map: PrimeExponentMap
    B_eps: Optional[int]
    B_eps_note: Optional[str]
    excluded: IntegerSetSpec
    report: DensityReport
    profile: "FamilyProfile"


def b_epsilon_procedure(profile: FamilyProfile, epsilon,
                        x: int) -> BEpsilonResult:
    """Derive a torsion budget B valid off an excluded degree set of
    density at most epsilon.

    Half the budget buys the shift cutoff C (degrees keeping a prime
    torsion possibility l need l - 1 <= C, so l <= L = C + 1); the other
    half buys the exponent N via the union bound over l <= L.  The
    profile then forces p^N | degree beyond exponent n_l at each prime,
    so every surviving torsion order divides prod l^(n_l - 1), and B is
    one more than that.  The excluded set's density is recounted by
    density_upto, a walk that does not depend on the cutoff search, and
    must honor the certificate.  The certificate is exact on [1, x]: its
    shift half holds only there, since C grows with x and the same clause
    is denser past it, while its power half, the union bound
    #{d <= y : l^N | d, l <= L} <= y sum_{l<=L} l^-N, holds at every y.

    The budget integer is only materialized within the caps
    PRODUCT_PRIME_CAP (primes below L) and PRODUCT_DIGIT_CAP (estimated
    decimal digits), read at call time; beyond them B_eps is None and
    B_eps_note reports the overflow, while C, L, N, and n_map still
    specify the budget exactly.  The primes up to L are counted, not
    listed: only the materialized product sieves all of them.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if x < 1:
        raise ValueError("the cutoff x must be a positive integer")
    half = eps / 2
    C = find_cutoff_C(half, profile.p2_c, x)
    L = C + 1
    small_primes = _PrimesUpTo(L)
    N = 1
    while not _tail_within(small_primes, N, half):
        N += 1
    for l in islice(small_primes, 32):
        if profile.p1_rule(l, N) < 1:
            raise ValueError(f"profile rule returned < 1 at l={l}")
    B_eps = None
    note = None
    if len(small_primes) > PRODUCT_PRIME_CAP:
        note = (f"budget product spans {len(small_primes)} primes "
                f"(cap {PRODUCT_PRIME_CAP}); not materialized")
    else:
        exponents = [(int(l), profile.p1_rule(int(l), N) - 1)
                     for l in primes_array(L)]
        if any(e < 0 for _, e in exponents):
            raise ValueError("profile rule returned < 1")
        digits = sum(e * math.log10(l) for l, e in exponents)
        if digits > PRODUCT_DIGIT_CAP:
            note = (f"budget product needs about {int(digits)} decimal "
                    f"digits (cap {PRODUCT_DIGIT_CAP}); not materialized")
        else:
            B_eps = 1 + _product_tree([l ** e for l, e in exponents])
    n_map = PrimeExponentMap(profile.p1_rule, N, L, small_primes)
    shift = PrimeShiftClause(profile.p2_c, C)
    power = PrimePowerDivClause(N, L)
    excluded = IntegerSetSpec((shift, power))
    report = density_upto(excluded, x)
    if report.density > eps:  # pragma: no cover - defensive
        raise RuntimeError(
            f"certificate violated: excluded density {report.density} "
            f"exceeds {eps}")
    return BEpsilonResult(C=C, L=L, N=N, n_map=n_map, B_eps=B_eps,
                          B_eps_note=note, excluded=excluded, report=report,
                          profile=profile)


def b_eps_dominates(tight: BEpsilonResult, loose: BEpsilonResult) -> bool:
    """True when tight.B_eps >= loose.B_eps is established.

    Materialized budgets compare directly.  Otherwise two runs of the
    same profile compare structurally: a larger prime range and a larger
    union exponent dominate factor-by-factor, because profile rules are
    nondecreasing in N.  Returns False when domination is not proved.
    """
    if tight.B_eps is not None and loose.B_eps is not None:
        return tight.B_eps >= loose.B_eps
    if tight.profile.p1_rule is not loose.profile.p1_rule:
        raise ValueError(
            "structural budget comparison needs runs of one profile")
    if tight.L < loose.L or tight.N < loose.N:
        return False
    for l in (2, 3, 5, 7, 11, 13):
        if l <= loose.L and tight.n_map[l] < loose.n_map[l]:
            return False  # pragma: no cover - profile contract violation
    return True

