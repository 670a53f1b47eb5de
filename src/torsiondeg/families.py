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
finished block.  A density count keeps only the degrees up to x / 2, one
bit each, since no block reads past that; the budget's int32 table of
the largest prime shift per degree is lifted by the same kernel.

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
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, islice
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

# Degrees per sieve block and per block of a density count (bytes per
# chunk of a pass over the int32 table): the scratch that the prime-shift
# path holds besides the bits of a count or the shift table.  The sieving
# primes it lists stop at one block too: 82,025 primes.
_BLOCK = 1 << 20
MAX_SIEVING_PRIME = _BLOCK

# Budget products over every prime up to L get genuinely astronomical (L
# can reach 10^8 for tight epsilon), so materialization is capped and the
# structured outputs carry enough to compare budgets exactly without it.
PRODUCT_PRIME_CAP = 300_000
PRODUCT_DIGIT_CAP = 2_000_000


# ---------------------------------------------------------------------------
# clauses and specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivClause:
    """The degrees divisible by m."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("the modulus must be a positive integer")

    def contains(self, d: int) -> bool:
        return d >= 1 and d % self.m == 0

    def mark(self, block: np.ndarray, lo: int) -> None:
        """Set the members among the degrees [lo, lo + len(block))."""
        block[-lo % self.m::self.m] = True

    def describe(self) -> dict:
        return {"kind": "divisor", "m": self.m}


@dataclass(frozen=True)
class PrimeShiftClause:
    """The degrees d admitting a prime l with l-1 > C and (l-1) | c d."""

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

    def mark(self, block: np.ndarray, lo: int, progressions) -> None:
        """Set the least members among the degrees [lo, lo + len(block)),
        one whole block of _progression_blocks(c, x).

        progressions are that block's (lo, t, alive) triples.  A degree is
        a member exactly when it is a multiple of some s with t s + 1
        prime, gcd(s, c/t) = 1 and t s > C, so marking these s, the
        survivors past C // t, is enough: density_upto's spread lifts
        every multiple of a marked degree.  No shift value is formed.
        """
        for _, t, alive in progressions:
            start = max(self.C // t + 1, lo)
            block[start - lo:] |= alive[start - lo:]

    def describe(self) -> dict:
        return {"kind": "prime-shift", "c": self.c, "C": self.C}


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
class PrimePowerDivClause:
    """{d : l^N | d for some prime l <= L} — the union of the divisor
    clauses l^N over every prime up to L, kept as one object because L
    can be large enough (10^8) that listing the primes is hostile."""

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

    def mark(self, block: np.ndarray, lo: int) -> None:
        """Set the members among the degrees [lo, lo + len(block)): one
        strided pass per l^N up to 1/64 of the block's length, and the
        larger l^N, which have at most 64 multiples there each, one
        multiple apiece per gather."""
        n = len(block)
        top = min(self.L, _int_nth_root(lo + n - 1, self.N))
        steps = primes_array(top) ** self.N
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

    def describe(self) -> dict:
        return {"kind": "prime-power-div", "N": self.N, "L": self.L}


def _clause_sort_key(clause):
    if isinstance(clause, DivClause):
        return (0, clause.m, 0)
    if isinstance(clause, PrimeShiftClause):
        return (1, clause.c, clause.C)
    return (2, clause.N, clause.L)


@dataclass(frozen=True)
class IntegerSetSpec:
    """A finite union of clauses, canonically ordered."""

    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if not isinstance(clause, (DivClause, PrimeShiftClause,
                                       PrimePowerDivClause)):
                raise ValueError(f"unsupported clause {clause!r}")
        ordered = tuple(sorted(set(self.clauses), key=_clause_sort_key))
        object.__setattr__(self, "clauses", ordered)

    def contains(self, d: int) -> bool:
        return any(clause.contains(d) for clause in self.clauses)

    def describe(self) -> list[dict]:
        return [clause.describe() for clause in self.clauses]


_CLAUSE_KINDS = {"divisor": DivClause, "prime-shift": PrimeShiftClause,
                 "prime-power-div": PrimePowerDivClause}


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
                         f"the sieving primes is {MAX_SIEVING_PRIME}")
    return root


def _progression_blocks(c: int, x: int):
    """Yield (lo, t, alive) for each block of _BLOCK degrees s in
    [lo, lo + len(alive)) and, within it, each sieved divisor t of c in
    ascending order: alive[s - lo] says that gcd(s, c/t) = 1 and t s + 1
    is prime.  alive is one scratch array, refilled for the next yield.

    A prime l with (l-1) | c d is l = t s + 1 for exactly one divisor
    t = gcd(l-1, c) of c and one s | d with gcd(s, c/t) = 1.  For even c
    only the even t are sieved: for odd t, c/t is even, so s is odd and
    t s + 1 is even, which leaves only l = 2 (t = s = 1), and t = 2
    already owns s = 1.  Each progression t s + 1 is sieved on its own by
    the primes up to sqrt(t x + 1), each prime's first multiple in the
    block computed afresh.
    """
    sieved = [t for t in divisors(c) if c % 2 or t % 2 == 0]
    sieving = primes_array(_sieving_root(c, x)).tolist()
    scratch = np.empty(min(_BLOCK, x), dtype=bool)
    for lo in range(1, x + 1, _BLOCK):
        hi = min(lo + _BLOCK, x + 1)  # the block is s in [lo, hi)
        alive = scratch[:hi - lo]
        for t in sieved:
            alive.fill(True)
            for q, _ in factorize(c // t):
                alive[-lo % q::q] = False  # gcd(s, c/t) = 1
            for q in sieving:
                if q * q > t * (hi - 1) + 1:
                    break
                if t % q == 0:
                    continue  # t s + 1 is 1 mod q
                start = (-pow(t, -1, q) - lo) % q  # t s + 1 = 0 mod q
                if t * (lo + start) + 1 == q:
                    start += q  # q itself is prime
                alive[start::q] = False
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


@lru_cache(maxsize=1)
def _max_prime_shift(c: int, x: int) -> np.ndarray:
    """Read-only int32 array where entry d holds the largest l-1 over
    primes l with (l-1) | c d, or 0 if there is none.

    Only the cutoff search and the budget's recount need the values, and
    both read the whole table.  Each block of _progression_blocks writes
    its divisor t at the degrees s it keeps alive; the divisors ascend,
    so the last write is the largest.  The entries are multiplied by s in
    place, chunk by chunk, and lifted over divisors by _spread_block:
    the passes of the degrees up to sqrt(x) over the whole table at once,
    then the primes over each block of _degree_blocks, reading the
    finished table itself.  The shifts t s reach c x, so c x + 1 is
    bounded by MAX_SIEVE < 2^31.  The last call is cached (4 MB at
    x = 10^6).
    """
    if c * x + 1 > MAX_SIEVE:
        raise ValueError(
            f"prime shifts at c = {c}, x = {x} reach c x = {c * x}; the "
            f"supported bound of the int32 shift table is "
            f"c x + 1 <= {MAX_SIEVE}")
    arr = np.zeros(x + 1, dtype=np.int32)
    for lo, t, alive in _progression_blocks(c, x):
        arr[lo:lo + len(alive)][alive] = t
    step = _BLOCK // arr.itemsize
    for lo in range(0, x + 1, step):
        block = arr[lo:lo + step]
        block *= np.arange(lo, lo + len(block), dtype=np.int32)
    r = math.isqrt(x)
    passes = _small_passes(arr[:r + 1])
    _spread_block(arr[1:], 1, r, passes, (), None)  # the whole table at once
    primes = primes_upto(r)
    for lo in range(1, x + 1, _BLOCK):
        for D, E in _degree_blocks(lo, min(lo + _BLOCK, x + 1), r):
            _spread_block(arr[D:E], D, r, (), primes, lambda a, b: arr[a:b])
    arr.setflags(write=False)
    return arr


def density_upto(spec: IntegerSetSpec, x: int) -> DensityReport:
    """Exact count of members of the union in [1, x], block by block.

    Each sieve block of _BLOCK degrees first takes the least members of
    every prime-shift clause from _progression_blocks.  The degrees up
    to r = isqrt(x) come first: every other clause marks them, and their
    _small_passes lift them.  Past r, each block of _degree_blocks takes
    every other clause's marks and is lifted by _spread_block, then
    counted.  Every clause is closed under taking multiples, so the
    union is too, and the lift (a logical or along divisibility) makes
    it whole.  The spread reads no degree past x / 2, so only [1, x / 2]
    is kept, one bit per degree in np.packbits order (bit d - 1 for the
    degree d): x / 16 bytes, besides the one block of the count and the
    progression sieve's own.
    """
    if x < 1:
        raise ValueError("the cutoff must be a positive integer")
    if x > MAX_SIEVE:
        raise ValueError(
            f"a density count to x = {x} would keep {(x // 2 + 7) // 8} "
            f"bytes of bits for the degrees up to x / 2, besides blocks of "
            f"{_BLOCK} degrees; the supported bound is x <= {MAX_SIEVE}")
    for clause in spec.clauses:
        if isinstance(clause, PrimeShiftClause):
            _sieving_root(clause.c, x)  # refused before anything is made
    r = math.isqrt(x)
    half = x // 2
    bits = np.zeros((half + 7) // 8, dtype=np.uint8)

    def load(a, b):
        i = a - 1
        return np.unpackbits(bits[i // 8:(b + 6) // 8])[
            i % 8:i % 8 + b - a].view(bool)

    marks = [clause for clause in spec.clauses
             if not isinstance(clause, PrimeShiftClause)]
    shifts = [(clause, groupby(_progression_blocks(clause.c, x),
                               key=itemgetter(0)))
              for clause in spec.clauses
              if isinstance(clause, PrimeShiftClause)]
    small = np.zeros(r + 1, dtype=bool)
    for clause in marks:
        clause.mark(small[1:], 1)
    primes = primes_upto(r)
    scratch = np.empty(min(_BLOCK, x), dtype=bool)
    count = 0
    for lo in range(1, x + 1, _BLOCK):
        hi = min(lo + _BLOCK, x + 1)
        sieved = scratch[:hi - lo]
        sieved.fill(False)
        for clause, blocks in shifts:
            clause.mark(sieved, lo, next(blocks)[1])
        if lo <= r:
            top = min(hi, r + 1)
            small[lo:top] |= sieved[:top - lo]
            if top == r + 1:  # the degrees up to r are all marked
                passes = _small_passes(small)
                _spread_block(small[1:], 1, r, passes, (), None)
                count += int(np.count_nonzero(small))
                _put_bits(bits, 1, small[1:half + 1])
        for D, E in _degree_blocks(lo, hi, r):
            block = sieved[D - lo:E - lo]
            for clause in marks:
                clause.mark(block, D)
            _spread_block(block, D, r, passes, primes, load)
            count += int(np.count_nonzero(block))
            if D <= half:
                _put_bits(bits, D, block[:half + 1 - D])
    return DensityReport(x, count)


def erdos_wagstaff_set(c: int, C: int, x: int):
    """The degrees up to x with a prime shift divisor beyond C, together
    with their exact density."""
    spec = IntegerSetSpec((PrimeShiftClause(c, C),))
    return spec, density_upto(spec, x)


def find_cutoff_C(epsilon, c: int, x: int) -> int:
    """Least C >= 0 whose prime-shift clause has density at most epsilon
    within [1, x].

    Order statistics give it directly: with K the largest allowed count,
    the (K+1)-th largest value of the per-degree maximal shift is the
    answer (0 when everything fits).  The table is read one chunk of
    _BLOCK bytes at a time, and after each chunk np.partition keeps the
    K+1 largest values seen without sorting them; the check of the count
    reads the same chunks, so the table is never copied whole.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    ms = _max_prime_shift(c, x)
    allowed = int(eps * x)  # floor; count <= allowed <=> density <= eps
    if allowed >= x:
        return 0
    k = allowed + 1
    step = _BLOCK // ms.itemsize
    top = np.empty(min(k + step, x), dtype=ms.dtype)  # negated: kept first
    n = 0
    for lo in range(1, x + 1, step):
        chunk = ms[lo:lo + step]
        np.negative(chunk, out=top[n:n + len(chunk)])
        n += len(chunk)
        if n > k:
            top[:n].partition(k - 1)
            n = k
    C = -int(top[:k].max())
    count = sum(int(np.count_nonzero(ms[lo:lo + step] > C))
                for lo in range(1, x + 1, step))
    if Fraction(count, x) > eps:  # pragma: no cover - defensive
        raise RuntimeError(
            f"no cutoff reaches density {eps} at x={x}; "
            f"smallest achievable count is {count}")
    return C


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
    one more than that.  The excluded set's density is recounted from the
    shift table C was chosen from, so it checks only the prime-power half
    afresh (the tests recount it all), and must honor the certificate.

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
    table = _max_prime_shift(shift.c, x)
    count = 0
    for lo in range(1, x + 1, _BLOCK):
        block = table[lo:lo + _BLOCK] > shift.C
        power.mark(block, lo)
        count += int(np.count_nonzero(block))
    report = DensityReport(x, count)
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

