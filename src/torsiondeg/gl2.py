"""Subgroups of GL2 over a prime field.

Matrices are 2x2 over F_p, stored row-major as (a, b, c, d), acting on
column vectors: M(x, y) = (a*x + b*y, c*x + d*y).  For fast set arithmetic
a matrix packs into the single integer key ((a*p + b)*p + c)*p + d and a
subgroup keeps its elements as one sorted, read-only int64 array of such
keys.  A product k g with a fixed right factor g works on the keys
themselves: it acts on the two rows of k separately, so it is two
gathers from the row table of g, a table of p^2 entries (`_row_table`,
`_right_mul`).  Products in which both factors vary, such as conjugation
and powering, run on arrays of components (`_np_mul`, `_np_inv`), with
Python ints standing in for single matrices.  The p + 1 lines of F_p^2
are known by index: line i < p is spanned by (1, i) and line p by
(0, 1), and `_line_images` gives how matrices permute them as rows of
such indices.

The classification implemented by `classify` sorts every subgroup into one
of seven buckets with a fixed precedence:

    ContainsSL > Borel > SplitNormalizer > NonsplitNormalizer > Exceptional*

Precedence matters because the bucket conditions overlap (a split Cartan
also lies in a Borel, small cyclic groups lie in several normalizers).
Containment tests are intrinsic and exact: a subgroup lies in some
conjugate of the split normalizer iff it permutes an unordered pair of
rational lines, and in a conjugate of the nonsplit normalizer iff it
permutes a Galois-conjugate pair of non-rational points of P^1(F_{p^2});
both conditions are checked on generators only.
"""

from __future__ import annotations

# hashlib.blake2b is this same object from CPython's private _blake2 (it
# never takes blake2b from OpenSSL, so no build has one without the
# other), but importing hashlib also maps OpenSSL's libcrypto.
from _blake2 import blake2b
from enum import Enum
from functools import lru_cache
from itertools import product

import numpy as np

from .arith import factorize, is_prime

# Groups whose order exceeds this are kept lazy (generators + invariants
# only); asking for their element table raises MaterializationError.
MATERIALIZATION_LIMIT = 2_000_000


class MaterializationError(RuntimeError):
    """The full element table of a subgroup is too large to build."""


class UnclassifiableSubgroupError(RuntimeError):
    """A subgroup fit none of the seven classification buckets.

    For p >= 5 this must never happen; seeing it means a bug, and the
    offending generators are carried on the exception for the report.
    """

    def __init__(self, subgroup: "Subgroup"):
        self.subgroup = subgroup
        gens = [unpack(subgroup.p, k) for k in subgroup.generators]
        super().__init__(f"no class matched for p={subgroup.p}, generators={gens}")


class DicksonClass(str, Enum):
    CONTAINS_SL = "ContainsSL"
    BOREL = "Borel"
    SPLIT_NORMALIZER = "SplitNormalizer"
    NONSPLIT_NORMALIZER = "NonsplitNormalizer"
    EXCEPTIONAL_A4 = "ExceptionalA4"
    EXCEPTIONAL_S4 = "ExceptionalS4"
    EXCEPTIONAL_A5 = "ExceptionalA5"


class ProjectiveType(str, Enum):
    CYCLIC = "Cyclic"
    DIHEDRAL = "Dihedral"
    A4 = "A4"
    S4 = "S4"
    A5 = "A5"
    PSL2_FULL = "PSL2Full"
    PGL2_FULL = "PGL2Full"
    OTHER = "Other"


# ---------------------------------------------------------------------------
# packed-key matrix arithmetic
# ---------------------------------------------------------------------------

def pack(p: int, a: int, b: int, c: int, d: int) -> int:
    return ((a * p + b) * p + c) * p + d


def unpack(p: int, key: int) -> tuple[int, int, int, int]:
    key, d = divmod(key, p)
    key, c = divmod(key, p)
    a, b = divmod(key, p)
    return a, b, c, d


def key_det(p: int, key: int) -> int:
    a, b, c, d = unpack(p, key)
    return (a * d - b * c) % p


# ---------------------------------------------------------------------------
# arithmetic on numpy arrays of keys or components
# ---------------------------------------------------------------------------

# keys, entries and products stay below p^4, which fits int32 for p < 215
def _key_dtype(p: int):
    return np.int32 if p ** 4 < 2 ** 31 else np.int64


def _np_components(p: int, keys: np.ndarray):
    return keys // (p * p * p), keys // (p * p) % p, keys // p % p, keys % p


def _np_mul(p, x, y):
    """Products x y of matrices given by components, ints or arrays."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


@lru_cache(maxsize=8)
def _unit_inverses(p: int) -> np.ndarray:
    """t^-1 mod p at index t, and 0 at index 0."""
    table = np.array([0] + [pow(t, -1, p) for t in range(1, p)],
                     dtype=np.int64)
    table.flags.writeable = False
    return table


def _np_inv(p, comps):
    """Inverses of invertible matrices given by components, ints or arrays:
    det^-1 [[d, -b], [-c, a]]."""
    a, b, c, d = comps
    di = _unit_inverses(p)[(a * d - b * c) % p]
    return d * di % p, -b * di % p, -c * di % p, a * di % p


def _np_pow(p, comps, n: int):
    """The powers comps^n, n >= 0, of matrices given by components, ints
    or arrays, by square-and-multiply."""
    result = (1, 0, 0, 1)
    while n:
        if n & 1:
            result = _np_mul(p, result, comps)
        comps = _np_mul(p, comps, comps)
        n >>= 1
    return result


def _np_is_scalar(comps):
    a, b, c, d = comps
    return (b == 0) & (c == 0) & (a == d)


def _np_pack(p, comps) -> np.ndarray:
    a, b, c, d = comps
    return ((a * p + b) * p + c) * p + d


def _row_table(p: int, g) -> np.ndarray:
    """The row table of g, u -> u g on the row vectors u = (u0, u1) of
    F_p^2 indexed u0 p + u1; for an array of keys, one table per key
    along a new last axis."""
    a, b, c, d = (v[..., None] for v in
                  _np_components(p, np.asarray(g, dtype=_key_dtype(p))))
    u0, u1 = np.divmod(np.arange(p * p, dtype=_key_dtype(p)), p)
    return (u0 * a + u1 * c) % p * p + (u0 * b + u1 * d) % p


def _right_mul(p: int, keys, table: np.ndarray) -> np.ndarray:
    """The keys of k g for every key k, g given by its row table: k g has
    the rows u g for the rows u = k // p^2 and k % p^2 of k.  A stack of
    tables gives one row of products per table."""
    high, low = np.divmod(keys, p * p)
    out = table[..., high]
    out *= p * p
    out += table[..., low]
    return out


def _sorted_member(table: np.ndarray, keys):
    """Which keys occur in the sorted, non-empty array table."""
    at = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return table[at] == keys


@lru_cache(maxsize=8)
def _projective_order_table(p: int) -> np.ndarray:
    """The projective order of the non-scalar matrices with u = tr^2 det^-1
    at index u, by powering one of them per u at once.

    A non-scalar matrix is similar to the companion matrix of its
    characteristic polynomial x^2 - t x + d, and scaling it by s takes
    (t, d) to (s t, s^2 d).  For t != 0 the scalings of (t, d) are the
    pairs with the same u, and for t = 0 (u = 0) the matrix squares to the
    scalar -d, so u alone fixes the projective order.  The companion
    matrix [[0, -d], [1, t]] with t = d = u has this u; u = 0 takes t = 0,
    d = 1.  At u = 4 the eigenvalue is double and the order is p."""
    t = np.arange(p)
    d = np.where(t == 0, 1, t)
    comps = acc = (np.zeros(p, dtype=np.int64), -d % p,
                   np.ones(p, dtype=np.int64), t)
    orders = np.zeros(p, dtype=np.int64)
    for k in range(1, p + 2):
        orders[(orders == 0) & _np_is_scalar(acc)] = k
        if orders.all():
            orders.flags.writeable = False
            return orders
        acc = _np_mul(p, acc, comps)
    raise RuntimeError("projective order exceeded p + 1")


def _projective_orders(p: int, keys) -> np.ndarray:
    """The projective order of each invertible key, the least k >= 1 with
    key^k scalar (the order of its image in PGL2): 1 for a scalar, and one
    lookup by tr^2 det^-1 otherwise."""
    a, b, c, d = comps = _np_components(p, np.asarray(keys, dtype=np.int64))
    det = (a * d - b * c) % p
    if not det.all():
        raise ValueError(f"a key is singular mod {p}")
    u = (a + d) ** 2 % p * _unit_inverses(p)[det] % p
    return np.where(_np_is_scalar(comps), 1, _projective_order_table(p)[u])


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

# products expanded to their cosets per step of the closure: bounds the
# size of its temporary arrays
_CLOSURE_BLOCK = 1 << 18


def _cyclic_keys(p: int, g: int) -> np.ndarray:
    """Keys of g^0, ..., g^(n-1), n the order of g, by doubling: powers
    commute, so g^i g^m is a right multiplication by g^m."""
    identity = pack(p, 1, 0, 0, 1)
    powers = np.array([identity], dtype=_key_dtype(p))
    step = g  # g^len(powers)
    while True:
        table = _row_table(p, step)
        more = _right_mul(p, powers, table)
        back = np.flatnonzero(more == identity)
        if len(back):
            return np.concatenate([powers, more[:back[0]]])
        powers = np.concatenate([powers, more])
        step = int(_right_mul(p, step, table))


def _mulclose(p: int, gens: list[int]) -> np.ndarray:
    """Closure of a set of invertible keys under multiplication, sorted.

    Dimino's coset method (G. Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559, 1991), batched over every coset of a
    breadth-first round.  Let H = <g> for a generator g of largest order.
    The closure G is a union of left cosets x H, and for each generator s
    the coset s x H is again one of them.  Starting from H, a round
    multiplies every new representative x by every generator s on the
    left, expands each product to its coset s x H as one row of a 2-D
    array, names each coset by its least key and keeps the cosets whose
    names are new.  The search meets every coset s_k ... s_1 H, and as the
    generators of a finite group span it as a monoid, these cover
    <gens> H = G: the same set as closing under x -> x s one key at a time.
    """
    identity = pack(p, 1, 0, 0, 1)
    if not gens:
        return np.array([identity], dtype=np.int64)
    if any(key_det(p, g) == 0 for g in gens):
        raise ValueError(f"a generator is singular mod {p}")
    cyclic = max((_cyclic_keys(p, g) for g in gens), key=len)
    right = tuple(v[None, :] for v in _np_components(p, cyclic))
    left = [unpack(p, g) for g in gens]
    block = max(1, _CLOSURE_BLOCK // len(cyclic))
    names = cyclic.min(keepdims=True)  # ascending
    cosets = [cyclic]
    frontier = names
    while len(frontier):
        reps = _np_components(p, frontier)
        products = np.concatenate([_np_pack(p, _np_mul(p, s, reps))
                                   for s in left])
        fresh = []
        for start in range(0, len(products), block):
            part = _np_components(p, products[start:start + block])
            rows = _np_pack(p, _np_mul(p, tuple(v[:, None] for v in part),
                                       right))
            low = rows.min(axis=1)
            # one row per coset whose name is new
            order = np.argsort(low)
            low_sorted = low[order]
            new = np.ones(len(order), dtype=bool)
            new[1:] = low_sorted[1:] != low_sorted[:-1]
            new &= ~_sorted_member(names, low_sorted)
            keep = order[new]
            cosets.append(rows[keep].ravel())
            fresh.append(low[keep])
            names = np.sort(np.concatenate([names, low[keep]]))
        frontier = np.concatenate(fresh)
    return np.sort(np.concatenate(cosets)).astype(np.int64)


def _det_closure(p: int, dets: list[int]) -> frozenset[int]:
    """Subgroup of F_p^* generated by the given determinants."""
    image = {1}
    frontier = [1]
    while frontier:
        new = []
        for x in frontier:
            for d in dets:
                y = x * d % p
                if y not in image:
                    image.add(y)
                    new.append(y)
        frontier = new
    return frozenset(image)


def _sl2_keys(p: int) -> np.ndarray:
    """All of SL2(F_p), sorted, by direct construction, O(p^3).

    For a = 0 the determinant -b c = 1 fixes c = -b^-1 and leaves d
    free; for a != 0 it fixes d = (1 + b c) a^-1.  Each part is built
    with its free components ascending in key order, and every a = 0 key
    lies below every a != 0 key, so the concatenation is sorted."""
    inv = _unit_inverses(p)
    b, d = np.divmod(np.arange(p, p * p, dtype=np.int64), p)  # b != 0
    zero = _np_pack(p, (0, b, -inv[b] % p, d))
    a, b, c = np.unravel_index(np.arange(p * p * (p - 1)), (p - 1, p, p))
    a += 1
    nonzero = _np_pack(p, (a, b, c, (1 + b * c) * inv[a] % p))
    return np.concatenate([zero, nonzero])


def _frozen_keys(keys) -> np.ndarray:
    """The keys as a read-only int64 array; an int64 array is not copied."""
    view = np.asarray(keys, dtype=np.int64).view()
    view.flags.writeable = False
    return view


class Subgroup:
    """A subgroup of GL2(F_p), immutable once constructed.

    Most subgroups carry their full element table: one sorted, read-only
    int64 array of packed keys, the `elements` of the group.  Subgroups
    that contain SL2 can instead be represented lazily by their determinant
    image alone (they are exactly the preimages {g : det g in D}); such a
    subgroup knows its order and invariants but will refuse to materialize
    its elements above MATERIALIZATION_LIMIT.  Generators are a tuple of
    Python ints either way.
    """

    def __init__(self, p, *, generators, elements=None, det_image=None,
                 contains_sl2=None):
        self.p = p
        self.generators = tuple(np.asarray(generators, dtype=np.int64).tolist())
        self._elements = None if elements is None else _frozen_keys(elements)
        if self._elements is not None:
            self.order = len(self._elements)
            dets = _det_counts(p, self._elements)
            self.det_image = frozenset(np.flatnonzero(dets).tolist())
            self.contains_sl2 = int(dets[1]) == p * (p * p - 1)
        else:
            # lazy: only valid for SL2-preimages, where everything follows
            # from the determinant image
            if not contains_sl2:
                raise ValueError("lazy subgroups must contain SL2")
            self.det_image = frozenset(det_image)
            self.contains_sl2 = True
            self.order = p * (p * p - 1) * len(self.det_image)
        self._fingerprint = None
        self._vector_partition = None
        self._transporter = None  # see _enumeration._transporter

    # -- construction -----------------------------------------------------

    @classmethod
    def from_sorted_keys(cls, p, keys, generators=None):
        """Trusted constructor: keys must already be a sorted closed set."""
        return cls(p, generators=generators if generators is not None else keys,
                   elements=keys)

    @classmethod
    def sl2_preimage(cls, p, det_image, generators):
        return cls(p, generators=generators, det_image=det_image,
                   contains_sl2=True)

    @classmethod
    def generated_by(cls, p, gen_keys):
        gens = sorted(set(gen_keys))
        return cls(p, generators=gens, elements=_mulclose(p, gens))

    # -- element access ----------------------------------------------------

    @property
    def elements(self) -> np.ndarray:
        if self._elements is None:
            if self.order > MATERIALIZATION_LIMIT:
                raise MaterializationError(
                    f"subgroup of order {self.order} exceeds the "
                    f"materialization limit {MATERIALIZATION_LIMIT}")
            self._elements = _frozen_keys(self._materialize_sl2_preimage())
        return self._elements

    def _materialize_sl2_preimage(self) -> np.ndarray:
        p = self.p
        sl2 = _sl2_keys(p)
        return np.sort(np.concatenate(
            [_right_mul(p, sl2, _row_table(p, pack(p, t, 0, 0, 1)))
             for t in self.det_image]))

    @property
    def is_materialized(self) -> bool:
        return self._elements is not None

    def __contains__(self, key: int) -> bool:
        if self._elements is None:
            return key_det(self.p, key) in self.det_image
        return bool(_sorted_member(self._elements, key))

    def __len__(self) -> int:
        return self.order

    def __repr__(self):
        tag = "lazy" if self._elements is None else "materialized"
        return f"Subgroup(p={self.p}, order={self.order}, {tag})"

    # -- invariants ----------------------------------------------------------

    @property
    def scalar_count(self) -> int:
        if self._elements is not None:
            # look up each aI in the sorted element table
            t = np.arange(1, self.p)
            scalars = _np_pack(self.p, (t, 0, 0, t))
            return int(np.count_nonzero(_sorted_member(self._elements, scalars)))
        # lazy SL2-preimage: scalar aI has determinant a^2
        return sum(1 for a in range(1, self.p)
                   if a * a % self.p in self.det_image)

    @property
    def projective_order(self) -> int:
        q, r = divmod(self.order, self.scalar_count)
        if r:
            raise RuntimeError(f"{self.scalar_count} scalars do not divide "
                               f"the order {self.order}")
        return q

    def conjugate(self, h_key: int) -> "Subgroup":
        """h G h^{-1}, preserving laziness."""
        p = self.p
        h = unpack(p, h_key)
        hi = _np_inv(p, h)

        def conj(keys):
            return _np_pack(p, _np_mul(p, _np_mul(
                p, h, _np_components(p, np.asarray(keys, dtype=np.int64))), hi))

        gens = conj(self.generators)
        if self._elements is None:
            return Subgroup.sl2_preimage(p, self.det_image, gens)
        return Subgroup(p, generators=gens,
                        elements=np.sort(conj(self._elements)))

    # histogram cutoff for fingerprints: order statistics are collected only
    # for groups up to this size, so the rule stays a property of the group
    # itself rather than of how an instance happens to be represented
    HISTOGRAM_LIMIT = 20_000

    def fingerprint(self) -> tuple:
        """Conjugation-invariant signature used for deduplication.

        Identical for conjugate subgroups; cheap collisions are resolved by
        an explicit conjugacy test during enumeration.  The element-order
        histogram is included exactly when the subgroup does not contain
        SL2 and is not too large.
        """
        if self._fingerprint is None:
            parts = [self.p, self.order, tuple(sorted(self.det_image)),
                     self.contains_sl2, self.scalar_count,
                     tuple(sorted(vector_orbit_sizes(self)))]
            if not self.contains_sl2 and self.order <= self.HISTOGRAM_LIMIT:
                hist = np.bincount(_projective_orders(self.p, self.elements))
                parts.append(tuple((o, n) for o, n in enumerate(hist.tolist())
                                   if n))
            self._fingerprint = tuple(parts)
        return self._fingerprint

    def fingerprint_id(self) -> str:
        raw = repr(self.fingerprint()).encode()
        return blake2b(raw, digest_size=12).hexdigest()


# keys per chunk of the determinant pass: bounds its temporary arrays
_DET_CHUNK = 1 << 16


def _det_counts(p: int, keys: np.ndarray) -> np.ndarray:
    """How many of the keys have each determinant 0, ..., p-1."""
    counts = np.zeros(p, dtype=np.int64)
    for start in range(0, len(keys), _DET_CHUNK):
        chunk = keys[start:start + _DET_CHUNK].astype(_key_dtype(p))
        a, b, c, d = _np_components(p, chunk)
        counts += np.bincount((a * d - b * c) % p, minlength=p)
    return counts


def close_generators(p: int, gens) -> Subgroup:
    """Smallest subgroup of GL2(F_p) containing the given matrices.

    Accepts packed keys or 2x2 nested sequences; rejects a key that packs
    no matrix mod p and any non-invertible generator, identifying the
    offender.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    keys = []
    for g in gens:
        if isinstance(g, (int, np.integer)):
            if not 0 <= g < p ** 4:
                raise ValueError(f"key {g} packs no matrix mod {p}")
            a, b, c, d = unpack(p, int(g))
        else:
            (a, b), (c, d) = g
        a, b, c, d = a % p, b % p, c % p, d % p
        if (a * d - b * c) % p == 0:
            raise ValueError(f"generator (({a},{b}),({c},{d})) is singular mod {p}")
        keys.append(pack(p, a, b, c, d))
    return Subgroup.generated_by(p, keys)


# ---------------------------------------------------------------------------
# standard subgroups
# ---------------------------------------------------------------------------

def primitive_root(p: int) -> int:
    if p == 2:
        return 1
    qs = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise RuntimeError(f"no primitive root mod {p} found")


def least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ValueError(f"no quadratic non-residue mod {p}")


def split_cartan(p: int) -> Subgroup:
    _require_odd(p, "split Cartan")
    r = primitive_root(p)
    keys = tuple(sorted(pack(p, a, 0, 0, d)
                        for a in range(1, p) for d in range(1, p)))
    return Subgroup.from_sorted_keys(
        p, keys, generators=[pack(p, r, 0, 0, 1), pack(p, 1, 0, 0, r)])


def split_normalizer(p: int) -> Subgroup:
    _require_odd(p, "split Cartan normalizer")
    r = primitive_root(p)
    diag = [pack(p, a, 0, 0, d) for a in range(1, p) for d in range(1, p)]
    anti = [pack(p, 0, b, c, 0) for b in range(1, p) for c in range(1, p)]
    return Subgroup.from_sorted_keys(
        p, tuple(sorted(diag + anti)),
        generators=[pack(p, r, 0, 0, 1), pack(p, 1, 0, 0, r), pack(p, 0, 1, 1, 0)])


def nonsplit_cartan(p: int) -> Subgroup:
    """The matrices [[a, eps*b], [b, a]], (a, b) != (0, 0), eps the least
    quadratic non-residue: a cyclic group of order p^2 - 1 isomorphic to
    the units of F_{p^2}."""
    _require_odd(p, "nonsplit Cartan")
    eps = least_nonresidue(p)
    a, b = np.divmod(np.arange(1, p * p), p)  # by a, then b
    keys = _np_pack(p, (a, eps * b % p, b, a))
    # k generates iff k^(n/q) != 1 for every prime q | n = p^2 - 1
    n = p * p - 1
    exponents = [n // q for q, _ in factorize(n)]
    gen = next((k for k in keys.tolist()
                if all(_np_pow(p, unpack(p, k), e) != (1, 0, 0, 1)
                       for e in exponents)), None)
    if gen is None:
        raise RuntimeError(f"no generator of the nonsplit Cartan mod {p}")
    return Subgroup.from_sorted_keys(p, np.sort(keys), generators=[gen])


def nonsplit_normalizer(p: int) -> Subgroup:
    _require_odd(p, "nonsplit Cartan normalizer")
    cartan = nonsplit_cartan(p)
    w = pack(p, 1, 0, 0, p - 1)
    # w normalizes the Cartan C, so the coset w C is C w
    swapped = _right_mul(p, cartan.elements, _row_table(p, w))
    return Subgroup.from_sorted_keys(
        p, np.sort(np.concatenate([cartan.elements, swapped])),
        generators=list(cartan.generators) + [w])


def borel(p: int) -> Subgroup:
    r = primitive_root(p)
    # (a, b, d) ascend lexicographically, so the keys ascend
    a, b, d = np.unravel_index(np.arange((p - 1) * p * (p - 1)),
                               (p - 1, p, p - 1))
    keys = _np_pack(p, (a + 1, b, 0, d + 1))
    gens = [pack(p, 1, 1, 0, 1)]
    if p > 2:
        gens += [pack(p, r, 0, 0, 1), pack(p, 1, 0, 0, r)]
    return Subgroup.from_sorted_keys(p, keys, generators=gens)


def sl2(p: int) -> Subgroup:
    return Subgroup.from_sorted_keys(
        p, _sl2_keys(p),
        generators=[pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1)])


def gl2_full(p: int) -> Subgroup:
    keys = np.arange(p ** 4, dtype=np.int64)
    a, b, c, d = _np_components(p, keys)
    gens = [pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1)]
    if p > 2:
        gens.append(pack(p, primitive_root(p), 0, 0, 1))
    return Subgroup.from_sorted_keys(p, keys[(a * d - b * c) % p != 0],
                                     generators=gens)


def standard_subgroups(p: int) -> dict[str, Subgroup]:
    """The six reference subgroups used throughout: split/nonsplit Cartans
    and their normalizers, the Borel, and SL2."""
    if p < 3:
        raise ValueError("standard subgroups need p >= 3")
    return {
        "split_cartan": split_cartan(p),
        "split_normalizer": split_normalizer(p),
        "nonsplit_cartan": nonsplit_cartan(p),
        "nonsplit_normalizer": nonsplit_normalizer(p),
        "borel": borel(p),
        "sl2": sl2(p),
    }


def _require_odd(p, what):
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p == 2:
        raise ValueError(f"{what} is not defined for p = 2")


# ---------------------------------------------------------------------------
# line actions
# ---------------------------------------------------------------------------

def _line_vectors(p: int):
    """The spanning vectors (x, y) of lines 0, ..., p as two arrays:
    (1, i) for line i < p, and (0, 1) for line p."""
    x, y = np.ones(p + 1, dtype=np.int64), np.arange(p + 1)
    x[p], y[p] = 0, 1
    return x, y


def _line_images(p: int, keys) -> np.ndarray:
    """How each matrix permutes the p + 1 lines: row r holds the index of
    the image of every line under keys[r].  An image (x, y) is line
    y / x when x != 0, and line p when x = 0."""
    a, b, c, d = (v[:, None] for v in
                  _np_components(p, np.asarray(keys, dtype=np.int64)))
    x, y = _line_vectors(p)
    nx, ny = (a * x + b * y) % p, (c * x + d * y) % p
    images = np.where(nx != 0, ny * _unit_inverses(p)[nx] % p, p)
    return images.astype(np.int16 if p < 2 ** 15 - 1 else np.int32)


def _fixed_lines(images: np.ndarray) -> np.ndarray:
    """Indices of the lines that every row of images maps to itself."""
    return np.flatnonzero((images == np.arange(images.shape[1])).all(axis=0))


def _stabilized_line_pair(images: np.ndarray):
    """The first pair (i, j), i < j, of line indices whose unordered pair
    every row of images permutes, or None.

    A line that some row moves can pair only with its image under such a
    row (the loop keeps the last one), and does when every row keeps both
    lines inside the pair.  A line that no row moves can pair only with
    another such line, so the first two of those are the other
    candidate."""
    lines = np.arange(images.shape[1])
    fixed = _fixed_lines(images)
    pairs = [(int(fixed[0]), int(fixed[1]))] if len(fixed) > 1 else []
    partner = lines.copy()
    for row in images:
        moved = row != lines
        partner[moved] = row[moved]
    of_partner = images[:, partner]
    ok = (((images == lines) | (images == partner)).all(axis=0)
          & ((of_partner == lines) | (of_partner == partner)).all(axis=0)
          & (partner != lines))
    # the least line of a valid pair comes before its partner
    hit = np.flatnonzero(ok)
    if len(hit):
        pairs.append((int(hit[0]), int(partner[hit[0]])))
    return min(pairs, default=None)


def _stabilized_conjugate_pair_for_generators(p: int, gen_keys):
    """A Galois-conjugate pair of non-rational points of P^1(F_{p^2})
    permuted by the generated group, or None.

    The group lies in a conjugate of the standard nonsplit Cartan
    normalizer exactly when such a pair exists: the normalizer is the full
    stabilizer of one pair, and GL2(F_p) moves any pair to any other.

    The points are z = u + vT, v != 0, of F_{p^2} = F_p[T]/(T^2 - beta T -
    gamma), scanned by u, then v, and each pair is met once, at its
    lexicographically least member.  Every generator is tested on all of
    them at once; the answer is the first pair that passes them all.
    """
    beta, gamma = (1, 1) if p == 2 else (0, least_nonresidue(p))
    u, v = np.divmod(np.arange(p * p), p)
    u, v = u[v != 0], v[v != 0]
    ubar, vbar = (u + v * beta) % p, -v % p
    least = (ubar > u) | ((ubar == u) & (vbar > v))
    u, v, ubar, vbar = u[least], v[least], ubar[least], vbar[least]
    inverse = _unit_inverses(p)
    ok = np.ones(len(u), dtype=bool)
    for g in gen_keys:
        a, b, c, d = unpack(p, g)
        # Moebius action z -> (c + d z)/(a + b z) = num conj(den) / N(den);
        # den != 0 as v != 0 and a, b are not both 0
        n0, n1 = (c + d * u) % p, d * v % p
        d0, d1 = (a + b * u) % p, b * v % p
        e0, e1 = (d0 + d1 * beta) % p, -d1 % p
        scale = inverse[(d0 * e0 + gamma * d1 * e1) % p]
        i0 = (n0 * e0 + gamma * n1 * e1) % p * scale % p
        i1 = (n0 * e1 + e0 * n1 + beta * n1 * e1) % p * scale % p
        ok &= ((i0 == u) & (i1 == v)) | ((i0 == ubar) & (i1 == vbar))
    hit = np.flatnonzero(ok)
    if not len(hit):
        return None
    j = int(hit[0])
    return ((int(u[j]), int(v[j])), (int(ubar[j]), int(vbar[j])))


# ---------------------------------------------------------------------------
# vector orbits (generator-based, safe for lazy subgroups)
# ---------------------------------------------------------------------------

def vector_orbit_sizes(G: Subgroup) -> list[int]:
    """Sizes of the orbits of G on F_p^2 minus the origin, in the order of
    vector_orbits."""
    if G.contains_sl2:
        return [G.p * G.p - 1]  # one orbit, see vector_orbits
    _, cuts = _vector_partition(G)
    return np.diff([0, *cuts, G.p * G.p - 1]).tolist()


def _orbit_labels(n: int, images) -> np.ndarray:
    """The least index in the orbit of each of 0, ..., n-1 under the group
    generated by permutations of range(n), each given by its array of
    images.

    Min-label propagation with pointer jumping: a round gives every index
    the least of its own label and its images' labels, then replaces each
    label by the label it points at until none moves.  A label only falls
    and always names an index of the same orbit.  A round that changes
    nothing leaves no label above the label of an image; as each step
    i -> g(i) lies on a cycle of g, labels are then constant on orbits,
    each orbit labelled by its least index."""
    label = np.arange(n)
    while True:
        low = label.copy()
        for img in images:
            np.minimum(low, label[img], out=low)
        jumped = low[low]
        while (jumped != low).any():
            low, jumped = jumped, jumped[jumped]
        if (low == label).all():
            return label
        label = low


def _vector_partition(G: Subgroup):
    """The nonzero vectors of F_p^2 orbit by orbit as ((xs, ys), cuts): each
    orbit ascends from its least member, orbits follow their least members,
    and cuts are the positions where a new orbit starts.  Found once per
    subgroup without SL2, for its fingerprint and for the divisibility
    check alike."""
    if G._vector_partition is None:
        p = G.p
        x, y = np.divmod(np.arange(p * p), p)
        images = [(a * x + b * y) % p * p + (c * x + d * y) % p
                  for a, b, c, d in (unpack(p, g) for g in G.generators)]
        label = _orbit_labels(p * p, images)[1:]
        # stable: each orbit ascends, and orbits follow their least index
        order = np.argsort(label, kind="stable")
        cuts = (np.flatnonzero(np.diff(label[order])) + 1).tolist()
        G._vector_partition = np.divmod(order + 1, p), cuts
    return G._vector_partition


def vector_orbits(G: Subgroup) -> list[list[tuple[int, int]]]:
    """Orbits on nonzero vectors, each listed from its lexicographically
    least member, orbits ordered by that representative; each call lists
    them afresh."""
    p = G.p
    if G.contains_sl2:
        # SL2 is transitive on nonzero vectors
        return [list(product(range(p), repeat=2))[1:]]
    (xs, ys), cuts = _vector_partition(G)
    vectors = list(zip(xs.tolist(), ys.tolist()))
    return [vectors[i:j] for i, j in zip([0, *cuts], [*cuts, len(vectors)])]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def det_index(G: Subgroup) -> int:
    """(p-1) divided by the size of det(G) — the index of the determinant
    image in F_p^*."""
    return (G.p - 1) // len(G.det_image)


def projective_type(G: Subgroup) -> ProjectiveType:
    p = G.p
    q = G.projective_order
    pgl = p * (p * p - 1)
    psl = pgl // (2 if p > 2 else 1)
    if q == pgl:
        return ProjectiveType.PGL2_FULL
    if G.contains_sl2:
        # the image sits between PSL2 and PGL2, index 2
        if q != psl:
            raise RuntimeError(f"a group containing SL2 has projective "
                               f"order {q}, not {psl} or {pgl}")
        return ProjectiveType.PSL2_FULL
    if q == psl:
        # PSL2 is the unique subgroup of PGL2 of its order
        return ProjectiveType.PSL2_FULL
    return _projective_type_from_elements(G, q)


def _projective_type_from_elements(G: Subgroup, q: int) -> ProjectiveType:
    p = G.p
    elements = G.elements
    orders = _projective_orders(p, elements)
    m = int(orders.max())
    if m == q:
        return ProjectiveType.CYCLIC
    if q == 2 * m:
        x = int(elements[np.argmax(orders == m)])
        # dihedral iff some y outside the image of <x>, of projective order
        # at most 2, has y x y^-1 x scalar
        powers = np.unique(_proj_canonical(p, _cyclic_keys(p, x)))
        ys = elements[orders <= 2]
        ys = ys[~_sorted_member(powers, _proj_canonical(p, ys))]
        y = _np_components(p, ys)
        xc = unpack(p, x)
        if _np_is_scalar(_np_mul(p, _np_mul(p, _np_mul(p, y, xc),
                                            _np_inv(p, y)), xc)).any():
            return ProjectiveType.DIHEDRAL
    s = G.scalar_count
    hist = {o: n // s
            for o, n in enumerate(np.bincount(orders).tolist()) if n}
    if q == 12 and 6 not in hist:
        return ProjectiveType.A4
    if q == 24 and hist == {1: 1, 2: 9, 3: 8, 4: 6}:
        # the order-24 images are C24, D24 and S4, and the first two are
        # caught above
        return ProjectiveType.S4
    if q == 60 and hist == {1: 1, 2: 15, 3: 20, 5: 24}:
        return ProjectiveType.A5
    return ProjectiveType.OTHER


def _proj_canonical(p: int, keys: np.ndarray) -> np.ndarray:
    """Least packed key among the scalar multiples of each invertible
    matrix: the multiple whose first nonzero first-row entry is 1."""
    a, b, _, _ = comps = _np_components(p, keys)
    t = _unit_inverses(p)[np.where(a != 0, a, b)]
    return _np_pack(p, tuple(t * v % p for v in comps))


def classify(G: Subgroup) -> DicksonClass:
    """Assign the classification bucket, by fixed precedence.

    Raises UnclassifiableSubgroupError if nothing matches — which cannot
    happen for p >= 5 and indicates a bug if it ever fires.
    """
    if G.contains_sl2:
        return DicksonClass.CONTAINS_SL
    images = _line_images(G.p, G.generators)
    if len(_fixed_lines(images)):
        return DicksonClass.BOREL
    if _stabilized_line_pair(images) is not None:
        return DicksonClass.SPLIT_NORMALIZER
    if _stabilized_conjugate_pair_for_generators(G.p, G.generators):
        return DicksonClass.NONSPLIT_NORMALIZER
    ptype = projective_type(G)
    if ptype is ProjectiveType.A4:
        return DicksonClass.EXCEPTIONAL_A4
    if ptype is ProjectiveType.S4:
        return DicksonClass.EXCEPTIONAL_S4
    if ptype is ProjectiveType.A5:
        return DicksonClass.EXCEPTIONAL_A5
    raise UnclassifiableSubgroupError(G)


def enumerate_subgroups(p, mode="exhaustive", *, count=None, seed=None,
                        ceiling=11, cache_dir=None):
    """Conjugacy-class representatives of subgroups of GL2(F_p).

    Exhaustive mode returns one representative per conjugacy class and is
    limited to p <= ceiling; sampled mode closes `count` random generator
    pairs drawn from a seeded generator and deduplicates them the same
    way.  See the enumeration module for the algorithm.
    """
    from . import _enumeration
    return _enumeration.enumerate_subgroups(
        p, mode, count=count, seed=seed, ceiling=ceiling, cache_dir=cache_dir)
