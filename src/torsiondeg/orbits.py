"""Orbits of subgroups of GL2(F_p) on nonzero vectors, and the divisibility
checks built on them.

The central claim verified here: for a subgroup G whose classification is
ContainsSL, SplitNormalizer, or NonsplitNormalizer, every orbit index
[G : Stab_G(v)] satisfies (p-1) | 2 i [G : Stab_G(v)], where i is the index
of det(G) in F_p^*.  Borel-class and exceptional-class subgroups are
excluded by design: the first is handled by a hypothesis on isogeny
degrees, the second by prime bounds linear in the degree (9 d0 + 1,
12 d0 + 1 and 15 d0 + 1 for A4, S4 and A5), which no orbit count needs.

Reports carry an optional annotation for a divisor d0 that the determinant
index is assumed to divide; the derived consequence is that
(p-1)/gcd(p-1, 2 d0) divides every orbit size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gl2 import (
    DicksonClass,
    Subgroup,
    _line_vectors,
    _np_components,
    _np_mul,
    _np_pack,
    _sorted_member,
    classify,
    det_index,
    pack,
    split_normalizer,
    nonsplit_normalizer,
    unpack,
    vector_orbits,
)

PASS = "pass"
VIOLATION = "violation"
NOT_APPLICABLE = "not-applicable"

_DIVISIBILITY_CLASSES = frozenset({
    DicksonClass.CONTAINS_SL,
    DicksonClass.SPLIT_NORMALIZER,
    DicksonClass.NONSPLIT_NORMALIZER,
})


@dataclass(frozen=True)
class OrbitReport:
    """Outcome of the orbit-divisibility check for one subgroup."""

    p: int
    subgroup_id: str
    dickson_class: DicksonClass
    det_index: int
    orbit_sizes: tuple[int, ...]
    verdict: str
    violation_vector: tuple[int, int] | None = None
    violation_orbit_size: int | None = None
    d0: int | None = None
    corollary_divisor: int | None = None
    corollary_holds: bool | None = None

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "subgroup_id": self.subgroup_id,
            "class": self.dickson_class.value,
            "det_index": self.det_index,
            "orbit_sizes": list(self.orbit_sizes),
            "verdict": self.verdict,
            "violation_vector": (list(self.violation_vector)
                                 if self.violation_vector else None),
            "violation_orbit_size": self.violation_orbit_size,
            "d0": self.d0,
            "corollary_divisor": self.corollary_divisor,
            "corollary_holds": self.corollary_holds,
        }


def stabilizer(G: Subgroup, v: tuple[int, int]) -> Subgroup:
    """The subgroup {g in G : g v = v}.

    For a determinant-defined G (one containing SL2) the stabilizer has a
    closed form: conjugate the stabilizer of e1, which is exactly
    {[[1, b], [0, d]] : b in F_p, det constraint d in det(G)}, by any T
    sending e1 to v.  Such G are normal in GL2, so the conjugate is again
    a subgroup of G.  Other subgroups are filtered on their element array.
    """
    p = G.p
    x, y = v[0] % p, v[1] % p
    if (x, y) == (0, 0):
        raise ValueError("the zero vector has no meaningful stabilizer")
    if G.contains_sl2:
        t_key = pack(p, x, 0, y, 1) if x else pack(p, 0, 1, y, 0)
        base = [pack(p, 1, b, 0, d) for b in range(p) for d in sorted(G.det_image)]
        fixed = Subgroup.from_sorted_keys(p, sorted(base))
        t = unpack(p, t_key)
        if (t[0], t[2]) != (x, y):
            raise RuntimeError(f"the conjugator sends e1 to {(t[0], t[2])}, "
                               f"not {(x, y)}")
        return fixed.conjugate(t_key)
    a, b, c, d = _np_components(p, G.elements)
    fixes = ((a * x + b * y) % p == x) & ((c * x + d * y) % p == y)
    return Subgroup.from_sorted_keys(p, G.elements[fixes])


def verify_case_divisibility(G: Subgroup, d0: int | None = None) -> OrbitReport:
    """Check (p-1) | 2 i [G : Stab(v)] for all nonzero v, when it applies.

    Violations are reported as data (lexicographically first offending
    vector), never raised.  With d0 given, the report also records whether
    (p-1)/gcd(p-1, 2 d0) divides every orbit size; d0 must be a multiple
    of the determinant index for the annotation to make sense.
    """
    p = G.p
    cls = classify(G)
    i = det_index(G)
    orbits = vector_orbits(G)
    sizes = tuple(len(orbit) for orbit in orbits)
    if d0 is not None:
        if d0 < 1 or d0 % i != 0:
            raise ValueError(
                f"d0 = {d0} is not a positive multiple of the determinant "
                f"index {i}")
        corollary_divisor = (p - 1) // math.gcd(p - 1, 2 * d0)
    else:
        corollary_divisor = None

    if cls not in _DIVISIBILITY_CLASSES:
        return OrbitReport(p, G.fingerprint_id(), cls, i, sizes,
                           NOT_APPLICABLE, d0=d0,
                           corollary_divisor=corollary_divisor)

    verdict, bad_vector, bad_size = PASS, None, None
    for orbit in orbits:
        if (2 * i * len(orbit)) % (p - 1) != 0:
            verdict = VIOLATION
            bad_vector, bad_size = orbit[0], len(orbit)
            break
    corollary_holds = None
    if corollary_divisor is not None:
        corollary_holds = all(size % corollary_divisor == 0 for size in sizes)
    return OrbitReport(p, G.fingerprint_id(), cls, i, sizes, verdict,
                       violation_vector=bad_vector,
                       violation_orbit_size=bad_size, d0=d0,
                       corollary_divisor=corollary_divisor,
                       corollary_holds=corollary_holds)


# ---------------------------------------------------------------------------
# pointwise line stabilizers inside the standard normalizers
# ---------------------------------------------------------------------------

SHAPE_DIAG_FIX_FIRST = "diag(1,*) fixing the first axis"
SHAPE_DIAG_FIX_SECOND = "diag(*,1) fixing the second axis"
SHAPE_ANTIDIAG_INVOLUTION = "antidiagonal involution"


@dataclass(frozen=True)
class LineStabilizerReport:
    """Shape audit of the pointwise stabilizer of one line."""

    p: int
    line_index: int
    stabilizer_order: int
    subgroup_count: int
    shapes: tuple[str, ...]
    verdict: str


def _pointwise_stabilizers(N: Subgroup) -> list[np.ndarray]:
    """For each line, in index order, the sorted keys of the elements of N
    that fix every vector on it: one array mask per line."""
    p = N.p
    keys = N.elements
    a, b, c, d = _np_components(p, keys)
    xs, ys = _line_vectors(p)
    return [keys[((a * x + b * y) % p == x) & ((c * x + d * y) % p == y)]
            for x, y in zip(xs.tolist(), ys.tolist())]


def _all_subgroups_of(p: int, keys: np.ndarray) -> list[frozenset[int]]:
    """Every subgroup of the (tiny) group given by its sorted element keys.

    Each known subgroup S = <gens> is extended by one element g of each
    right coset S g other than S, and <gens, g> is closed: <S, s g> =
    <S, g> for every s in S, so the rest of the coset adds nothing.  The
    group's Cayley table is built once, so a closure follows table
    entries and does no matrix arithmetic.
    """
    comps = _np_components(p, keys)
    products = _np_pack(p, _np_mul(p, tuple(v[:, None] for v in comps),
                                   tuple(v[None, :] for v in comps)))
    if not _sorted_member(keys, products).all():
        # the keys come from a pointwise stabilizer, which is a group
        raise RuntimeError("the keys are not closed under multiplication")
    table = np.searchsorted(keys, products).tolist()
    identity = int(np.searchsorted(keys, pack(p, 1, 0, 0, 1)))

    def close(gens):
        elements, frontier = {identity}, [identity]
        while frontier:
            new = []
            for i in frontier:
                row = table[i]
                for g in gens:
                    j = row[g]
                    if j not in elements:
                        elements.add(j)
                        new.append(j)
            frontier = new
        return frozenset(elements)

    everything = frozenset(range(len(keys)))
    trivial = close([])
    gens_of = {trivial: []}
    frontier = [trivial]
    while frontier:
        new = []
        for S in frontier:
            outside = everything - S
            while outside:
                g = min(outside)
                outside -= {table[h][g] for h in S}  # the coset S g
                gens = gens_of[S] + [g]
                T = close(gens)
                if T not in gens_of:
                    gens_of[T] = gens
                    new.append(T)
        frontier = new
    named = (frozenset(keys[sorted(S)].tolist()) for S in gens_of)
    return sorted(named, key=lambda S: (len(S), sorted(S)))


def _subgroup_shape(p: int, line: int, keys: frozenset[int]) -> str | None:
    mats = [unpack(p, k) for k in sorted(keys)]
    nontrivial = [m for m in mats if m != (1, 0, 0, 1)]
    if line == 0 and all(
            a == 1 and b == 0 and c == 0 for a, b, c, _ in mats):
        return SHAPE_DIAG_FIX_FIRST
    if line == p and all(
            d == 1 and b == 0 and c == 0 for _, b, c, d in mats):
        return SHAPE_DIAG_FIX_SECOND
    if len(nontrivial) <= 1 and 0 < line < p:
        # [[0, 1/i], [i, 0]] fixes the vector (1, i) of line i
        expected = (0, pow(line, -1, p), line, 0)
        if all(m == expected for m in nontrivial):
            return SHAPE_ANTIDIAG_INVOLUTION
    return None


def verify_split_pointwise_stabilizers(p: int) -> list[LineStabilizerReport]:
    """Audit, line by line, the pointwise stabilizers inside the standard
    split-normalizer: every subgroup of each stabilizer must be diagonal
    fixing an axis, or generated by a single antidiagonal involution."""
    reports = []
    stabilizers = _pointwise_stabilizers(split_normalizer(p))
    for line, keys in enumerate(stabilizers):
        shapes = set()
        ok = True
        subgroups = _all_subgroups_of(p, keys)
        for S in subgroups:
            shape = _subgroup_shape(p, line, S)
            if shape is None:
                ok = False
            else:
                shapes.add(shape)
        reports.append(LineStabilizerReport(
            p, line, len(keys), len(subgroups),
            tuple(sorted(shapes)), PASS if ok else VIOLATION))
    return reports


@dataclass(frozen=True)
class PointwiseBoundReport:
    """Maximum pointwise line-stabilizer order inside the standard
    nonsplit-normalizer."""

    p: int
    max_order: int
    orders: tuple[int, ...]
    verdict: str


def verify_nonsplit_pointwise_stabilizers(p: int) -> PointwiseBoundReport:
    """Check that no line is fixed pointwise by more than two elements of
    the standard nonsplit-normalizer."""
    orders = tuple(len(keys)
                   for keys in _pointwise_stabilizers(nonsplit_normalizer(p)))
    max_order = max(orders)
    return PointwiseBoundReport(p, max_order, orders,
                                PASS if max_order <= 2 else VIOLATION)
