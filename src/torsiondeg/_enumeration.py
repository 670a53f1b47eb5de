"""Enumeration of subgroups of GL2(F_p) up to conjugacy.

Exhaustive mode works in two phases, neither of which consults the
classification machinery (so classification sweeps built on top of it are
not circular):

  Phase 1 finds every subgroup of SL2 up to GL2-conjugacy by breadth-first
  extension: each known class is extended by one element of prime-power
  order of SL2 and reclosed.  This reaches every subgroup of SL2 because a
  finite group is generated by its elements of prime-power order, so a
  proper subgroup can always be grown by adjoining one more of them.

  Phase 2 grows classes beyond SL2 by prime-index steps: if H is normal of
  prime index q in J, then J = H g^0 | ... | H g^{q-1} for any g in
  N(H) \\ H with g^q in H, and no closure is needed.  Every subgroup J of
  GL2 is reached: the final term of its derived series is perfect, hence
  has trivial determinant image and lies in SL2 (a phase-1 class up to
  conjugacy), and the solvable quotient above it refines to a chain of
  prime-index normal steps, each of the required form.

Both phases skip candidates that can only give a known class.  For n in
N(H), <H, n x n^-1> = n <H, x> n^-1, so phase 1 adjoins one element per
N(H)-conjugation orbit, and phase 2 one coset H r per set of cosets
H n r^k n^-1 (0 < k < q).  Candidates are still taken in ascending order,
so each skipped one would only have hit a class already registered: the
classes, their generators and their order are those of the unpruned search.

Both modes deduplicate through one registry (`_Registry`).  A group joins
the bucket of its `fingerprint()` tuple, a conjugation invariant, and is
compared by the exact test `conjugate_subgroups` with each class already
in that bucket; it is a new class only if none of them is conjugate to it.
The test solves the transporter equation h x h^-1 = y on companion
bases, and the data it needs of the class side is computed once per class.
N(H), which both phases read, is the transporter of H to itself, and
`normalizer` finds it with the same candidate test (`_transports`).

Sampled mode draws seeded random generator pairs and closes each with
`gl2.close_generators`.  For p >= 5 its screen certifies SL2 <= <x, y>
from the pair alone (no invariant line, line pair or Galois-conjugate
point pair, and more than 60 permutations of the lines), and such a group
is represented lazily by its determinant image; any other pair is closed
honestly.  Lazy classes compare by determinant image in the registry's
conjugacy test.
"""

from __future__ import annotations

import base64
import json
import os
import random
from pathlib import Path

import numpy as np

from ._version import VERSION
from .arith import factorize, is_prime
from .gl2 import (
    Subgroup,
    _key_dtype,
    _np_components,
    _np_inv,
    _np_is_scalar,
    _np_mul,
    _np_pack,
    _orbit_labels,
    _right_mul,
    _row_table,
    _sl2_keys,
    _sorted_member,
    close_generators,
    gl2_full,
    key_det,
    pack,
    unpack,
)

SCHEMA_VERSION = 2
SAMPLED_PRIME_LIMIT = 97


# ---------------------------------------------------------------------------
# conjugation: the transporter, conjugacy and normalizers
# ---------------------------------------------------------------------------

# transporter candidates h tried per numpy pass of _transports, one product
# per candidate and generator: bounds its temporary arrays
_TRANSPORTER_BLOCK = 1 << 14


def _similarity_codes(p: int, comps) -> np.ndarray:
    """tr p + det of each matrix given by components, and -1 for a scalar:
    two non-scalar matrices are similar exactly when their codes agree."""
    a, b, c, d = comps
    return np.where(_np_is_scalar(comps), -1,
                    (a + d) % p * p + (a * d - b * c) % p)


def _companion_bases(p: int, comps):
    """P = [v | g v] for each non-scalar g given by components, v the first
    of e1, e2, e1 + e2 that is not an eigenvector of g (e1 is one when
    c = 0, e2 when b = 0, and a diagonal non-scalar g has neither), so
    that P^-1 g P is the companion matrix [[0, -det g], [1, tr g]]."""
    a, b, c, d = comps
    v0 = np.where((c != 0) | (b == 0), 1, 0)
    v1 = np.where(c != 0, 0, 1)
    return v0, (a * v0 + b * v1) % p, v1, (c * v0 + d * v1) % p


def _transporter(H: Subgroup):
    """What _transports needs of H, non-scalar and without SL2, kept on H:
    (code, count, m, conj).  x is a non-scalar element of H whose
    similarity code is shared by the fewest elements, count of them.  The
    h with h x h^-1 = y, for y similar to x, are h = P_y M with M =
    P_x^-1 (alpha + beta x), (alpha : beta) in P^1(F_p) and alpha + beta x
    invertible, since the centralizer of x is F_p[x]^*.  m holds the
    components of the M, one row each, and conj those of M g M^-1, one
    row per M and one column per generator g of H, so h g h^-1 =
    P_y (M g M^-1) P_y^-1."""
    if H._transporter is None:
        p = H.p
        codes = _similarity_codes(p, _np_components(p, H.elements))
        counts = np.bincount(codes[codes >= 0], minlength=p * p)
        present = np.flatnonzero(counts)
        code = int(present[np.argmin(counts[present])])
        x = _np_components(p, H.elements[np.argmax(codes == code)])
        alpha = np.append(np.ones(p, dtype=np.int64), 0)
        beta = np.append(np.arange(p), 1)
        xa, xb, xc, xd = x
        centralizer = ((alpha + beta * xa) % p, beta * xb % p,
                       beta * xc % p, (alpha + beta * xd) % p)
        m = _np_mul(p, _np_inv(p, _companion_bases(p, x)), centralizer)
        a, b, c, d = m
        invertible = (a * d - b * c) % p != 0
        m = tuple(v[invertible, None] for v in m)
        gens = _np_components(p, np.asarray(H.generators or H.elements,
                                            dtype=np.int64))
        conj = _np_mul(p, _np_mul(p, m, gens), _np_inv(p, m))
        H._transporter = code, int(counts[code]), m, conj
    return H._transporter


def _transports(H: Subgroup, target: Subgroup):
    """The candidates h = P_y M of _transporter(H) that take every
    generator of H into target, one block of the y of target at a time:
    yields (basis, hit), where basis holds the components of the block's
    P_y (shape (k, 1, 1)) and hit[i, j] says whether P_y_i M_j does.

    A target with another number of elements similar to x is no
    conjugate of H, and yields nothing.  When the orders agree, the hits
    are exactly the h, up to scalars, with h H h^-1 = target."""
    p = H.p
    code, count, _, conj = _transporter(H)
    els = target.elements
    comps = _np_components(p, els)
    ys = np.flatnonzero(_similarity_codes(p, comps) == code)
    if len(ys) != count:
        return
    rows, ngens = conj[0].shape
    step = max(1, _TRANSPORTER_BLOCK // (rows * ngens))
    for start in range(0, count, step):
        y = tuple(v[ys[start:start + step], None, None] for v in comps)
        basis = _companion_bases(p, y)
        keys = _np_pack(p, _np_mul(p, _np_mul(p, basis, conj),
                                   _np_inv(p, basis)))
        yield basis, _sorted_member(els, keys).all(axis=2)


def conjugate_subgroups(H1: Subgroup, H2: Subgroup) -> bool:
    """Exact test: is H2 = h H1 h^{-1} for some h in GL2(F_p)?

    Fix a non-scalar x of H1 (see _transporter).  A conjugating h takes x
    to some y of H2 similar to x, so H2 must hold as many of those as H1
    does, and h is one of the p + 1 solutions up to scalars of
    h x h^-1 = y for one of them; h H1 h^-1 = H2 exactly when h takes
    every generator of H1 into H2, the orders being equal.  The search
    stops at the first such h.
    """
    if H1.p != H2.p or H1.order != H2.order:
        return False
    if H1.contains_sl2 or H2.contains_sl2:
        # subgroups containing SL2 are normal and determined by det image
        return (H1.contains_sl2 == H2.contains_sl2
                and H1.det_image == H2.det_image)
    if np.array_equal(H1.elements, H2.elements):
        return True  # h = 1
    if H1.scalar_count == H1.order:
        return False  # scalar groups are fixed by conjugation
    return any(hit.any() for _, hit in _transports(H1, H2))


def normalizer(H: Subgroup) -> np.ndarray:
    """The sorted keys of N(H) = {n in GL2(F_p) : n H n^-1 = H}.

    A group containing SL2 is normal and a scalar one central, so N(H)
    is all of GL2.  Otherwise N(H) is the transporter of H to itself: the
    scalars times the candidates of _transports(H, H), at most
    count (p + 1) of them up to scalars."""
    p = H.p
    if H.contains_sl2 or H.scalar_count == H.order:
        return gl2_full(p).elements
    m = _transporter(H)[2]
    found = []
    for basis, hit in _transports(H, H):
        i, j = np.nonzero(hit)
        found.append(_np_mul(p, tuple(v[i, 0, 0] for v in basis),
                             tuple(v[j, 0] for v in m)))
    t = np.arange(1, p)[:, None]
    h = (np.concatenate(v) for v in zip(*found))
    return np.sort(_np_pack(p, tuple(v * t % p for v in h)).ravel())


def _conjugators(p: int, keys: np.ndarray) -> tuple:
    """The components of n and of n^-1 for each key n, as columns:
    gathered once for any number of calls to _conjugates."""
    comps = _np_components(p, keys)
    # int32 is exact for p < 215
    return tuple(v.astype(_key_dtype(p))[:, None]
                 for v in comps + _np_inv(p, comps))


def _conjugates(p: int, n, x) -> np.ndarray:
    """Keys of n x n^-1, one row per conjugator n of _conjugators, one
    column per x (x is given by its components, as ints or 1-D arrays)."""
    a, b, c, d, ia, ib, ic, id_ = n
    # below p^4 throughout: int32, like the components, for p < 215
    xa, xb, xc, xd = (np.asarray(v, dtype=_key_dtype(p)) for v in x)
    # t = n x stays unreduced, so u = t n^-1 takes four reductions
    ta, tb = a * xa + b * xc, a * xb + b * xd
    tc, td = c * xa + d * xc, c * xb + d * xd
    return _np_pack(p, ((ta * ia + tb * ic) % p, (ta * ib + tb * id_) % p,
                        (tc * ia + td * ic) % p, (tc * ib + td * id_) % p))


def _indicator(p: int, keys: np.ndarray) -> np.ndarray:
    """Boolean table over all p^4 keys, true exactly on the given keys."""
    table = np.zeros(p ** 4, dtype=bool)
    table[keys] = True
    return table


def _left_cosets(p, points: np.ndarray, at: np.ndarray, sub_keys, gens):
    """Left cosets g S of a subgroup S in a union of them: (coset, reps),
    where reps are the coset minima, ascending, and coset[i] is the index
    in reps of the coset holding point i.

    points holds the keys of the union, ascending, and at[key] the index
    of every one of them in points.  The cosets g S are the orbits of right
    multiplication by S, so min-label propagation along right
    multiplications by gens, which must generate S, labels each point with
    the least point of its coset.  Gens that generate less than S show as
    more orbits than the index of S, and are refused."""
    n = len(points)
    images = at[_right_mul(p, points, _row_table(p, list(gens)))]
    low = _orbit_labels(n, images)
    roots = low == np.arange(n)
    found, index = int(np.count_nonzero(roots)), n // len(sub_keys)
    if found != index:
        raise RuntimeError(f"the generators give {found} cosets, not the "
                           f"{index} of the subgroup they should generate")
    return (np.cumsum(roots) - 1)[low], points[roots]


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

class _Registry:
    """Conjugacy classes of subgroups, one representative each, numbered in
    the order they were first added.  A group joins the bucket of its
    fingerprint tuple (conjugate groups share it, so no other bucket can
    hold its class) and is tested against each class already there."""

    def __init__(self):
        self.classes: list[Subgroup] = []
        self.buckets: dict[tuple, list[int]] = {}

    def add(self, G: Subgroup):
        """The class of G: (id, is_new)."""
        bucket = self.buckets.setdefault(G.fingerprint(), [])
        for cid in bucket:
            if conjugate_subgroups(self.classes[cid], G):
                return cid, False
        bucket.append(len(self.classes))
        self.classes.append(G)
        return bucket[-1], True


def _register(registry: _Registry, p: int, sorted_keys: np.ndarray,
              gens: list[int]):
    """registry.add for the group with these sorted keys and generators:
    (id, is_new).  Generators are normalized as close_generators would, so
    a cache reload reproduces the census verbatim."""
    return registry.add(Subgroup.from_sorted_keys(
        p, sorted_keys, generators=sorted({int(g) for g in gens})))


def _adjoin(p, hkeys: np.ndarray, hgens: list[int], x: int) -> np.ndarray:
    """Sorted keys of <H, x>, grown breadth-first from H's sorted keys by
    right multiplication with the generators.  Only keys outside H are
    expanded, and H x and H hgens lie in the set, so it ends closed under
    every generator."""
    tables = _row_table(p, hgens + [x])
    seen = _indicator(p, hkeys)
    frontier = _right_mul(p, hkeys, tables[-1])
    while len(frontier):
        seen[frontier] = True
        products = _right_mul(p, frontier, tables).ravel()
        frontier = np.flatnonzero(_indicator(p, products[~seen[products]]))
    return np.flatnonzero(seen)


def _phase1_sl2_classes(p: int, registry: _Registry) -> dict:
    """All subgroups of SL2 up to conjugacy, by prime-power-element
    extension: returns the keys of N(H) by class id, for phase 2."""
    keys = _sl2_keys(p)
    comps = _np_components(p, keys)
    # element orders, by powering every element of SL2 at once
    identity = pack(p, 1, 0, 0, 1)
    orders = np.zeros(len(keys), dtype=np.int64)
    acc = comps
    for k in range(1, p * p + 1):
        orders[(orders == 0) & (_np_pack(p, acc) == identity)] = k
        acc = _np_mul(p, acc, comps)
    if (orders == 0).any():
        raise RuntimeError("element order exceeded the exponent bound")
    prime_power = np.array([n > 1 and len(factorize(n)) == 1
                            for n in range(p * p)])
    candidates = keys[prime_power[orders]]
    cid, new = _register(registry, p, np.array([identity]), [])
    if not new:
        raise RuntimeError("the trivial group was already in the census")
    queue = [cid]
    normalizers = {}
    while queue:
        cid = queue.pop(0)
        H = registry.classes[cid]
        hkeys, hgens = H.elements, list(H.generators)
        normalizers[cid] = normalizer(H)
        conjugators = _conjugators(p, normalizers[cid])
        pending = _indicator(p, candidates)
        pending[hkeys] = False
        for x in candidates[pending[candidates]].tolist():
            if not pending[x]:
                continue
            # <H, n x n^-1> = n <H, x> n^-1 for n in N(H): the whole
            # N(H)-orbit of x gives one class
            pending[_conjugates(p, conjugators, unpack(p, x))[:, 0]] = False
            new_cid, is_new = _register(registry, p,
                                        _adjoin(p, hkeys, hgens, x),
                                        hgens + [x])
            if is_new:
                queue.append(new_cid)
    return normalizers


def _phase2_prime_index_extensions(p: int, registry: _Registry,
                                   normalizers: dict) -> None:
    """Close the census under prime-index normal extensions.  normalizers
    holds the keys of N(H) of the phase-1 classes, each dropped once
    read; the later classes compute theirs."""
    queue = list(range(len(registry.classes)))
    while queue:
        cid = queue.pop(0)
        H = registry.classes[cid]
        hkeys, hgens = H.elements, list(H.generators)
        nkeys = normalizers.pop(cid, None)
        if nkeys is None:
            nkeys = normalizer(H)
        index = len(nkeys) // len(hkeys)
        if index == 1:
            continue
        conjugators = _conjugators(p, nkeys)
        # cosets r H = H r of H in its normalizer, numbered by their minima
        at = np.zeros(p ** 4, dtype=np.int64)
        at[nkeys] = np.arange(len(nkeys))
        coset, reps = _left_cosets(p, nkeys, at, hkeys, hgens)
        rep_comps = _np_components(p, reps)
        inside = _indicator(p, hkeys)
        home = coset[at[pack(p, 1, 0, 0, 1)]]
        for q in {f for f, _ in factorize(index)}:
            powers = rep_comps
            for _ in range(q - 1):
                powers = _np_mul(p, powers, rep_comps)
            todo = inside[_np_pack(p, powers)]
            todo[home] = False
            for j in np.flatnonzero(todo):
                if not todo[j]:
                    continue
                r = int(reps[j])
                table = _row_table(p, r)
                parts = [hkeys]
                for _ in range(q - 1):
                    parts.append(_right_mul(p, parts[-1], table))
                new_cid, is_new = _register(
                    registry, p, np.sort(np.concatenate(parts)), hgens + [r])
                if is_new:
                    queue.append(new_cid)
                # n <H, r^k> n^-1 = <H, n r^k n^-1> for n in N(H) and
                # 0 < k < q: each coset H n r^k n^-1 gives a conjugate class
                for part in parts[1:]:
                    conj = _conjugates(p, conjugators,
                                       unpack(p, int(part[0])))
                    todo[coset[at[conj[:, 0]]]] = False


def _exhaustive(p: int) -> list[Subgroup]:
    registry = _Registry()
    _phase2_prime_index_extensions(p, registry,
                                   _phase1_sl2_classes(p, registry))
    # arrays have no order; as lists the elements compare lexicographically
    return sorted(registry.classes,
                  key=lambda G: (G.order, G.fingerprint_id(),
                                 G.elements.tolist()))


# ---------------------------------------------------------------------------
# sampled enumeration
# ---------------------------------------------------------------------------

def _random_invertible(rng: random.Random, p: int) -> int:
    while True:
        k = rng.randrange(p ** 4)
        if key_det(p, k):
            return k


def _sampled(p: int, count: int, seed: int) -> list[Subgroup]:
    rng = random.Random(seed)
    registry = _Registry()
    for _ in range(count):
        x = _random_invertible(rng, p)
        y = _random_invertible(rng, p)
        registry.add(close_generators(p, [x, y]))
    # stable: classes of equal order and fingerprint keep their order
    return sorted(registry.classes,
                  key=lambda G: (G.order, G.fingerprint_id()))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _cache_path(cache_dir, p, mode, count, seed) -> Path:
    name = f"gl2enum-p{p}-{mode}"
    if mode == "sampled":
        name += f"-c{count}-s{seed}"
    return Path(cache_dir) / f"{name}-v{VERSION}.json"


def _wire_dtype(p: int) -> np.dtype:
    """Little-endian integers wide enough for every key mod p."""
    return np.dtype(_key_dtype(p)).newbyteorder("<")


def _encode_keys(p: int, keys: np.ndarray) -> str:
    return base64.b64encode(keys.astype(_wire_dtype(p)).tobytes()).decode()


def _decode_keys(p: int, text: str) -> np.ndarray:
    """Keys written by _encode_keys; ValueError if the text is not base64
    of whole keys."""
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype=_wire_dtype(p)).astype(np.int64)


def _is_generated(p: int, gens: list[int], keys: np.ndarray) -> bool:
    """Whether the keys, meant to ascend, are exactly the group <gens>.

    No closure is built.  If the keys ascend strictly within [0, p^4),
    contain the identity and are mapped into themselves by right
    multiplication with each (invertible) generator, then each generator
    permutes them and <gens> acts on them on the right.  The orbit of the
    identity is <gens> itself, so the keys are <gens> exactly when they
    form that one orbit: when min-label propagation along the generator
    steps labels every key with position 0."""
    n = len(keys)
    if (not n or keys[0] < 0 or keys[-1] >= p ** 4
            or not (keys[1:] > keys[:-1]).all()
            or not _sorted_member(keys, pack(p, 1, 0, 0, 1))):
        return False
    products = _right_mul(p, keys, _row_table(p, gens))
    at = np.minimum(np.searchsorted(keys, products), n - 1)
    if not np.array_equal(keys[at], products):
        return False  # not closed under the generators
    return not _orbit_labels(n, at).any()


def _save_cache(path: Path, p, mode, count, seed, groups) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "code_version": VERSION,
        "p": p,
        "mode": mode,
        "count": count,
        "seed": seed,
        "classes": [
            {
                "generators": [[[a, b], [c, d]] for a, b, c, d
                               in (unpack(p, g) for g in G.generators)],
                "order": G.order,
                "sl2_preimage": not G.is_materialized,
                "det_image": sorted(G.det_image),
                **({"elements": _encode_keys(p, G.elements)}
                   if G.is_materialized else {}),
            }
            for G in groups
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # write beside the target and rename over it, so a save that fails
    # partway never leaves a truncated cache behind
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        # json.dumps without indent takes the C encoder: json.dump, or
        # any indent, falls back to the pure-Python one
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_cache(path: Path, p, mode):
    """The classes stored at path, or None unless every one of them is
    proven to be what it claims: stored elements are checked against their
    generators (_is_generated), a class stored without them must pass the
    SL2 screen of close_generators again, and orders and determinant
    images are checked against the group they describe."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (not isinstance(payload, dict)
            or payload.get("schema_version") != SCHEMA_VERSION
            or payload.get("code_version") != VERSION
            or payload.get("p") != p or payload.get("mode") != mode):
        return None
    groups = []
    try:
        for entry in payload["classes"]:
            flat = [[g[0][0], g[0][1], g[1][0], g[1][1]]
                    for g in entry["generators"]]
            if any(not (isinstance(v, int) and 0 <= v < p)
                   for g in flat for v in g):
                return None
            gens = [pack(p, *g) for g in flat]
            if any(key_det(p, g) == 0 for g in gens):
                return None  # a singular matrix generates no group
            if entry["sl2_preimage"]:
                G = close_generators(p, gens)
                if G.is_materialized:
                    return None  # <gens> does not contain SL2
            else:
                # normalized as close_generators would
                gens = sorted(set(gens))
                keys = _decode_keys(p, entry["elements"])
                if not _is_generated(p, gens, keys):
                    return None
                G = Subgroup(p, generators=gens, elements=keys)
            if (G.order != entry["order"]
                    or sorted(G.det_image) != entry["det_image"]):
                return None  # stale or corrupted cache
            groups.append(G)
    except (KeyError, TypeError, ValueError, IndexError):
        return None
    return groups


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def enumerate_subgroups(p, mode="exhaustive", *, count=None, seed=None,
                        ceiling=11, cache_dir=None):
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if mode == "exhaustive":
        if count is not None or seed is not None:
            raise ValueError("count and seed apply to sampled mode only")
        if p > ceiling:
            full = (p * p - 1) * (p * p - p)
            raise ValueError(
                f"exhaustive enumeration is limited to p <= {ceiling}: "
                f"GL2(F_{p}) has {full} elements and the census touches "
                f"every subgroup, roughly {full * full:.1e} element "
                f"operations; raise the ceiling explicitly to override")
    elif mode == "sampled":
        if count is None or count < 1:
            raise ValueError("sampled mode needs a positive count")
        if p > SAMPLED_PRIME_LIMIT:
            raise ValueError(f"sampled mode is limited to p <= {SAMPLED_PRIME_LIMIT}")
        seed = 0 if seed is None else seed
    else:
        raise ValueError(f"unknown mode {mode!r}")

    path = None
    if cache_dir is not None:
        path = _cache_path(cache_dir, p, mode, count, seed)
        cached = _load_cache(path, p, mode)
        if cached is not None:
            return cached

    if mode == "exhaustive":
        groups = _exhaustive(p)
    else:
        groups = _sampled(p, count, seed)

    if path is not None:
        _save_cache(path, p, mode, count, seed, groups)
    return groups
