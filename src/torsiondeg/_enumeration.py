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

Deduplication is by a global digest table holding every conjugate of every
known class with a conjugator, so recognizing a candidate costs one hash
lookup and one comparison with the conjugate the digest names.

Sampled mode draws seeded random generator pairs.  A pair that visibly
preserves a line, an unordered pair of lines, or a Galois-conjugate pair
of points of P^1(F_{p^2}) generates a group of bounded order and is closed
honestly.  Otherwise the image in the permutation group of the lines is
closed with a cap just above 60: exceeding the cap certifies (for p >= 5)
that the group contains SL2, and it is then represented lazily by its
determinant image.  Lazy classes compare by determinant image; honest
classes that collide on invariants are separated by an exact conjugacy
search along a transporter equation.
"""

from __future__ import annotations

from _blake2 import blake2b  # not hashlib: see gl2
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
    _det_closure,
    _fixed_lines,
    _key_dtype,
    _line_images,
    _np_components,
    _np_inv,
    _np_is_scalar,
    _np_mul,
    _np_pack,
    _orbit_labels,
    _right_mul,
    _row_table,
    _sorted_member,
    _stabilized_conjugate_pair_for_generators,
    _stabilized_line_pair,
    key_det,
    pack,
    unpack,
)

SCHEMA_VERSION = 2
SAMPLED_PRIME_LIMIT = 97


# ---------------------------------------------------------------------------
# vectorized arithmetic over the whole group
# ---------------------------------------------------------------------------

class _FullContext:
    """Componentwise numpy arrays for every element of GL2(F_p)."""

    def __init__(self, p: int):
        self.p = p
        idx = np.arange(p ** 4, dtype=np.int64)
        a, b, c, d = _np_components(p, idx)
        keep = (a * d - b * c) % p != 0
        self.keys = idx[keep]  # ascending
        # int32 is exact for p < 215
        self.comps = tuple(v[keep].astype(np.int32) for v in (a, b, c, d))
        self.inverse = tuple(v.astype(np.int32)
                             for v in _np_inv(p, self.comps))
        # the cosets t Z of the scalars Z, each named by its least key (the
        # one with first row (1, b) or (0, 1)), and the index of the coset
        # of every key: every normalizer contains Z
        self.mod_scalars = idx[keep & ((a == 1) | ((a == 0) & (b == 1)))]
        t = np.arange(1, p)
        scalars = _row_table(p, _np_pack(p, (t, 0, 0, t)))
        self.mod_scalars_at = np.zeros(p ** 4, dtype=_key_dtype(p))
        self.mod_scalars_at[_right_mul(p, self.mod_scalars, scalars)] = (
            np.arange(len(self.mod_scalars)))

    def conjugates(self, sel, x) -> np.ndarray:
        """Keys of n x n^-1, one row per n = keys[sel], one column per x
        (x is given by its components, as ints or 1-D arrays)."""
        p = self.p
        a, b, c, d = (v[sel][:, None] for v in self.comps)
        ia, ib, ic, id_ = (v[sel][:, None] for v in self.inverse)
        # below p^4 throughout: int32, like the components, for p < 215
        xa, xb, xc, xd = (np.asarray(v, dtype=_key_dtype(p)) for v in x)
        # t = n x stays unreduced, so u = t n^-1 takes four reductions
        ta, tb = a * xa + b * xc, a * xb + b * xd
        tc, td = c * xa + d * xc, c * xb + d * xd
        return _np_pack(p, ((ta * ia + tb * ic) % p, (ta * ib + tb * id_) % p,
                            (tc * ia + td * ic) % p, (tc * ib + td * id_) % p))

    def normalizer(self, sub_keys: np.ndarray, gens) -> np.ndarray:
        """Ascending positions in self.keys of {n : n<gens>n^-1 in sub}."""
        inside = _indicator(self.p, sub_keys)
        pos = np.arange(len(self.keys))
        for g in gens:
            sel = pos if len(pos) < len(self.keys) else slice(None)
            conj = self.conjugates(sel, unpack(self.p, int(g)))
            pos = pos[inside[conj[:, 0]]]
        return pos


def _indicator(p: int, keys: np.ndarray) -> np.ndarray:
    """Boolean table over all p^4 keys, true exactly on the given keys."""
    table = np.zeros(p ** 4, dtype=bool)
    table[keys] = True
    return table


def _digest(sorted_keys: np.ndarray) -> bytes:
    return blake2b(np.ascontiguousarray(sorted_keys, dtype="<i8")
                   .tobytes(), digest_size=12).digest()


def _left_cosets(p, points: np.ndarray, at: np.ndarray, sub_keys, gens):
    """Left cosets g S of a subgroup S in a union of them: (coset, reps),
    where reps are the coset minima, ascending, and coset[i] is the index
    in reps of the coset holding point i.

    The union is cut into blocks that right multiplication by S permutes:
    its single keys, or the cosets of the scalars when S contains them.
    points holds each block's least key, ascending, and at[key] the index
    of the block of every key of the union.  The cosets g S are the orbits
    of right multiplication by S, so min-label propagation along right
    multiplications by generators of S labels each point with the least
    point of its coset.  The given gens lie in S; while they generate less
    than S, which shows as more orbits than the index of S, the least
    element of S outside the orbit of the identity joins them, at least
    doubling the group they generate."""
    n = len(points)
    images = list(at[_right_mul(p, points, _row_table(p, list(gens)))])
    members = at[sub_keys]
    one = at[pack(p, 1, 0, 0, 1)]
    index = n // np.count_nonzero(np.bincount(members, minlength=n))
    low = np.arange(n)
    while True:
        low = _orbit_labels(n, images, low)
        roots = low == np.arange(n)
        if np.count_nonzero(roots) == index:
            return (np.cumsum(roots) - 1)[low], points[roots]
        g = sub_keys[np.argmax(low[members] != low[one])]
        images.append(at[_right_mul(p, points, _row_table(p, g))])


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

class _Census:
    """Registry of conjugacy classes with the global conjugate-digest table,
    which maps the digest of every conjugate r H r^-1 of every known class H
    to (class id, r), so that each digest hit can be checked."""

    def __init__(self, ctx: _FullContext):
        self.ctx = ctx
        self.table: dict[bytes, tuple[int, int]] = {}
        self.class_keys: list[np.ndarray] = []
        self.class_gens: list[list[int]] = []
        # the normalizer of each class, which contains the scalars, as a
        # bit mask over their cosets ctx.mod_scalars; phase 2 drops it
        self.normalizers: list[np.ndarray | None] = []

    def normalizer(self, cid: int) -> np.ndarray:
        """Ascending positions in ctx.keys of the normalizer of class cid."""
        ctx = self.ctx
        inside = np.unpackbits(self.normalizers[cid],
                               count=len(ctx.mod_scalars)).view(bool)
        return np.flatnonzero(inside[ctx.mod_scalars_at[ctx.keys]])

    def lookup(self, sorted_keys: np.ndarray):
        """Class id of a known conjugate of the subgroup, or None."""
        found = self.table.get(_digest(sorted_keys))
        if found is None:
            return None
        cid, r = found
        ctx = self.ctx
        conj = ctx.conjugates(np.searchsorted(ctx.keys, [r]),
                              _np_components(ctx.p, self.class_keys[cid]))
        if not np.array_equal(np.sort(conj[0]), sorted_keys):
            raise RuntimeError(f"census digest collision with class {cid}")
        return cid

    def register(self, sorted_keys: np.ndarray, gens: list[int]):
        """Record a new class and hash all of its conjugates: (id, is_new)."""
        found = self.lookup(sorted_keys)
        if found is not None:
            return found, False
        ctx, p = self.ctx, self.ctx.p
        cid = len(self.class_keys)
        self.class_keys.append(sorted_keys)
        self.class_gens.append(list(gens))
        nkeys = ctx.keys[ctx.normalizer(sorted_keys, gens)]
        inside = np.zeros(len(ctx.mod_scalars), dtype=bool)
        inside[ctx.mod_scalars_at[nkeys]] = True
        self.normalizers.append(np.packbits(inside))
        # the conjugate r H r^{-1} depends only on the left coset r N(H)
        _, reps = _left_cosets(p, ctx.mod_scalars, ctx.mod_scalars_at,
                               nkeys, gens)
        conj = np.sort(ctx.conjugates(np.searchsorted(ctx.keys, reps),
                                      _np_components(p, sorted_keys)), axis=1)
        for r, row in zip(reps.tolist(), conj):
            entry = self.table.setdefault(_digest(row), (cid, r))
            if entry != (cid, r):
                raise RuntimeError(f"census digest collision between classes "
                                   f"{cid} and {entry[0]}")
        return cid, True


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


def _phase1_sl2_classes(ctx: _FullContext, census: _Census) -> None:
    """All subgroups of SL2 up to conjugacy, by prime-power-element extension."""
    p = ctx.p
    # element orders, by powering every element at once
    identity = pack(p, 1, 0, 0, 1)
    orders = np.zeros(len(ctx.keys), dtype=np.int64)
    acc = ctx.comps
    for k in range(1, p * p + 1):
        orders[(orders == 0) & (_np_pack(p, acc) == identity)] = k
        acc = _np_mul(p, acc, ctx.comps)
    if (orders == 0).any():
        raise RuntimeError("element order exceeded the exponent bound")
    a, b, c, d = ctx.comps
    prime_power = np.array([n > 1 and len(factorize(n)) == 1
                            for n in range(p * p)])
    candidates = ctx.keys[((a * d - b * c) % p == 1) & prime_power[orders]]
    cid, new = census.register(np.array([identity]), [])
    if not new:
        raise RuntimeError("the trivial group was already in the census")
    queue = [cid]
    while queue:
        cid = queue.pop(0)
        hkeys = census.class_keys[cid]
        hgens = census.class_gens[cid]
        normalizer = census.normalizer(cid)
        pending = _indicator(p, candidates)
        pending[hkeys] = False
        for x in candidates[pending[candidates]].tolist():
            if not pending[x]:
                continue
            # <H, n x n^-1> = n <H, x> n^-1 for n in N(H): the whole
            # N(H)-orbit of x gives one class
            pending[ctx.conjugates(normalizer, unpack(p, x))[:, 0]] = False
            new_cid, is_new = census.register(_adjoin(p, hkeys, hgens, x),
                                              hgens + [x])
            if is_new:
                queue.append(new_cid)


def _phase2_prime_index_extensions(ctx: _FullContext, census: _Census) -> None:
    """Close the census under prime-index normal extensions."""
    p = ctx.p
    queue = list(range(len(census.class_keys)))
    while queue:
        cid = queue.pop(0)
        hkeys = census.class_keys[cid]
        hgens = census.class_gens[cid]
        normalizer = census.normalizer(cid)
        census.normalizers[cid] = None  # read once here
        index = len(normalizer) // len(hkeys)
        if index == 1:
            continue
        # cosets r H = H r of H in its normalizer, numbered by their minima
        nkeys = ctx.keys[normalizer]
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
                new_cid, is_new = census.register(
                    np.sort(np.concatenate(parts)), hgens + [r])
                if is_new:
                    queue.append(new_cid)
                # n <H, r^k> n^-1 = <H, n r^k n^-1> for n in N(H) and
                # 0 < k < q: each coset H n r^k n^-1 gives a conjugate class
                for part in parts[1:]:
                    conj = ctx.conjugates(normalizer, unpack(p, int(part[0])))
                    todo[coset[at[conj[:, 0]]]] = False


def _exhaustive(p: int) -> list[Subgroup]:
    ctx = _FullContext(p)
    census = _Census(ctx)
    _phase1_sl2_classes(ctx, census)
    _phase2_prime_index_extensions(ctx, census)
    census.table.clear()  # free the digest table before fingerprinting
    # generators are normalized exactly as generated_by would, so a cache
    # reload reproduces the computed census verbatim
    groups = [Subgroup.from_sorted_keys(p, keys,
                                        generators=sorted({int(g) for g in gens}))
              for keys, gens in zip(census.class_keys, census.class_gens)]
    # arrays have no order; as lists the elements compare lexicographically
    groups.sort(key=lambda G: (G.order, G.fingerprint_id(),
                               G.elements.tolist()))
    return groups


# ---------------------------------------------------------------------------
# sampled enumeration
# ---------------------------------------------------------------------------

def _random_invertible(rng: random.Random, p: int) -> int:
    while True:
        k = rng.randrange(p ** 4)
        if key_det(p, k):
            return k


def _perm_closure_capped(images: np.ndarray, limit: int):
    """Closure of the permutations given by the rows of images, as an
    array with one row of images per element, or None once the size
    exceeds `limit`.

    The product x g, i -> x[g[i]], of every frontier row x with one
    generator g is the fancy index frontier[:, g]; rows are told apart
    by their bytes."""
    n = images.shape[1]
    frontier = np.arange(n, dtype=images.dtype)[None, :]
    seen = {frontier[0].tobytes()}
    elements = [frontier]
    while len(frontier):
        fresh = []
        for g in images:
            for row in frontier[:, g]:
                key = row.tobytes()
                if key not in seen:
                    if len(seen) >= limit:
                        return None
                    seen.add(key)
                    fresh.append(row)
        frontier = np.array(fresh, dtype=images.dtype).reshape(-1, n)
        elements.append(frontier)
    return np.concatenate(elements)


def _close_sampled_pair(p: int, x: int, y: int) -> Subgroup:
    gens = [x, y]
    images = _line_images(p, gens)
    if (p < 5
            or len(_fixed_lines(images))  # inside a Borel
            # inside a split or a nonsplit normalizer
            or _stabilized_line_pair(images) is not None
            or _stabilized_conjugate_pair_for_generators(p, gens) is not None):
        return Subgroup.generated_by(p, gens)
    # No invariant line, line pair, or conjugate point pair: the projective
    # image is not cyclic, dihedral, or Borel-contained, so it is A4, S4, A5
    # (order <= 60) or contains PSL2.  At p = 5 an image of order 60 is
    # already all of PSL2.
    limit = 59 if p == 5 else 60
    if _perm_closure_capped(images, limit) is not None:
        return Subgroup.generated_by(p, gens)
    det_image = _det_closure(p, [key_det(p, g) for g in gens])
    return Subgroup.sl2_preimage(p, det_image, gens)


def _nullspace_mod(p: int, rows: list[list[int]]) -> list[list[int]]:
    """Basis of the nullspace of a small matrix over F_p."""
    ncols = len(rows[0])
    mat = [[v % p for v in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(mat[i][j] - f * mat[r][j]) % p for j in range(ncols)]
        pivots.append(col)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-mat[i][fc]) % p
        basis.append(vec)
    return basis


def conjugate_subgroups(H1: Subgroup, H2: Subgroup) -> bool:
    """Exact test: is H2 = h H1 h^{-1} for some h in GL2(F_p)?

    Solves the transporter equation h x = y h for a fixed non-scalar x of
    H1 against each y of H2 with the same characteristic polynomial; the
    solution space is two-dimensional, so only p+1 candidates (up to
    scalars) need checking per y.
    """
    if H1.p != H2.p or H1.order != H2.order:
        return False
    p = H1.p
    if H1.contains_sl2 or H2.contains_sl2:
        # subgroups containing SL2 are normal and determined by det image
        return (H1.contains_sl2 == H2.contains_sl2
                and H1.det_image == H2.det_image)
    els1, els2 = H1.elements, H2.elements
    nonscalar = np.flatnonzero(~_np_is_scalar(_np_components(p, els1)))
    if not len(nonscalar):
        return np.array_equal(els1, els2)  # scalar groups: conjugation-fixed
    xa, xb, xc, xd = unpack(p, int(els1[nonscalar[0]]))
    gens1 = _np_components(p, np.asarray(H1.generators or els1,
                                          dtype=np.int64))
    a, b, c, d = _np_components(p, els2)
    similar = (((a + d) % p == (xa + xd) % p)
               & ((a * d - b * c) % p == (xa * xd - xb * xc) % p))
    # the p+1 solutions (alpha, beta) up to scalars
    alpha = np.append(np.ones(p, dtype=np.int64), 0)
    beta = np.append(np.arange(p), 1)
    for ya, yb, yc, yd in zip(*(v[similar].tolist() for v in (a, b, c, d))):
        basis = _nullspace_mod(p, [
            [xa - ya, xc, -yb, 0],
            [xb, xd - ya, 0, -yb],
            [-yc, 0, xa - yd, xc],
            [0, -yc, xb, xd - yd],
        ])
        if len(basis) < 2:
            continue  # y is not similar to x after all
        b0, b1 = basis[0], basis[1]
        h = tuple((alpha * b0[i] + beta * b1[i]) % p for i in range(4))
        invertible = (h[0] * h[3] - h[1] * h[2]) % p != 0
        h = tuple(v[invertible, None] for v in h)  # one row per h
        conj = _np_pack(p, _np_mul(p, _np_mul(p, h, gens1), _np_inv(p, h)))
        if _sorted_member(els2, conj).all(axis=1).any():
            return True
    return False


def _sampled(p: int, count: int, seed: int) -> list[Subgroup]:
    rng = random.Random(seed)
    found: list[Subgroup] = []
    by_fp: dict[tuple, list[int]] = {}
    for _ in range(count):
        x = _random_invertible(rng, p)
        y = _random_invertible(rng, p)
        G = _close_sampled_pair(p, x, y)
        fp = G.fingerprint()
        bucket = by_fp.setdefault(fp, [])
        if not any(conjugate_subgroups(found[j], G) for j in bucket):
            bucket.append(len(found))
            found.append(G)
    order = sorted(range(len(found)),
                   key=lambda i: (found[i].order, found[i].fingerprint_id(), i))
    return [found[i] for i in order]


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
    generators (_is_generated), orders and determinant images against the
    group they describe."""
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
                dets = _det_closure(p, [key_det(p, g) for g in gens])
                G = Subgroup.sl2_preimage(p, dets, gens)
            else:
                # normalized as generated_by would
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
