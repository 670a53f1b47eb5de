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

Deduplication is by a global digest table holding every conjugate of every
known class, so recognizing a candidate costs one hash lookup.

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

import hashlib
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
    _mulclose,
    _stabilized_conjugate_pair_for_generators,
    key_det,
    key_inv,
    key_mul,
    key_pow,
    line_permutation,
    pack,
    unpack,
)

SCHEMA_VERSION = 1
SAMPLED_PRIME_LIMIT = 97


# ---------------------------------------------------------------------------
# vectorized arithmetic over the whole group
# ---------------------------------------------------------------------------

class _FullContext:
    """Componentwise numpy arrays for every element of GL2(F_p)."""

    def __init__(self, p: int):
        self.p = p
        idx = np.arange(p ** 4, dtype=np.int64)
        d = idx % p
        c = idx // p % p
        b = idx // (p * p) % p
        a = idx // (p * p * p)
        det = (a * d - b * c) % p
        keep = det != 0
        self.keys = idx[keep]  # ascending
        self.a, self.b, self.c, self.d = a[keep], b[keep], c[keep], d[keep]
        self.det = det[keep]
        inv_lut = np.array([0] + [pow(t, -1, p) for t in range(1, p)],
                           dtype=np.int64)
        self.detinv = inv_lut[self.det]
        self.size = len(self.keys)
        self._orders = None

    @property
    def orders(self) -> np.ndarray:
        if self._orders is None:
            p = self.p
            xa, xb, xc, xd = self.a, self.b, self.c, self.d
            acc = (xa.copy(), xb.copy(), xc.copy(), xd.copy())
            orders = np.zeros(self.size, dtype=np.int64)
            k = 1
            while (orders == 0).any():
                aa, ab, ac, ad = acc
                ident = (aa == 1) & (ab == 0) & (ac == 0) & (ad == 1)
                orders[(orders == 0) & ident] = k
                acc = ((aa * xa + ab * xc) % p, (aa * xb + ab * xd) % p,
                       (ac * xa + ad * xc) % p, (ac * xb + ad * xd) % p)
                k += 1
                assert k <= p * p, "element order exceeded the exponent bound"
            self._orders = orders
        return self._orders

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Indices into self.keys; the inputs must be invertible keys."""
        pos = np.searchsorted(self.keys, keys)
        assert (self.keys[pos] == keys).all()
        return pos

    def normalizer_mask(self, sub_sorted: np.ndarray, gens) -> np.ndarray:
        """Boolean mask over the whole group of {n : n<gens>n^-1 in sub}."""
        p = self.p
        mask = np.ones(self.size, dtype=bool)
        for g in gens:
            ga, gb, gc, gd = unpack(p, int(g))
            # t = n * g
            ta = self.a * ga + self.b * gc
            tb = self.a * gb + self.b * gd
            tc = self.c * ga + self.d * gc
            td = self.c * gb + self.d * gd
            # u = t * n^{-1}, with n^{-1} = detinv * [[d, -b], [-c, a]]
            ua = (ta * self.d - tb * self.c) % p * self.detinv % p
            ub = (tb * self.a - ta * self.b) % p * self.detinv % p
            uc = (tc * self.d - td * self.c) % p * self.detinv % p
            ud = (td * self.a - tc * self.b) % p * self.detinv % p
            keys = ((ua * p + ub) * p + uc) * p + ud
            pos = np.clip(np.searchsorted(sub_sorted, keys), 0,
                          len(sub_sorted) - 1)
            mask &= sub_sorted[pos] == keys
        return mask


def _np_components(p: int, keys: np.ndarray):
    d = keys % p
    c = keys // p % p
    b = keys // (p * p) % p
    a = keys // (p * p * p)
    return a, b, c, d


def _np_mul_fixed(p, comps, g_key, side):
    """Multiply every (a,b,c,d) in comps by the fixed key, on the given side."""
    a, b, c, d = comps
    e, f, g, h = unpack(p, int(g_key))
    if side == "right":
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)
    return ((e * a + f * c) % p, (e * b + f * d) % p,
            (g * a + h * c) % p, (g * b + h * d) % p)


def _np_pack(p, comps) -> np.ndarray:
    a, b, c, d = comps
    return ((a * p + b) * p + c) * p + d


def _np_conjugate(p, comps, r_key) -> np.ndarray:
    """Keys of r X r^{-1} for every X given by comps."""
    t = _np_mul_fixed(p, comps, r_key, side="left")
    return _np_pack(p, _np_mul_fixed(p, t, key_inv(p, int(r_key)), side="right"))


def _digest(sorted_keys: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(sorted_keys, dtype="<i8")
                           .tobytes(), digest_size=12).digest()


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

class _Census:
    """Registry of conjugacy classes with the global conjugate-digest table."""

    def __init__(self, ctx: _FullContext):
        self.ctx = ctx
        self.table: dict[bytes, int] = {}
        self.class_keys: list[np.ndarray] = []
        self.class_gens: list[list[int]] = []

    def lookup(self, sorted_keys: np.ndarray):
        return self.table.get(_digest(sorted_keys))

    def register(self, sorted_keys: np.ndarray, gens: list[int]):
        """Record a new class and hash all of its conjugates.

        Returns (class_id, is_new).
        """
        d = _digest(sorted_keys)
        found = self.table.get(d)
        if found is not None:
            return found, False
        ctx, p = self.ctx, self.ctx.p
        cid = len(self.class_keys)
        self.class_keys.append(sorted_keys)
        self.class_gens.append(list(gens))
        nmask = ctx.normalizer_mask(sorted_keys, gens)
        ncomps = (ctx.a[nmask], ctx.b[nmask], ctx.c[nmask], ctx.d[nmask])
        sub_comps = _np_components(p, sorted_keys)
        covered = np.zeros(ctx.size, dtype=bool)
        covered[nmask] = True
        self.table[d] = cid
        while True:
            rest = np.flatnonzero(~covered)
            if len(rest) == 0:
                break
            r = int(ctx.keys[rest[0]])
            # the conjugate r H r^{-1} depends only on the left coset r N(H)
            covered[ctx.positions(_np_pack(p, _np_mul_fixed(p, ncomps, r,
                                                            "left")))] = True
            conj = np.sort(_np_conjugate(p, sub_comps, r))
            dc = _digest(conj)
            assert self.table.setdefault(dc, cid) == cid
        return cid, True


def _prime_power_lut(limit: int) -> np.ndarray:
    lut = np.zeros(limit + 1, dtype=bool)
    for n in range(2, limit + 1):
        lut[n] = len(factorize(n)) == 1
    return lut


def _phase1_sl2_classes(ctx: _FullContext, census: _Census) -> None:
    """All subgroups of SL2 up to conjugacy, by prime-power-element extension."""
    p = ctx.p
    sl2_mask = ctx.det == 1
    pp_mask = sl2_mask & _prime_power_lut(p * p)[ctx.orders]
    candidates = ctx.keys[pp_mask]  # ascending
    identity = pack(p, 1, 0, 0, 1)
    queue = []
    cid, new = census.register(np.array([identity], dtype=np.int64), [])
    assert new
    queue.append(cid)
    while queue:
        cid = queue.pop(0)
        hkeys = census.class_keys[cid]
        hgens = census.class_gens[cid]
        hcomps = _np_components(p, hkeys)
        # inverses inside SL2: adjugates, since det = 1
        ha, hb, hc, hd = hcomps
        hinv = (hd, (-hb) % p, (-hc) % p, ha)
        pos = np.clip(np.searchsorted(hkeys, candidates), 0, len(hkeys) - 1)
        outside = candidates[hkeys[pos] != candidates]
        covered = np.zeros(len(outside), dtype=bool)
        for i in range(len(outside)):
            if covered[i]:
                continue
            x = int(outside[i])
            # mark the whole H-conjugacy orbit of x as handled
            t = _np_mul_fixed(p, hcomps, x, "right")
            orbit = np.sort(((t[0] * hinv[0] + t[1] * hinv[2]) % p * p
                             + (t[0] * hinv[1] + t[1] * hinv[3]) % p) * p * p
                            + ((t[2] * hinv[0] + t[3] * hinv[2]) % p * p
                               + (t[2] * hinv[1] + t[3] * hinv[3]) % p))
            covered[np.searchsorted(outside, orbit)] = True
            gens = hgens + [x]
            closed = np.fromiter(_mulclose(p, gens), dtype=np.int64)
            new_cid, is_new = census.register(closed, gens)
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
        nmask = ctx.normalizer_mask(hkeys, hgens)
        nkeys = ctx.keys[nmask]
        index = len(nkeys) // len(hkeys)
        if index == 1:
            continue
        hcomps = _np_components(p, hkeys)
        # coset representatives of H in its normalizer
        covered = np.zeros(len(nkeys), dtype=bool)
        covered[np.searchsorted(nkeys, hkeys)] = True
        reps = []
        while True:
            rest = np.flatnonzero(~covered)
            if len(rest) == 0:
                break
            r = int(nkeys[rest[0]])
            reps.append(r)
            coset = _np_pack(p, _np_mul_fixed(p, hcomps, r, "right"))
            covered[np.searchsorted(nkeys, np.sort(coset))] = True
        hset = frozenset(int(k) for k in hkeys)
        for q in {f for f, _ in factorize(index)}:
            for r in reps:
                if key_pow(p, r, q) not in hset:
                    continue
                parts = [hkeys]
                acc = r
                for _ in range(q - 1):
                    parts.append(_np_pack(p, _np_mul_fixed(p, hcomps, acc,
                                                           "right")))
                    acc = key_mul(p, acc, r)
                jkeys = np.sort(np.concatenate(parts))
                new_cid, is_new = census.register(jkeys, hgens + [r])
                if is_new:
                    queue.append(new_cid)


def _exhaustive(p: int) -> list[Subgroup]:
    ctx = _FullContext(p)
    census = _Census(ctx)
    _phase1_sl2_classes(ctx, census)
    _phase2_prime_index_extensions(ctx, census)
    # generators are normalized exactly as generated_by would, so a cache
    # reload reproduces the computed census verbatim
    groups = [Subgroup.from_sorted_keys(p, tuple(int(k) for k in keys),
                                        generators=sorted({int(g) for g in gens}))
              for keys, gens in zip(census.class_keys, census.class_gens)]
    groups.sort(key=lambda G: (G.order, G.fingerprint_id(), G.elements))
    return groups


# ---------------------------------------------------------------------------
# sampled enumeration
# ---------------------------------------------------------------------------

def _random_invertible(rng: random.Random, p: int) -> int:
    while True:
        k = rng.randrange(p ** 4)
        if key_det(p, k):
            return k


def _perm_closure_capped(gens: list[tuple[int, ...]], limit: int):
    """Closure of permutations, or None once the size exceeds `limit`."""
    n = len(gens[0])
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(x[g[i]] for i in range(n))
                if y not in elements:
                    if len(elements) >= limit:
                        return None
                    elements.add(y)
                    new.append(y)
        frontier = new
    return elements


def _close_sampled_pair(p: int, x: int, y: int) -> Subgroup:
    if p < 5:
        return Subgroup.generated_by(p, [x, y])
    px, py = line_permutation(p, x), line_permutation(p, y)
    n = p + 1
    if any(px[i] == i and py[i] == i for i in range(n)):
        return Subgroup.generated_by(p, [x, y])  # inside a Borel
    for i in range(n):
        for j in range(i + 1, n):
            if {px[i], px[j]} == {i, j} and {py[i], py[j]} == {i, j}:
                return Subgroup.generated_by(p, [x, y])  # split-normalizer bound
    if _stabilized_conjugate_pair_for_generators(p, [x, y]) is not None:
        return Subgroup.generated_by(p, [x, y])  # nonsplit-normalizer bound
    # No invariant line, line pair, or conjugate point pair: the projective
    # image is not cyclic, dihedral, or Borel-contained, so it is A4, S4, A5
    # (order <= 60) or contains PSL2.  At p = 5 an image of order 60 is
    # already all of PSL2.
    limit = 59 if p == 5 else 60
    if _perm_closure_capped([px, py], limit) is not None:
        return Subgroup.generated_by(p, [x, y])
    det_image = _det_closure(p, [key_det(p, x), key_det(p, y)])
    return Subgroup.sl2_preimage(p, det_image, [x, y])


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
    set2 = frozenset(H2.elements)
    x = next((k for k in H1.elements if not _is_scalar_key(p, k)), None)
    if x is None:
        return frozenset(H1.elements) == set2  # scalar groups: conjugation-fixed
    xa, xb, xc, xd = unpack(p, x)
    x_det, x_tr = key_det(p, x), (xa + xd) % p
    gens1 = [g for g in H1.generators] or list(H1.elements)
    for y in H2.elements:
        ya, yb, yc, yd = unpack(p, y)
        if (ya + yd) % p != x_tr or key_det(p, y) != x_det:
            continue
        basis = _nullspace_mod(p, [
            [xa - ya, xc, -yb, 0],
            [xb, xd - ya, 0, -yb],
            [-yc, 0, xa - yd, xc],
            [0, -yc, xb, xd - yd],
        ])
        if len(basis) < 2:
            continue  # y is not similar to x after all
        b0, b1 = basis[0], basis[1]
        for alpha, beta in [(1, t) for t in range(p)] + [(0, 1)]:
            h = [(alpha * b0[i] + beta * b1[i]) % p for i in range(4)]
            if (h[0] * h[3] - h[1] * h[2]) % p == 0:
                continue
            hk = pack(p, *h)
            hki = key_inv(p, hk)
            if all(key_mul(p, key_mul(p, hk, g), hki) in set2 for g in gens1):
                return True
    return False


def _is_scalar_key(p, k):
    a, b, c, d = unpack(p, k)
    return b == 0 and c == 0 and a == d


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
            }
            for G in groups
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # write beside the target and rename over it, so a save that fails
    # partway never leaves a truncated cache behind
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_cache(path: Path, p, mode):
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (payload.get("schema_version") != SCHEMA_VERSION
            or payload.get("code_version") != VERSION
            or payload.get("p") != p or payload.get("mode") != mode):
        return None
    groups = []
    for entry in payload["classes"]:
        try:
            flat = [[g[0][0], g[0][1], g[1][0], g[1][1]]
                    for g in entry["generators"]]
            if any(not (isinstance(v, int) and 0 <= v < p)
                   for g in flat for v in g):
                return None
            gens = [pack(p, *g) for g in flat]
        except (TypeError, ValueError, IndexError):
            return None
        if entry["sl2_preimage"]:
            dets = _det_closure(p, [key_det(p, g) for g in gens])
            G = Subgroup.sl2_preimage(p, dets, gens)
        else:
            G = Subgroup.generated_by(p, gens)  # re-close; trust nothing else
        if G.order != entry["order"] or sorted(G.det_image) != entry["det_image"]:
            return None  # stale or corrupted cache
        groups.append(G)
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
