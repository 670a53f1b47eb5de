import math
import random

import numpy as np

from torsiondeg import gl2


# ---------------------------------------------------------------------------
# scalar matrix arithmetic on packed keys, one key at a time: the reference
# for the array kernels gl2._np_mul and gl2._np_inv
# ---------------------------------------------------------------------------

def oracle_key_mul(p, k1, k2):
    a, b, c, d = gl2.unpack(p, k1)
    e, f, g, h = gl2.unpack(p, k2)
    return gl2.pack(p, (a * e + b * g) % p, (a * f + b * h) % p,
                    (c * e + d * g) % p, (c * f + d * h) % p)


def oracle_key_inv(p, key):
    a, b, c, d = gl2.unpack(p, key)
    di = pow(a * d - b * c, -1, p)
    return gl2.pack(p, d * di % p, -b * di % p, -c * di % p, a * di % p)


def oracle_key_pow(p, key, n):
    if n < 0:
        key, n = oracle_key_inv(p, key), -n
    result = gl2.pack(p, 1, 0, 0, 1)
    while n:
        if n & 1:
            result = oracle_key_mul(p, result, key)
        key = oracle_key_mul(p, key, key)
        n >>= 1
    return result


def oracle_key_is_scalar(p, key):
    a, b, c, d = gl2.unpack(p, key)
    return b == 0 and c == 0 and a == d


def oracle_projective_order(p, key):
    """Least k >= 1 with key^k scalar (order of the image in PGL2), one
    product at a time: the scalar reference for gl2._projective_orders."""
    acc = key
    for k in range(1, p + 2):
        if oracle_key_is_scalar(p, acc):
            return k
        acc = oracle_key_mul(p, acc, key)
    raise AssertionError("projective order exceeded p+1")


def oracle_line_permutation(p, key):
    """How a matrix permutes the p+1 lines, as a tuple over line indices,
    one line at a time: line i < p is spanned by (1, i), line p by (0, 1).
    The scalar reference for gl2._line_images."""
    a, b, c, d = gl2.unpack(p, key)
    images = []
    for i in range(p + 1):
        x, y = (1, i) if i < p else (0, 1)
        nx, ny = (a * x + b * y) % p, (c * x + d * y) % p
        images.append(ny * pow(nx, -1, p) % p if nx else p)
    return tuple(images)


def oracle_proj_canonical(p, key):
    """Least packed key among the scalar multiples of a matrix."""
    a, b, c, d = gl2.unpack(p, key)
    return min(gl2.pack(p, t * a % p, t * b % p, t * c % p, t * d % p)
               for t in range(1, p))


def oracle_projective_center_trivial(G):
    p = G.p
    count = 0
    for z in G.elements.tolist():
        zi = oracle_key_inv(p, z)
        if all(oracle_key_is_scalar(p, oracle_key_mul(
                p, oracle_key_mul(p, oracle_key_mul(p, z, g), zi),
                oracle_key_inv(p, g))) for g in G.generators):
            count += 1
    return count == G.scalar_count


def oracle_projective_type_from_elements(G, q):
    """The projective type of a materialized G of projective order q, by
    per-key arithmetic: the reference for
    gl2._projective_type_from_elements."""
    p = G.p
    elements = G.elements.tolist()
    orders = {k: oracle_projective_order(p, k) for k in elements}
    m = max(orders.values())
    if m == q:
        return gl2.ProjectiveType.CYCLIC
    if q == 2 * m:
        x = next(k for k in elements if orders[k] == m)
        powers = {oracle_proj_canonical(p, oracle_key_pow(p, x, i))
                  for i in range(m)}
        for y in elements:
            if orders[y] <= 2 and oracle_proj_canonical(p, y) not in powers:
                t = oracle_key_mul(p, oracle_key_mul(p, oracle_key_mul(
                    p, y, x), oracle_key_inv(p, y)), x)
                if oracle_key_is_scalar(p, t):
                    return gl2.ProjectiveType.DIHEDRAL
    hist = {}
    for k in elements:
        hist[orders[k]] = hist.get(orders[k], 0) + 1
    s = G.scalar_count
    hist = {o: n // s for o, n in hist.items()}
    if q == 12 and 6 not in hist:
        return gl2.ProjectiveType.A4
    if q == 24 and 4 in hist and oracle_projective_center_trivial(G):
        return gl2.ProjectiveType.S4
    if q == 60 and hist == {1: 1, 2: 15, 3: 20, 5: 24}:
        return gl2.ProjectiveType.A5
    return gl2.ProjectiveType.OTHER


def projective_order_histogram(G):
    """Histogram {projective order: count} over the projective image of G.

    Counts each coset of the scalars once; independent of the type
    detection in gl2 (which keys on selected statistics, not the full
    histogram).
    """
    hist = {}
    for k in G.elements.tolist():
        o = oracle_projective_order(G.p, k)
        hist[o] = hist.get(o, 0) + 1
    s = G.scalar_count
    assert all(n % s == 0 for n in hist.values())
    return {o: n // s for o, n in hist.items()}


def find_projective_subgroup(p, base, hist, seed=0, tries=3000):
    """Deterministically search for a subgroup of GL2(F_p) whose projective
    image has the given order histogram.

    Closes random generator pairs drawn from `base` (a sequence of packed
    keys) with a seeded generator until the closure's projective histogram
    matches.  Raises if nothing is found, which would mean the search
    parameters are wrong, not that the group is absent.
    """
    rng = random.Random(seed)
    want_q = sum(hist.values())
    for _ in range(tries):
        x = base[rng.randrange(len(base))]
        y = base[rng.randrange(len(base))]
        G = gl2.Subgroup.generated_by(p, [x, y])
        if G.order > 60 * (p - 1):  # cannot have a small exceptional image
            continue
        if G.projective_order != want_q:
            continue
        if projective_order_histogram(G) == hist:
            return G
    raise AssertionError(f"no subgroup with projective histogram {hist} "
                         f"found in {tries} seeded tries for p={p}")


A4_HIST = {1: 1, 2: 3, 3: 8}
S4_HIST = {1: 1, 2: 9, 3: 8, 4: 6}
A5_HIST = {1: 1, 2: 15, 3: 20, 5: 24}


def oracle_mulclose(p, gens):
    """Closure of invertible keys under multiplication, one key at a time:
    a breadth-first search over products x g, the scalar reference for
    gl2._mulclose."""
    identity = gl2.pack(p, 1, 0, 0, 1)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = oracle_key_mul(p, x, g)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    return tuple(sorted(elements))


def oracle_perm_closure_capped(gens, limit):
    """Closure of permutations given as tuples of images, one composition
    at a time, or None once the size exceeds `limit`: the reference for
    _enumeration._perm_closure_capped."""
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


# ---------------------------------------------------------------------------
# divisor spreads with a separate value table: the reference for the
# block-major kernel families._spread_block
# ---------------------------------------------------------------------------

def oracle_spread_max(out, v):
    """out[d] = max(out[d], max of v[s] over s | d), in place.

    Strided maxima over the multiples of each s <= sqrt(x) with v[s]
    nonzero, and for the larger s, whose multiples k s have k < sqrt(x),
    one maximum per k.  On booleans the maximum is a logical or.
    """
    x = len(out) - 1
    r = math.isqrt(x)
    for step in np.flatnonzero(v[1:r + 1]) + 1:
        view = out[step::step]
        np.maximum(view, v[step], out=view)
    for k in range(1, x // (r + 1) + 1):
        hi = x // k
        view = out[k * (r + 1):k * hi + 1:k]
        np.maximum(view, v[r + 1:hi + 1], out=view)
