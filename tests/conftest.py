import random

from torsiondeg import gl2


def oracle_projective_order(p, key):
    """Least k >= 1 with key^k scalar (order of the image in PGL2), one
    product at a time: the scalar reference for gl2._projective_orders."""
    acc = key
    for k in range(1, p + 2):
        if gl2.key_is_scalar(p, acc):
            return k
        acc = gl2.key_mul(p, acc, key)
    raise AssertionError("projective order exceeded p+1")


def projective_order_histogram(G):
    """Histogram {projective order: count} over the projective image of G.

    Counts each coset of the scalars once; independent of the type
    detection in gl2 (which keys on selected statistics, not the full
    histogram).
    """
    hist = {}
    for k in G.elements:
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
                y = gl2.key_mul(p, x, g)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    return tuple(sorted(elements))
