"""Tests for the subgroup census of GL2(F_p).

The exhaustive enumerator is checked against a deliberately naive oracle
for tiny p: breadth-first closure over *all* subgroups with no conjugacy
pruning and no restriction on the adjoined elements.  For p = 5 and 7 we
check structural invariants instead (standard subgroups appear, Lagrange,
every class classifies) plus seeded spot-checks that random subgroups are
conjugate to an enumerated representative.
"""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torsiondeg import cli, gl2
from torsiondeg.arith import euler_phi, factorize
from torsiondeg.gl2 import (
    DicksonClass,
    Subgroup,
    UnclassifiableSubgroupError,
    _mulclose,
    classify,
    close_generators,
    enumerate_subgroups,
    key_det,
    pack,
    standard_subgroups,
    unpack,
)
from torsiondeg import _enumeration
from torsiondeg.orbits import stabilizer
from torsiondeg._enumeration import (
    _close_sampled_pair,
    _companion_bases,
    conjugate_subgroups,
)

from conftest import (
    oracle_key_inv,
    oracle_key_mul,
    oracle_key_pow,
    oracle_mulclose,
    oracle_projective_type_from_elements,
)


# ---------------------------------------------------------------------------
# naive oracle: every subgroup, no shortcuts
# ---------------------------------------------------------------------------

def brute_all_subgroups(p):
    """Frozensets of element keys of *all* subgroups of GL2(F_p)."""
    full = [k for k in range(p ** 4) if key_det(p, k)]
    trivial = frozenset(oracle_mulclose(p, []))
    gens_of = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new = []
        for S in frontier:
            for g in full:
                if g in S:
                    continue
                gens = gens_of[S] + (g,)
                T = frozenset(oracle_mulclose(p, list(gens)))
                if T not in gens_of:
                    gens_of[T] = gens
                    new.append(T)
        frontier = new
    return set(gens_of)


def brute_conjugacy_orbits(p, subgroup_sets):
    full = [k for k in range(p ** 4) if key_det(p, k)]
    remaining = set(subgroup_sets)
    orbits = []
    while remaining:
        S = next(iter(remaining))
        orbit = set()
        for h in full:
            hi = oracle_key_inv(p, h)
            orbit.add(frozenset(oracle_key_mul(p, oracle_key_mul(p, h, s), hi)
                                for s in S))
        assert orbit <= remaining
        remaining -= orbit
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("p,expected_classes", [(2, 4), (3, None)])
def test_exhaustive_matches_naive_oracle(p, expected_classes):
    all_subs = brute_all_subgroups(p)
    orbits = brute_conjugacy_orbits(p, all_subs)
    found = enumerate_subgroups(p)
    assert len(found) == len(orbits)
    if expected_classes is not None:
        assert len(found) == expected_classes
    # each representative is a genuine subgroup and hits each orbit once
    hit = set()
    for G in found:
        S = frozenset(G.elements)
        assert S in all_subs
        (idx,) = [i for i, orbit in enumerate(orbits) if S in orbit]
        assert idx not in hit
        hit.add(idx)
    assert len(hit) == len(orbits)
    # class orders and total subgroup count agree with the naive census
    assert sorted(G.order for G in found) == sorted(
        len(next(iter(orbit))) for orbit in orbits)
    assert sum(len(orbit) for orbit in orbits) == len(all_subs)


def test_gl2_f2_census_by_hand():
    # GL2(F_2) is symmetric on the three lines: classes are 1, C2, C3, S3
    orders = sorted(G.order for G in enumerate_subgroups(2))
    assert orders == [1, 2, 3, 6]


# ---------------------------------------------------------------------------
# structural checks at p = 5 and 7
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def census5():
    return enumerate_subgroups(5)


@pytest.fixture(scope="module")
def census7():
    return enumerate_subgroups(7)


def _find_conjugate(census, H):
    fp = H.fingerprint()
    matches = [G for G in census if G.fingerprint() == fp]
    assert matches, "no class with a matching invariant signature"
    conjugate = [G for G in matches if conjugate_subgroups(G, H)]
    assert len(conjugate) == 1, "conjugacy must pick exactly one class"
    return conjugate[0]


@pytest.mark.parametrize("p", [5, 7])
def test_standard_subgroups_appear(p, census5, census7):
    census = census5 if p == 5 else census7
    for name, H in standard_subgroups(p).items():
        _find_conjugate(census, H)


@pytest.mark.parametrize("p", [5, 7])
def test_lagrange_and_classification_totality(p, census5, census7):
    census = census5 if p == 5 else census7
    full_order = (p * p - 1) * (p * p - p)
    seen_classes = set()
    for G in census:
        assert full_order % G.order == 0
        try:
            seen_classes.add(classify(G))
        except UnclassifiableSubgroupError as exc:  # pragma: no cover
            pytest.fail(f"unclassifiable subgroup of order {G.order}: {exc}")
    # the census is rich enough to exercise every non-exceptional bucket
    assert {DicksonClass.CONTAINS_SL, DicksonClass.BOREL,
            DicksonClass.SPLIT_NORMALIZER,
            DicksonClass.NONSPLIT_NORMALIZER} <= seen_classes


def test_exceptional_classes_present_at_5(census5):
    # GL2(F_5) contains lifts of A4 and S4 (and A5 only projectively via
    # PSL2, which lands in ContainsSL instead)
    classes = {classify(G) for G in census5}
    assert DicksonClass.EXCEPTIONAL_A4 in classes
    assert DicksonClass.EXCEPTIONAL_S4 in classes


def test_random_subgroups_are_conjugate_to_a_class(census5):
    import random
    rng = random.Random(11)
    for _ in range(12):
        gens = []
        while len(gens) < 2:
            k = rng.randrange(5 ** 4)
            if key_det(5, k):
                gens.append(k)
        H = close_generators(5, gens)
        _find_conjugate(census5, H)


def test_no_two_classes_conjugate(census5):
    for i, G in enumerate(census5):
        for H in census5[i + 1:]:
            if G.order == H.order:
                assert not conjugate_subgroups(G, H)


def test_census_sorted_and_deterministic(census5):
    again = enumerate_subgroups(5)
    assert ([G.elements.tolist() for G in again]
            == [G.elements.tolist() for G in census5])
    key = [(G.order, G.fingerprint_id(), G.elements.tolist())
           for G in census5]
    assert key == sorted(key)


def test_array_paths_match_scalar_oracles(census7):
    # conjugation, stabilizers and projective types of every class at
    # p = 7 against per-key arithmetic
    p = 7
    rng = random.Random(7)
    for G in census7:
        h = 0
        while not key_det(p, h):
            h = rng.randrange(p ** 4)
        hi = oracle_key_inv(p, h)
        H = G.conjugate(h)
        assert H.elements.tolist() == sorted(
            oracle_key_mul(p, oracle_key_mul(p, h, g), hi)
            for g in G.elements.tolist())
        assert H.generators == tuple(
            oracle_key_mul(p, oracle_key_mul(p, h, g), hi)
            for g in G.generators)
        # k fixes v exactly when k [v | 0] = [v | 0]
        column = pack(p, rng.randrange(p), 0, rng.randrange(1, p), 0)
        v = unpack(p, column)[::2]
        assert stabilizer(G, v).elements.tolist() == [
            k for k in G.elements.tolist()
            if oracle_key_mul(p, k, column) == column]
        if not G.contains_sl2:
            q = G.projective_order
            assert (gl2._projective_type_from_elements(G, q)
                    is oracle_projective_type_from_elements(G, q))


# ---------------------------------------------------------------------------
# unpruned oracle for the exhaustive phases
# ---------------------------------------------------------------------------

def _oracle_keys(p, comps):
    a, b, c, d = comps
    return ((a * p + b) * p + c) * p + d


def _oracle_comps(p, keys):
    return keys // p ** 3, keys // (p * p) % p, keys // p % p, keys % p


def _oracle_mul(p, comps, g, side):
    a, b, c, d = comps
    e, f, g_, h = unpack(p, int(g))
    if side == "right":
        return ((a * e + b * g_) % p, (a * f + b * h) % p,
                (c * e + d * g_) % p, (c * f + d * h) % p)
    return ((e * a + f * c) % p, (e * b + f * d) % p,
            (g_ * a + h * c) % p, (g_ * b + h * d) % p)


def _oracle_normalizer_keys(p, hkeys, hgens):
    """Keys of {n : n g n^-1 in H for every generator g}, elementwise."""
    keys = gl2.gl2_full(p).elements
    a, b, c, d = _oracle_comps(p, keys)
    inv = [pow(int(t), -1, p) for t in (a * d - b * c) % p]
    ia, ib, ic, id_ = ((d * inv) % p, (-b * inv) % p,
                       (-c * inv) % p, (a * inv) % p)
    hset = set(hkeys.tolist())
    keep = np.ones(len(keys), dtype=bool)
    for g in hgens:
        ta, tb, tc, td = _oracle_mul(p, (a, b, c, d), g, "right")
        conj = _oracle_keys(p, ((ta * ia + tb * ic) % p, (ta * ib + tb * id_) % p,
                                (tc * ia + td * ic) % p, (tc * ib + td * id_) % p))
        keep &= np.array([k in hset for k in conj.tolist()])
    return keys[keep]


def _scan_normalizer_keys(p, hkeys, hgens):
    """Keys of {n : n g n^-1 in H for every generator g}, scanning all of
    GL2(F_p) at once per generator against a table of the p^4 keys."""
    keys = gl2.gl2_full(p).elements
    inside = np.zeros(p ** 4, dtype=bool)
    inside[hkeys] = True
    n = _oracle_comps(p, keys)
    a, b, c, d = n
    det_inv = gl2._unit_inverses(p)[(a * d - b * c) % p]
    n_inv = (d * det_inv % p, -b * det_inv % p, -c * det_inv % p,
             a * det_inv % p)
    keep = np.ones(len(keys), dtype=bool)
    for g in hgens:
        conj = _oracle_keys(p, _oracle_matmul(
            p, _oracle_matmul(p, n, unpack(p, int(g))), n_inv))
        keep &= inside[conj]
    return keys[keep]


def _oracle_order(p, k):
    identity, acc, n = pack(p, 1, 0, 0, 1), k, 1
    while acc != identity:
        acc, n = oracle_key_mul(p, acc, k), n + 1
    return n


def oracle_phase1(p, registry):
    """Phase 1 with H-orbit pruning only and the scalar closure."""
    candidates = np.array([k for k in gl2.gl2_full(p).elements.tolist()
                           if key_det(p, k) == 1
                           and len(factorize(_oracle_order(p, k))) == 1],
                          dtype=np.int64)
    cid, new = _enumeration._register(
        registry, p, np.array([pack(p, 1, 0, 0, 1)]), [])
    assert new
    queue = [cid]
    while queue:
        cid = queue.pop(0)
        H = registry.classes[cid]
        hkeys, hgens = H.elements, list(H.generators)
        hset = set(hkeys.tolist())
        outside = np.array([k for k in candidates.tolist() if k not in hset],
                           dtype=np.int64)
        covered = np.zeros(len(outside), dtype=bool)
        for i, x in enumerate(outside.tolist()):
            if covered[i]:
                continue
            orbit = [oracle_key_mul(p, oracle_key_mul(p, h, x),
                                    oracle_key_inv(p, h))
                     for h in hkeys.tolist()]
            covered[np.searchsorted(outside, orbit)] = True
            gens = hgens + [x]
            closed = np.array(oracle_mulclose(p, gens), dtype=np.int64)
            new_cid, is_new = _enumeration._register(registry, p, closed,
                                                     gens)
            if is_new:
                queue.append(new_cid)


def oracle_phase2(p, registry):
    """Phase 2 over every coset representative, no orbit pruning."""
    queue = list(range(len(registry.classes)))
    while queue:
        cid = queue.pop(0)
        H = registry.classes[cid]
        hkeys, hgens = H.elements, list(H.generators)
        nkeys = _oracle_normalizer_keys(p, hkeys, hgens)
        index = len(nkeys) // len(hkeys)
        if index == 1:
            continue
        hcomps = _oracle_comps(p, hkeys)
        covered = np.zeros(len(nkeys), dtype=bool)
        covered[np.searchsorted(nkeys, hkeys)] = True
        reps = []
        while not covered.all():
            r = int(nkeys[np.flatnonzero(~covered)[0]])
            reps.append(r)
            coset = _oracle_keys(p, _oracle_mul(p, hcomps, r, "right"))
            covered[np.searchsorted(nkeys, coset)] = True
        hset = set(hkeys.tolist())
        for q in {f for f, _ in factorize(index)}:
            for r in reps:
                if oracle_key_pow(p, r, q) not in hset:
                    continue
                parts = [hkeys]
                acc = r
                for _ in range(q - 1):
                    parts.append(_oracle_keys(
                        p, _oracle_mul(p, hcomps, acc, "right")))
                    acc = oracle_key_mul(p, acc, r)
                new_cid, is_new = _enumeration._register(
                    registry, p, np.sort(np.concatenate(parts)), hgens + [r])
                if is_new:
                    queue.append(new_cid)


@pytest.mark.parametrize("p", [5, 7])
def test_pruned_phases_match_unpruned_oracle(p):
    oracle = _enumeration._Registry()
    oracle_phase1(p, oracle)
    oracle_phase2(p, oracle)
    pruned = _enumeration._Registry()
    _enumeration._phase2_prime_index_extensions(
        p, pruned, _enumeration._phase1_sl2_classes(p, pruned))
    assert ([G.generators for G in pruned.classes]
            == [G.generators for G in oracle.classes])
    for mine, theirs in zip(pruned.classes, oracle.classes):
        assert np.array_equal(mine.elements, theirs.elements)


# ---------------------------------------------------------------------------
# the right-multiplication paths of the census against scalar oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_adjoin_matches_oracle_mulclose(p):
    rng = random.Random(p)
    for _ in range(12):
        hgens = [_enumeration._random_invertible(rng, p)
                 for _ in range(rng.randint(0, 2))]
        hkeys = np.array(oracle_mulclose(p, hgens), dtype=np.int64)
        x = _enumeration._random_invertible(rng, p)
        assert (_enumeration._adjoin(p, hkeys, hgens, x).tolist()
                == list(oracle_mulclose(p, hgens + [x])))


def _brute_left_cosets(p, big, sub):
    """The coset minima of g S over g in big, ascending, and the index of
    the coset of each key of big, one product at a time."""
    low = [min(oracle_key_mul(p, g, s) for s in sub) for g in big]
    reps = sorted(set(low))
    return reps, [reps.index(m) for m in low]


def _subgroups_for_cosets(p):
    """Small and large subgroups S as (generators, sorted keys): trivial,
    {I, -I}, three seeded cyclic groups, the Borel and the nonsplit
    normalizer."""
    rng = random.Random(p)
    gen_lists = [[], [pack(p, p - 1, 0, 0, p - 1)]] + [
        [_enumeration._random_invertible(rng, p)] for _ in range(3)]
    subgroups = [(gens, oracle_mulclose(p, gens)) for gens in gen_lists]
    for G in (gl2.borel(p), gl2.nonsplit_normalizer(p)):
        subgroups.append((list(G.generators), tuple(G.elements.tolist())))
    return subgroups


@pytest.mark.parametrize("p", [5, 7])
def test_left_cosets_match_brute_partition(p):
    big = gl2.gl2_full(p).elements
    at = np.zeros(p ** 4, dtype=np.int64)
    at[big] = np.arange(len(big))
    for gens, sub in _subgroups_for_cosets(p):
        sub_keys = np.array(sub, dtype=np.int64)
        reps, labels = _brute_left_cosets(p, big.tolist(), sub)
        coset, found = _enumeration._left_cosets(p, big, at, sub_keys, gens)
        assert found.tolist() == reps
        assert coset[at[big]].tolist() == labels


def test_left_cosets_refuse_generators_of_less_than_the_subgroup():
    # the Borel subgroup from the first of its generators alone: more
    # orbits than its index, an internal failure that survives python -O
    p = 7
    big = gl2.gl2_full(p).elements
    at = np.zeros(p ** 4, dtype=np.int64)
    at[big] = np.arange(len(big))
    S = gl2.borel(p)
    assert len(S.generators) > 1
    with pytest.raises(RuntimeError, match="cosets"):
        _enumeration._left_cosets(p, big, at, S.elements, S.generators[:1])


@pytest.mark.parametrize("p", [5, 7, 11])
def test_phase1_hands_its_normalizers_to_phase2(p, monkeypatch):
    # N(H) is computed once per class: phase 2 reads phase 1's
    calls = []
    compute = _enumeration.normalizer
    monkeypatch.setattr(_enumeration, "normalizer",
                        lambda H: calls.append(H) or compute(H))
    classes = _enumeration._exhaustive(p)
    assert len(calls) == len(classes)


@functools.lru_cache(maxsize=None)
def _census(p):
    return _enumeration._exhaustive(p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_normalizer_matches_scan_oracles(p):
    for G in _census(p):
        found = _enumeration.normalizer(G)
        assert np.array_equal(
            found, _scan_normalizer_keys(p, G.elements, G.generators))
        if p <= 7:
            assert np.array_equal(
                found, _oracle_normalizer_keys(p, G.elements, G.generators))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_normalizer_of_standard_subgroups_and_conjugates(p):
    rng = random.Random(p)
    for S in standard_subgroups(p).values():
        h = _enumeration._random_invertible(rng, p)
        for G in (S, S.conjugate(h)):
            assert np.array_equal(
                _enumeration.normalizer(G),
                _scan_normalizer_keys(p, G.elements, G.generators))


def _is_cyclic(G):
    """Whether some element of G has order |G|: g^(|G|/q) != 1 for each
    prime q dividing |G|, all elements powered at once."""
    p = G.p
    comps = gl2._np_components(p, G.elements)
    generators = np.ones(G.order, dtype=bool)
    for q, _ in factorize(G.order):
        generators &= (gl2._np_pack(p, gl2._np_pow(p, comps, G.order // q))
                       != pack(p, 1, 0, 0, 1))
    return bool(generators.any())


@pytest.mark.parametrize("p,cyclic", [(5, 15), (7, 23), (11, 33), (13, 47)])
def test_cyclic_classes_count_every_element_once(p, cyclic):
    # each g in GL2 generates one cyclic subgroup C, together with the
    # other phi(|C|) generators of C, and C has [G : N(C)] conjugates
    order = (p * p - 1) * (p * p - p)
    terms = [order // len(_enumeration.normalizer(C)) * euler_phi(C.order)
             for C in _census(p) if _is_cyclic(C)]
    assert len(terms) == cyclic
    assert sum(terms) == order
    # every class carries weight: the sum misses without any one of them
    assert all(sum(terms) - term != order for term in terms)


# sha256 of the report body (canonical JSON) of `enumerate --p P`, which
# lists every class in census order with its generators; p = 13 pins the
# generators phase 2 takes from its coset representatives there
ENUMERATE_BODY_SHA256 = {
    5: "6f6932fe4e34b91adf53f6f43b91b21cb622e1549e38a1c7dfe1799ecb4bd415",
    7: "1082492ada7a2fb06c4069468615552b911a142fabce409df73e20b03ecdf8aa",
    11: "5b4f00de2ab5fc05ff768b221efb07bd0508ee5001a1160d3e524c59d694109d",
    13: "298880b93cd1a95b296dab9ffdc1e0284c693195d2610891ccc338bae9b94253",
}


@pytest.mark.parametrize("p", sorted(ENUMERATE_BODY_SHA256))
def test_enumerate_report_bodies_are_frozen(p, capsys):
    # the ceiling is a parameter only: the body does not hold it
    assert cli.main(["enumerate", "--p", str(p), "--ceiling", "13"]) == 0
    body = json.loads(capsys.readouterr().out)["report"]
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    assert digest.hexdigest() == ENUMERATE_BODY_SHA256[p]


def test_census_checks_survive_optimized_mode():
    src = Path(_enumeration.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-m", "torsiondeg.cli", "enumerate", "--p",
         "5"], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    body = json.loads(out.stdout)["report"]
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    assert digest.hexdigest() == ENUMERATE_BODY_SHA256[5]


# ---------------------------------------------------------------------------
# conjugacy decision procedure
# ---------------------------------------------------------------------------

def test_conjugate_subgroups_accepts_translates():
    H = standard_subgroups(7)["borel"]
    h = pack(7, 1, 2, 3, 4)  # det = 4 - 6 = -2, invertible
    assert conjugate_subgroups(H, H.conjugate(h))
    assert conjugate_subgroups(H.conjugate(h), H)


def test_conjugate_subgroups_separates_scalar_structure():
    # both cyclic of order 4, but one contains a non-scalar involution
    A = close_generators(5, [pack(5, 2, 0, 0, 1)])
    B = close_generators(5, [pack(5, 2, 0, 0, 3)])
    assert A.order == B.order == 4
    assert not conjugate_subgroups(A, B)
    assert not conjugate_subgroups(B, A)


def test_conjugate_subgroups_scalar_groups():
    minus = close_generators(5, [pack(5, 4, 0, 0, 4)])
    refl = close_generators(5, [pack(5, 4, 0, 0, 1)])
    assert minus.order == refl.order == 2
    assert not conjugate_subgroups(minus, refl)
    assert conjugate_subgroups(minus, minus)


def test_companion_bases_conjugate_to_companion_matrices():
    p = 5
    for g in range(p ** 4):
        a, b, c, d = unpack(p, g)
        if not key_det(p, g) or (b, c, a) == (0, 0, d):
            continue
        basis = pack(p, *(int(v) for v in _companion_bases(p, (a, b, c, d))))
        assert key_det(p, basis)
        assert (oracle_key_mul(p, oracle_key_inv(p, basis),
                               oracle_key_mul(p, g, basis))
                == pack(p, 0, -(a * d - b * c) % p, 1, (a + d) % p))


def _oracle_matmul(p, x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


def brute_conjugate(p, H1, H2):
    """Whether h H1 h^-1 = H2 for some h, trying every h of GL2(F_p) on
    every element of H1."""
    if H1.order != H2.order:
        return False
    hs = np.array([k for k in range(p ** 4) if key_det(p, k)])
    x = tuple(v[None, :] for v in _oracle_comps(p, H1.elements))
    for start in range(0, len(hs), 256):
        a, b, c, d = h = _oracle_comps(p, hs[start:start + 256])
        inv = np.array([pow(int(t), -1, p) for t in (a * d - b * c) % p])
        hi = (d * inv % p, -b * inv % p, -c * inv % p, a * inv % p)
        conj = _oracle_matmul(p, _oracle_matmul(
            p, tuple(v[:, None] for v in h), x), tuple(v[:, None] for v in hi))
        rows = np.sort(_oracle_keys(p, conj), axis=1)
        if (rows == H2.elements).all(axis=1).any():
            return True
    return False


def _random_conjugate(rng, p, G):
    return G.conjugate(_enumeration._random_invertible(rng, p))


@pytest.mark.parametrize("p", [5, 7])
def test_conjugate_subgroups_matches_brute_force(p, census5, census7):
    # seeded pairs of conjugates of classes of one order: conjugate when
    # both come from one class, and not otherwise
    census = census5 if p == 5 else census7
    rng = random.Random(p)
    small = [G for G in census if G.order <= 96]
    for _ in range(24):
        G = rng.choice(small)
        H = rng.choice([K for K in small if K.order == G.order])
        A, B = _random_conjugate(rng, p, G), _random_conjugate(rng, p, H)
        assert conjugate_subgroups(A, B) == (G is H)
        assert brute_conjugate(p, A, B) == (G is H)


def test_conjugate_subgroups_separates_classes_with_one_fingerprint():
    # at p = 11 six pairs of classes share a fingerprint (none do at 5 or
    # 7); each class is still told apart from the other's conjugates
    p = 11
    rng = random.Random(p)
    buckets = {}
    for G in enumerate_subgroups(p):
        buckets.setdefault(G.fingerprint(), []).append(G)
    pairs = [bucket for bucket in buckets.values() if len(bucket) > 1]
    assert len(pairs) == 6 and all(len(pair) == 2 for pair in pairs)
    for G, H in pairs:
        B = _random_conjugate(rng, p, H)
        assert not conjugate_subgroups(G, B) and not brute_conjugate(p, G, B)
        assert conjugate_subgroups(H, B) and brute_conjugate(p, H, B)


# ---------------------------------------------------------------------------
# sampled mode
# ---------------------------------------------------------------------------

def test_sampled_screens_small_pairs():
    p = 13
    upper = _close_sampled_pair(p, pack(p, 2, 1, 0, 3), pack(p, 1, 5, 0, 1))
    assert upper.is_materialized
    assert upper.order <= p * (p - 1) ** 2

    lazy = _close_sampled_pair(p, pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1))
    assert not lazy.is_materialized
    assert lazy.contains_sl2 and lazy.det_image == frozenset({1})
    assert lazy.order == p * (p * p - 1)
    honest = close_generators(p, list(lazy.generators))
    assert honest.order == lazy.order
    assert honest.fingerprint() == lazy.fingerprint()


def test_sampled_census_is_deterministic_and_consistent():
    runs = [enumerate_subgroups(13, "sampled", count=200, seed=1)
            for _ in range(2)]
    snapshots = [[(G.order, G.fingerprint_id(), G.is_materialized,
                   tuple(sorted(G.det_image))) for G in run] for run in runs]
    assert snapshots[0] == snapshots[1]
    census = runs[0]
    assert len(census) > 3
    full_order = (13 ** 2 - 1) * (13 ** 2 - 13)
    for G in census:
        assert full_order % G.order == 0
        assert G.contains_sl2 == (not G.is_materialized)
    # lazy classes really are what their generators generate
    lazies = [G for G in census if not G.is_materialized][:2]
    assert lazies
    for G in lazies:
        honest = close_generators(13, list(G.generators))
        assert honest.order == G.order
        assert honest.det_image == G.det_image
        assert sorted(honest.elements) == sorted(G.elements)


def test_sampled_census_finds_no_duplicate_classes():
    census = enumerate_subgroups(13, "sampled", count=150, seed=3)
    for i, G in enumerate(census):
        for H in census[i + 1:]:
            if G.fingerprint() == H.fingerprint():
                assert not conjugate_subgroups(G, H)


def test_sampled_matches_exhaustive_at_small_p():
    census = enumerate_subgroups(5)
    sampled = enumerate_subgroups(5, "sampled", count=400, seed=7)
    for H in sampled:
        matches = [G for G in census if conjugate_subgroups(G, H)]
        assert len(matches) == 1


# ---------------------------------------------------------------------------
# argument validation and cache
# ---------------------------------------------------------------------------

def test_enumerate_argument_validation():
    with pytest.raises(ValueError, match="prime"):
        enumerate_subgroups(4)
    with pytest.raises(ValueError, match="sampled"):
        enumerate_subgroups(5, count=10)
    with pytest.raises(ValueError, match="count"):
        enumerate_subgroups(13, "sampled")
    with pytest.raises(ValueError, match="97"):
        enumerate_subgroups(101, "sampled", count=10)
    with pytest.raises(ValueError, match="mode"):
        enumerate_subgroups(5, "census")


def test_exhaustive_ceiling_names_the_cost():
    with pytest.raises(ValueError) as err:
        enumerate_subgroups(13)
    msg = str(err.value)
    assert "11" in msg and str((13 ** 2 - 1) * (13 ** 2 - 13)) in msg


def test_cache_roundtrip(tmp_path, monkeypatch):
    first = enumerate_subgroups(5, cache_dir=tmp_path)
    files = list(tmp_path.glob("gl2enum-p5-*.json"))
    assert len(files) == 1

    from torsiondeg import _enumeration

    def boom(p):  # pragma: no cover
        raise AssertionError("cache should have answered")

    monkeypatch.setattr(_enumeration, "_exhaustive", boom)
    second = enumerate_subgroups(5, cache_dir=tmp_path)
    assert ([G.elements.tolist() for G in second]
            == [G.elements.tolist() for G in first])
    assert [tuple(G.generators) for G in second] == \
        [tuple(G.generators) for G in first]


def test_cache_with_wrong_contents_is_recomputed(tmp_path):
    enumerate_subgroups(5, cache_dir=tmp_path)
    (path,) = tmp_path.glob("gl2enum-p5-*.json")
    payload = json.loads(path.read_text())
    payload["classes"][0]["order"] += 1
    path.write_text(json.dumps(payload))
    census = enumerate_subgroups(5, cache_dir=tmp_path)
    assert census[0].order == 1  # recomputed, not trusted
    repaired = json.loads(path.read_text())
    assert repaired["classes"][0]["order"] == 1


def test_cache_with_singular_generator_is_recomputed(tmp_path):
    fresh = enumerate_subgroups(5)
    enumerate_subgroups(5, cache_dir=tmp_path)
    (path,) = tmp_path.glob("gl2enum-p5-*.json")
    payload = json.loads(path.read_text())
    payload["classes"][-1]["generators"][0] = [[1, 1], [1, 1]]
    path.write_text(json.dumps(payload))
    census = enumerate_subgroups(5, cache_dir=tmp_path)
    assert ([G.elements.tolist() for G in census]
            == [G.elements.tolist() for G in fresh])


def test_failed_cache_save_keeps_previous_file(tmp_path):
    from torsiondeg import _enumeration

    census = enumerate_subgroups(5, cache_dir=tmp_path)
    (path,) = tmp_path.glob("gl2enum-p5-*.json")
    before = path.read_bytes()

    class Unserializable:
        """A class whose order the encoder reaches only after it has
        written the classes before it."""
        generators = census[0].generators
        elements = census[0].elements
        order = object()
        is_materialized = True
        det_image = census[0].det_image

    with pytest.raises(TypeError):
        _enumeration._save_cache(path, 5, "exhaustive", None, None,
                                 list(census) + [Unserializable()])
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]  # no temporary file left
    reloaded = _enumeration._load_cache(path, 5, "exhaustive")
    assert ([G.elements.tolist() for G in reloaded]
            == [G.elements.tolist() for G in census])


def _non_member(p, keys):
    """The least invertible key outside the sorted keys."""
    members = set(keys.tolist())
    return next(k for k in range(p ** 4) if key_det(p, k) and k not in members)


def _coset_added(p, keys):
    x = gl2.unpack(p, _non_member(p, keys))
    coset = gl2._np_pack(p, gl2._np_mul(p, x, gl2._np_components(p, keys)))
    return np.sort(np.concatenate([keys, coset]))


def _identity_dropped(p, keys):
    return keys[keys != pack(p, 1, 0, 0, 1)]


def _adjacent_swapped(p, keys):
    keys = keys.copy()
    keys[[1, 2]] = keys[[2, 1]]
    return keys


# one defect each; arrays are stored with an order and determinant image
# that match them, so only the element check can catch them
CACHE_DEFECTS = {
    "key dropped": lambda p, keys: keys[:-1],
    "non-member swapped in": lambda p, keys: np.sort(
        np.append(keys[:-1], _non_member(p, keys))),
    "closed left coset added": _coset_added,
    "duplicate key": lambda p, keys: np.sort(np.append(keys, keys[1])),
    "unsorted keys": _adjacent_swapped,
    "identity missing": _identity_dropped,
    "key beyond p^4": lambda p, keys: np.append(keys[:-1], p ** 4),
    "bad base64": lambda p, keys: "bm90IGtleXM*",
}


@pytest.mark.parametrize("defect", sorted(CACHE_DEFECTS))
def test_tampered_cache_elements_are_recomputed(tmp_path, defect):
    p = 5
    fresh = enumerate_subgroups(p, cache_dir=tmp_path)
    (path,) = tmp_path.glob(f"gl2enum-p{p}-*.json")
    original = path.read_text()
    payload = json.loads(original)
    # a class with two generators, small enough to have non-members
    entry = next(e for e in payload["classes"]
                 if len(e["generators"]) == 2 and 4 < e["order"] < 100)
    keys = _enumeration._decode_keys(p, entry["elements"])
    tampered = CACHE_DEFECTS[defect](p, keys)
    if isinstance(tampered, str):
        entry["elements"] = tampered
    else:
        a, b, c, d = gl2._np_components(p, tampered)
        entry["order"] = len(tampered)
        entry["det_image"] = sorted(set(((a * d - b * c) % p).tolist()))
        entry["elements"] = _enumeration._encode_keys(p, tampered)
    path.write_text(json.dumps(payload))
    assert _enumeration._load_cache(path, p, "exhaustive") is None
    census = enumerate_subgroups(p, cache_dir=tmp_path)
    assert ([G.elements.tolist() for G in census]
            == [G.elements.tolist() for G in fresh])
    assert path.read_text() == original  # rewritten


def _random_generators(rng, p):
    """One to three generators of a group small enough to close: random
    elements of GL2 itself up to p = 13, of a conjugate of a Borel or of
    a Cartan normalizer beyond."""
    if p <= 13:
        return [_enumeration._random_invertible(rng, p)
                for _ in range(rng.randint(1, 3))]
    pool = rng.choice([gl2.borel, gl2.split_normalizer,
                       gl2.nonsplit_normalizer])(p)
    members = pool.elements.tolist()
    picks = gl2._np_components(p, np.array(
        [rng.choice(members) for _ in range(rng.randint(1, 2))]))
    h = gl2.unpack(p, _enumeration._random_invertible(rng, p))
    return gl2._np_pack(p, gl2._np_mul(p, gl2._np_mul(p, h, picks),
                                       gl2._np_inv(p, h))).tolist()


@pytest.mark.parametrize("p", [5, 7, 11, 13, 53])
def test_element_check_accepts_closures_only(p):
    rng = random.Random(p)
    for _ in range(6):
        gens = sorted(set(_random_generators(rng, p)))
        keys = _mulclose(p, gens)
        assert _enumeration._is_generated(p, gens, keys)
        short = np.delete(keys, rng.randrange(len(keys)))
        assert not _enumeration._is_generated(p, gens, short)


# A cache hit at p = 5 and 7 closes no generators, and a tampered file is
# recomputed; run with and without -O, so no check here may be an assert.
_CACHE_HIT_SCRIPT = """
import json, sys
from pathlib import Path
from torsiondeg import _enumeration, gl2

cache = Path(sys.argv[1])
fresh = {p: gl2.enumerate_subgroups(p, cache_dir=cache) for p in (5, 7)}
closures = []
gl2._mulclose = lambda p, gens: closures.append(p)
for p, census in fresh.items():
    hit = gl2.enumerate_subgroups(p, cache_dir=cache)
    if ([(G.generators, G.elements.tolist()) for G in hit]
            != [(G.generators, G.elements.tolist()) for G in census]):
        sys.exit(f"cache hit at p = {p} differs")
if closures:
    sys.exit(f"a cache hit closed generators at p = {closures}")
(path,) = cache.glob("gl2enum-p5-*.json")
payload = json.loads(path.read_text())
entry = next(e for e in payload["classes"] if e["order"] > 4)
keys = _enumeration._decode_keys(5, entry["elements"])
entry["elements"] = _enumeration._encode_keys(5, keys[:-1])
entry["order"] -= 1
path.write_text(json.dumps(payload))
if _enumeration._load_cache(path, 5, "exhaustive") is not None:
    sys.exit("a tampered cache was trusted")
print("ok")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_cache_hit_closes_nothing(tmp_path, flags):
    src = Path(_enumeration.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, *flags, "-c", _CACHE_HIT_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_cache_distinguishes_sampled_parameters(tmp_path):
    a = enumerate_subgroups(13, "sampled", count=60, seed=1,
                            cache_dir=tmp_path)
    b = enumerate_subgroups(13, "sampled", count=60, seed=2,
                            cache_dir=tmp_path)
    assert len(list(tmp_path.glob("gl2enum-p13-sampled-*.json"))) == 2
    again = enumerate_subgroups(13, "sampled", count=60, seed=1,
                                cache_dir=tmp_path)
    assert [(G.order, tuple(sorted(G.det_image))) for G in again] == \
        [(G.order, tuple(sorted(G.det_image))) for G in a]
    del b
