"""The kernels of the large-prime sweeps against scalar references.

Each oracle here is a test-local copy of the per-key code that a kernel of
`gl2` or `orbits` replaced: the closure (`conftest.oracle_mulclose`), the
scan for a Galois-conjugate pair of points, the line action with its
fixed lines and line pairs, the pointwise line stabilizers with their
subgroup lattices, and the vector-orbit search.  The frozen
digests pin the report bodies of the two sweep commands.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsiondeg import cli, gl2
from torsiondeg.gl2 import (
    Subgroup,
    _fixed_lines,
    _line_images,
    _mulclose,
    _perm_closure_capped,
    _stabilized_conjugate_pair_for_generators,
    _stabilized_line_pair,
    enumerate_subgroups,
    key_det,
    least_nonresidue,
    nonsplit_normalizer,
    pack,
    split_normalizer,
    unpack,
    vector_orbits,
)
from torsiondeg._enumeration import _random_invertible
from torsiondeg.orbits import (
    _all_subgroups_of,
    _pointwise_stabilizers,
    verify_case_divisibility,
)

from conftest import (
    oracle_key_inv,
    oracle_key_is_scalar,
    oracle_key_mul,
    oracle_line_permutation,
    oracle_mulclose,
    oracle_perm_closure_capped,
)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

@st.composite
def generator_lists(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    key = st.integers(0, p ** 4 - 1).filter(lambda k: key_det(p, k) != 0)
    return p, draw(st.lists(key, max_size=3))


@settings(max_examples=60, deadline=None)
@given(generator_lists())
def test_closure_matches_scalar_closure(case):
    p, gens = case
    assert _mulclose(p, gens).tolist() == list(oracle_mulclose(p, gens))


def test_closure_of_repeated_and_trivial_generators():
    p = 7
    identity = pack(p, 1, 0, 0, 1)
    g = pack(p, 0, 1, 6, 0)
    for gens in ([], [identity], [g, g], [identity, g, identity]):
        assert _mulclose(p, gens).tolist() == list(oracle_mulclose(p, gens))


@pytest.mark.parametrize("p", [5, 13, 97])
def test_perm_closure_matches_tuple_closure(p):
    # pairs from all of GL2 mostly pass the cap; pairs from a Cartan
    # normalizer close to a dihedral image of order at most 2(p + 1)
    rng = random.Random(p)
    normalizers = [split_normalizer(p).elements, nonsplit_normalizer(p).elements]
    outcomes = set()
    for trial in range(24):
        if trial % 2:
            base = normalizers[trial // 2 % 2]
            keys = [int(base[rng.randrange(len(base))]) for _ in range(2)]
        else:
            keys = [_random_invertible(rng, p) for _ in range(2)]
        images = _line_images(p, keys)
        for limit in (60, 2 * (p + 1) + 4):
            got = _perm_closure_capped(images, limit)
            want = oracle_perm_closure_capped(images.tolist(), limit)
            outcomes.add(want is None)
            if want is None:
                assert got is None, (keys, limit)
            else:
                assert got.dtype == np.int16 and got.shape == (len(want), p + 1)
                assert {tuple(row) for row in got.tolist()} == want
    assert outcomes == {True, False}


def test_determinant_pass_matches_scalar_count(monkeypatch):
    # a chunk of 7 keys makes every group span several chunks
    monkeypatch.setattr(gl2, "_DET_CHUNK", 7)
    for G in enumerate_subgroups(5):
        dets = [key_det(5, k) for k in G.elements]
        assert list(gl2._det_counts(5, G.elements)) == [dets.count(t)
                                                       for t in range(5)]
        rebuilt = Subgroup.from_sorted_keys(5, G.elements)
        assert rebuilt.det_image == frozenset(dets)
        assert rebuilt.contains_sl2 == (dets.count(1) == 120)


def test_scalar_count_matches_scan():
    for G in enumerate_subgroups(7):
        assert G.scalar_count == sum(
            1 for k in G.elements if oracle_key_is_scalar(7, k))


def test_closure_rejects_singular_generator():
    with pytest.raises(ValueError, match="singular"):
        _mulclose(5, [pack(5, 1, 0, 0, 1), pack(5, 1, 1, 1, 1)])


# ---------------------------------------------------------------------------
# Galois-conjugate pairs of points of P^1(F_{p^2})
# ---------------------------------------------------------------------------

def oracle_conjugate_pair(p, gen_keys):
    """The first point z = u + vT (u, then v, ascending; v != 0) whose
    Galois pair {z, zbar} every generator permutes, by scalar arithmetic in
    F_p[T]/(T^2 - beta T - gamma)."""
    beta, gamma = (1, 1) if p == 2 else (0, least_nonresidue(p))

    def mul(z1, z2):
        (u1, v1), (u2, v2) = z1, z2
        vv = v1 * v2
        return ((u1 * u2 + gamma * vv) % p, (u1 * v2 + u2 * v1 + beta * vv) % p)

    def conj(z):
        return ((z[0] + z[1] * beta) % p, -z[1] % p)

    def inv(z):
        norm = mul(z, conj(z))
        assert norm[1] == 0
        ninv = pow(norm[0], -1, p)
        zbar = conj(z)
        return (zbar[0] * ninv % p, zbar[1] * ninv % p)

    gens = [unpack(p, g) for g in gen_keys]
    for u in range(p):
        for v in range(1, p):
            z = (u, v)
            zbar = conj(z)
            if zbar < z:
                continue
            if all(mul(((c + d * u) % p, d * v % p),
                       inv(((a + b * u) % p, b * v % p))) in (z, zbar)
                   for a, b, c, d in gens):
                return (z, zbar)
    return None


def _invertible(p):
    return [k for k in range(p ** 4) if key_det(p, k)]


def test_conjugate_pair_scan_every_pair_at_5():
    p = 5
    keys = _invertible(p)
    for x in keys:
        assert (_stabilized_conjugate_pair_for_generators(p, [x])
                == oracle_conjugate_pair(p, [x]))
    # a generator acts on points through its Moebius map, which its scalar
    # multiples share, and the answer for [x, y] is the one for [y, x]: so
    # every pair of generators means every pair of the 120 classes of keys
    # up to scalars
    classes = sorted({min(pack(p, *(t * e % p for e in unpack(p, k)))
                          for t in range(1, p)) for k in keys})
    assert len(classes) == 120
    for x, y in itertools.combinations(classes, 2):
        assert (_stabilized_conjugate_pair_for_generators(p, [x, y])
                == oracle_conjugate_pair(p, [x, y]))
    assert (_stabilized_conjugate_pair_for_generators(p, [])
            == oracle_conjugate_pair(p, []))


@pytest.mark.parametrize("p, count", [(2, 40), (13, 300), (97, 40)])
def test_conjugate_pair_scan_random_pairs(p, count):
    rng = random.Random(p)
    keys = _invertible(p) if p < 97 else None

    def draw():
        if keys is not None:
            return keys[rng.randrange(len(keys))]
        while True:
            k = rng.randrange(p ** 4)
            if key_det(p, k):
                return k

    # half of the pairs lie in a random conjugate of the nonsplit
    # normalizer, so that a pair exists, and the scan has to find the first
    normal = nonsplit_normalizer(p).elements.tolist() if p > 2 else None
    found = 0
    for i in range(count):
        if normal is not None and i % 2:
            h = draw()
            hi = oracle_key_inv(p, h)
            gens = [oracle_key_mul(p, oracle_key_mul(p, h, normal[rng.randrange(len(normal))]),
                            hi) for _ in range(2)]
        else:
            gens = [draw(), draw()]
        got = _stabilized_conjugate_pair_for_generators(p, gens)
        assert got == oracle_conjugate_pair(p, gens)
        found += got is not None
    assert found >= count // 4


# ---------------------------------------------------------------------------
# the line action, lines fixed and line pairs permuted by the generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 13, 97])
def test_line_images_match_scalar_permutations(p):
    # every invertible key where there are few, seeded ones above
    rng = random.Random(p)
    keys = (_invertible(p) if p <= 5
            else [_random_invertible(rng, p) for _ in range(400)])
    images = _line_images(p, keys)
    assert images.dtype == np.int16 and images.shape == (len(keys), p + 1)
    assert images.tolist() == [list(oracle_line_permutation(p, k))
                               for k in keys]


def test_line_images_of_no_keys():
    for p in (2, 5, 97):
        assert _line_images(p, []).shape == (0, p + 1)


def test_line_images_widen_past_int16():
    # line indices run up to p, which int16 holds only below 32767
    p = 32771
    rng = random.Random(p)
    keys = [_random_invertible(rng, p) for _ in range(3)]
    images = _line_images(p, keys)
    assert images.dtype == np.int32
    assert images.tolist() == [list(oracle_line_permutation(p, k))
                               for k in keys]


def oracle_line_pair(p, gen_keys):
    perms = [oracle_line_permutation(p, g) for g in gen_keys]
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            if all({perm[i], perm[j]} == {i, j} for perm in perms):
                return (i, j)
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_line_scans_match_scalar_reference(p):
    rng = random.Random(p)
    keys = _invertible(p)
    # diagonal and antidiagonal keys fix or swap the two axes
    monomial = [k for k in keys if unpack(p, k)[1] == unpack(p, k)[2] == 0
                or unpack(p, k)[0] == unpack(p, k)[3] == 0]
    cases = [[]] + [[x] for x in keys[:200]]
    for _ in range(1500):
        pool = monomial if rng.random() < 0.5 else keys
        cases.append([pool[rng.randrange(len(pool))] for _ in range(2)])
    for gens in cases:
        perms = [oracle_line_permutation(p, g) for g in gens]
        images = _line_images(p, gens)
        assert _fixed_lines(images).tolist() == [
            i for i in range(p + 1) if all(perm[i] == i for perm in perms)]
        assert _stabilized_line_pair(images) == oracle_line_pair(p, gens)


# ---------------------------------------------------------------------------
# pointwise line stabilizers and their subgroups
# ---------------------------------------------------------------------------

def oracle_pointwise_stabilizer_keys(N, line):
    p = N.p
    v = (1, line) if line < p else (0, 1)
    keys = []
    for k in N.elements.tolist():
        a, b, c, d = unpack(p, k)
        if ((a * v[0] + b * v[1]) % p, (c * v[0] + d * v[1]) % p) == v:
            keys.append(k)
    return keys


def oracle_all_subgroups_of(p, keys):
    """Every subgroup of a small group: each known subgroup S is extended
    by each element g outside it and <S, g> reclosed by the scalar BFS."""
    element_set = frozenset(keys)
    trivial = frozenset(oracle_mulclose(p, []))
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for S in frontier:
            for g in element_set - S:
                T = frozenset(oracle_mulclose(p, list(S) + [g]))
                if T not in seen:
                    seen.add(T)
                    new.append(T)
        frontier = new
    return sorted(seen, key=lambda S: (len(S), sorted(S)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_line_stabilizer_lattices_match_scalar_reference(p):
    for N in (split_normalizer(p), nonsplit_normalizer(p)):
        stabilizers = _pointwise_stabilizers(N)
        assert len(stabilizers) == p + 1
        for line, keys in enumerate(stabilizers):
            assert keys.tolist() == oracle_pointwise_stabilizer_keys(N, line)
            # fixing a line pointwise fixes it in the line action
            assert (_line_images(p, keys)[:, line] == line).all()
            assert (_all_subgroups_of(p, keys)
                    == oracle_all_subgroups_of(p, keys.tolist()))


def test_subgroup_lattice_of_a_noncyclic_group():
    # the Klein four-group of diagonal sign matrices and all of S3 inside
    # GL2(F_7): five and six subgroups
    p = 7
    v4 = list(oracle_mulclose(p, [pack(p, 6, 0, 0, 1), pack(p, 1, 0, 0, 6)]))
    s3 = list(oracle_mulclose(p, [pack(p, 0, 1, 1, 0), pack(p, 0, 6, 1, 6)]))
    for keys, count in ((v4, 5), (s3, 6)):
        got = _all_subgroups_of(p, np.array(keys))
        assert got == oracle_all_subgroups_of(p, keys)
        assert len(got) == count


# ---------------------------------------------------------------------------
# vector orbits
# ---------------------------------------------------------------------------

def oracle_vector_orbits(G):
    """Orbits on nonzero vectors by a breadth-first search over the
    generators, each listed in ascending order, ordered by least member."""
    p = G.p
    gens = [unpack(p, g) for g in G.generators]
    seen = [False] * (p * p)
    seen[0] = True
    orbits = []
    for start in range(1, p * p):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        frontier = [start]
        while frontier:
            new = []
            for vk in frontier:
                x, y = divmod(vk, p)
                for a, b, c, d in gens:
                    wk = ((a * x + b * y) % p) * p + (c * x + d * y) % p
                    if not seen[wk]:
                        seen[wk] = True
                        orbit.append(wk)
                        new.append(wk)
            frontier = new
        orbits.append([divmod(vk, p) for vk in sorted(orbit)])
    return orbits


@pytest.mark.parametrize("p", [5, 7])
def test_vector_orbits_match_search(p):
    groups = list(enumerate_subgroups(p))
    r = gl2.primitive_root(p)
    sl2_gens = [pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1)]
    # lazy SL2-preimages with determinant images of order p - 1,
    # (p - 1)/2 and 1
    for e in (1, 2, p - 1):
        delta = pow(r, e, p)
        dets = frozenset(pow(delta, i, p) for i in range(p - 1))
        G = Subgroup.sl2_preimage(p, sl2_gens + [pack(p, delta, 0, 0, 1)])
        assert G.det_image == dets
        groups.append(G)
    assert sum(G.contains_sl2 for G in groups) >= 6
    for G in groups:
        orbits = oracle_vector_orbits(G)
        assert vector_orbits(G) == orbits
        assert gl2.vector_orbit_sizes(G) == [len(o) for o in orbits]


def test_vector_orbits_are_labelled_once_per_subgroup(monkeypatch):
    calls = []

    def counted(n, images):
        calls.append(n)
        return label_orbits(n, images)

    label_orbits = gl2._orbit_labels
    monkeypatch.setattr(gl2, "_orbit_labels", counted)
    groups = enumerate_subgroups(5)
    calls.clear()  # the census labels the orbits of its candidates too
    for G in groups:
        verify_case_divisibility(G)
    assert calls == []  # each class kept the labels its fingerprint took
    fresh = [Subgroup.from_sorted_keys(5, G.elements, G.generators)
             for G in groups]
    for G in fresh:
        verify_case_divisibility(G)  # its fingerprint asks for them too
    assert len(calls) == sum(not G.contains_sl2 for G in fresh)


# ---------------------------------------------------------------------------
# frozen report bodies of the sweep commands
# ---------------------------------------------------------------------------

# sha256 of the canonical JSON report body of each command; the sampled
# sweep closes a group of order 279,046 at p = 83
SWEEP_BODY_SHA256 = {
    ("verify-cases", "--mode", "sampled", "--count", "30", "--seed", "0",
     "--primes", "53,83"):
        "71b5383339464408b4b4a61b5ac392774f9ed52390b67acc578fc8556a925d64",
    ("verify-lemmas", "--p-max", "31"):
        "a9d9fa3c0ef98632dc652da71789e18525dd2511d86a9b89186f343b8dcff98f",
}


def _body_digest(stdout: str) -> str:
    body = json.loads(stdout)["report"]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(SWEEP_BODY_SHA256))
def test_sweep_report_bodies_are_frozen(args, capsys):
    assert cli.main(list(args)) == 0
    assert _body_digest(capsys.readouterr().out) == SWEEP_BODY_SHA256[args]


def test_sampled_sweep_survives_optimized_mode():
    src = Path(gl2.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-m", "torsiondeg.cli", "verify-cases",
         "--mode", "sampled", "--count", "20", "--seed", "0", "--primes",
         "13"], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert _body_digest(out.stdout) == (
        "6ba6e9de3962f41bc1e3ad0077e3dae356c06ae6abddf1ee0a6fa2c381ba3ec3")
