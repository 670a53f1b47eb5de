import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from torsiondeg import gl2
from torsiondeg.gl2 import (
    DicksonClass,
    MaterializationError,
    ProjectiveType,
    Subgroup,
    borel,
    classify,
    close_generators,
    det_index,
    gl2_full,
    key_det,
    nonsplit_cartan,
    nonsplit_normalizer,
    pack,
    projective_type,
    sl2,
    split_cartan,
    split_normalizer,
    standard_subgroups,
    unpack,
    vector_orbit_sizes,
)

from conftest import (
    A4_HIST,
    A5_HIST,
    S4_HIST,
    find_projective_subgroup,
    oracle_key_inv,
    oracle_key_is_scalar,
    oracle_key_mul,
    oracle_key_pow,
    oracle_line_permutation,
    oracle_proj_canonical,
    oracle_projective_order,
    oracle_projective_type_from_elements,
    projective_order_histogram,
)


# ---------------------------------------------------------------------------
# packed arithmetic
# ---------------------------------------------------------------------------

def mat_mul_naive(p, m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return (((a * e + b * g) % p, (a * f + b * h) % p),
            ((c * e + d * g) % p, (c * f + d * h) % p))


@given(st.sampled_from((2, 3, 5, 7, 13)), st.integers(0, 13 ** 4 - 1),
       st.integers(0, 13 ** 4 - 1))
def test_key_mul_matches_naive(p, r1, r2):
    # the array kernel on single matrices, and the scalar oracle
    k1, k2 = r1 % p ** 4, r2 % p ** 4
    assume(key_det(p, k1) and key_det(p, k2))
    a, b, c, d = unpack(p, k1)
    e, f, g, h = unpack(p, k2)
    (ra, rb), (rc, rd) = mat_mul_naive(p, ((a, b), (c, d)), ((e, f), (g, h)))
    assert gl2._np_mul(p, (a, b, c, d), (e, f, g, h)) == (ra, rb, rc, rd)
    assert unpack(p, oracle_key_mul(p, k1, k2)) == (ra, rb, rc, rd)


@given(st.sampled_from((2, 3, 5, 7, 13)), st.integers(0, 13 ** 4 - 1))
def test_key_inv_and_pow(p, r):
    k = r % p ** 4
    assume(key_det(p, k))
    identity = pack(p, 1, 0, 0, 1)
    inv = gl2._np_pack(p, gl2._np_inv(p, unpack(p, k)))
    assert inv == oracle_key_inv(p, k)
    assert oracle_key_mul(p, k, inv) == identity
    assert oracle_key_pow(p, k, 0) == identity
    assert oracle_key_pow(p, k, 3) == oracle_key_mul(
        p, oracle_key_mul(p, k, k), k)
    assert oracle_key_pow(p, k, -1) == inv
    assert key_det(p, oracle_key_mul(p, k, k)) == key_det(p, k) ** 2 % p
    powers = gl2._cyclic_keys(p, k).tolist()
    assert powers == [oracle_key_pow(p, k, i) for i in range(len(powers))]
    assert oracle_key_pow(p, k, len(powers)) == identity


@pytest.mark.parametrize("p", [5, 97])
def test_np_inv_matches_scalar_inverse(p):
    # all of GL2(F_5), and seeded random invertible keys at p = 97
    if p == 5:
        keys = gl2_full(p).elements
    else:
        rng = random.Random(p)
        keys = np.array([k for k in (rng.randrange(p ** 4) for _ in range(3000))
                         if key_det(p, k)], dtype=np.int64)
    inv = gl2._np_pack(p, gl2._np_inv(p, gl2._np_components(p, keys)))
    assert inv.tolist() == [oracle_key_inv(p, k) for k in keys.tolist()]


def _invertible_keys(p, seeded=0):
    """Every invertible key mod p, or that many seeded random ones."""
    if not seeded:
        return gl2_full(p).elements
    rng = random.Random(p)
    keys = (rng.randrange(p ** 4) for _ in range(3 * seeded))
    return np.array([k for k in keys if key_det(p, k)][:seeded],
                    dtype=np.int64)


@pytest.mark.parametrize("p,seeded", [(2, 0), (3, 0), (5, 0), (13, 400),
                                      (97, 400)])
def test_right_mul_matches_np_mul(p, seeded):
    # k g by two row-table gathers against the component product, every
    # key by every right factor: all of GL2 up to p = 5, seeded beyond
    keys = _invertible_keys(p, seeded)
    factors = keys if seeded == 0 else keys[:60]
    tables = gl2._row_table(p, factors)
    products = gl2._right_mul(p, keys, tables)
    expected = gl2._np_pack(p, gl2._np_mul(
        p, gl2._np_components(p, keys),
        tuple(v[:, None] for v in gl2._np_components(p, factors))))
    assert products.shape == (len(factors), len(keys))
    assert np.array_equal(products, expected)
    # one table, and a single key
    g, k = int(factors[-1]), int(keys[0])
    assert np.array_equal(gl2._right_mul(p, keys, gl2._row_table(p, g)),
                          expected[-1])
    assert int(gl2._right_mul(p, k, gl2._row_table(p, g))) == (
        oracle_key_mul(p, k, g))


def test_projective_order_of_hand_values():
    # unipotent: [[1,1],[0,1]]^k = [[1,k],[0,1]], scalar iff k = 0 mod p;
    # diag(2,1) mod 5: scalar iff 2^k = 1, so order 4
    keys = [pack(5, 1, 1, 0, 1), pack(5, 2, 0, 0, 1), pack(5, 2, 0, 0, 2)]
    assert gl2._projective_orders(5, keys).tolist() == [5, 4, 1]
    assert [oracle_projective_order(5, k) for k in keys] == [5, 4, 1]
    assert gl2._projective_orders(7, [pack(7, 0, 1, 6, 0)]).tolist() == [2]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 97])
def test_projective_orders_match_scalar_powering(p):
    # every invertible key up to p = 7, sampled or seeded keys beyond; the
    # table lookup by tr^2 / det against powering one key at a time
    if p <= 13:
        keys = [k for k in range(p ** 4) if key_det(p, k)]
        if len(keys) > 5000:
            keys = random.Random(p).sample(keys, 5000)
    else:  # seeded keys, and a scalar and two scaled unipotents
        keys = _invertible_keys(p, seeded=3000).tolist() + [
            pack(p, 5, 0, 0, 5), pack(p, 3, 1, 0, 3), pack(p, 3, 0, 1, 3)]
    assert (gl2._projective_orders(p, keys).tolist()
            == [oracle_projective_order(p, k) for k in keys])


def test_projective_orders_refuse_singular_keys():
    with pytest.raises(ValueError, match="singular"):
        gl2._projective_orders(5, [pack(5, 1, 2, 2, 4)])


@pytest.mark.parametrize("p,seeded", [(5, 0), (7, 0), (97, 3000)])
def test_proj_canonical_matches_least_scalar_multiple(p, seeded):
    keys = _invertible_keys(p, seeded)
    assert gl2._proj_canonical(p, keys).tolist() == [
        oracle_proj_canonical(p, k) for k in keys.tolist()]


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

class TestCloseGenerators:
    def test_empty_is_trivial(self):
        for p in (2, 5, 13):
            assert close_generators(p, []).order == 1

    def test_involution(self):
        G = close_generators(3, [((0, 1), (1, 0))])
        assert G.order == 2

    def test_unipotents_generate_sl2(self):
        G = close_generators(5, [((1, 1), (0, 1)), ((1, 0), (1, 1))])
        assert G.order == 120  # p(p^2-1)
        assert G.contains_sl2

    def test_rejects_singular_generator(self):
        with pytest.raises(ValueError, match="singular"):
            close_generators(5, [((1, 2), (2, 4))])

    def test_rejects_modulus_mismatch(self):
        # a key packed mod 7 that packs no matrix mod 5
        with pytest.raises(ValueError, match="packs no matrix mod 5"):
            close_generators(5, [pack(7, 6, 1, 0, 1)])
        with pytest.raises(ValueError, match="not prime"):
            close_generators(4, [((1, 1), (0, 1))])

    def test_closure_is_a_group(self):
        rng = random.Random(7)
        for p in (3, 5):
            keys = []
            while len(keys) < 2:
                k = rng.randrange(p ** 4)
                if key_det(p, k):
                    keys.append(k)
            G = close_generators(p, keys)
            elems = set(G.elements.tolist())
            sample = list(elems)[:25]
            for x in sample:
                assert oracle_key_inv(p, x) in G
                for y in sample:
                    assert oracle_key_mul(p, x, y) in G


# ---------------------------------------------------------------------------
# standard subgroups
# ---------------------------------------------------------------------------

class TestStandardSubgroups:
    def test_orders_match_closed_forms(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            std = standard_subgroups(p)
            assert std["split_cartan"].order == (p - 1) ** 2
            assert std["split_normalizer"].order == 2 * (p - 1) ** 2
            assert std["nonsplit_cartan"].order == p * p - 1
            assert std["nonsplit_normalizer"].order == 2 * (p * p - 1)
            assert std["borel"].order == p * (p - 1) ** 2
            assert std["sl2"].order == p * (p * p - 1)

    def test_frozen_example_orders(self):
        assert split_normalizer(5).order == 32
        assert nonsplit_normalizer(5).order == 48
        assert sl2(7).order == 336

    def test_generators_recover_the_group(self):
        for p in (3, 5, 7):
            for name, G in standard_subgroups(p).items():
                reclosed = close_generators(p, list(G.generators))
                assert reclosed.order == G.order, name
                assert np.array_equal(reclosed.elements, G.elements), name

    def test_nonsplit_cartan_is_cyclic(self):
        for p in (3, 5, 7, 11):
            C = nonsplit_cartan(p)
            assert len(C.generators) == 1
            g = C.generators[0]
            assert len({oracle_key_pow(p, g, i)
                        for i in range(p * p - 1)}) == C.order

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_nonsplit_cartan_generator_is_first_of_full_order(self, p):
        eps = gl2.least_nonresidue(p)
        scan = [pack(p, a, eps * b % p, b, a)
                for a in range(p) for b in range(p) if (a, b) != (0, 0)]
        first = next(k for k in scan
                     if len(gl2._cyclic_keys(p, k)) == p * p - 1)
        assert list(nonsplit_cartan(p).generators) == [first]

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_sl2_and_borel_keys_match_determinant_filter(self, p):
        keys = np.arange(p ** 4, dtype=np.int64)
        a, b, c, d = gl2._np_components(p, keys)
        det = (a * d - b * c) % p
        assert np.array_equal(gl2._sl2_keys(p), keys[det == 1])
        assert np.array_equal(borel(p).elements, keys[(det != 0) & (c == 0)])

    def test_sl2_and_borel_counts_at_97(self):
        p = 97
        keys = gl2._sl2_keys(p)
        assert len(keys) == p * (p * p - 1) and (np.diff(keys) > 0).all()
        assert borel(p).order == p * (p - 1) ** 2

    def test_cartan_constructors_reject_p2(self):
        for fn in (split_cartan, split_normalizer, nonsplit_cartan,
                   nonsplit_normalizer):
            with pytest.raises(ValueError):
                fn(2)
        with pytest.raises(ValueError):
            standard_subgroups(2)

    def test_p2_borel_and_sl2(self):
        assert borel(2).order == 2
        assert sl2(2).order == 6
        assert gl2_full(2).order == 6

    def test_gl2_full_order(self):
        for p in (2, 3, 5, 7):
            assert gl2_full(p).order == (p * p - 1) * (p * p - p)

    def test_scalars_are_central(self):
        for p in (3, 5, 7):
            for G in standard_subgroups(p).values():
                scalars = [k for k in G.elements.tolist()
                           if oracle_key_is_scalar(p, k)]
                for z in scalars:
                    for g in G.generators:
                        assert oracle_key_mul(p, z, g) == oracle_key_mul(p, g, z)


# ---------------------------------------------------------------------------
# lines under subgroups
# ---------------------------------------------------------------------------

def stabilized_lines(G):
    """Indices of the lines every generator of G maps to themselves."""
    return gl2._fixed_lines(gl2._line_images(G.p, G.generators)).tolist()


class TestLineActions:
    def test_trivial_group_stabilizes_everything(self):
        G = close_generators(5, [])
        assert stabilized_lines(G) == [0, 1, 2, 3, 4, 5]

    def test_split_cartan_stabilizes_the_axes(self):
        # line 0 is spanned by (1, 0), line p by (0, 1)
        G = split_cartan(5)
        assert stabilized_lines(G) == [0, 5]

    def test_sl2_stabilizes_nothing(self):
        G = sl2(5)
        assert stabilized_lines(G) == []

    def test_stabilized_lines_agree_with_full_element_check(self):
        # generator-based containment equals the elementwise definition
        rng = random.Random(3)
        p = 5
        for _ in range(20):
            keys = []
            while len(keys) < 2:
                k = rng.randrange(p ** 4)
                if key_det(p, k):
                    keys.append(k)
            G = close_generators(p, keys)
            perms = [oracle_line_permutation(p, k) for k in G.elements.tolist()]
            by_elements = [i for i in range(p + 1)
                           if all(perm[i] == i for perm in perms)]
            assert stabilized_lines(G) == by_elements


# ---------------------------------------------------------------------------
# vector orbits
# ---------------------------------------------------------------------------

class TestVectorOrbits:
    def test_split_cartan_orbit_sizes(self):
        assert sorted(vector_orbit_sizes(split_cartan(5))) == [4, 4, 16]

    def test_full_group_is_transitive(self):
        assert vector_orbit_sizes(gl2_full(5)) == [24]

    def test_trivial_group(self):
        assert vector_orbit_sizes(close_generators(5, [])) == [1] * 24

    def test_orbits_partition_nonzero_vectors(self):
        for p in (3, 5, 7):
            for G in standard_subgroups(p).values():
                sizes = vector_orbit_sizes(G)
                assert sum(sizes) == p * p - 1
                for s in sizes:
                    assert G.order % s == 0  # orbit-stabilizer

    def test_lazy_subgroup_orbits(self):
        G = Subgroup.sl2_preimage(97, frozenset(range(1, 97)),
                                  [pack(97, 1, 1, 0, 1), pack(97, 1, 0, 1, 1),
                                   pack(97, 5, 0, 0, 1)])
        assert vector_orbit_sizes(G) == [97 * 97 - 1]


# ---------------------------------------------------------------------------
# lazy subgroups
# ---------------------------------------------------------------------------

class TestLazySubgroups:
    def big(self):
        p = 97
        dets = frozenset(pow(5, i, p) for i in range(96))
        assert len(dets) == 96  # 5 generates mod 97
        return Subgroup.sl2_preimage(
            p, dets, [pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1),
                      pack(p, 5, 0, 0, 1)])

    def test_order_without_materializing(self):
        G = self.big()
        assert G.order == 97 * (97 ** 2 - 1) * 96
        assert not G.is_materialized

    def test_materialization_refused(self):
        with pytest.raises(MaterializationError):
            _ = self.big().elements

    def test_membership_via_determinant(self):
        G = self.big()
        assert pack(97, 1, 5, 9, 46) in G or key_det(97, pack(97, 1, 5, 9, 46)) not in G.det_image
        assert pack(97, 1, 1, 0, 1) in G

    def test_scalar_count_and_projective_order(self):
        G = self.big()
        # all 96 scalars have square determinants, all squares are dets here
        assert G.scalar_count == 96
        assert G.projective_order == 97 * (97 ** 2 - 1)

    def test_classify_without_materializing(self):
        G = self.big()
        assert classify(G) is DicksonClass.CONTAINS_SL
        assert projective_type(G) is ProjectiveType.PGL2_FULL
        assert not G.is_materialized

    def test_lazy_invariants_are_checked(self):
        with pytest.raises(ValueError, match="contain SL2"):
            Subgroup(5, generators=[1], det_image=[1, 2])
        G = Subgroup(5, generators=[1], det_image=[1, 2], contains_sl2=True)
        assert G.order == 5 * 24 * 2

    def test_lazy_invariants_survive_optimized_mode(self):
        code = ("from torsiondeg.gl2 import Subgroup\n"
                "try:\n"
                "    Subgroup(5, generators=[1], det_image=[1, 2])\n"
                "except ValueError:\n"
                "    print('rejected')\n")
        src = Path(gl2.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "rejected"

    def test_small_preimage_materializes_consistently(self):
        p = 7
        G = Subgroup.sl2_preimage(p, frozenset({1, 2, 4}),
                                  [pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1),
                                   pack(p, 2, 0, 0, 1)])
        assert G.order == 7 * 48 * 3
        elems = G.elements
        assert len(elems) == G.order
        assert all(key_det(p, k) in {1, 2, 4} for k in elems.tolist())
        # agrees with an honest closure of the same generators
        H = close_generators(p, list(G.generators))
        assert np.array_equal(H.elements, elems)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class TestClassify:
    def test_contains_sl(self):
        assert classify(sl2(5)) is DicksonClass.CONTAINS_SL
        assert classify(gl2_full(7)) is DicksonClass.CONTAINS_SL
        assert classify(sl2(2)) is DicksonClass.CONTAINS_SL

    def test_borel_cases(self):
        assert classify(split_cartan(7)) is DicksonClass.BOREL
        assert classify(borel(5)) is DicksonClass.BOREL
        assert classify(close_generators(5, [])) is DicksonClass.BOREL
        # scalars alone fix every line
        assert classify(close_generators(5, [((2, 0), (0, 2))])) is DicksonClass.BOREL

    def test_split_normalizer_cases(self):
        assert classify(split_normalizer(5)) is DicksonClass.SPLIT_NORMALIZER
        assert classify(split_normalizer(11)) is DicksonClass.SPLIT_NORMALIZER

    def test_nonsplit_cases(self):
        assert classify(nonsplit_normalizer(5)) is DicksonClass.NONSPLIT_NORMALIZER
        assert classify(nonsplit_cartan(7)) is DicksonClass.NONSPLIT_NORMALIZER
        assert classify(nonsplit_normalizer(11)) is DicksonClass.NONSPLIT_NORMALIZER

    def test_p2_subgroups_classify(self):
        # GL2(F_2) is S3 on the three lines: the order-3 element acts with
        # no fixed line and no fixed pair, but fixes a conjugate pair
        C3 = close_generators(2, [((0, 1), (1, 1))])
        assert C3.order == 3
        assert classify(C3) is DicksonClass.NONSPLIT_NORMALIZER
        C2 = close_generators(2, [((0, 1), (1, 0))])
        assert classify(C2) is DicksonClass.BOREL

    def test_classification_is_conjugation_invariant(self):
        rng = random.Random(11)
        p = 7
        groups = [split_cartan(p), split_normalizer(p), nonsplit_cartan(p),
                  nonsplit_normalizer(p), borel(p), sl2(p)]
        for G in groups:
            want = classify(G)
            want_i = det_index(G)
            for _ in range(10):
                while True:
                    h = rng.randrange(p ** 4)
                    if key_det(p, h):
                        break
                Gc = G.conjugate(h)
                assert classify(Gc) is want
                assert det_index(Gc) == want_i
                assert Gc.fingerprint() == G.fingerprint()


class TestExceptional:
    def check(self, G, ptype, dclass):
        assert projective_type(G) is ptype
        assert classify(G) is dclass
        q = G.projective_order
        assert gl2._projective_type_from_elements(G, q) is ptype
        assert oracle_projective_type_from_elements(G, q) is ptype

    def test_a4_preimage_in_gl2_f5(self):
        G = find_projective_subgroup(5, sl2(5).elements, A4_HIST, seed=1)
        self.check(G, ProjectiveType.A4, DicksonClass.EXCEPTIONAL_A4)

    def test_s4_preimage_in_gl2_f7(self):
        G = find_projective_subgroup(7, gl2_full(7).elements, S4_HIST, seed=1)
        self.check(G, ProjectiveType.S4, DicksonClass.EXCEPTIONAL_S4)

    def test_a5_preimage_in_sl2_f11(self):
        G = find_projective_subgroup(11, sl2(11).elements, A5_HIST, seed=1)
        self.check(G, ProjectiveType.A5, DicksonClass.EXCEPTIONAL_A5)


class TestDetIndex:
    def test_frozen_values(self):
        assert det_index(gl2_full(5)) == 1
        assert det_index(sl2(5)) == 4
        assert det_index(sl2(11)) == 10
        assert det_index(split_cartan(5)) == 1

    def test_divides_p_minus_1(self):
        for p in (5, 7, 11):
            for G in standard_subgroups(p).values():
                i = det_index(G)
                assert (p - 1) % (i * len(G.det_image)) == 0 or \
                    i * len(G.det_image) == p - 1


class TestProjectiveType:
    def test_full_groups(self):
        assert projective_type(gl2_full(5)) is ProjectiveType.PGL2_FULL
        assert projective_type(sl2(5)) is ProjectiveType.PSL2_FULL
        assert projective_type(sl2(7)) is ProjectiveType.PSL2_FULL
        assert projective_type(gl2_full(2)) is ProjectiveType.PGL2_FULL

    def test_nonsplit_normalizer_f7_is_dihedral_16(self):
        G = nonsplit_normalizer(7)
        assert G.projective_order == 16
        assert projective_type(G) is ProjectiveType.DIHEDRAL

    def test_cartans_are_cyclic(self):
        for p in (5, 7, 11):
            assert projective_type(split_cartan(p)) is ProjectiveType.CYCLIC
            assert projective_type(nonsplit_cartan(p)) is ProjectiveType.CYCLIC

    def test_normalizers_are_dihedral(self):
        for p in (5, 7, 11):
            assert projective_type(split_normalizer(p)) is ProjectiveType.DIHEDRAL
            assert projective_type(nonsplit_normalizer(p)) is ProjectiveType.DIHEDRAL

    def test_v4_counts_as_dihedral(self):
        G = close_generators(5, [((1, 0), (0, 4)), ((0, 1), (1, 0))])
        assert G.projective_order == 4
        assert projective_type(G) is ProjectiveType.DIHEDRAL

    def test_unipotent_line_is_cyclic(self):
        G = close_generators(7, [((1, 1), (0, 1))])
        assert projective_type(G) is ProjectiveType.CYCLIC

    def test_borel_is_other(self):
        assert projective_type(borel(7)) is ProjectiveType.OTHER


class TestAnalyze:
    def test_analysis_fields_are_consistent(self):
        for p in (5, 7):
            for G in standard_subgroups(p).values():
                assert len(G.det_image) * det_index(G) == p - 1
                assert G.projective_order * G.scalar_count == G.order
                assert ((classify(G) is DicksonClass.CONTAINS_SL)
                        == G.contains_sl2)

    def test_lagrange(self):
        rng = random.Random(5)
        for p in (3, 5, 7):
            full = (p * p - 1) * (p * p - p)
            for _ in range(15):
                keys = []
                while len(keys) < 2:
                    k = rng.randrange(p ** 4)
                    if key_det(p, k):
                        keys.append(k)
                G = close_generators(p, keys)
                assert full % G.order == 0


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_id_is_the_blake2b_digest_of_the_fingerprint(self):
        # the package takes blake2b from _blake2, not hashlib; the digest
        # must be the one hashlib gives
        for G in standard_subgroups(7).values():
            raw = repr(G.fingerprint()).encode()
            expected = hashlib.blake2b(raw, digest_size=12).hexdigest()
            assert G.fingerprint_id() == expected

    def test_distinguishes_standard_subgroups(self):
        for p in (5, 7, 11):
            prints = {name: G.fingerprint_id()
                      for name, G in standard_subgroups(p).items()}
            assert len(set(prints.values())) == len(prints)

    def test_stable_under_conjugation(self):
        p = 5
        G = split_normalizer(p)
        for h in (pack(p, 1, 2, 0, 1), pack(p, 2, 1, 1, 1)):
            assert G.conjugate(h).fingerprint_id() == G.fingerprint_id()

    def test_lazy_and_materialized_agree(self):
        p = 5
        lazy = Subgroup.sl2_preimage(p, frozenset({1, 4}),
                                     [pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1),
                                      pack(p, 4, 0, 0, 1)])
        honest = close_generators(p, list(lazy.generators))
        assert honest.order == lazy.order
        assert honest.fingerprint() == lazy.fingerprint()
