"""Tests for orbit partitions, stabilizers, and the divisibility reports."""

import random

import pytest

from torsiondeg.gl2 import (
    DicksonClass,
    Subgroup,
    close_generators,
    enumerate_subgroups,
    gl2_full,
    pack,
    sl2,
    split_cartan,
    nonsplit_normalizer,
    standard_subgroups,
    unpack,
    vector_orbits,
)
from torsiondeg.orbits import (
    NOT_APPLICABLE,
    PASS,
    OrbitReport,
    stabilizer,
    verify_case_divisibility,
    verify_nonsplit_pointwise_stabilizers,
    verify_split_pointwise_stabilizers,
)


def trivial_group(p):
    return close_generators(p, [])


# ---------------------------------------------------------------------------
# orbit partition
# ---------------------------------------------------------------------------

def test_trivial_group_gives_singletons():
    parts = vector_orbits(trivial_group(5))
    assert len(parts) == 24
    assert all(len(orbit) == 1 for orbit in parts)


def test_full_group_is_transitive():
    parts = vector_orbits(gl2_full(5))
    assert [len(orbit) for orbit in parts] == [24]


def test_split_cartan_orbit_sizes():
    sizes = sorted(len(orbit) for orbit in vector_orbits(split_cartan(5)))
    assert sizes == [4, 4, 16]


def test_partition_covers_everything():
    for G in (split_cartan(7), nonsplit_normalizer(5), sl2(3)):
        parts = vector_orbits(G)
        flat = [v for orbit in parts for v in orbit]
        assert len(flat) == G.p ** 2 - 1
        assert len(set(flat)) == len(flat)
        assert all(G.order % len(orbit) == 0 for orbit in parts)


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------

def brute_stabilizer_keys(G, v):
    p = G.p
    out = []
    for k in G.elements:
        a, b, c, d = unpack(p, k)
        if ((a * v[0] + b * v[1]) % p, (c * v[0] + d * v[1]) % p) == v:
            out.append(k)
    return sorted(out)


def test_stabilizer_of_e1_in_gl2_f3():
    S = stabilizer(gl2_full(3), (1, 0))
    assert S.order == 6
    assert sorted(S.elements) == brute_stabilizer_keys(gl2_full(3), (1, 0))


def test_stabilizer_of_trivial_group():
    S = stabilizer(trivial_group(7), (2, 3))
    assert S.order == 1


def test_stabilizer_in_split_cartan():
    S = stabilizer(split_cartan(5), (1, 0))
    assert S.order == 4
    mats = [unpack(5, k) for k in S.elements]
    assert all(a == 1 and b == 0 and c == 0 for a, b, c, _ in mats)


def test_stabilizer_rejects_zero_vector():
    with pytest.raises(ValueError):
        stabilizer(split_cartan(5), (0, 0))


@pytest.mark.parametrize("v", [(1, 0), (0, 1), (2, 3), (6, 6)])
def test_lazy_stabilizer_matches_brute_force(v):
    # determinant-defined subgroup, small enough to also check honestly
    p = 7
    lazy = Subgroup.sl2_preimage(p, [pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1),
                                     pack(p, 2, 0, 0, 1)])
    assert lazy.det_image == frozenset({1, 2, 4})
    assert stabilizer(lazy, v).order == p * 3
    assert sorted(stabilizer(lazy, v).elements) == brute_stabilizer_keys(lazy, v)


def test_lazy_stabilizer_without_materializing():
    p = 97
    from torsiondeg.gl2 import primitive_root
    gens = [pack(p, 1, 1, 0, 1), pack(p, 1, 0, 1, 1),
            pack(p, primitive_root(p), 0, 0, 1)]
    G = Subgroup.sl2_preimage(p, gens)  # all of GL2
    S = stabilizer(G, (5, 11))
    assert S.order == p * (p - 1)
    assert G.order == len(vector_orbits(G)[0]) * S.order


def test_orbit_stabilizer_identity_over_census():
    rng = random.Random(5)
    for G in enumerate_subgroups(5):
        vectors = [(rng.randrange(5), rng.randrange(5)) for _ in range(2)]
        for v in vectors:
            if v == (0, 0):
                continue
            S = stabilizer(G, v)
            orbit = next(o for o in vector_orbits(G) if v in o)
            assert len(orbit) * S.order == G.order


# ---------------------------------------------------------------------------
# divisibility reports
# ---------------------------------------------------------------------------

def test_sl2_f7_report():
    report = verify_case_divisibility(sl2(7))
    assert report.dickson_class is DicksonClass.CONTAINS_SL
    assert report.det_index == 6
    assert report.orbit_sizes == (48,)
    assert report.verdict == PASS
    assert report.violation_vector is None


def test_nonsplit_normalizer_f5_report():
    G = nonsplit_normalizer(5)
    report = verify_case_divisibility(G)
    assert report.det_index == 1
    assert report.verdict == PASS
    assert all(size % 2 == 0 for size in report.orbit_sizes)
    for orbit in vector_orbits(G):
        assert stabilizer(G, orbit[0]).order <= 2


def test_trivial_group_is_not_applicable():
    report = verify_case_divisibility(trivial_group(5))
    assert report.dickson_class is DicksonClass.BOREL
    assert report.verdict == NOT_APPLICABLE
    assert sum(report.orbit_sizes) == 24


def test_report_totals_and_divisors():
    for name, G in standard_subgroups(7).items():
        report = verify_case_divisibility(G)
        assert sum(report.orbit_sizes) == 48
        assert all(G.order % size == 0 for size in report.orbit_sizes)


def test_conjugation_leaves_report_invariant():
    G = standard_subgroups(5)["split_normalizer"]
    H = G.conjugate(pack(5, 1, 2, 3, 4))
    a, b = verify_case_divisibility(G), verify_case_divisibility(H)
    assert sorted(a.orbit_sizes) == sorted(b.orbit_sizes)
    assert a.verdict == b.verdict
    assert a.subgroup_id == b.subgroup_id


def test_divisibility_sweep_passes_at_p5():
    applicable = 0
    for G in enumerate_subgroups(5):
        report = verify_case_divisibility(G)
        if report.verdict != NOT_APPLICABLE:
            applicable += 1
            assert report.verdict == PASS
    assert applicable > 10


def test_d0_annotation():
    report = verify_case_divisibility(sl2(7), d0=6)
    assert report.corollary_divisor == (7 - 1) // 6  # gcd(6, 12) = 6
    assert report.corollary_holds is True

    report = verify_case_divisibility(nonsplit_normalizer(5), d0=1)
    assert report.corollary_divisor == 2
    assert report.corollary_holds is True


def test_d0_must_be_multiple_of_det_index():
    with pytest.raises(ValueError, match="multiple"):
        verify_case_divisibility(sl2(7), d0=4)  # det index is 6
    with pytest.raises(ValueError, match="multiple"):
        verify_case_divisibility(sl2(7), d0=0)


def test_d0_annotation_on_not_applicable_report():
    report = verify_case_divisibility(trivial_group(5), d0=4)
    assert report.verdict == NOT_APPLICABLE
    assert report.corollary_divisor == 1  # gcd(4, 8) = 4
    assert report.corollary_holds is None


def test_report_serialization_roundtrip():
    report = verify_case_divisibility(sl2(7), d0=6)
    data = report.as_dict()
    assert data["class"] == "ContainsSL"
    assert data["orbit_sizes"] == [48]
    assert data["verdict"] == "pass"


# ---------------------------------------------------------------------------
# pointwise stabilizers of lines
# ---------------------------------------------------------------------------

def test_split_pointwise_stabilizers_p5():
    reports = {r.line_index: r for r in verify_split_pointwise_stabilizers(5)}
    assert all(r.verdict == PASS for r in reports.values())
    # the first axis: full diagonal one-parameter stabilizer
    assert reports[0].stabilizer_order == 4
    # the line through (2, 1) is index 3 (normalized slope 1/2 = 3 mod 5)
    assert reports[3].stabilizer_order == 2


def test_split_pointwise_stabilizer_example_matrix():
    from torsiondeg.orbits import _pointwise_stabilizers
    from torsiondeg.gl2 import split_normalizer
    # the line through (2, 1) is spanned by (1, 2^-1) = (1, 3) mod 5, so
    # its index is 3
    keys = _pointwise_stabilizers(split_normalizer(5))[3]
    mats = sorted(unpack(5, k) for k in keys)
    assert mats == [(0, 2, 3, 0), (1, 0, 0, 1)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_split_pointwise_stabilizers_all_small_primes(p):
    reports = verify_split_pointwise_stabilizers(p)
    assert len(reports) == p + 1
    assert all(r.verdict == PASS for r in reports)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_nonsplit_pointwise_bound_all_small_primes(p):
    report = verify_nonsplit_pointwise_stabilizers(p)
    assert report.verdict == PASS
    assert report.max_order <= 2
    assert len(report.orders) == p + 1
