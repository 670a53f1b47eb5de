"""Tests for genus values, torsion reach, and semigroup thresholds."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torsiondeg.curvedeg import (
    SemigroupSpec,
    closed_point_degree_threshold,
    genus_x1,
    min_guaranteed_degree,
    representable,
    rr_degree_bound,
    stable_bound,
    _least_representable_by_residue,
)

# published genus values for X1(N) — an external anchor for the formula
GENUS_TABLE = {
    1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0,
    11: 1, 12: 0, 13: 2, 14: 1, 15: 1, 16: 2, 17: 5, 18: 2, 19: 7,
    20: 3, 21: 5, 22: 6, 24: 5,
}


def brute_representable(target, gens):
    """Independent exhaustive recursion, memoized."""
    seen = {}

    def rec(t):
        if t == 0:
            return True
        if t not in seen:
            seen[t] = any(rec(t - g) for g in gens if g <= t)
        return seen[t]

    return rec(target)


def brute_stable_bound(gens):
    """Largest non-representable multiple of the gcd, plus one step."""
    I = math.gcd(*gens)
    scaled = [g // I for g in gens]
    horizon = min(scaled) * max(scaled) + 2
    worst = -1
    for t in range(horizon + 1):
        if not brute_representable(t * I, gens):
            worst = t
    return I * (worst + 1)


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------

def test_genus_matches_published_values():
    for N, g in GENUS_TABLE.items():
        assert genus_x1(N) == g, N


def test_genus_zero_levels_are_exactly_the_known_list():
    zeros = [N for N in range(1, 41) if genus_x1(N) == 0]
    assert zeros == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]


def test_genus_bound_up_to_1000():
    for N in range(1, 1001):
        assert genus_x1(N) <= Fraction(N * N, 24) + 1


def test_genus_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        genus_x1(0)


@given(st.integers(5, 2000))
def test_genus_is_nonnegative_integer(N):
    assert genus_x1(N) >= 0


def test_min_guaranteed_degree_examples():
    assert min_guaranteed_degree(4) == 1
    assert min_guaranteed_degree(11) == 2
    assert min_guaranteed_degree(17) == 10


# ---------------------------------------------------------------------------
# semigroup spec
# ---------------------------------------------------------------------------

def test_spec_normalizes_and_computes_index():
    spec = SemigroupSpec((10, 6, 15, 6))
    assert spec.generators == (6, 10, 15)
    assert spec.index == 1
    assert SemigroupSpec((4, 6)).index == 2


def test_spec_rejects_bad_generators():
    with pytest.raises(ValueError):
        SemigroupSpec(())
    with pytest.raises(ValueError):
        SemigroupSpec((3, 0))
    with pytest.raises(ValueError):
        SemigroupSpec((-2, 4))


# ---------------------------------------------------------------------------
# representability
# ---------------------------------------------------------------------------

def test_residue_table_rejects_non_coprime_generators():
    # callers divide out the gcd first; a table over 4, 6 never reaches
    # the odd residues
    with pytest.raises(RuntimeError, match="unreached"):
        _least_representable_by_residue((4, 6))


def test_representable_examples():
    assert not representable(7, {3, 5})
    assert representable(8, {3, 5})
    for k in range(50):
        assert representable(k, {1})


def test_representable_rejects_negative_target():
    with pytest.raises(ValueError):
        representable(-1, {2, 3})


def test_representable_respects_index():
    assert not representable(3, {2, 4})
    assert representable(6, {2, 4})


def test_representable_matches_recursion_oracle():
    universe = range(2, 10)
    for r in (1, 2, 3):
        for gens in itertools.combinations(universe, r):
            for target in range(0, 201):
                assert representable(target, gens) == \
                    brute_representable(target, gens), (gens, target)


# ---------------------------------------------------------------------------
# stabilization
# ---------------------------------------------------------------------------

def test_stable_bound_frozen_values():
    assert stable_bound({3, 5}) == 8
    assert stable_bound({2, 4}) == 0
    assert stable_bound({6, 10, 15}) == 30


def test_stable_bound_matches_recursion_oracle():
    universe = range(2, 10)
    for r in (1, 2, 3):
        for gens in itertools.combinations(universe, r):
            assert stable_bound(gens) == brute_stable_bound(gens), gens


def test_stable_bound_window_invariant():
    for gens in [{3, 5}, {6, 10, 15}, {4, 6, 9}, {7, 11}, {2, 4}]:
        spec = SemigroupSpec(tuple(gens))
        M, I = stable_bound(spec), spec.index
        start = M if M % I == 0 else M + (I - M % I)
        for m in range(start, M + 10 * max(gens) + 1, I):
            assert representable(m, spec)
        if M > 0:
            assert not representable(M - I, spec)


@given(st.sets(st.integers(2, 12), min_size=1, max_size=3),
       st.integers(2, 12))
def test_adding_an_index_preserving_generator_never_raises_stable_bound(
        gens, extra):
    # monotonicity holds when the gcd is unchanged; if the new generator
    # shrinks the gcd, the quantifier "every multiple of the index"
    # strengthens and the bound may legitimately grow
    if math.gcd(*(set(gens) | {extra})) == math.gcd(*gens):
        assert stable_bound(set(gens) | {extra}) <= stable_bound(gens)


def test_index_change_can_raise_stable_bound():
    assert stable_bound({2}) == 0
    assert stable_bound({2, 3}) == 2  # the index dropped from 2 to 1


# ---------------------------------------------------------------------------
# degree thresholds
# ---------------------------------------------------------------------------

def test_threshold_examples():
    assert closed_point_degree_threshold(1, {1}) == 2
    assert closed_point_degree_threshold(2, {3, 5}) == 11
    assert closed_point_degree_threshold(3, {2}) == 7


def test_threshold_genus_zero_returns_index():
    assert closed_point_degree_threshold(0, {4, 6}) == 2
    assert closed_point_degree_threshold(0, {5}) == 5


def test_threshold_rejects_negative_genus():
    with pytest.raises(ValueError):
        closed_point_degree_threshold(-1, {2, 3})


def test_rr_degree_bound():
    assert rr_degree_bound(0) == 1
    assert rr_degree_bound(3, weierstrass=True) == 6
    assert rr_degree_bound(3, weierstrass=False) == 4
    assert rr_degree_bound(1) == 2
    with pytest.raises(ValueError):
        rr_degree_bound(-1)
