"""Tests for the CM divisibility constants."""

from fractions import Fraction

import pytest

from torsiondeg import arith
from torsiondeg.cmbounds import (
    CmBoundSet,
    allowed_exponents,
    c_of_g,
    cm_p1_exponent,
    cm_profile,
    gr_check,
    h_bound,
    mu_bound,
)
from torsiondeg.families import b_epsilon_procedure


def compositions(total):
    """All ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def brute_mu(g):
    """Exhaustive maximum over all degree compositions, per prime."""
    out = 1
    for q in arith.primes_upto(2 * g + 1):
        best = 0
        for comp in compositions(2 * g):
            total = 0
            for part in comp:
                k = 0
                while part % arith.euler_phi(q ** (k + 1)) == 0:
                    k += 1
                total += k
            best = max(best, total)
        out *= q ** best
    return out


# ---------------------------------------------------------------------------
# the divisibility predicate
# ---------------------------------------------------------------------------

def test_gr_check_examples():
    assert gr_check(5, 2, 4)        # phi(5) = 4 | 4
    assert not gr_check(7, 2, 3)    # phi(7) = 6 does not divide 3
    assert gr_check(1, 2, 1)        # phi(1) = 1


def test_gr_check_rejects_bad_inputs():
    with pytest.raises(ValueError, match="even"):
        gr_check(5, 3, 4)
    with pytest.raises(ValueError):
        gr_check(0, 2, 1)
    with pytest.raises(ValueError):
        gr_check(5, 2, 0)


def test_gr_check_monotone_in_degree():
    for e in (2, 5, 7, 12, 100):
        for mu in (2, 4, 12):
            for d in range(1, 30):
                if gr_check(e, mu, d):
                    assert all(gr_check(e, mu, k * d) for k in (2, 3, 5))


# ---------------------------------------------------------------------------
# the assembled constants
# ---------------------------------------------------------------------------

def test_h_bound_values():
    assert h_bound(1) == 24
    assert h_bound(2) == 2 ** 15 * 3 ** 5 * 5 ** 2 * 7
    with pytest.raises(ValueError):
        h_bound(0)


def test_h_bound_divisibility_tower():
    assert h_bound(2) % h_bound(1) == 0
    assert h_bound(3) % h_bound(2) == 0


def test_mu_bound_values():
    assert mu_bound(1) == 12
    assert mu_bound(2) == 720
    # every imaginary quadratic root-of-unity count divides the g=1 bound
    for mu in (2, 4, 6):
        assert 12 % mu == 0
    with pytest.raises(ValueError):
        mu_bound(0)


def test_mu_bound_matches_exhaustive_compositions():
    for g in range(1, 5):
        assert mu_bound(g) == brute_mu(g), g


def test_mu_bound_splits_dominate():
    # a product of two g=1 centers is one of the g=2 possibilities
    assert mu_bound(2) % mu_bound(1) ** 2 == 0
    assert mu_bound(4) % mu_bound(2) ** 2 == 0


def test_c_of_g_assembly():
    bounds = c_of_g(1)
    assert (bounds.H, bounds.M, bounds.c) == (24, 12, 144)
    two = c_of_g(2)
    assert two.c == two.H * two.M // 2
    assert two.c == (2 ** 15 * 3 ** 5 * 5 ** 2 * 7) * 720 // 2
    # evenness of M holds as far as we care to look
    for g in range(1, 11):
        assert mu_bound(g) % 2 == 0


def test_cm_bound_set_invariants():
    with pytest.raises(ValueError):
        CmBoundSet(g=1, H=24, M=12, c=145)
    with pytest.raises(ValueError):
        CmBoundSet(g=1, H=24, M=11, c=132)
    with pytest.raises(ValueError):
        CmBoundSet(g=0, H=24, M=12, c=144)


# ---------------------------------------------------------------------------
# allowed exponents
# ---------------------------------------------------------------------------

def test_allowed_exponents_first_dimension():
    exps = allowed_exponents(1, 1)
    assert 1 in exps and 2 in exps
    # independent brute force over the complete search range
    brute = [n for n in range(1, 2 * 144 * 144 + 1)
             if 144 % arith.euler_phi(n) == 0]
    assert exps == brute
    assert max(exps) <= 2 * 144 ** 2
    # consistency with the packaged predicate: mu = 2c makes mu/2 = c
    for N in exps:
        assert gr_check(N, 2 * 144, 1)


def test_allowed_exponents_cost_guard():
    with pytest.raises(ValueError, match="limit"):
        allowed_exponents(2, 1)
    with pytest.raises(ValueError):
        allowed_exponents(1, 0)


# ---------------------------------------------------------------------------
# the escalation rule and the exported profile
# ---------------------------------------------------------------------------

def test_cm_p1_exponent_values():
    assert cm_p1_exponent(1, 2, 1) == 6   # 144 = 2^4 * 3^2
    assert cm_p1_exponent(1, 3, 1) == 4
    assert cm_p1_exponent(1, 7, 2) == 3   # 7 does not divide 144
    with pytest.raises(ValueError):
        cm_p1_exponent(1, 6, 1)
    with pytest.raises(ValueError):
        cm_p1_exponent(0, 2, 1)


def test_cm_p1_exponent_defining_implication():
    c = c_of_g(1).c
    for p, N in ((2, 1), (2, 3), (3, 2), (5, 1), (7, 2)):
        n = cm_p1_exponent(1, p, N)
        phi = arith.euler_phi(p ** n)
        for d in range(1, 400):
            if (c * d) % phi == 0:
                assert d % p ** N == 0, (p, N, d)


def test_cm_profile_packaging():
    profile = cm_profile(1)
    assert profile.p2_c == 144
    for p, N in ((2, 1), (3, 1), (7, 2), (5, 4)):
        assert profile.p1_rule(p, N) == cm_p1_exponent(1, p, N)


def test_cm_profile_feeds_the_budget_pipeline():
    result = b_epsilon_procedure(cm_profile(1), Fraction(1, 2), 10 ** 4)
    assert result.report.density <= Fraction(1, 2)
    assert result.B_eps >= 2
    assert result.L == result.C + 1
