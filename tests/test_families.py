"""Tests for the degree-set density machinery and the budget procedure."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_spread_max
from torsiondeg import arith, cli, cmbounds, families
from torsiondeg.families import (
    MAX_SIEVE,
    MAX_SIEVING_PRIME,
    BEpsilonResult,
    DensityReport,
    DivClause,
    FamilyProfile,
    IntegerSetSpec,
    PrimePowerDivClause,
    PrimeShiftClause,
    b_eps_dominates,
    b_epsilon_procedure,
    density_upto,
    erdos_wagstaff_set,
    find_cutoff_C,
    profile_from_dict,
    rule_from_template,
    spec_from_dict,
    _PrimesUpTo,
    _int_nth_root,
    _degree_blocks,
    _progression_blocks,
    _small_passes,
    _spread_block,
    _tail_within,
)


def brute_max_shift(c, d):
    """Largest l-1 over primes l with (l-1) | c*d, else 0."""
    return next((e for e in reversed(arith.divisors(c * d))
                 if arith.is_prime(e + 1)), 0)


def brute_owner(c, s):
    """The largest divisor t of c with gcd(s, c/t) = 1 and t s + 1 prime,
    else 0."""
    return max((t for t in arith.divisors(c)
                if math.gcd(s, c // t) == 1 and arith.is_prime(t * s + 1)),
               default=0)


def progression_owners(c, x, floor=0):
    """Per degree s, the largest t that _progression_blocks keeps alive
    at s, else 0; the divisors must ascend within each block."""
    owner = [0] * (x + 1)
    last = None
    for lo, t, alive in _progression_blocks(c, x, floor):
        assert last is None or last[0] != lo or last[1] < t
        last = (lo, t)
        for s in (lo + np.flatnonzero(alive)).tolist():
            owner[s] = max(owner[s], t)
    return owner


def max_shift_table(c, x):
    """The largest prime shift of each degree up to x (0 at degree 0) from
    the kernels of the cutoff search, on whole values: each block of
    _progression_blocks writes t s at the s it keeps alive, the divisors
    ascending, and spread_table lifts the table over divisors."""
    table = np.zeros(x + 1, dtype=np.int64)
    for lo, t, alive in _progression_blocks(c, x):
        s = lo + np.flatnonzero(alive)
        table[s] = t * s
    spread_table(table)
    return table


def full_sieve_max_shift(c, x):
    """The per-prime loop over every prime up to c x + 1: assigning l-1
    to the multiples of s = (l-1)/gcd(l-1, c) for l ascending leaves the
    largest shift in place."""
    primes = arith.primes_array(c * x + 1)
    shifts = primes - 1
    steps = shifts // np.gcd(shifts, c)
    keep = steps <= x
    arr = np.zeros(x + 1, dtype=np.int64)
    for step, value in zip(steps[keep], shifts[keep]):
        arr[step::step] = value
    return arr


def toy_profile(**overrides):
    kwargs = dict(p2_c=2, p1_rule=lambda p, N: N + 1)
    kwargs.update(overrides)
    return FamilyProfile(**kwargs)


# ---------------------------------------------------------------------------
# clauses and specs
# ---------------------------------------------------------------------------

def test_div_clause_membership():
    clause = DivClause(6)
    assert [d for d in range(1, 25) if clause.contains(d)] == [6, 12, 18, 24]
    with pytest.raises(ValueError):
        DivClause(0)


def test_prime_shift_clause_naive_membership():
    # c=1, C=1: an odd d only admits l=2 (shift 1), so members are the evens
    clause = PrimeShiftClause(1, 1)
    members = [d for d in range(1, 101) if clause.contains(d)]
    assert members == list(range(2, 101, 2))
    with pytest.raises(ValueError):
        PrimeShiftClause(0, 1)
    with pytest.raises(ValueError):
        PrimeShiftClause(1, -1)


def test_int_nth_root():
    for n in list(range(0, 50)) + [10 ** 6, 10 ** 6 + 1, 7 ** 9, 2 ** 401]:
        for k in (1, 2, 3, 5):
            r = _int_nth_root(n, k)
            if n >= 1:
                assert r ** k <= n < (r + 1) ** k, (n, k)
            else:
                assert r == 0


def test_prime_power_clause_membership():
    clause = PrimePowerDivClause(2, 10)
    # squares of primes up to 10: 4, 9, 25, 49
    members = [d for d in range(1, 60) if clause.contains(d)]
    assert members == sorted({d for d in range(1, 60)
                              if any(d % (l * l) == 0 for l in (2, 3, 5, 7))})
    assert clause.contains(49) and not clause.contains(121)  # 11 > L
    with pytest.raises(ValueError):
        PrimePowerDivClause(0, 5)
    with pytest.raises(ValueError):
        PrimePowerDivClause(1, -1)


def test_prime_power_clause_sieve_matches_naive():
    clause = PrimePowerDivClause(3, 50)
    spec = IntegerSetSpec((clause,))
    x = 2000
    naive = sum(1 for d in range(1, x + 1) if clause.contains(d))
    assert density_upto(spec, x).count == naive


def test_spec_canonicalizes_and_dedupes():
    spec = IntegerSetSpec((DivClause(4), PrimeShiftClause(1, 2),
                           DivClause(4), DivClause(2)))
    assert spec.clauses == (DivClause(2), DivClause(4),
                            PrimeShiftClause(1, 2))
    assert spec.describe() == [
        {"kind": "divisor", "m": 2},
        {"kind": "divisor", "m": 4},
        {"kind": "prime-shift", "c": 1, "C": 2},
    ]
    with pytest.raises(ValueError):
        IntegerSetSpec(("not a clause",))


def test_spec_from_dict_reads_what_describe_writes():
    for clauses in ((DivClause(6),), (PrimeShiftClause(144, 7),),
                    (PrimePowerDivClause(3, 50),),
                    (PrimePowerDivClause(2, 10), DivClause(4),
                     PrimeShiftClause(2, 0), DivClause(3))):
        spec = IntegerSetSpec(clauses)
        assert spec_from_dict({"clauses": spec.describe()}) == spec
        assert spec_from_dict(json.loads(json.dumps(
            {"clauses": spec.describe()}))) == spec
    # each clause error names its position
    for data, message in (
            ({"clauses": [{"kind": "divisor", "m": 2}, {"kind": "divisor"}]},
             "clauses[1]: missing field 'm'"),
            ({"clauses": [{"kind": "waffle", "m": 3}]},
             "clauses[0]: unknown clause kind 'waffle'"),
            ({"clauses": [{"kind": ["divisor"], "m": 3}]},
             "clauses[0]: unknown clause kind ['divisor']"),
            ({"clauses": [["divisor", 3]]}, "clauses[0]: clause must be"),
            ({"clauses": [{"kind": "prime-shift", "c": None, "C": 1}]},
             "clauses[0]: field 'c' must be an integer, got None"),
            ({"clauses": [{"kind": "divisor", "m": 0}]},
             "clauses[0]: the modulus must be a positive integer"),
            ({"clauses": []}, "'clauses' must be a nonempty list"),
            ([], "expected an object with a 'clauses' list")):
        with pytest.raises(ValueError) as exc:
            spec_from_dict(data)
        assert str(exc.value).startswith(message), data


def test_density_report_validation():
    r = DensityReport(8, 2)
    assert r.density == Fraction(1, 4)
    with pytest.raises(ValueError):
        DensityReport(0, 0)
    with pytest.raises(ValueError):
        DensityReport(5, 6)


# ---------------------------------------------------------------------------
# sieve vs naive membership
# ---------------------------------------------------------------------------

def test_max_prime_shift_against_divisor_brute():
    for c in (1, 2, 3):
        ms = max_shift_table(c, 200)
        for d in range(1, 201):
            assert ms[d] == brute_max_shift(c, d), (c, d)


@pytest.mark.parametrize("c", list(range(1, 13)) + [24, 144, 720])
def test_max_prime_shift_progressions_against_divisor_brute(c):
    x = 2000
    ms = max_shift_table(c, x)
    assert ms[0] == 0
    assert [int(v) for v in ms[1:]] == [brute_max_shift(c, d)
                                        for d in range(1, x + 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=1000),
       st.integers(min_value=0, max_value=400))
def test_max_prime_shift_random_against_oracles(c, x):
    ms = max_shift_table(c, x)
    assert np.array_equal(ms, full_sieve_max_shift(c, x))
    for d in range(1, x + 1, max(1, x // 7)):
        assert ms[d] == brute_max_shift(c, d), (c, d)


@pytest.mark.parametrize("c,x", [(144, 2 * 10 ** 4), (6, 10 ** 5)])
def test_max_prime_shift_equals_full_sieve_loop(c, x):
    assert np.array_equal(max_shift_table(c, x), full_sieve_max_shift(c, x))


@pytest.mark.parametrize("c", [6, 144])
def test_progression_blocks_match_the_owner_scan(c):
    x = 3000
    # each s owns the largest t with gcd(s, c/t) = 1 and t s + 1 prime
    assert progression_owners(c, x) == [0] + [
        brute_owner(c, s) for s in range(1, x + 1)]


def test_prime_shift_table_widens_past_255_divisors():
    c = 2 ** 7 * 3 ** 3 * 5 * 7 * 11  # 256 divisors
    assert len(arith.divisors(c)) == 256
    assert progression_owners(c, 10) == [0] + [
        brute_owner(c, s) for s in range(1, 11)]
    assert max_shift_table(c, 10).tolist() == [0] + [
        brute_max_shift(c, d) for d in range(1, 11)]


@pytest.fixture(params=[5, 64])
def tiny_blocks(request, monkeypatch):
    """Sieve blocks of a few degrees, so that small x crosses many of
    them."""
    monkeypatch.setattr(families, "_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("c", [1, 2, 6, 35, 144])
def test_blocked_sieve_matches_the_owner_scan(tiny_blocks, c):
    x = 1200
    owners = [0] + [brute_owner(c, s) for s in range(1, x + 1)]
    # past a floor only the s with t s > floor are sieved and kept
    for floor in (0, 7, c * x // 3, c * x - 1):
        assert progression_owners(c, x, floor) == [
            t if t * s > floor else 0 for s, t in enumerate(owners)], floor


def test_blocked_sieve_keeps_a_prime_modulus_in_a_later_block(tiny_blocks):
    # t s0 + 1 = q is itself one of the sieving primes, and s0 lies past
    # the first block, so its block must skip q's first multiple
    c, t, x = 2, 2, 9000
    s0 = next(s for s in range(tiny_blocks + 1, x)
              if arith.is_prime(t * s + 1))
    assert (t * s0 + 1) ** 2 <= t * x + 1
    owners = progression_owners(c, x)
    assert owners[s0] == t
    assert owners == [0] + [brute_owner(c, s) for s in range(1, x + 1)]


@pytest.mark.parametrize("c,x", [(1, 0), (6, 1), (6, 2), (6, 3000),
                                 (144, 3000), (35, 2500)])
def test_blocked_max_prime_shift_matches_the_full_sieve(tiny_blocks, c, x):
    assert np.array_equal(max_shift_table(c, x), full_sieve_max_shift(c, x))


@pytest.mark.parametrize("c,C", [(1, 3), (6, 40), (12, 300), (144, 2000)])
def test_blocked_density_matches_naive_membership(tiny_blocks, c, C):
    x = 1500
    spec = IntegerSetSpec((DivClause(7), PrimeShiftClause(c, C),
                           PrimePowerDivClause(2, 20)))
    naive = sum(1 for d in range(1, x + 1) if spec.contains(d))
    assert density_upto(spec, x).count == naive


def spread_table(out):
    """Lift the whole table out over divisors, in place, the way
    density_upto walks its blocks: the degrees up to isqrt(x) by their
    passes, then each block of _degree_blocks, ascending, by the passes
    and the primes."""
    x = len(out) - 1
    r = math.isqrt(x)
    passes = _small_passes(out[:r + 1])
    _spread_block(out[1:r + 1], 1, r, passes, (), None)
    primes = arith.primes_upto(r)
    for lo in range(1, x + 1, families._BLOCK):
        for D, E in _degree_blocks(lo, min(lo + families._BLOCK, x + 1), r):
            _spread_block(out[D:E], D, r, passes, primes,
                          lambda a, b: out[a:b])


def oracle_membership(spec, x):
    """Membership over the degrees [0, x]: IntegerSetSpec.contains for
    the divisor and prime-power clauses, full_sieve_max_shift for the
    prime-shift ones (whose contains tries every prime up to c d + 1)."""
    member = np.zeros(x + 1, dtype=bool)
    for clause in spec.clauses:
        if isinstance(clause, PrimeShiftClause):
            member |= full_sieve_max_shift(clause.c, x) > clause.C
        else:
            member[1:] |= [clause.contains(d) for d in range(1, x + 1)]
    return member


@pytest.mark.parametrize("spec", [
    IntegerSetSpec((DivClause(11), PrimeShiftClause(2, 150),
                    PrimeShiftClause(12, 900), PrimePowerDivClause(2, 40))),
    IntegerSetSpec((PrimeShiftClause(1, 30), PrimeShiftClause(6, 2000),
                    PrimePowerDivClause(3, 12), DivClause(64))),
])
def test_blocked_density_of_two_prime_shifts_matches_the_oracles(
        tiny_blocks, spec):
    # x and x / 2 each land on the last degree of a block, on the first
    # and mid-block, at both parities of x
    ends = [k * tiny_blocks + e for k in (600 // tiny_blocks,
                                          1250 // tiny_blocks)
            for e in (0, 1, tiny_blocks // 2)]
    xs = sorted(set(ends + [2 * y for y in ends] + [2 * y + 1 for y in ends]
                    + list(range(1, 40))))
    member = oracle_membership(spec, xs[-1])
    for x in xs:
        assert density_upto(spec, x).count == member[:x + 1].sum(), x


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=600),
       st.sampled_from([bool, np.int32]),
       st.sampled_from([5, 64, 1 << 20]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_spread_up_matches_the_two_array_oracle(x, dtype, block, seed):
    rng = np.random.default_rng(seed)

    def sparse(rate):
        vals = rng.integers(1, 10 ** 6, size=x + 1)
        vals *= rng.random(x + 1) < rate
        vals[0] = 0  # degrees start at 1
        return vals.astype(dtype)

    # values already closed under multiples, with new values to spread
    # over them
    base = np.zeros(x + 1, dtype=dtype)
    oracle_spread_max(base, sparse(0.01))
    v = sparse(0.05)
    expected = base.copy()
    oracle_spread_max(expected, v)
    out = np.maximum(base, v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "_BLOCK", block)
        spread_table(out)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("block", [5, 64, 1 << 20])
def test_spread_up_lifts_every_multiple_of_one_degree(block, monkeypatch):
    # one nonzero degree s past the root: its multiple k s is reached only
    # through the primes of k <= isqrt(x), and a block past the root reads
    # its last prime from m = r + 1 alone
    monkeypatch.setattr(families, "_BLOCK", block)
    for x in range(2, 700):
        r = math.isqrt(x)
        for s in {r + 1, x // 3, x // 2} - set(range(r + 1)):
            out = np.zeros(x + 1, dtype=np.int32)
            out[s] = 7
            spread_table(out)
            assert np.flatnonzero(out).tolist() == list(
                range(s, x + 1, s)), (x, s)


def test_degree_blocks_tile_past_the_root():
    for x, block in ((10 ** 7, 1 << 20), (1500, 5), (1500, 64), (3, 5)):
        r = math.isqrt(x)
        spans = [span for lo in range(1, x + 1, block)
                 for span in _degree_blocks(lo, min(lo + block, x + 1), r)]
        assert [D for D, _ in spans] == [r + 1] + [E for _, E in spans[:-1]]
        assert spans == [] or spans[-1][1] == x + 1
        assert all(D < E <= 2 * D for D, E in spans)


def _spread_keeps_multiples_above_their_divisor(seed):
    # for some s, small[2 s] exceeds small[s], so 2 s still needs its own
    # pass to lift its multiples higher than the pass over s does; the
    # multiples at or below small[s] need none
    rng = np.random.default_rng(seed)
    x = int(rng.integers(36, 3000))
    r = math.isqrt(x)
    v = np.zeros(x + 1, dtype=np.int32)
    for s in rng.choice(np.arange(1, r // 2 + 1), size=3):
        v[s] = rng.integers(1, 1000)
        v[2 * s] = v[s] + rng.integers(1, 1000)
        lower = np.arange(3 * s, x + 1, s)
        lower = rng.choice(lower, size=min(len(lower), 8), replace=False)
        v[lower] = rng.integers(1, v[s] + 1, size=len(lower))
    expected = np.zeros_like(v)
    oracle_spread_max(expected, v)
    out = v.copy()
    spread_table(out)
    assert np.array_equal(out, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_spread_up_keeps_a_multiple_above_its_divisor(seed):
    _spread_keeps_multiples_above_their_divisor(seed)


def test_blocked_spread_up_keeps_a_multiple_above_its_divisor(tiny_blocks):
    for seed in range(30):
        _spread_keeps_multiples_above_their_divisor(seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=1000),
       st.integers(min_value=0, max_value=3000),
       st.integers(min_value=1, max_value=400))
@example(6, 4762, 10 ** 5)
@example(144, 5000, 10 ** 5)
def test_prime_shift_threshold_matches_max_table(c, C, x):
    expected = int((max_shift_table(c, x)[1:] > C).sum())
    spec = IntegerSetSpec((PrimeShiftClause(c, C),))
    assert density_upto(spec, x).count == expected
    assert erdos_wagstaff_set(c, C, x)[1].count == expected


@pytest.mark.parametrize("c", [1, 2, 5, 6, 9, 12])
def test_prime_shift_density_matches_naive_membership(c):
    # odd and even c: for even c the sieve skips the odd divisors t
    x = 1500
    for C in (2, 40, 300):
        spec = IntegerSetSpec((PrimeShiftClause(c, C),))
        naive = sum(1 for d in range(1, x + 1) if spec.contains(d))
        assert density_upto(spec, x).count == naive, (c, C)


def test_density_matches_naive_membership_loop():
    spec = IntegerSetSpec((DivClause(7), PrimeShiftClause(2, 6)))
    x = 1000
    naive = sum(1 for d in range(1, x + 1) if spec.contains(d))
    report = density_upto(spec, x)
    assert report.count == naive
    assert report.cutoff == x


def test_density_of_single_divisor_clauses():
    x = 10 ** 6
    assert density_upto(IntegerSetSpec((DivClause(2),)), x).density == Fraction(1, 2)
    assert density_upto(IntegerSetSpec((DivClause(9),)), x).count == x // 9


def test_density_union_inclusion_exclusion():
    x = 5000
    report = density_upto(IntegerSetSpec((DivClause(2), DivClause(3))), x)
    assert report.count == x // 2 + x // 3 - x // 6


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                max_size=4))
def test_density_random_divisor_specs(ms):
    spec = IntegerSetSpec(tuple(DivClause(m) for m in ms))
    x = 400
    naive = sum(1 for d in range(1, x + 1) if any(d % m == 0 for m in ms))
    assert density_upto(spec, x).count == naive


def test_density_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        density_upto(IntegerSetSpec((DivClause(2),)), 0)


def test_sieve_size_guard():
    # the cutoff search refuses x past MAX_SIEVE, and sieving primes past
    # MAX_SIEVING_PRIME, before it allocates anything
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_SIEVE"):
            find_cutoff_C(Fraction(1, 2), 1, MAX_SIEVE + 1)
        with pytest.raises(ValueError, match="sieving primes"):
            find_cutoff_C(Fraction(1, 2), 10 ** 7, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_prime_shift_density_past_the_int32_table():
    # c x = 2.16e9 passes 2^31: the cutoff search forms its shifts as
    # integers of one run at a time, and the density path forms none
    c, x = 720720, 3000
    assert c * x > 2 ** 31
    shifts = sorted(brute_max_shift(c, d) for d in range(1, x + 1))
    for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100),
                Fraction(1, x)):
        assert find_cutoff_C(eps, c, x) == shifts[x - 1 - int(eps * x)], eps
    for C in (0, shifts[750], shifts[1500], shifts[2250], shifts[2900]):
        spec = IntegerSetSpec((PrimeShiftClause(c, C),))
        assert density_upto(spec, x).count == sum(v > C for v in shifts), C


# c(2), the prime-shift multiplier of g = 2, with 1,216 divisors
_C2 = 501_645_312_000


def test_sieving_primes_are_bounded():
    # the progressions are sieved by the primes up to isqrt(c x + 1)
    bound = MAX_SIEVING_PRIME
    assert families._sieving_root(1, bound * bound - 1) == bound
    with pytest.raises(ValueError, match="supported bound"):
        families._sieving_root(1, (bound + 1) ** 2 - 1)
    with pytest.raises(ValueError, match="sieving primes"):
        density_upto(IntegerSetSpec((PrimeShiftClause(_C2, 10 ** 6),)),
                     10 ** 4)
    with pytest.raises(ValueError, match="sieving primes"):
        erdos_wagstaff_set(10 ** 18, 0, 1)


def test_density_rejects_cutoff_beyond_the_supported_bound():
    spec = IntegerSetSpec((DivClause(10),))
    with pytest.raises(ValueError, match="supported bound"):
        density_upto(spec, MAX_SIEVE + 1)
    assert density_upto(spec, 10 ** 5).count == 10 ** 4


# VmHWM is the peak resident size of the child's own address space;
# getrusage would also count the pages it shared with the parent before
# exec.
_PEAK_RSS_MAIN = """
import sys
from torsiondeg import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")),
          file=sys.stderr)
sys.exit(code)
"""


def _density_cli_with_peak(path, x):
    """`density --x x --spec-file path` in a child process; its output
    and, as the last line of stderr, its VmHWM in kB."""
    src = Path(arith.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_MAIN, "density", "--x", str(x),
         "--spec-file", str(path)],
        env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak from /proc/self/status")
def test_density_cli_rejects_huge_cutoff_before_allocating(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"clauses": [{"kind": "divisor", "m": 10}]}),
                    encoding="utf-8")
    out = _density_cli_with_peak(path, 300000000)
    assert out.returncode == 2, out.stderr
    message, peak_kb = out.stderr.strip().splitlines()
    assert "supported bound" in message
    assert int(peak_kb) < 100 * 1024  # kB


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak from /proc/self/status")
def test_density_cli_rejects_huge_sieving_primes_before_allocating(tmp_path):
    # at c(2) and x = 10^4 the sieving primes would reach 7e7
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"clauses": [
        {"kind": "divisor", "m": 10},
        {"kind": "prime-shift", "c": _C2, "C": 10 ** 6}]}), encoding="utf-8")
    out = _density_cli_with_peak(path, 10 ** 4)
    assert out.returncode == 2, out.stderr
    message, peak_kb = out.stderr.strip().splitlines()
    assert "sieving primes" in message and "supported bound" in message
    assert "MAX_SIEVING_PRIME" in message
    assert int(peak_kb) < 100 * 1024  # kB


def _traced_peak(call, *args):
    # numpy reports its buffers to tracemalloc, so the peak is exact
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prime_shift_density_memory_per_degree():
    # the bits of [1, x / 2] are the only per-degree array, 1/16 byte per
    # degree; the sieve blocks are a fixed 1 MB each, so the peaks at two
    # cutoffs past one block are compared
    spec = IntegerSetSpec((PrimeShiftClause(6, 4762),))
    low, high = (_traced_peak(density_upto, spec, x)
                 for x in (4 * 10 ** 6, 8 * 10 ** 6))
    assert (high - low) / (4 * 10 ** 6) <= 0.25


def test_cutoff_search_memory_per_degree():
    # the uint8 codes of [1, x / 2] are the only per-degree array, 1/2
    # byte per degree; the blocks are a fixed 1 MB each, so the peaks at
    # two cutoffs past one block are compared
    low, high = (_traced_peak(find_cutoff_C, Fraction(1, 4), 6, x)
                 for x in (2 ** 21, 2 ** 22))
    assert (high - low) / 2 ** 21 <= 1.5


def test_cutoff_search_memory_per_degree_at_one_progression():
    # at c = 144 and epsilon = 1/20, k0 = 2: only the shifts c s of
    # s in (x / 2, x] are marked, x / 16 bytes
    low, high = (_traced_peak(find_cutoff_C, Fraction(1, 20), 144, x)
                 for x in (2 ** 21, 2 ** 22))
    assert (high - low) / 2 ** 21 <= 1.5


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak from /proc/self/status")
def test_density_cli_prime_shift_peak_per_degree(tmp_path):
    # the peak of x = 10^7 over that of x = 10^3 is what the degree bits
    # cost, 1/16 byte per degree or 0.6 MB, plus the 1 MB blocks of the
    # count and of the progression sieve
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"clauses": [
        {"kind": "prime-shift", "c": 6, "C": 4762}]}), encoding="utf-8")
    peaks = []
    for x in (10 ** 7, 10 ** 3):
        out = _density_cli_with_peak(path, x)
        assert out.returncode == 0, out.stderr
        peaks.append(int(out.stderr.strip().splitlines()[-1]))
    assert peaks[0] - peaks[1] < 6 * 1024  # kB


# ---------------------------------------------------------------------------
# shifted-prime degree sets
# ---------------------------------------------------------------------------

def test_ew_set_c1_small_cutoff_is_the_evens():
    spec, report = erdos_wagstaff_set(1, 1, 100)
    assert report.count == 50
    assert spec.contains(2) and not spec.contains(3)


def test_ew_set_matches_brute_loop():
    spec, report = erdos_wagstaff_set(2, 4, 100)
    naive = [d for d in range(1, 101)
             if any(l - 1 > 4 and (2 * d) % (l - 1) == 0
                    for l in arith.primes_upto(2 * d + 1))]
    assert report.count == len(naive)
    for d in naive:
        assert spec.contains(d)


def test_ew_huge_cutoff_empties_the_set():
    _, report = erdos_wagstaff_set(1, 10 ** 6, 10 ** 4)
    assert report.count == 0


def test_ew_density_nonincreasing_in_cutoff():
    x = 10 ** 4
    densities = [erdos_wagstaff_set(1, C, x)[1].density
                 for C in (0, 10, 100, 1000)]
    assert all(a >= b for a, b in zip(densities, densities[1:]))
    # C=0 admits every degree via l=2
    assert densities[0] == 1


# sha256 of the report bodies (see test_enumerate_report_bodies_are_frozen)
# of a density run over the spec that perfbench's cm-density workload
# draws at seed 1, and of the matching shifted-prime set alone.
DENSITY_SPEC = {"clauses": [
    {"kind": "divisor", "m": 10},
    {"kind": "prime-shift", "c": 6, "C": 4762},
    {"kind": "prime-power-div", "N": 2, "L": 5179},
]}
FAMILY_BODY_SHA256 = {
    "density":
        "68c43088d8d1879e1b3ada6a67d6a86f83f774e4713811b4ffbae26a2a2bda5a",
    "ew": "89b3749bd31501db419ea33763eb885230cbe87dfa24dfd95ba185902071eb72",
}


@pytest.mark.parametrize("command", sorted(FAMILY_BODY_SHA256))
def test_density_report_bodies_are_frozen(command, tmp_path, capsys):
    if command == "density":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(DENSITY_SPEC), encoding="utf-8")
        argv = ["density", "--x", "1000000", "--spec-file", str(path)]
    else:
        argv = ["ew", "--c", "6", "--cutoff", "4762", "--x", "1000000"]
    assert cli.main(argv) == 0
    body = json.loads(capsys.readouterr().out)["report"]
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    assert digest.hexdigest() == FAMILY_BODY_SHA256[command]


# ---------------------------------------------------------------------------
# cutoff search
# ---------------------------------------------------------------------------

def test_find_cutoff_trivial_epsilon():
    assert find_cutoff_C(1, 1, 1000) == 0
    assert find_cutoff_C(Fraction(1), 5, 500) == 0


def test_find_cutoff_postcondition_and_minimality():
    x = 2000
    for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 50)):
        C = find_cutoff_C(eps, 1, x)
        _, report = erdos_wagstaff_set(1, C, x)
        assert report.density <= eps
        if C > 0:
            _, tighter = erdos_wagstaff_set(1, C - 1, x)
            assert tighter.density > eps


def test_find_cutoff_monotone_in_epsilon():
    x = 3000
    cuts = [find_cutoff_C(eps, 2, x)
            for eps in (Fraction(1, 2), Fraction(1, 5), Fraction(1, 20),
                        Fraction(1, 100))]
    assert all(a <= b for a, b in zip(cuts, cuts[1:]))


def sorted_cutoff(epsilon, c, x):
    """The (K+1)-th largest maximal shift by a full sort, K the largest
    count the density budget allows."""
    allowed = int(Fraction(epsilon) * x)
    if allowed >= x:
        return 0
    return int(np.sort(full_sieve_max_shift(c, x)[1:])[x - 1 - allowed])


def epsilons(x):
    return (1, Fraction(1, 2), Fraction(1, 10), Fraction(1, 100),
            Fraction(1, x), Fraction(x - 1, x))


@pytest.mark.parametrize("c,x", [(1, 2000), (6, 3000), (144, 2500)])
def test_find_cutoff_matches_sorted_order_statistic(c, x):
    for eps in epsilons(x):
        assert find_cutoff_C(eps, c, x) == sorted_cutoff(eps, c, x), eps


@pytest.mark.parametrize("c,x", [(6, 3000), (144, 2500)])
def test_blocked_find_cutoff_matches_sorted_order_statistic(tiny_blocks, c,
                                                            x):
    for eps in epsilons(x):
        assert find_cutoff_C(eps, c, x) == sorted_cutoff(eps, c, x), eps


@pytest.mark.parametrize("block,c,x", [(5, 6, 3000), (64, 6, 3000),
                                       (64, 144, 2500), (1 << 20, 144, 2500)])
def test_find_cutoff_in_three_codes_matches_sorted_order_statistic(
        monkeypatch, block, c, x):
    # two codes per bracket besides 0: each pass of the code walk only
    # halves it, so the walk from (0, c x] refines over about log2(c x)
    # passes
    monkeypatch.setattr(families, "_BLOCK", block)
    monkeypatch.setattr(families, "_CODES", 3)
    passes = []
    histogram = families._code_histogram
    monkeypatch.setattr(families, "_code_histogram",
                        lambda *args: passes.append(args) or histogram(*args))
    for eps in epsilons(x)[1:]:
        passes.clear()
        assert families._walk_cutoff(c, x, int(eps * x), c * x) == \
            sorted_cutoff(eps, c, x), eps
        assert len(passes) >= 10, eps


def test_find_cutoff_refuses_a_pass_that_does_not_narrow(monkeypatch):
    # with no code besides 0 and 1, every degree lands in code 1 and a
    # pass leaves the bracket (0, c x] as it was: it must raise, not loop
    monkeypatch.setattr(families, "_CODES", 2)
    with pytest.raises(RuntimeError, match="as wide as before"):
        families._walk_cutoff(6, 1000, 500, 6000)


@pytest.mark.parametrize("c", [6, 144, 720720])
def test_cofactor_fact_against_brute_max_shift(c):
    # a degree whose largest shift M(d) exceeds F = c x // k0 has its
    # least cofactor k = c d / M(d) below k0, so the top progressions of
    # cofactor k < k0 count every degree above F at its least k
    x = 3000
    shifts = [brute_max_shift(c, d) for d in range(1, x + 1)]
    for k0 in (2, 3, 5, 9):
        F, above = families._top_shift_counter(c, x, k0)
        assert F == c * x // k0
        for d, M in enumerate(shifts, 1):
            ks = [k for k in range(1, k0) if c * d % k == 0
                  and c * d // k > F and arith.is_prime(c * d // k + 1)]
            assert (M > F) == bool(ks), (k0, d)
            if ks:
                assert M == c * d // ks[0] and c * d // M < k0, (k0, d)
        top = sorted(M for M in shifts if M > F)
        for T in (F, F + 1, *top[::max(1, len(top) // 7)], c * x - 1,
                  c * x):
            assert above(T) == sum(M > T for M in shifts), (k0, T)


@pytest.mark.parametrize("c,x", [(6, 3000), (144, 2500)])
def test_blocked_top_progressions_count_every_shift(tiny_blocks, c, x):
    shifts = full_sieve_max_shift(c, x)[1:]
    for k0 in (2, 5, 9):
        F, above = families._top_shift_counter(c, x, k0)
        for T in (F, (F + c * x) // 2, c * x):
            assert above(T) == int(np.count_nonzero(shifts > T)), (k0, T)


def test_budget_cutoffs_run_no_code_walk(monkeypatch):
    # the three budget epsilons at g = 1, x = 10^6 are served by the top
    # progressions (k0 = 8, 2, 2); a cutoff below c x // (_MAX_COFACTOR
    # + 1) walks from there after at most two tries, and a try is skipped
    # when too few degrees d exceed F / c to pass F
    passes, tries, walks = [], [], []
    histogram = families._code_histogram
    monkeypatch.setattr(families, "_code_histogram",
                        lambda *args: passes.append(args) or histogram(*args))
    counter = families._top_shift_counter
    monkeypatch.setattr(families, "_top_shift_counter",
                        lambda *args: tries.append(args[2]) or counter(*args))
    walk = families._walk_cutoff
    monkeypatch.setattr(families, "_walk_cutoff",
                        lambda *args: walks.append(args) or walk(*args))
    x = 10 ** 6
    top = families._MAX_COFACTOR + 1
    for half, C, k0s in ((Fraction(1, 4), 33366960, [2, top]),
                         (Fraction(1, 20), 99303696, [2]),
                         (Fraction(1, 200), 139459392, [2])):
        tries.clear()
        assert find_cutoff_C(half, 144, x) == C
        assert tries == k0s
    assert passes == [] and walks == []
    # epsilon = 1/2 allows x / 2 degrees, all that exceed x / 2: k0 = 2
    # cannot serve, and the one try k0 = 8 falls short
    tries.clear()
    assert find_cutoff_C(Fraction(1, 2), 144, x) == 13401936
    assert tries == [top]
    assert walks == [(144, x, x // 2, 144 * x // top)]
    tries.clear()
    walks.clear()
    x = 2500
    eps = Fraction(x - 1, x)
    assert find_cutoff_C(eps, 144, x) == sorted_cutoff(eps, 144, x)
    assert tries == []
    assert walks == [(144, x, x - 1, 144 * x // top)]
    assert passes


def test_find_cutoff_at_ten_million():
    # the budget at g = 1, x = 10^7 spends epsilon / 2 on the shift half,
    # for epsilon = 1/2, 1/10, 1/100; c x = 1.44e9 is past 2^31
    assert find_cutoff_C(Fraction(1, 4), 144, 10 ** 7) == 302_217_360
    assert find_cutoff_C(Fraction(1, 20), 144, 10 ** 7) == 938_852_208
    assert find_cutoff_C(Fraction(1, 200), 144, 10 ** 7) == 1_389_676_176


def test_find_cutoff_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        find_cutoff_C(0, 1, 100)
    with pytest.raises(ValueError):
        find_cutoff_C(2, 1, 100)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_validation():
    toy_profile()
    with pytest.raises(ValueError, match="nondecreasing"):
        toy_profile(p1_rule=lambda p, N: 10 - N)
    with pytest.raises(ValueError, match=">= 1"):
        toy_profile(p1_rule=lambda p, N: 0)
    with pytest.raises(ValueError):
        FamilyProfile(p2_c=0, p1_rule=lambda p, N: N)


def test_rule_templates():
    shift = rule_from_template({"kind": "shift", "offset": 2})
    assert shift(7, 3) == 5
    const = rule_from_template({"kind": "constant", "value": 4})
    assert const(13, 9) == 4
    cm = rule_from_template({"kind": "cm", "c": 144})
    # 144 = 2^4 * 3^2: the p-adic part shifts the exponent
    assert cm(2, 1) == 1 + 4 + 1
    assert cm(3, 1) == 1 + 2 + 1
    assert cm(5, 1) == 1 + 0 + 1
    with pytest.raises(ValueError):
        rule_from_template({"kind": "mystery"})
    with pytest.raises(ValueError):
        rule_from_template({"kind": "shift", "offset": -1})


def test_profile_from_dict_roundtrip():
    profile = profile_from_dict({
        "p2_c": 12,
        "p1_rule": {"kind": "shift", "offset": 1},
    })
    assert profile.p2_c == 12
    assert profile.p1_rule(3, 4) == 5
    cm = profile_from_dict({"p2_c": 144, "p1_rule": {"kind": "cm", "c": 144}})
    assert [cm.p1_rule(p, 2) for p in (2, 3, 5)] == \
        [cmbounds.cm_p1_exponent(1, p, 2) for p in (2, 3, 5)]


@pytest.mark.parametrize("bad", [2.9, 2.0, True, "2"],
                         ids=["float", "integral float", "bool", "string"])
def test_json_numbers_must_be_integers(bad):
    # int() would read 2.9 as 2 and true as 1: a mistyped file would
    # describe some other set or family without a word
    with pytest.raises(ValueError, match=r"clauses\[1\]: field 'm' must "
                                         r"be an integer"):
        spec_from_dict({"clauses": [{"kind": "divisor", "m": 3},
                                    {"kind": "divisor", "m": bad}]})
    with pytest.raises(ValueError, match="field 'C' must be an integer"):
        spec_from_dict({"clauses": [{"kind": "prime-shift", "c": 6,
                                     "C": bad}]})
    with pytest.raises(ValueError, match="field 'p2_c' must be an integer"):
        profile_from_dict({"p2_c": bad,
                           "p1_rule": {"kind": "shift", "offset": 1}})
    for kind, field in (("shift", "offset"), ("constant", "value"),
                        ("cm", "c")):
        with pytest.raises(ValueError,
                           match=f"field '{field}' must be an integer"):
            profile_from_dict({"p2_c": 12,
                               "p1_rule": {"kind": kind, field: bad}})


def test_profile_from_dict_refuses_other_fields():
    # a field the budget does not read is named, not dropped
    for extra in ({"merelian_B": {"kind": "linear", "coeff": 50}},
                  {"dim_g": 2}, {"si_prime_cutoff": 37},
                  {"dim_g": 2, "zeta": 1}):
        data = {"p2_c": 12, "p1_rule": {"kind": "shift", "offset": 1},
                **extra}
        with pytest.raises(ValueError, match="unknown profile field") as exc:
            profile_from_dict(data)
        assert all(repr(key) in str(exc.value) for key in extra)
    for bad in ([], "p2_c", {"p2_c": 1, "p1_rule": 5},
                {"p2_c": 1, "p1_rule": {"kind": "constant", "value": 0}}):
        with pytest.raises((KeyError, TypeError, ValueError)):
            profile_from_dict(bad)


# ---------------------------------------------------------------------------
# the budget procedure
# ---------------------------------------------------------------------------

def test_b_epsilon_postconditions():
    profile = toy_profile()
    x = 2000
    result = b_epsilon_procedure(profile, Fraction(1, 2), x)
    assert isinstance(result, BEpsilonResult)
    assert result.L == result.C + 1
    assert set(result.n_map) == set(arith.primes_upto(result.L))
    assert result.B_eps == 1 + math.prod(
        l ** (n - 1) for l, n in result.n_map.items())
    # the reported certificate must hold and must match a naive recount
    assert result.report.density <= Fraction(1, 2)
    naive = sum(1 for d in range(1, x + 1) if result.excluded.contains(d))
    assert naive == result.report.count
    # N is minimal for the union bound
    ls = arith.primes_upto(result.L)
    assert sum(Fraction(1, l ** result.N) for l in ls) <= Fraction(1, 4)
    if result.N > 1:
        assert sum(Fraction(1, l ** (result.N - 1)) for l in ls) > Fraction(1, 4)


def test_b_epsilon_budget_shrinks_as_epsilon_grows():
    profile = toy_profile()
    x = 10 ** 4
    budgets = [b_epsilon_procedure(profile, eps, x).B_eps
               for eps in (Fraction(1, 100), Fraction(1, 10),
                           Fraction(1, 2), Fraction(1))]
    assert all(a >= b for a, b in zip(budgets, budgets[1:]))


def test_b_epsilon_rejects_bad_arguments():
    with pytest.raises(ValueError):
        b_epsilon_procedure(toy_profile(), 0, 100)
    with pytest.raises(ValueError):
        b_epsilon_procedure(toy_profile(), Fraction(1, 2), 0)


def test_b_epsilon_materialization_caps(monkeypatch):
    profile = toy_profile()
    x = 2000
    full = b_epsilon_procedure(profile, Fraction(1, 2), x)
    with monkeypatch.context() as patch:
        patch.setattr(families, "PRODUCT_PRIME_CAP", 1)
        few = b_epsilon_procedure(profile, Fraction(1, 2), x)
    assert few.B_eps is None
    assert "primes" in few.B_eps_note
    with monkeypatch.context() as patch:
        patch.setattr(families, "PRODUCT_DIGIT_CAP", 0)
        small = b_epsilon_procedure(profile, Fraction(1, 2), x)
    assert small.B_eps is None
    assert "digits" in small.B_eps_note
    # the rest of the result is unaffected by the caps
    assert (few.C, few.L, few.N) == (full.C, full.L, full.N)
    assert few.report == full.report
    assert full.B_eps is not None and full.B_eps_note is None


def test_b_eps_domination_comparisons(monkeypatch):
    profile = toy_profile()
    x = 5000
    tight = b_epsilon_procedure(profile, Fraction(1, 20), x)
    loose = b_epsilon_procedure(profile, Fraction(1, 2), x)
    # materialized: direct integer comparison
    assert b_eps_dominates(tight, loose)
    # structural: same answer when the integers are withheld
    monkeypatch.setattr(families, "PRODUCT_PRIME_CAP", 0)
    tight_s = b_epsilon_procedure(profile, Fraction(1, 20), x)
    loose_s = b_epsilon_procedure(profile, Fraction(1, 2), x)
    assert tight_s.B_eps is None and loose_s.B_eps is None
    assert b_eps_dominates(tight_s, loose_s)
    if tight_s.L > loose_s.L or tight_s.N > loose_s.N:
        assert not b_eps_dominates(loose_s, tight_s)
    # runs of different profiles refuse structural comparison
    other = b_epsilon_procedure(toy_profile(), Fraction(1, 2), x)
    with pytest.raises(ValueError, match="profile"):
        b_eps_dominates(tight_s, other)


def test_n_map_is_a_real_mapping():
    result = b_epsilon_procedure(toy_profile(), Fraction(1, 2), 2000)
    n_map = result.n_map
    assert len(n_map) == len(arith.primes_upto(result.L))
    assert n_map[2] == result.N + 1
    assert dict(n_map) == {l: result.N + 1
                           for l in arith.primes_upto(result.L)}
    with pytest.raises(KeyError):
        n_map[4]
    with pytest.raises(KeyError):
        n_map[result.L + 100]


@pytest.mark.parametrize("eps,expected", [
    (Fraction(1, 2), (33366960, 33366961, 3, 2052884)),
    (Fraction(1, 10), (99303696, 99303697, 5, 5723576)),
    (Fraction(1, 100), (139459392, 139459393, 8, 7883305)),
])
def test_cm_budget_frozen_at_one_million(eps, expected):
    result = b_epsilon_procedure(cmbounds.cm_profile(1), eps, 10 ** 6)
    assert (result.C, result.L, result.N, len(result.n_map)) == expected
    assert result.B_eps is None and "not materialized" in result.B_eps_note
    assert list(islice(result.n_map, 200)) == arith.primes_upto(1223)


@pytest.mark.parametrize("eps,expected", [
    (Fraction(1, 2), (302_217_360, 3, 3_756_205)),
    (Fraction(1, 10), (938_852_208, 5, 838_253)),
    (Fraction(1, 100), (1_389_676_176, 8, 90_402)),
])
def test_cm_budget_frozen_at_ten_million(eps, expected):
    # the excluded count is the recount of density_upto, not the search's
    result = b_epsilon_procedure(cmbounds.cm_profile(1), eps, 10 ** 7)
    assert (result.C, result.N, result.report.count) == expected
    assert result.L == result.C + 1 and result.report.cutoff == 10 ** 7


def test_tail_within_lazy_primes_match_listed_primes():
    budgets = [Fraction(1, 2), Fraction(1, 7), Fraction(1, 200)]
    for L in (0, 1, 2, 3, 100, 311, 313, 1024, 1025, 3000):
        listed = arith.primes_array(L)
        lazy = _PrimesUpTo(L)
        assert len(lazy) == len(listed)
        assert list(lazy) == listed.tolist()
        for budget in budgets:
            for N in (1, 2, 3, 5):
                exact = sum(Fraction(1, int(l) ** N) for l in listed)
                assert _tail_within(lazy, N, budget) == (exact <= budget)
                assert _tail_within(listed, N, budget) == (exact <= budget)

