"""Acceptance gate: ten criteria, one printed verdict line each.

Each test is self-contained evidence for one criterion: frozen values,
independent recomputations (inline sieves, exact rationals, brute-force
loops), and wall-clock budgets.  Verdict lines print through
``capsys.disabled()`` so a plain ``pytest -v`` run shows them.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from torsiondeg import arith, cli, cmbounds, curvedeg, families, gl2, orbits

SWEEP_PRIMES = (5, 7, 11, 13)
APPLICABLE = {"ContainsSL", "SplitNormalizer", "NonsplitNormalizer"}
KNOWN_CLASSES = APPLICABLE | {"Borel", "ExceptionalA4", "ExceptionalS4",
                              "ExceptionalA5"}


def say(capsys, line):
    with capsys.disabled():
        print(flush=True)
        print(line, flush=True)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance-cache"))


@pytest.fixture(scope="module")
def sweeps(cache_dir):
    """Exhaustive enumeration + divisibility reports for p in {5, 7, 11, 13},
    with per-prime wall-clock seconds."""
    out = {}
    for p in SWEEP_PRIMES:
        t0 = time.monotonic()
        groups = gl2.enumerate_subgroups(p, "exhaustive", ceiling=13,
                                         cache_dir=cache_dir)
        reports = [orbits.verify_case_divisibility(G).as_dict()
                   for G in groups]
        out[p] = (reports, time.monotonic() - t0)
    return out


def test_criterion_01_orbit_divisibility_sweep(capsys, sweeps):
    """Every ContainsSL / SplitNormalizer / NonsplitNormalizer class passes
    (p-1) | 2*i*[G:Stab(v)] for all nonzero v; zero violations; p = 11
    within five minutes."""
    totals = {}
    for p in SWEEP_PRIMES:
        reports, elapsed = sweeps[p]
        checked = 0
        for r in reports:
            assert r["verdict"] != orbits.VIOLATION, r
            if r["class"] not in APPLICABLE:
                continue
            checked += 1
            assert r["verdict"] == orbits.PASS, r
            # direct arithmetic recheck from the emitted orbit sizes
            for size in r["orbit_sizes"]:
                assert (2 * r["det_index"] * size) % (p - 1) == 0, (p, r)
        assert checked > 0
        totals[p] = (checked, len(reports), elapsed)
    assert totals[11][2] < 300.0
    say(capsys, "[criterion 1] PASS — orbit divisibility exhaustive for "
        + ", ".join(f"p={p}: {c}/{n} applicable classes in {s:.1f}s"
                    for p, (c, n, s) in totals.items()))


def test_criterion_02_dickson_completeness(capsys, sweeps):
    """The same sweeps classify every subgroup class: no Unclassifiable."""
    counts = {}
    for p in SWEEP_PRIMES:
        reports, _ = sweeps[p]
        labels = {r["class"] for r in reports}
        assert labels <= KNOWN_CLASSES, labels - KNOWN_CLASSES
        assert len(reports) > 0
        counts[p] = len(reports)
    assert counts == {5: 48, 7: 84, 11: 114, 13: 217}
    say(capsys, "[criterion 2] PASS — zero unclassifiable among "
        f"{sum(counts.values())} classes "
        f"({', '.join(f'p={p}: {n}' for p, n in counts.items())})")


def test_criterion_03_line_stabilizer_lemmas(capsys):
    """Split pointwise-stabilizer trichotomy and the nonsplit #H <= 2
    bound, exhaustively for all primes 3 <= p <= 31, within ten seconds."""
    primes = [p for p in range(3, 32) if arith.is_prime(p)]
    t0 = time.monotonic()
    shapes_seen = set()
    for p in primes:
        line_reports = orbits.verify_split_pointwise_stabilizers(p)
        assert len(line_reports) == p + 1
        for r in line_reports:
            assert r.verdict == orbits.PASS, (p, r)
            assert r.subgroup_count >= 1
            shapes_seen.update(r.shapes)
        bound = orbits.verify_nonsplit_pointwise_stabilizers(p)
        assert bound.verdict == orbits.PASS, (p, bound)
        assert bound.max_order <= 2
    elapsed = time.monotonic() - t0
    assert 1 <= len(shapes_seen) <= 3  # the trichotomy
    assert elapsed < 10.0
    say(capsys, f"[criterion 3] PASS — lemmas exhaustive for "
        f"{len(primes)} primes up to 31 in {elapsed:.2f}s; "
        f"{len(shapes_seen)} stabilizer shapes")


def _independent_genus(N):
    """Exact-rational genus of X1(N), evaluated with none of the package's
    arithmetic: inline totient, divisor sum, and Fraction throughout."""
    def phi(n):
        out, m, q = 1, n, 2
        while q * q <= m:
            if m % q == 0:
                out *= q - 1
                m //= q
                while m % q == 0:
                    out *= q
                    m //= q
            q += 1
        if m > 1:
            out *= m - 1
        return out

    if N <= 4:
        return 0
    index = Fraction(N * N, 2)
    for q in range(2, N + 1):
        if N % q == 0 and all(q % r for r in range(2, q)):
            index *= 1 - Fraction(1, q * q)
    cusps = Fraction(sum(phi(d) * phi(N // d)
                         for d in range(1, N + 1) if N % d == 0), 2)
    g = 1 + index / 12 - cusps / 2
    assert g.denominator == 1
    return int(g)


def test_criterion_04_genus_formula(capsys):
    """Frozen genus values, bit-exact match against an independent
    exact-rational evaluation, and the N^2/24 + 1 bound to N = 1000."""
    frozen = {11: 1, 13: 2, 16: 2, 18: 2, 17: 5}
    frozen.update({N: 0 for N in list(range(1, 11)) + [12]})
    for N, g in frozen.items():
        assert curvedeg.genus_x1(N) == g, N
    for N in range(1, 401):
        assert curvedeg.genus_x1(N) == _independent_genus(N), N
    for N in range(1, 1001):
        assert curvedeg.genus_x1(N) <= Fraction(N * N, 24) + 1, N
    say(capsys, "[criterion 4] PASS — genus frozen values, independent "
        "recomputation bit-exact to N=400, bound holds to N=1000")


def test_criterion_05_semigroup_oracle(capsys):
    """representable / stable_bound vs. exhaustive recursion over every
    generator set of size <= 3 from {2..9}, targets <= 200."""
    window = 200
    pool = range(2, 10)
    n_specs = 0
    for size in (1, 2, 3):
        for gens in itertools.combinations(pool, size):
            spec = curvedeg.SemigroupSpec(gens)
            reach = [False] * (window + 1)
            reach[0] = True
            for t in range(1, window + 1):
                reach[t] = any(t >= g and reach[t - g] for g in gens)
            for t in range(window + 1):
                assert curvedeg.representable(t, spec) == reach[t], (gens, t)
            index = math.gcd(*gens) if size > 1 else gens[0]
            missing = [t for t in range(0, window + 1, index)
                       if not reach[t]]
            brute_bound = (missing[-1] + index) if missing else 0
            assert brute_bound + max(gens) <= window  # window is conclusive
            assert curvedeg.stable_bound(spec) == brute_bound, gens
            n_specs += 1
    assert n_specs == 92
    assert curvedeg.stable_bound(curvedeg.SemigroupSpec((3, 5))) == 8
    assert curvedeg.stable_bound(curvedeg.SemigroupSpec((6, 10, 15))) == 30
    say(capsys, f"[criterion 5] PASS — {n_specs} generator sets, "
        "targets to 200, both frozen stable bounds match")


def test_criterion_06_matrix_group_orders(capsys):
    """glm_order vs. brute-force counting of invertible 2x2 matrices."""
    expected = {(2, 2, 1): 6, (2, 2, 2): 96, (2, 3, 1): 48, (2, 3, 2): 3888}
    for (m, p, n), total in expected.items():
        modulus = p ** n
        brute = sum(
            1 for a, b, c, d in itertools.product(range(modulus), repeat=4)
            if (a * d - b * c) % p != 0)
        unit_part, p_exponent = arith.glm_order(m, p, n)
        assert brute == total
        assert unit_part * p ** p_exponent == total, (m, p, n)
    say(capsys, "[criterion 6] PASS — matrix counts 6, 96, 48, 3888 "
        "match brute enumeration")


def _independent_excluded_density(result, c, x):
    """Density of the emitted excluded set, rebuilt from scratch: inline
    sieve, then a union of arithmetic progressions."""
    top = c * x + 1
    sieve = np.ones(top + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(top) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    primes = np.flatnonzero(sieve)
    del sieve
    shifts = primes - 1
    steps = shifts // np.gcd(shifts, c)
    keep = (shifts > result.C) & (steps <= x)
    mask = np.zeros(x + 1, dtype=bool)
    for step in np.unique(steps[keep]):
        mask[step::step] = True
    for q in primes[primes <= round(x ** (1.0 / result.N)) + 2]:
        q = int(q)
        power = q ** result.N
        if power <= x and q <= result.L:
            mask[power::power] = True
    return Fraction(int(mask[1:x + 1].sum()), x)


def test_criterion_07_budget_procedure_certification(capsys):
    """CM profile, eps in {1/2, 1/10, 1/100} at x = 10^6: independently
    recomputed excluded density <= eps, budgets nonincreasing as eps
    grows, under a minute per eps."""
    profile = cmbounds.cm_profile(1)
    assert profile.p2_c == 144
    x = 10 ** 6
    results = {}
    timings = {}
    for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
        t0 = time.monotonic()
        results[eps] = families.b_epsilon_procedure(profile, eps, x)
        timings[eps] = time.monotonic() - t0
        assert timings[eps] < 60.0, (eps, timings[eps])
    densities = {}
    for eps, result in results.items():
        recomputed = _independent_excluded_density(result, 144, x)
        assert recomputed == result.report.density
        assert recomputed <= eps, (eps, recomputed)
        densities[eps] = recomputed
    assert families.b_eps_dominates(results[Fraction(1, 100)],
                                    results[Fraction(1, 10)])
    assert families.b_eps_dominates(results[Fraction(1, 10)],
                                    results[Fraction(1, 2)])
    say(capsys, "[criterion 7] PASS — excluded densities "
        + ", ".join(f"{float(d):.4f}<={float(e):.2f} ({timings[e]:.1f}s)"
                    for e, d in densities.items())
        + "; budgets nonincreasing in 1/eps")


def test_criterion_08_shifted_prime_density(capsys):
    """Monotone nonincreasing density in the cutoff at x = 10^6, exact
    brute-force double-loop match at x = 10^3."""
    x = 10 ** 6
    for c in (1, 144):
        densities = []
        for C in (0, 10, 100, 1000, 10000):
            _, report = families.erdos_wagstaff_set(c, C, x)
            densities.append(report.density)
        assert all(a >= b for a, b in zip(densities, densities[1:])), \
            (c, densities)
    x_small = 10 ** 3
    small_primes = [q for q in range(2, 3 * x_small + 2)
                    if all(q % r for r in range(2, math.isqrt(q) + 1))]
    for c in (1, 2, 3):
        for C in (0, 5, 50):
            brute = sum(
                1 for d in range(1, x_small + 1)
                if any(l > C and (c * d) % (l - 1) == 0
                       for l in small_primes if l <= c * d + 1))
            _, report = families.erdos_wagstaff_set(c, C, x_small)
            assert report.count == brute, (c, C)
    say(capsys, "[criterion 8] PASS — density nonincreasing in the cutoff "
        "at x=10^6 (c=1 and c=144); brute double loop matches at x=10^3")


def test_criterion_09_cm_assembly(capsys):
    """Frozen CM constants and the exponent DP against exhaustive
    composition enumeration for g <= 4."""
    assert cmbounds.h_bound(1) == 24
    assert cmbounds.mu_bound(1) == 12
    assert cmbounds.c_of_g(1).c == 144
    assert cmbounds.cm_p1_exponent(1, 2, 1) == 6

    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def uroot_exp(q, part):
        k = 0
        while phi(q ** (k + 1)) <= part and part % phi(q ** (k + 1)) == 0:
            k += 1
        return k

    def compositions(total):
        if total == 0:
            yield ()
            return
        for head in range(1, total + 1):
            for rest in compositions(total - head):
                yield (head,) + rest

    for g in range(1, 5):
        brute = 1
        for q in range(2, 2 * g + 2):
            if all(q % r for r in range(2, q)):
                best = max(sum(uroot_exp(q, part) for part in parts)
                           for parts in compositions(2 * g))
                brute *= q ** best
        assert cmbounds.mu_bound(g) == brute, g
    say(capsys, "[criterion 9] PASS — H(1)=24, M(1)=12, c(1)=144, "
        "exponent rule (1,2,1)->6; DP matches compositions for g<=4")


def _run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def _stable_form(text):
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        del doc["manifest"]["started"]
        del doc["manifest"]["finished"]
        return json.dumps(doc, sort_keys=True)
    return text


def test_criterion_10_cli_determinism(capsys, cache_dir, tmp_path):
    """Every CLI command repeated with the same manifest yields
    byte-identical report bodies, including under varying --jobs."""
    spec_file = tmp_path / "clauses.json"
    spec_file.write_text(json.dumps(
        {"clauses": [{"kind": "divisor", "m": 6},
                     {"kind": "prime-shift", "c": 2, "C": 10}]}))
    parallel = [
        ["verify-cases", "--primes", "5,7", "--cache-dir", cache_dir],
        ["verify-cases", "--primes", "13", "--mode", "sampled",
         "--count", "25", "--seed", "7", "--cache-dir", cache_dir],
        ["verify-lemmas", "--p-max", "13"],
    ]
    single = [
        ["classify", "--p", "7", "--subgroup", "nonsplit_normalizer"],
        ["enumerate", "--p", "5", "--cache-dir", cache_dir],
        ["genus", "--n-max", "25"],
        ["genus", "--n-max", "25", "--format", "csv"],
        ["degrees", "--g", "2", "--generators", "2,3"],
        ["semigroup", "--generators", "3,5", "--target-max", "40"],
        ["density", "--spec-file", str(spec_file), "--x", "2000"],
        ["ew", "--c", "2", "--cutoff", "10", "--x", "500"],
        ["bepsilon", "--cm-g", "1", "--epsilon", "1/2", "--x", "10000"],
        ["cm", "--g", "1", "--d", "1"],
    ]
    checked = 0
    for argv in parallel:
        outs = [_stable_form(_run_cli(capsys, argv + ["--jobs", jobs]))
                for jobs in ("1", "2", "1")]
        assert outs[0] == outs[1] == outs[2], argv
        checked += 1
    for argv in single:
        first = _stable_form(_run_cli(capsys, argv))
        second = _stable_form(_run_cli(capsys, argv))
        assert first == second, argv
        checked += 1
    say(capsys, f"[criterion 10] PASS — {checked} commands byte-identical "
        "across repeats and --jobs 1/2")
