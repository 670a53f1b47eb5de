"""End-to-end checks of the command-line surface.

Every test drives `cli.main` in-process and inspects exit codes, the
emitted JSON/CSV, and stderr.  Determinism tests strip exactly the two
timestamp fields from the manifest and require the rest byte-identical.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torsiondeg import cli, cmbounds, curvedeg, families, gl2, orbits
from torsiondeg._version import VERSION


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body(out):
    return json.loads(out)["report"]


def strip_times(out):
    doc = json.loads(out)
    del doc["manifest"]["started"]
    del doc["manifest"]["finished"]
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# report envelope
# ---------------------------------------------------------------------------

def test_manifest_envelope(capsys):
    code, out, err = run(capsys, ["genus", "--n-max", "3"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    m = doc["manifest"]
    assert m["command"] == "genus"
    assert m["parameters"] == {"n_max": 3}
    assert m["code_version"] == VERSION
    assert m["verdict"] == "report-only"
    assert m["started"] <= m["finished"]
    # canonical form: sorted keys, trailing newline
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_version_flag(capsys):
    code, out, err = run(capsys, ["--version"])
    assert code == 0
    assert VERSION in out


def test_argparse_failures_exit_2(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, ["genus"])[0] == 2  # missing --n-max
    assert run(capsys, ["genus", "--n-max", "5", "--format", "xml"])[0] == 2


@pytest.mark.parametrize("argv", [["cm", "--g", "1"],
                                  ["genus", "--n-max", "3"]])
def test_jobs_is_checked_without_a_pool(capsys, argv):
    code, out, err = run(capsys, argv + ["--jobs", "0"])
    assert (code, out) == (2, "") and "--jobs" in err


def test_csv_is_rejected_before_computing(capsys, monkeypatch):
    def refuse(*args):
        raise RuntimeError("the budget procedure ran")

    monkeypatch.setattr(families, "b_epsilon_procedure", refuse)
    code, out, err = run(capsys, ["bepsilon", "--cm-g", "1",
                                  "--epsilon", "1/2", "--format", "csv"])
    assert (code, out) == (2, "") and "CSV" in err


def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    path = tmp_path / "genus.json"
    code, out, err = run(capsys, ["genus", "--n-max", "4",
                                  "--out", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["report"]["rows"][0]["N"] == 1


# ---------------------------------------------------------------------------
# tables: genus / degrees / semigroup
# ---------------------------------------------------------------------------

def test_genus_rows_match_library(capsys):
    code, out, err = run(capsys, ["genus", "--n-max", "20"])
    assert code == 0
    rows = body(out)["rows"]
    assert len(rows) == 20
    for r in rows:
        assert r["genus"] == curvedeg.genus_x1(r["N"])
        assert r["min_degree"] == curvedeg.min_guaranteed_degree(r["N"])


def test_genus_csv_projection(capsys):
    code, out, err = run(capsys, ["genus", "--n-max", "13",
                                  "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,genus,min_degree"
    assert len(lines) == 14
    assert lines[11] == "11,1,2"
    assert lines[13] == "13,2,4"


# Expected CSV of every command with a flat or nested projection not
# covered above; short outputs as literal lines, long ones by sha256.
CSV_CASES = [
    (["classify", "--p", "7", "--subgroup", "nonsplit_normalizer"],
     ["p,order,dickson_class,projective_type,projective_order,det_index,"
      "det_image_order,contains_sl2",
      "7,96,NonsplitNormalizer,Dihedral,16,1,6,False"]),
    (["degrees", "--g", "2", "--generators", "2,3"],
     ["g,index,stable_bound,closed_point_threshold,"
      "rr_degree_bound_weierstrass,rr_degree_bound_general",
      "2,1,2,8,4,3"]),
    (["density", "--x", "2000"],
     ["x,count,density", "2000,1395,279/400"]),
    (["ew", "--c", "2", "--cutoff", "10", "--x", "500"],
     ["c,cutoff,x,count,density", "2,10,500,352,88/125"]),
    (["enumerate", "--p", "5"],
     "6ae35777f47d8ff9d0fa434fbe65493c180747893c65ec22be2aa82d4ed96009"),
    (["verify-cases", "--primes", "5", "--jobs", "1"],
     "55bc8019238f6dd99ff42e9ecd1bbccc2eff3152bb6609bc6ab78b2102c24ae5"),
]


@pytest.mark.parametrize("argv,expected", CSV_CASES,
                         ids=[case[0][0] for case in CSV_CASES])
def test_csv_projection_is_frozen(capsys, tmp_path, argv, expected):
    argv = list(argv)
    if argv[0] == "density":
        argv += ["--spec-file", write_spec(
            tmp_path, [{"kind": "divisor", "m": 6},
                       {"kind": "prime-shift", "c": 2, "C": 10}])]
    if argv[0] in ("enumerate", "verify-cases"):
        argv += ["--cache-dir", str(tmp_path)]
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert code == 0 and err == ""
    if isinstance(expected, str):
        assert hashlib.sha256(out.encode()).hexdigest() == expected
    else:
        assert out.splitlines() == expected


def test_degrees_body(capsys):
    code, out, err = run(capsys, ["degrees", "--g", "2",
                                  "--generators", "2,3"])
    assert code == 0
    rep = body(out)
    spec = curvedeg.SemigroupSpec((2, 3))
    assert rep["stable_bound"] == curvedeg.stable_bound(spec)
    assert rep["closed_point_threshold"] == \
        curvedeg.closed_point_degree_threshold(2, spec)
    assert rep["rr_degree_bound_weierstrass"] == \
        curvedeg.rr_degree_bound(2, weierstrass=True)
    assert rep["rr_degree_bound_general"] == \
        curvedeg.rr_degree_bound(2, weierstrass=False)


def test_semigroup_rows(capsys):
    code, out, err = run(capsys, ["semigroup", "--generators", "3,5",
                                  "--target-max", "9"])
    assert code == 0
    rep = body(out)
    got = {r["target"] for r in rep["rows"] if r["representable"]}
    assert got == {0, 3, 5, 6, 8, 9}
    assert rep["stable_bound"] == curvedeg.stable_bound(
        curvedeg.SemigroupSpec((3, 5)))


def test_semigroup_csv(capsys):
    code, out, err = run(capsys, ["semigroup", "--generators", "2,3",
                                  "--target-max", "3", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["target,representable", "0,True", "1,False",
                                "2,True", "3,True"]


# ---------------------------------------------------------------------------
# classify / enumerate
# ---------------------------------------------------------------------------

def test_classify_standard_name(capsys):
    code, out, err = run(capsys, ["classify", "--p", "7",
                                  "--subgroup", "split_normalizer"])
    assert code == 0
    rep = body(out)
    assert rep["dickson_class"] == "SplitNormalizer"
    assert rep["order"] == 72
    assert rep["det_index"] == 1
    assert rep["contains_sl2"] is False


def test_classify_generator_list(capsys):
    G = gl2.standard_subgroups(5)["sl2"]
    keys = ",".join(str(int(k)) for k in G.generators)
    code, out, err = run(capsys, ["classify", "--p", "5",
                                  "--generators", keys])
    assert code == 0
    assert body(out)["dickson_class"] == "ContainsSL"


def test_classify_rejections(capsys):
    code, _, err = run(capsys, ["classify", "--p", "7",
                                "--generators", "0"])
    assert code == 2 and "singular" in err
    code, _, err = run(capsys, ["classify", "--p", "7",
                                "--subgroup", "nonsense"])
    assert code == 2 and "nonsense" in err
    code, _, err = run(capsys, ["classify", "--p", "6",
                                "--subgroup", "borel"])
    assert code == 2 and "not prime" in err
    # exactly one source must be given
    assert run(capsys, ["classify", "--p", "7"])[0] == 2
    assert run(capsys, ["classify", "--p", "7", "--subgroup", "borel",
                        "--generators", "1"])[0] == 2


def test_enumerate_histogram(capsys, tmp_path):
    code, out, err = run(capsys, ["enumerate", "--p", "5",
                                  "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = body(out)
    assert rep["class_count"] == 48
    hist = dict(map(tuple, rep["class_histogram"]))
    assert sum(hist.values()) == 48
    assert hist["ContainsSL"] == 3
    # rows carry enough generators to rebuild each class
    row = rep["classes"][0]
    G = gl2.close_generators(5, row["generators"])
    assert G.order == row["order"]


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("gl2cache"))


def test_verify_cases_exhaustive(capsys, cache_dir):
    code, out, err = run(capsys, ["verify-cases", "--primes", "5,7",
                                  "--cache-dir", cache_dir, "--jobs", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["verdict"] == "pass"
    rep = doc["report"]
    assert rep["total_violations"] == 0
    assert [s["p"] for s in rep["sweeps"]] == [5, 7]
    assert rep["sweeps"][0]["checked"] == 48
    assert rep["sweeps"][1]["checked"] == 84


def test_verify_cases_deterministic_across_jobs(capsys, cache_dir):
    """Byte-identical bodies whatever the worker count or repetition."""
    runs = []
    for jobs in ("1", "2", "1"):
        code, out, err = run(capsys, ["verify-cases", "--primes", "5,7",
                                      "--cache-dir", cache_dir,
                                      "--jobs", jobs])
        assert code == 0
        runs.append(strip_times(out))
    assert runs[0] == runs[1] == runs[2]


def test_verify_cases_sampled_deterministic(capsys, cache_dir):
    argv = ["verify-cases", "--primes", "13", "--mode", "sampled",
            "--count", "40", "--seed", "7", "--cache-dir", cache_dir]
    code, first, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(first)["manifest"]["seed"] == 7
    code, second, _ = run(capsys, argv)
    assert strip_times(first) == strip_times(second)


@pytest.mark.parametrize("argv", [["enumerate", "--p", "5"],
                                  ["genus", "--n-max", "3"]])
def test_manifest_seed_is_null_where_nothing_reads_it(capsys, argv):
    code, out, _ = run(capsys, argv + ["--seed", "9"])
    assert code == 0
    assert json.loads(out)["manifest"]["seed"] is None


def test_manifest_seed_is_the_one_read(capsys):
    argv = ["enumerate", "--p", "5", "--mode", "sampled", "--count", "3"]
    for extra, seed in (([], 0), (["--seed", "9"], 9)):
        code, out, _ = run(capsys, argv + extra)
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == seed


def test_verify_cases_rejections(capsys):
    code, _, err = run(capsys, ["verify-cases", "--primes", "4"])
    assert code == 2 and "not prime" in err
    code, _, err = run(capsys, ["verify-cases", "--primes", "13",
                                "--mode", "sampled"])
    assert code == 2 and "--count" in err
    code, _, err = run(capsys, ["verify-cases", "--primes", "5",
                                "--count", "10"])
    assert code == 2 and "sampled" in err
    code, _, err = run(capsys, ["verify-cases", "--primes", ""])
    assert code == 2
    code, _, err = run(capsys, ["verify-cases", "--primes", "5",
                                "--jobs", "0"])
    assert code == 2 and "--jobs" in err


def test_verify_cases_violation_exits_1(capsys, monkeypatch):
    """A sweep that finds a violation must report verdict fail and exit 1.

    No subgroup actually violates the divisibility, so fabricate one
    sweep result to exercise the reporting path.
    """
    def fake_task(task):
        p = task[0]
        return p, [{"p": p, "subgroup_id": 0, "class": "Borel",
                    "det_index": 1, "orbit_sizes": [4],
                    "verdict": "violation", "violation_vector": 6,
                    "violation_orbit_size": 4, "d0": 1,
                    "corollary_divisor": 8, "corollary_holds": False}]

    monkeypatch.setattr(cli, "_case_task", fake_task)
    code, out, err = run(capsys, ["verify-cases", "--primes", "5",
                                  "--jobs", "1"])
    assert code == 1
    doc = json.loads(out)
    assert doc["manifest"]["verdict"] == "fail"
    assert doc["report"]["total_violations"] == 1


def test_unclassifiable_exits_1(capsys, monkeypatch):
    def explode(task):
        raise gl2.UnclassifiableSubgroupError(
            gl2.standard_subgroups(5)["borel"])

    monkeypatch.setattr(cli, "_case_task", explode)
    code, out, err = run(capsys, ["verify-cases", "--primes", "5",
                                  "--jobs", "1"])
    assert code == 1
    assert "verification failure" in err


def test_internal_failures_exit_1(capsys, monkeypatch):
    """A broken internal invariant is a verification failure, not bad
    input: exit 1 with a one-line message."""
    def not_closed(N):
        # the identity and one unipotent: the square is missing
        keys = np.array([gl2.pack(N.p, 1, 0, 0, 1), gl2.pack(N.p, 1, 1, 0, 1)])
        return [keys] * (N.p + 1)

    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_pointwise_stabilizers", not_closed)
        code, out, err = run(capsys, ["verify-lemmas", "--p-max", "5",
                                      "--jobs", "1"])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["verification failure: the keys are not "
                                "closed under multiplication"]
    # with no prime factor to test, every residue passes for a root
    monkeypatch.setattr(gl2, "factorize", lambda n: ((1, 1),))
    code, out, err = run(capsys, ["classify", "--p", "5",
                                  "--subgroup", "borel"])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["verification failure: no primitive root "
                                "mod 5 found"]


def test_verify_lemmas(capsys):
    code, out, err = run(capsys, ["verify-lemmas", "--p-max", "13",
                                  "--jobs", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["verdict"] == "pass"
    rep = doc["report"]
    assert rep["primes"] == [3, 5, 7, 11, 13]
    entry = rep["rows"][1]
    assert entry["p"] == 5
    assert len(entry["split_lines"]) == 6  # p + 1 lines
    assert entry["nonsplit"]["max_order"] <= 2


def test_verify_lemmas_csv_and_rejections(capsys):
    code, out, err = run(capsys, ["verify-lemmas", "--p-max", "5",
                                  "--format", "csv", "--jobs", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,check,detail,verdict"
    assert sum(1 for l in lines if l.startswith("3,split-line")) == 4
    code, _, err = run(capsys, ["verify-lemmas", "--p-max", "2"])
    # the default --p-min is named, as no --p-min was given
    assert code == 2 and "--p-min 3" in err
    assert run(capsys, ["verify-lemmas", "--p-min", "11",
                        "--p-max", "7"])[0] == 2


# ---------------------------------------------------------------------------
# density / ew / bepsilon / cm
# ---------------------------------------------------------------------------

def write_spec(tmp_path, clauses):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"clauses": clauses}))
    return str(path)


def test_density_spec_file(capsys, tmp_path):
    path = write_spec(tmp_path, [{"kind": "divisor", "m": 2},
                                 {"kind": "prime-shift", "c": 1, "C": 1}])
    code, out, err = run(capsys, ["density", "--spec-file", path,
                                  "--x", "1000"])
    assert code == 0
    rep = body(out)
    assert rep["density"] == "1/2"
    # clause echo round-trips through the same loader
    spec = families.IntegerSetSpec((families.DivClause(2),
                                    families.PrimeShiftClause(1, 1)))
    assert rep["clauses"] == spec.describe()


def test_density_malformed_inputs(capsys, tmp_path):
    path = write_spec(tmp_path, [{"kind": "divisor"}])
    code, _, err = run(capsys, ["density", "--spec-file", path, "--x", "10"])
    assert code == 2 and path in err and "'m'" in err

    path = write_spec(tmp_path, [{"kind": "waffle", "m": 3}])
    code, _, err = run(capsys, ["density", "--spec-file", path, "--x", "10"])
    assert code == 2 and "waffle" in err

    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, ["density", "--spec-file", str(bad),
                                "--x", "10"])
    assert code == 2 and "broken.json" in err

    code, _, err = run(capsys, ["density",
                                "--spec-file", str(tmp_path / "gone.json"),
                                "--x", "10"])
    assert code == 2 and "gone.json" in err

    empty = write_spec(tmp_path, [])
    assert run(capsys, ["density", "--spec-file", empty, "--x", "10"])[0] == 2


def test_ew_refuses_sieving_primes_past_the_bound(capsys):
    # c(2) x + 1 = 5e15, so the sieving primes would reach 7e7
    code, out, err = run(capsys, ["ew", "--c", "501645312000",
                                  "--cutoff", "0", "--x", "10000"])
    assert code == 2 and out == ""
    assert "sieving primes" in err and "supported bound" in err


def test_ew_matches_library(capsys):
    code, out, err = run(capsys, ["ew", "--c", "2", "--cutoff", "4",
                                  "--x", "100"])
    assert code == 0
    _, report = families.erdos_wagstaff_set(2, 4, 100)
    assert body(out)["count"] == report.count
    assert body(out)["density"] == \
        f"{report.density.numerator}/{report.density.denominator}"


def test_bepsilon_cm_profile(capsys):
    code, out, err = run(capsys, ["bepsilon", "--cm-g", "1",
                                  "--epsilon", "1/2", "--x", "10000"])
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["verdict"] == "pass"
    rep = doc["report"]
    result = families.b_epsilon_procedure(
        cmbounds.cm_profile(1), __import__("fractions").Fraction(1, 2),
        10000)
    assert rep["C"] == result.C
    assert rep["L"] == result.L
    assert rep["N"] == result.N
    assert rep["n_map_prime_count"] == len(result.n_map)
    assert rep["n_map_truncated"] == (len(result.n_map) > 200)
    assert len(rep["n_map"]) == min(200, len(result.n_map))
    assert rep["n_map"][0] == [2, result.n_map[2]]
    dens = rep["excluded_density"].split("/")
    assert int(dens[0]) * 2 <= int(dens[1])  # certified against epsilon


def test_bepsilon_profile_file(capsys, tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"p2_c": 2,
                                "p1_rule": {"kind": "shift", "offset": 1}}))
    code, out, err = run(capsys, ["bepsilon", "--profile", str(path),
                                  "--epsilon", "1/2", "--x", "1000"])
    assert code == 0
    assert body(out)["profile"]["file"] == str(path)
    assert body(out)["B_eps"]["decimal"] is not None


def test_bepsilon_profile_file_refuses_fields_it_does_not_read(capsys,
                                                               tmp_path):
    path = tmp_path / "merelian.json"
    path.write_text(json.dumps({"p2_c": 2,
                                "p1_rule": {"kind": "shift", "offset": 1},
                                "merelian_B": {"kind": "linear",
                                               "coeff": 50}}))
    code, out, err = run(capsys, ["bepsilon", "--profile", str(path),
                                  "--epsilon", "1/2", "--x", "1000"])
    assert code == 2 and out == ""
    assert str(path) in err and "'merelian_B'" in err


@pytest.mark.parametrize("bad", [2.7, True, "2"],
                         ids=["float", "bool", "string"])
def test_json_numbers_that_are_not_integers_exit_2(capsys, tmp_path, bad):
    # each is named with its file and field, never truncated to an int
    spec = write_spec(tmp_path, [{"kind": "divisor", "m": bad}])
    code, out, err = run(capsys, ["density", "--spec-file", spec,
                                  "--x", "10"])
    assert code == 2 and out == ""
    assert spec in err and "field 'm' must be an integer" in err
    profile = tmp_path / "prof.json"
    for data, field in (
            ({"p2_c": bad, "p1_rule": {"kind": "shift", "offset": 1}},
             "p2_c"),
            ({"p2_c": 2, "p1_rule": {"kind": "shift", "offset": bad}},
             "offset")):
        profile.write_text(json.dumps(data))
        code, out, err = run(capsys, ["bepsilon", "--profile", str(profile),
                                      "--epsilon", "1/2", "--x", "100"])
        assert code == 2 and out == ""
        assert str(profile) in err
        assert f"field '{field}' must be an integer" in err


def test_bepsilon_rejections(capsys, tmp_path):
    code, _, err = run(capsys, ["bepsilon", "--epsilon", "1/2"])
    assert code == 2 and "--profile" in err
    code, _, err = run(capsys, ["bepsilon", "--cm-g", "1",
                                "--epsilon", "zebra"])
    assert code == 2 and "rational" in err
    code, _, err = run(capsys, ["bepsilon", "--cm-g", "1",
                                "--epsilon", "3/2", "--x", "100"])
    assert code == 2
    code, _, err = run(capsys, ["bepsilon", "--cm-g", "1",
                                "--epsilon", "1/2", "--format", "csv"])
    assert code == 2 and "CSV" in err
    bad = tmp_path / "prof.json"
    bad.write_text(json.dumps({"p1_rule": {"kind": "shift", "offset": 1}}))
    code, _, err = run(capsys, ["bepsilon", "--profile", str(bad),
                                "--epsilon", "1/2", "--x", "100"])
    assert code == 2 and "prof.json" in err
    bad.write_text(json.dumps({"p2_c": 1, "p1_rule": 5}))
    code, _, err = run(capsys, ["bepsilon", "--profile", str(bad),
                                "--epsilon", "1/2", "--x", "100"])
    assert code == 2 and "p1_rule kind" in err


def test_bepsilon_past_its_bounds_is_refused(capsys):
    # x is capped at MAX_SIEVE; at g = 2, c(2) x + 1 = 5e15 at x = 10^4
    # would sieve by the primes up to 7e7
    code, out, err = run(capsys, ["bepsilon", "--cm-g", "1",
                                  "--epsilon", "1/2", "--x", "200000001"])
    assert code == 2 and out == ""
    assert "supported bound" in err and "MAX_SIEVE" in err
    code, out, err = run(capsys, ["bepsilon", "--cm-g", "2",
                                  "--epsilon", "1/2", "--x", "10000"])
    assert code == 2 and out == ""
    assert "supported bound" in err and "sieving primes" in err
    assert "MAX_SIEVING_PRIME = 1048576" in err


# the last line of stderr lists which of the audited modules are loaded
_IMPORT_AUDIT = """
import sys
started = set(sys.modules)  # what the interpreter's start-up loaded
from torsiondeg import cli
at_map = []  # the torsiondeg modules held each time _parallel_map is entered
parallel_map = cli._parallel_map
def watched(*args):
    at_map.append(sorted(m for m in sys.modules if m.startswith("torsiondeg.")))
    return parallel_map(*args)
cli._parallel_map = watched
code = cli.main(sys.argv[1:])
modules = sorted(sys.modules)  # before the audit's own json
import json
print(json.dumps({"code": code, "modules": modules,
                  "loaded": sorted(set(modules) - started),
                  "at_map": at_map}), file=sys.stderr)
"""


def _import_audit(tmp_path, *argv):
    """Run one command in a fresh interpreter: what it imported, and what
    it held when it entered cli._parallel_map."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _IMPORT_AUDIT, *argv],
                         env=env, cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    audit = json.loads(out.stderr.strip().splitlines()[-1])
    assert audit["code"] == 0, (argv, audit["code"])
    audit["layers"] = {m.removeprefix("torsiondeg.")
                       for m in audit["modules"]
                       if m.startswith("torsiondeg.")}
    return audit


# runs the CLI as `python -m torsiondeg.cli` does, then reports on stderr
# the threads of the process at exit and the OpenBLAS setting it ran with
_THREAD_AUDIT = """
import atexit
import json
import os
import runpy
import sys
def report():
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status
                       if line.startswith("Threads:"))
    print(json.dumps({"threads": threads, "numpy": "numpy" in sys.modules,
                      "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}),
          file=sys.stderr)
atexit.register(report)
sys.argv[0] = "torsiondeg.cli"
runpy.run_module("torsiondeg.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the thread count from /proc")
def test_cli_process_runs_one_blas_thread(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])
    audits = []
    for preset in (None, "2"):
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", _THREAD_AUDIT,
                              "enumerate", "--p", "2"], env=env,
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        audits.append(json.loads(out.stderr.strip().splitlines()[-1]))
    default, preset = audits
    assert default == {"threads": 1, "numpy": True, "openblas": "1"}
    # a value the user set is kept
    assert preset["numpy"] and preset["openblas"] == "2"


def test_serial_commands_load_neither_openssl_nor_the_pool(tmp_path):
    # each command imports only the layers it runs
    for argv in (["--version"], ["cm", "--g", "1", "--d", "16"],
                 ["genus", "--n-max", "3"]):
        audit = _import_audit(tmp_path, *argv)
        assert "numpy" not in audit["modules"], argv
    # a bare start loads none of the modules that only a report needs
    # (a site hook of the interpreter may load some before cli does)
    version = _import_audit(tmp_path, "--version")
    assert not {"csv", "dataclasses", "fractions", "json", "pathlib",
                "typing"} & set(version["loaded"])
    bepsilon = _import_audit(tmp_path, "bepsilon", "--cm-g", "1", "--x",
                             "1000", "--epsilon", "1/2")
    assert not bepsilon["layers"] & {"gl2", "orbits", "_enumeration",
                                     "curvedeg"}
    cases = _import_audit(tmp_path, "verify-cases", "--primes", "5",
                          "--jobs", "1")
    assert not cases["layers"] & {"families", "cmbounds"}
    # hashlib would map OpenSSL's libcrypto for two blake2b calls, and the
    # process pool is needed only when a pool is made
    for audit, expected in ((bepsilon, []), (cases, ["_blake2"])):
        assert [name for name in ("_blake2", "_hashlib", "multiprocessing",
                                  "concurrent.futures.process")
                if name in audit["modules"]] == expected
    # the parent loads what the pool workers run before it forks, or each
    # worker imports numpy, gl2 and orbits again on its own
    lemmas = _import_audit(tmp_path, "verify-lemmas", "--p-max", "7",
                           "--jobs", "1")
    for audit in (cases, lemmas):
        (held,) = audit["at_map"]
        assert {"torsiondeg.gl2", "torsiondeg.orbits"} <= set(held)
        assert not {"torsiondeg.families", "torsiondeg.cmbounds",
                    "torsiondeg.curvedeg"} & set(held)


def test_cm_report(capsys):
    code, out, err = run(capsys, ["cm", "--g", "1", "--d", "1"])
    assert code == 0
    rep = body(out)
    assert rep["H"]["decimal"] == "24"
    assert rep["M"]["decimal"] == "12"
    assert rep["c"]["decimal"] == "144"
    assert rep["allowed_exponents"] == cmbounds.allowed_exponents(1, 1)
    table = dict(map(tuple, rep["p1_exponents_N1"]))
    assert table[2] == 6 and table[3] == 4 and table[7] == 2
    # table is sorted numerically, not lexically
    primes = [p for p, _ in rep["p1_exponents_N1"]]
    assert primes == sorted(primes)


def test_cm_rejections(capsys):
    assert run(capsys, ["cm", "--g", "0"])[0] == 2
    code, _, err = run(capsys, ["cm", "--g", "1", "--d", "0"])
    assert code == 2
    code, _, err = run(capsys, ["cm", "--g", "2", "--d", "1"])
    assert code == 2 and "limit" in err  # preimage sweep over budget
    code, _, err = run(capsys, ["cm", "--g", "1", "--format", "csv"])
    assert code == 2 and "CSV" in err


def test_cm_deterministic(capsys):
    code, first, _ = run(capsys, ["cm", "--g", "1"])
    code, second, _ = run(capsys, ["cm", "--g", "1"])
    assert strip_times(first) == strip_times(second)
