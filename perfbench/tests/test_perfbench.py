"""Tests of the benchmark's own logic: the output check, the failure
accounting, the seeded inputs and the span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


@pytest.fixture
def workdir():
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tests-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _genus(workdir, digest=None):
    op = Op("genus", ("genus", "--n-max", "6"), "report-only", digest)
    return op, ops.run_op(ROOT, op, 1, workdir / "genus.out", 60)


def test_reference_body_passes_and_tampered_body_fails(workdir):
    op, first = _genus(workdir)
    assert first.problem is None
    op = Op(op.name, op.args, op.verdict, first.digest)
    text = (workdir / "genus.out").read_text(encoding="utf-8")
    assert ops.check(op, 0, text)[2] is None

    doc = json.loads(text)
    doc["report"]["rows"][-1]["genus"] += 1
    problem = ops.check(op, 0, json.dumps(doc))[2]
    assert problem and "digest" in problem


def test_manifest_is_not_compared(workdir):
    op, first = _genus(workdir)
    op = Op(op.name, op.args, op.verdict, first.digest)
    doc = json.loads((workdir / "genus.out").read_text(encoding="utf-8"))
    doc["manifest"]["started"] = "1970-01-01T00:00:00Z"
    assert ops.check(op, 0, json.dumps(doc))[2] is None


def test_wrong_exit_code_fails(workdir):
    op = Op("cm", ("cm", "--g", "0"), "report-only")
    out = ops.run_op(ROOT, op, 1, workdir / "bad.out", 60)
    assert out.code == 2
    assert out.problem.startswith("exit code 2")
    assert ops.check(op, 1, "{}")[2] == "exit code 1"


def test_wrong_verdict_and_violations_fail():
    op = Op("sweep", ("verify-cases",), "pass")
    doc = {"manifest": {"verdict": "fail"},
           "report": {"total_violations": 1}}
    assert "verdict" in ops.check(op, 0, json.dumps(doc))[2]
    doc["manifest"]["verdict"] = "pass"
    assert "violations" in ops.check(op, 0, json.dumps(doc))[2]


def test_changed_body_of_a_repeated_command_fails(workdir):
    r = run.Run(workdir, perf_counter() + 60)
    op = Op("density", ("density",), "report-only")
    outcomes = [ops.Outcome(1.0, 1.0, 0, {}, d, None)
                for d in ("aa", "aa", "bb")]
    for o in outcomes:
        r.record(op, o)
    assert [o.problem is None for o in outcomes] == [True, True, False]


def test_same_seed_same_inputs(workdir):
    for name in workloads.NAMES:
        built = []
        for sub in ("a", "b"):
            d = workdir / name / sub
            d.mkdir(parents=True)
            w = workloads.build(name, 7, d)
            built.append((
                [tuple(a.replace(str(d), "<dir>") for a in op.args)
                 for op in w.ops],
                w.inputs,
                sorted(f.read_bytes() for f in d.iterdir() if f.is_file())))
        assert built[0] == built[1]
    assert workloads.density_spec(7) == workloads.density_spec(7)
    assert workloads.density_spec(7) != workloads.density_spec(8)


def test_layer_self_times_sum_to_the_root_span(workdir):
    op = Op("bepsilon", ("bepsilon", "--cm-g", "1", "--x", "20000",
                         "--epsilon", "1/2"), "pass")
    out = ops.run_op(ROOT, op, 1, workdir / "traced.out", 60, traced=True)
    assert out.problem is None
    t = out.trace
    root = t["functions"]["cli.main"]["total_s"]
    layers = sum(v["self_s"] for v in t["layers"].values())
    functions = sum(v["self_s"] for v in t["functions"].values())
    assert math.isclose(layers, root, rel_tol=1e-9)
    assert math.isclose(functions, root, rel_tol=1e-9)
    # families looks up its imported alias of arith.primes_array
    assert t["functions"]["arith.primes_array"]["calls"] >= 2
    assert t["counters"]["arith.sieved_n"] > 0


def test_without_sources_it_exits_nonzero_and_prints_no_result(workdir):
    shutil.copytree(BENCH, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
