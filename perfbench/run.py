"""Benchmark of the torsiondeg CLI: time to a verified report.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One driver process runs the workload's
commands one at a time, each in a fresh `python -m torsiondeg.cli`
process with the checkout's `src` on the path (a closed loop with one
client), and checks every report.  With `--trace 0` it makes at least
two passes over the command list, and more while the next one should end
within `--seconds`, and prints the end-to-end metrics; with `--trace 1`
it runs the list once untraced and once under `tracer.py` at `--jobs 1`
and prints the per-layer metrics.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  See README.md for the
metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import ops
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 7
MIN_PASSES = 2  # every workload needs a rerun
RUN_LIMIT_S = 165  # a run must end within 180 s, even if a command hangs

FUNCTION_TIMES = (
    "gl2.vector_orbits", "gl2.classify",
    "orbits.verify_case_divisibility",
    "orbits.verify_split_pointwise_stabilizers",
    "orbits.verify_nonsplit_pointwise_stabilizers",
    "families.find_cutoff_C", "families.density_upto",
    "families.b_epsilon_procedure",
    "arith.primes_array", "arith.phi_preimage_divisors",
    "cmbounds.allowed_exponents", "cli.main",
)
LAYER_NAMES = ("gl2", "orbits", "families", "arith", "cmbounds", "cli")


class Run:
    """The ops of one benchmark run, their checks and the time left."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.outcomes = []  # (op, Outcome) in the order run
        self.bodies = {}  # op name -> first digest seen
        self.timed_out = False

    def run_list(self, w, jobs: int, traced: bool = False):
        if w.scratch is not None:
            shutil.rmtree(w.scratch, ignore_errors=True)
        done = []
        for op in w.ops:
            left = self.deadline - perf_counter()
            if left <= 0:
                self.timed_out = True
                break
            out = self.workdir / f"op{len(self.outcomes):03d}.out"
            o = ops.run_op(ROOT, op, jobs, out, left, traced)
            self.record(op, o)
            print(f"  {op.name:<16} jobs={jobs} traced={int(traced)} "
                  f"{o.wall_s:8.3f} s {o.rss_mb:7.1f} MB  "
                  f"{o.problem or 'ok'}", flush=True)
            done.append((op, o))
        return done

    def record(self, op, o):
        """Keep `o`, failing it if its body differs from an earlier run of
        the same op."""
        if o.problem is None:
            first = self.bodies.setdefault(op.name, o.digest)
            if first != o.digest:
                o.problem = "body differs from an earlier run of " + op.name
        self.outcomes.append((op, o))


def bare_start(run: Run, i: int) -> float:
    out = run.workdir / f"start{i:02d}.out"
    wall, code, _ = ops.spawn(ROOT, ["-m", "torsiondeg.cli", "--version"],
                              out, run.deadline - perf_counter())
    if code != 0:
        raise SystemExit(f"torsiondeg --version exited {code}")
    return wall


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_pass(passes) -> float:
    """One pass with each command at its median over the passes."""
    return sum(statistics.median(col) for col in zip(*passes))


def end_to_end(run: Run, w, seconds: int, prep_s: float):
    starts = [bare_start(run, i) for i in range(SETUP_STARTS + 1)][1:]
    setup_s = statistics.median(starts) + prep_s
    passes, reruns, peak = [], [], 0.0
    t0 = perf_counter()
    while not run.timed_out:
        done = run.run_list(w, w.jobs)
        if len(done) < len(w.ops):
            break
        # A census pass starts from an empty cache, so only its cached
        # commands repeat an earlier one in the same state.
        reruns.append([o.wall_s for op, o in done
                       if (op.cached if w.scratch else passes)])
        passes.append([o.wall_s for _, o in done])
        peak = max([peak] + [o.rss_mb for _, o in done])
        end = perf_counter() + sum(passes[-1])
        if (len(passes) >= MIN_PASSES and end - t0 > seconds
                or end > run.deadline):
            break
    metrics = {
        "wall_s": metric(median_pass(passes), "s"),
        "peak_rss_mb": metric(peak, "MB"),
        "setup_s": metric(setup_s, "s"),
        "rerun_s": metric(median_pass([r for r in reruns if r]), "s"),
    }
    samples = {"wall_s": len(passes), "rerun_s": sum(map(len, reruns)),
               "setup_s": len(starts), "peak_rss_mb": len(run.outcomes)}
    return metrics, samples


def _sum_fn(traces, name, key="self_s"):
    start = 0 if key == "calls" else 0.0
    return sum((t["functions"].get(name, {}).get(key, 0) for t in traces),
               start)


def per_layer(run: Run, w):
    timed = run.run_list(w, w.jobs)
    base = timed if w.jobs == 1 else run.run_list(w, 1)
    traced = run.run_list(w, 1, traced=True)
    if any(o.trace is None for _, o in traced) or len(traced) < len(w.ops):
        return {}, {}
    traces = [o.trace for _, o in traced]
    cold = [o.trace for op, o in traced if not op.cached]
    cached = [o.trace for op, o in traced if op.cached]
    count = {}
    for t in traces:
        for k, v in t["counters"].items():
            count[k] = count.get(k, 0) + v

    def layer(name, key):
        return [t["layers"].get(name, {}).get(key, 0.0) for t in traces]

    m = {}
    for name in LAYER_NAMES:
        m[f"{name}.self_s"] = metric(sum(layer(name, "self_s")), "s")
    for name in FUNCTION_TIMES:
        m[f"{name}.s"] = metric(_sum_fn(traces, name), "s")
    m["gl2.enumerate_subgroups.s"] = metric(
        _sum_fn(cold, "gl2.enumerate_subgroups"), "s")
    m["gl2.enumerate_subgroups.cached_s"] = metric(
        _sum_fn(cached, "gl2.enumerate_subgroups"), "s")
    m["gl2.classes"] = metric(count.get("gl2.classes", 0), "count")
    drawn = count.get("gl2.pairs_drawn", 0)
    m["gl2.distinct_ratio"] = metric(
        count.get("gl2.sampled_classes", 0) / drawn if drawn else 0.0,
        "ratio")
    m["orbits.lines"] = metric(count.get("orbits.lines", 0), "count")
    m["orbits.cases"] = metric(count.get("orbits.cases", 0), "count")
    bodies = [o.body for _, o in traced]
    m["families.primes_le_L"] = metric(
        sum(b.get("n_map_prime_count", 0) for b in bodies), "count")
    m["families.union_N"] = metric(
        sum(b["N"] for b in bodies if "n_map_prime_count" in b)
        + sum(c["N"] for b in bodies for c in b.get("clauses", ())
              if c["kind"] == "prime-power-div"), "count")
    for name in ("families", "arith"):
        m[f"{name}.rss_rise_mb"] = metric(
            max(layer(name, "rss_rise_kb")) / 1024, "MB")
    m["arith.primes_array.calls"] = metric(
        _sum_fn(traces, "arith.primes_array", "calls"), "count")
    m["arith.sieved_n"] = metric(count.get("arith.sieved_n", 0), "count")
    scanned = count.get("arith.phi_scanned_n", 0)
    m["arith.phi_scanned_n"] = metric(scanned, "count")
    m["arith.phi_hit_ratio"] = metric(
        count.get("arith.phi_hits", 0) / scanned if scanned else 0.0, "ratio")
    m["trace.overhead_ratio"] = metric(
        sum(o.wall_s for _, o in traced) / sum(o.wall_s for _, o in base),
        "ratio")
    root = _sum_fn(traces, "cli.main", "total_s")
    shares = sorted(((m[f"{n}.self_s"]["value"] / root, n)
                     for n in LAYER_NAMES), reverse=True)
    extra = {"cli_main_total_s": root,
             "layer_shares": {n: round(s, 4) for s, n in shares},
             "dominant_layer": shares[0][1],
             "dominant_layer_by_command": {
                 op.name: max(o.trace["layers"].items(),
                              key=lambda kv: kv[1]["self_s"])[0]
                 for op, o in traced}}
    return m, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "torsiondeg" / "cli.py").is_file():
        print(f"error: no torsiondeg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = perf_counter()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg_before": os.getloadavg(),
    }
    try:
        run = Run(workdir, started + RUN_LIMIT_S)
        t0 = perf_counter()
        w = workloads.build(args.workload, args.seed, workdir)
        prep_s = perf_counter() - t0
        record["inputs"] = w.inputs
        record["commands"] = [" ".join(op.args) for op in w.ops]
        if args.trace:
            metrics, extra = per_layer(run, w)
        else:
            metrics, extra = end_to_end(run, w, args.seconds, prep_s)
            extra = {"samples": extra}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    record.update(extra)

    failed = sum(o.problem is not None for _, o in run.outcomes)
    attempted = len(run.outcomes)
    if attempted == 0:  # ran out of time before the first command
        attempted = failed = 1
    correct = failed == 0 and not run.timed_out and bool(metrics)
    for name, mv in metrics.items():
        print(f"{name:<46} {mv['value']:>14.6g} {mv['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
