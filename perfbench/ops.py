"""Run one CLI command in a fresh process and check what it reported."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

TRACER = Path(__file__).resolve().parent / "tracer.py"


@dataclass
class Outcome:
    """What one command did.  `problem` is None when it passed every check."""

    wall_s: float
    rss_mb: float  # this process's max RSS, or a pool worker's if larger
    code: int
    body: dict | None
    digest: str | None
    problem: str | None
    trace: dict | None = None


def body_digest(body) -> str:
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spawn(root: Path, argv, stdout: Path, timeout: float):
    """Run `python argv...` with the checkout's `src` on the path.

    Returns (wall seconds, exit code, max RSS in MB).  The max RSS comes
    from wait4 on this child alone; RUSAGE_CHILDREN would be the maximum
    over every child reaped so far.  A child still running after
    `timeout` seconds is killed with its process group.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    err = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(err, "wb") as errfh:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=errfh, env=env, cwd=root,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, code, usage.ru_maxrss / 1024


def check(op, code: int, text: str):
    """(body, digest, problem) for one command's exit code and output.

    Only the report body is compared: the manifest carries timestamps.
    """
    if code != 0:
        return None, None, f"exit code {code}"
    try:
        doc = json.loads(text)
        verdict, body = doc["manifest"]["verdict"], doc["report"]
    except (ValueError, KeyError, TypeError):
        return None, None, "no readable report"
    digest = body_digest(body)
    if verdict != op.verdict:
        return body, digest, f"verdict {verdict!r}, expected {op.verdict!r}"
    if op.digest is not None and digest != op.digest:
        return body, digest, f"report body digest {digest} is not the reference"
    if body.get("total_violations", 0) != 0:
        return body, digest, f"{body['total_violations']} violations"
    if "density" in body and "count" in body and "x" in body:
        fr = Fraction(body["count"], body["x"])
        if body["density"] != f"{fr.numerator}/{fr.denominator}":
            return body, digest, "density is not count/x"
    return body, digest, None


def run_op(root: Path, op, jobs: int, out: Path, timeout: float,
           traced: bool = False) -> Outcome:
    args = [*op.args, "--jobs", str(jobs)]
    trace_path = out.with_suffix(".trace.json")
    if traced:
        argv = [str(TRACER), str(trace_path), *args]
    else:
        argv = ["-m", "torsiondeg.cli", *args]
    wall, code, rss = spawn(root, argv, out, timeout)
    body, digest, problem = check(op, code, out.read_text(encoding="utf-8"))
    if problem is not None and code != 0:
        err = out.with_suffix(".err").read_text(encoding="utf-8").strip()
        if err:
            problem += ": " + err.splitlines()[-1]
    trace = None
    if traced and problem is None:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return Outcome(wall, rss, code, body, digest, problem, trace)
