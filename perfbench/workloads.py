"""The benchmark's workloads: the CLI commands each one runs, the inputs it
derives from the seed, and what each command must report.

A run makes at least two passes over a workload's commands.  A command
that repeats one already run in the same state is a rerun: on `census`
each pass starts from an empty enumeration cache, so only the three
commands served from that cache are reruns; the other commands have no
cache, so every command of a later pass is a rerun and a full recompute.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("census", "sweeps", "budget", "cm-density")

SWEEP_PRIMES = "53,59,61,67,71,73,79,83,89,97"
BUDGET_EPSILONS = ("1/2", "1/10", "1/100")

# sha256 of the canonical report body (see ops.body_digest) of each
# command whose inputs do not depend on the seed.
DIGESTS = {
    "census":
        "4f83f2b192411334631d416d5c65b1e005a7141e1cacbcb3f2d36b9e2ce082d6",
    "sampled":
        "648a9b6b08414c860f0d2f81c5f81c66c04637058223ce3f1b93da0c55f2b15e",
    "lemmas":
        "bae58b34daafe6cb0600e67076a2bd0c4b379772a56ff6cf1ef7ffd8a19e3235",
    "bepsilon 1/2":
        "571e2e30be099ea4a9b4ef077a6278099555b8f7fc97da4fa25272f32116a201",
    "bepsilon 1/10":
        "98d8bd531484ae711812d70b498f8a1f556c445c8e7d8a02a88d1904639aadbb",
    "bepsilon 1/100":
        "f8b303864db3df94ce2d8a22cbf7ab470f53d4c59dfe7b4e2497a52f64c012fb",
    "cm":
        "d779074c465f60c532369f804d0ac0ea3e1b693a0ed36107d67ccf13b4b90c47",
}


@dataclass(frozen=True)
class Op:
    """One CLI command.  Ops that share a `name` compute the same report,
    so their bodies must be byte-identical."""

    name: str
    args: tuple[str, ...]  # after `torsiondeg`, without --jobs
    verdict: str
    digest: str | None = None  # expected body digest; None for seeded inputs
    cached: bool = False  # served from the enumeration cache


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    ops: tuple[Op, ...]
    inputs: dict = field(default_factory=dict)  # seed-derived, for the record
    scratch: Path | None = None  # emptied before each pass over `ops`


def _fixed(name, args, verdict, **kw) -> Op:
    return Op(name, tuple(args), verdict, DIGESTS[name], **kw)


def density_spec(seed: int) -> dict:
    """Three clauses whose cost does not depend on the draws: c and x are
    fixed, and m, C and L only move which degrees are marked."""
    rng = random.Random(seed)
    return {"clauses": [
        {"kind": "divisor", "m": rng.randint(2, 60)},
        {"kind": "prime-shift", "c": 6, "C": rng.randint(100, 5000)},
        {"kind": "prime-power-div", "N": rng.choice((2, 3)),
         "L": rng.randint(10 ** 3, 10 ** 4)},
    ]}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload `name` for `seed`, writing its input files to
    `workdir`.  The same seed always gives the same commands and files."""
    if name == "census":
        cache = workdir / "enumeration-cache"
        args = ("verify-cases", "--primes", "5,7,11", "--cache-dir",
                str(cache))
        cold = _fixed("census", args, "pass")
        warm = _fixed("census", args, "pass", cached=True)
        return Workload(name, 1, (cold, warm, warm, warm), scratch=cache)
    if name == "sweeps":
        # The sampled seed is fixed: which random pairs turn out to need a
        # materialized group moves the cost of this command by a factor of
        # two from one seed to the next (3.6 s to 7.7 s at --jobs 2 on a
        # 2-vCPU Xeon VM).
        sampled = ("verify-cases", "--mode", "sampled", "--count", "30",
                   "--seed", "0", "--primes", SWEEP_PRIMES)
        ops = (_fixed("sampled", sampled, "pass"),
               _fixed("lemmas", ("verify-lemmas", "--p-max", "61"), "pass"))
        return Workload(name, 2, ops)
    if name == "budget":
        ops = tuple(
            _fixed(f"bepsilon {e}", ("bepsilon", "--cm-g", "1", "--x",
                                     "1000000", "--epsilon", e), "pass")
            for e in BUDGET_EPSILONS)
        return Workload(name, 1, ops)
    if name == "cm-density":
        spec = density_spec(seed)
        path = workdir / "density-spec.json"
        path.write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
        density = ("density", "--x", "10000000", "--spec-file", str(path))
        ops = (_fixed("cm", ("cm", "--g", "1", "--d", "16"), "report-only"),
               Op("density", density, "report-only"))
        return Workload(name, 1, ops, {"density_spec": spec})
    raise ValueError(f"unknown workload {name!r}")
