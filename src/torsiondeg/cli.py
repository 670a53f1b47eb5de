"""Command-line surface: verification sweeps, report serialization, and
the worker pool for multi-prime runs.

Every command emits one report document.  JSON is canonical: a
`manifest` block (command, parameters, code version, seed, verdict,
wall-clock timestamps) plus a `report` body.  Bodies are deterministic —
two runs with the same command, parameters, seed, and code version are
byte-identical, whatever --jobs is; timestamps live only in the manifest
so a determinism check strips exactly two keys.  CSV is a lossy
projection for the tabular commands.

Only `arith` loads with this module: each handler imports the layers it
runs, so `cm`, `genus`, `degrees`, `semigroup` and `--version` start
without numpy.

Exit codes: 0 = pass or report-only, 1 = a verification failure
(a divisibility violation, an unclassifiable subgroup, a failed
certificate), 2 = usage or input errors.  Rationals are serialized as
"numerator/denominator" strings — no floats anywhere in a report.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import arith
from ._version import VERSION

# numpy's OpenBLAS starts a thread per core on import, but every array
# here holds integers and --jobs processes give the parallelism
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SCHEMA_VERSION = 1
N_MAP_PREVIEW = 200


class UsageError(Exception):
    """Bad flags or malformed inputs: reported on stderr, exit code 2."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _big_int(n: int) -> dict:
    """Decimal form of a possibly enormous integer, capped at 10^4 digits
    (beyond that only the size is reported)."""
    approx = n.bit_length() * 30103 // 100000 + 1
    if approx <= 10_000:
        if (hasattr(sys, "set_int_max_str_digits")
                and sys.get_int_max_str_digits() < 12_000):
            sys.set_int_max_str_digits(12_000)
        text = str(n)
        return {"decimal": text, "decimal_digits": len(text)}
    return {"decimal": None, "decimal_digits_estimate": approx,
            "bit_length": n.bit_length()}


# ---------------------------------------------------------------------------
# flag types: argparse rejects a bad value with a usage message, exit 2
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expects an integer >= {low}, got {text!r}")
        return value
    return parse


def _prime(text) -> int:
    try:
        p = int(text)
    except ValueError:
        p = 0
    if not arith.is_prime(p):
        raise argparse.ArgumentTypeError(f"{text} is not prime")
    return p


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}")
    return values


def _prime_list(text: str) -> list[int]:
    return sorted(set(map(_prime, _int_list(text))))


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from None


def _spec_from_file(path: str):
    from . import families

    try:
        return families.spec_from_dict(_load_json(path))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parallel_map(fn, tasks, jobs):
    jobs = jobs or os.cpu_count() or 1
    if jobs == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here: a serial run need not load the pool machinery
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))  # input order, schedule-free


# ---------------------------------------------------------------------------
# workers (module level so the process pool can pickle them)
# ---------------------------------------------------------------------------

def _case_task(task):
    from . import gl2, orbits

    p, mode, count, seed, ceiling, cache_dir = task
    groups = gl2.enumerate_subgroups(p, mode, count=count, seed=seed,
                                     ceiling=ceiling, cache_dir=cache_dir)
    return p, [orbits.verify_case_divisibility(G).as_dict() for G in groups]


def _lemma_task(p):
    from . import orbits

    split = [asdict(r) for r in orbits.verify_split_pointwise_stabilizers(p)]
    nonsplit = asdict(orbits.verify_nonsplit_pointwise_stabilizers(p))
    return p, split, nonsplit


# ---------------------------------------------------------------------------
# command handlers: return (parameters, body, verdict)
# ---------------------------------------------------------------------------

def _sampling(args):
    """(count, seed) for an enumeration.  The seed is read only in sampled
    mode, where it defaults to 0; `args.seed_read` keeps it for the
    manifest."""
    if args.mode == "exhaustive":
        if args.count is not None:
            raise UsageError("--count only applies to sampled mode")
        return None, None
    if args.count is None:
        raise UsageError("sampled mode needs --count")
    args.seed_read = 0 if args.seed is None else args.seed
    return args.count, args.seed_read


def _cmd_verify_cases(args):
    # loaded before _parallel_map forks, so no worker imports them anew
    from . import gl2, orbits  # noqa: F401

    count, seed = _sampling(args)
    params = {"primes": args.primes, "mode": args.mode, "count": count,
              "ceiling": args.ceiling}
    tasks = [(p, args.mode, count, seed, args.ceiling, args.cache_dir)
             for p in args.primes]
    results = _parallel_map(_case_task, tasks, args.jobs)
    sweeps = []
    total = violations = 0
    for p, rows in sorted(results):
        bad = sum(1 for r in rows if r["verdict"] == orbits.VIOLATION)
        sweeps.append({
            "p": p,
            "checked": len(rows),
            "violations": bad,
            "not_applicable": sum(1 for r in rows
                                  if r["verdict"] == orbits.NOT_APPLICABLE),
            "subgroups": rows,
        })
        total += len(rows)
        violations += bad
    body = {"mode": args.mode, "sweeps": sweeps,
            "total_checked": total, "total_violations": violations}
    return params, body, ("fail" if violations else "pass")


def _cmd_verify_lemmas(args):
    from . import orbits  # loads gl2 too, before _parallel_map forks

    if args.p_max < args.p_min:
        raise UsageError(
            f"--p-max {args.p_max} is below --p-min {args.p_min}")
    primes = [p for p in range(max(args.p_min, 3), args.p_max + 1)
              if p % 2 and arith.is_prime(p)]
    if not primes:
        raise UsageError(
            f"no odd primes in [{args.p_min}, {args.p_max}]")
    params = {"p_min": args.p_min, "p_max": args.p_max}
    results = _parallel_map(_lemma_task, primes, args.jobs)
    rows = []
    ok = True
    for p, split, nonsplit in sorted(results):
        verdicts = [r["verdict"] for r in split] + [nonsplit["verdict"]]
        ok &= all(v == orbits.PASS for v in verdicts)
        rows.append({"p": p, "split_lines": split, "nonsplit": nonsplit})
    body = {"primes": primes, "rows": rows}
    return params, body, ("pass" if ok else "fail")


def _analysis_body(G):
    from . import gl2

    return {
        "order": G.order,
        "dickson_class": gl2.classify(G).value,
        "projective_type": gl2.projective_type(G).value,
        "projective_order": G.projective_order,
        "det_index": gl2.det_index(G),
        "det_image_order": len(G.det_image),
        "contains_sl2": G.contains_sl2,
    }


def _cmd_classify(args):
    from . import gl2

    p = args.p
    if (args.subgroup is None) == (args.generators is None):
        raise UsageError("give exactly one of --subgroup or --generators")
    if args.subgroup is not None:
        named = gl2.standard_subgroups(p)
        if args.subgroup not in named:
            raise UsageError(
                f"--subgroup: unknown name {args.subgroup!r}; "
                f"choose from {', '.join(sorted(named))}")
        G = named[args.subgroup]
        source = {"subgroup": args.subgroup}
    else:
        G = gl2.close_generators(p, args.generators)
        source = {"generators": args.generators}
    params = {"p": p, **source}
    body = {"p": p, "source": source, **_analysis_body(G)}
    return params, body, "report-only"


def _cmd_enumerate(args):
    from . import gl2

    count, seed = _sampling(args)
    groups = gl2.enumerate_subgroups(
        args.p, args.mode, count=count, seed=seed,
        ceiling=args.ceiling, cache_dir=args.cache_dir)
    params = {"p": args.p, "mode": args.mode, "count": count,
              "ceiling": args.ceiling}
    rows = []
    histogram = {}
    for G in groups:
        label = gl2.classify(G).value
        histogram[label] = histogram.get(label, 0) + 1
        rows.append({
            "order": G.order,
            "dickson_class": label,
            "det_image_order": len(G.det_image),
            "materialized": G.is_materialized,
            "generators": [int(g) for g in G.generators],
        })
    body = {"p": args.p, "mode": args.mode, "class_count": len(groups),
            "class_histogram": sorted(histogram.items()),
            "classes": rows}
    return params, body, "report-only"


def _cmd_genus(args):
    from . import curvedeg

    params = {"n_max": args.n_max}
    rows = [{"N": N, "genus": curvedeg.genus_x1(N),
             "min_degree": curvedeg.min_guaranteed_degree(N)}
            for N in range(1, args.n_max + 1)]
    return params, {"n_max": args.n_max, "rows": rows}, "report-only"


def _cmd_degrees(args):
    from . import curvedeg

    spec = curvedeg.SemigroupSpec(tuple(args.generators))
    params = {"g": args.g, "generators": args.generators}
    body = {
        "g": args.g,
        "generators": list(spec.generators),
        "index": spec.index,
        "stable_bound": curvedeg.stable_bound(spec),
        "closed_point_threshold":
            curvedeg.closed_point_degree_threshold(args.g, spec),
        "rr_degree_bound_weierstrass":
            curvedeg.rr_degree_bound(args.g, weierstrass=True),
        "rr_degree_bound_general":
            curvedeg.rr_degree_bound(args.g, weierstrass=False),
    }
    return params, body, "report-only"


def _cmd_semigroup(args):
    from . import curvedeg

    spec = curvedeg.SemigroupSpec(tuple(args.generators))
    params = {"generators": args.generators, "target_max": args.target_max}
    rows = [{"target": t, "representable": curvedeg.representable(t, spec)}
            for t in range(args.target_max + 1)]
    body = {"generators": list(spec.generators), "index": spec.index,
            "stable_bound": curvedeg.stable_bound(spec),
            "target_max": args.target_max, "rows": rows}
    return params, body, "report-only"


def _cmd_density(args):
    from . import families

    spec = _spec_from_file(args.spec_file)
    params = {"spec_file": args.spec_file, "x": args.x}
    report = families.density_upto(spec, args.x)
    body = {"x": args.x, "count": report.count,
            "density": _frac(report.density),
            "clauses": spec.describe()}
    return params, body, "report-only"


def _cmd_ew(args):
    from . import families

    params = {"c": args.c, "cutoff": args.cutoff, "x": args.x}
    spec, report = families.erdos_wagstaff_set(args.c, args.cutoff, args.x)
    body = {"c": args.c, "cutoff": args.cutoff, "x": args.x,
            "count": report.count, "density": _frac(report.density),
            "clauses": spec.describe()}
    return params, body, "report-only"


def _profile_for_args(args):
    from . import cmbounds, families

    if (args.profile is None) == (args.cm_g is None):
        raise UsageError("give exactly one of --profile or --cm-g")
    if args.profile is not None:
        data = _load_json(args.profile)
        try:
            profile = families.profile_from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{args.profile}: {exc}") from None
        return profile, {"file": args.profile, **data}
    profile = cmbounds.cm_profile(args.cm_g)
    echo = {"family": "cm", "g": args.cm_g, "p2_c": _big_int(profile.p2_c),
            "dim_g": args.cm_g}
    return profile, echo


def _cmd_bepsilon(args):
    from . import families

    try:
        eps = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise UsageError(
            f"--epsilon expects a rational like 1/2 or 0.05, "
            f"got {args.epsilon!r}") from None
    profile, echo = _profile_for_args(args)
    params = {"profile": args.profile, "cm_g": args.cm_g,
              "epsilon": args.epsilon, "x": args.x}
    result = families.b_epsilon_procedure(profile, eps, args.x)
    preview = list(itertools.islice(result.n_map.items(), N_MAP_PREVIEW))
    if result.B_eps is not None:
        b_payload = _big_int(result.B_eps)
        b_payload["note"] = None
    else:
        b_payload = {"decimal": None, "note": result.B_eps_note}
    body = {
        "profile": echo,
        "epsilon": _frac(eps),
        "x": args.x,
        "C": result.C,
        "L": result.L,
        "N": result.N,
        "n_map_prime_count": len(result.n_map),
        "n_map": [[l, n] for l, n in preview],
        "n_map_truncated": len(result.n_map) > N_MAP_PREVIEW,
        "B_eps": b_payload,
        "excluded_clauses": result.excluded.describe(),
        "excluded_count": result.report.count,
        "excluded_density": _frac(result.report.density),
    }
    return params, body, "pass"


def _cmd_cm(args):
    from . import cmbounds

    bounds = cmbounds.c_of_g(args.g)
    params = {"g": args.g, "d": args.d}
    table_primes = sorted(set(arith.primes_upto(30))
                          | {p for p, _ in arith.factorize(bounds.c)})
    body = {
        "g": args.g,
        "H": _big_int(bounds.H),
        "M": _big_int(bounds.M),
        "c": _big_int(bounds.c),
        "p1_exponents_N1": [[p, cmbounds.cm_p1_exponent(args.g, p, 1)]
                            for p in table_primes],
    }
    if args.d is not None:
        body["d"] = args.d
        body["allowed_exponents"] = cmbounds.allowed_exponents(args.g, args.d)
    return params, body, "report-only"


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

def _lemma_records(body):
    for entry in body["rows"]:
        for r in entry["split_lines"]:
            yield {"p": entry["p"], "check": "split-line",
                   "detail": r["line_index"], "verdict": r["verdict"]}
        yield {"p": entry["p"], "check": "nonsplit-bound",
               "detail": entry["nonsplit"]["max_order"],
               "verdict": entry["nonsplit"]["verdict"]}


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, its argparse specs as (flags, kwargs)
    pairs, its handler, and its lossy CSV projection.  `csv` names the
    columns; `records` picks the body's rows as dicts, a list value
    becoming one `|`-joined cell.  Commands with no table have `csv=None`
    and are rejected under --format csv before they compute anything."""

    help: str
    args: tuple
    handler: Callable
    csv: tuple[str, ...] | None = None
    records: Callable = lambda body: [body]


def _arg(*flags, **spec):
    return flags, spec


_POSITIVE = _int_at_least(1)
_NONNEGATIVE = _int_at_least(0)
_SAMPLING_ARGS = (
    _arg("--mode", choices=("exhaustive", "sampled"), default="exhaustive"),
    _arg("--count", type=_POSITIVE, default=None,
         help="random subgroups per prime (sampled mode)"),
    _arg("--ceiling", type=int, default=11,
         help="largest prime accepted in exhaustive mode"),
    _arg("--cache-dir", default=None, help="directory for enumeration caches"),
)

COMMANDS = {
    "verify-cases": Command(
        "orbit-divisibility sweep over subgroup classes",
        (_arg("--primes", type=_prime_list, required=True,
              help="comma-separated primes to sweep"), *_SAMPLING_ARGS),
        _cmd_verify_cases,
        ("p", "subgroup_id", "class", "det_index", "verdict", "orbit_sizes"),
        lambda body: (r for s in body["sweeps"] for r in s["subgroups"])),
    "verify-lemmas": Command(
        "pointwise line-stabilizer checks",
        (_arg("--p-min", type=int, default=3),
         _arg("--p-max", type=int, required=True)),
        _cmd_verify_lemmas, ("p", "check", "detail", "verdict"),
        _lemma_records),
    "classify": Command(
        "classify one subgroup",
        (_arg("--p", type=_prime, required=True),
         _arg("--subgroup", default=None,
              help="a standard subgroup name (e.g. borel)"),
         _arg("--generators", type=_int_list, default=None,
              help="comma-separated packed matrix keys")),
        _cmd_classify,
        ("p", "order", "dickson_class", "projective_type", "projective_order",
         "det_index", "det_image_order", "contains_sl2")),
    "enumerate": Command(
        "list subgroup classes up to conjugacy",
        (_arg("--p", type=_prime, required=True), *_SAMPLING_ARGS),
        _cmd_enumerate,
        ("order", "dickson_class", "det_image_order", "materialized",
         "generators"),
        lambda body: body["classes"]),
    "genus": Command(
        "genus and guaranteed-degree table",
        (_arg("--n-max", type=_POSITIVE, required=True),),
        _cmd_genus, ("N", "genus", "min_degree"), lambda body: body["rows"]),
    "degrees": Command(
        "closed-point degree thresholds for one curve",
        (_arg("--g", type=_NONNEGATIVE, required=True, help="genus"),
         _arg("--generators", type=_int_list, required=True,
              help="comma-separated point degrees")),
        _cmd_degrees,
        ("g", "index", "stable_bound", "closed_point_threshold",
         "rr_degree_bound_weierstrass", "rr_degree_bound_general")),
    "semigroup": Command(
        "representability table of a numerical semigroup",
        (_arg("--generators", type=_int_list, required=True),
         _arg("--target-max", type=_NONNEGATIVE, default=50)),
        _cmd_semigroup, ("target", "representable"),
        lambda body: body["rows"]),
    "density": Command(
        "exact density of a clause-union degree set",
        (_arg("--spec-file", required=True,
              help="JSON file with a 'clauses' list"),
         _arg("--x", type=_POSITIVE, required=True)),
        _cmd_density, ("x", "count", "density")),
    "ew": Command(
        "shifted-prime degree set density",
        (_arg("--c", type=int, required=True),
         _arg("--cutoff", type=int, required=True, help="shift cutoff C"),
         _arg("--x", type=_POSITIVE, required=True)),
        _cmd_ew, ("c", "cutoff", "x", "count", "density")),
    "bepsilon": Command(
        "torsion budget off a small-density excluded set",
        (_arg("--profile", default=None, help="JSON family profile file"),
         _arg("--cm-g", type=_POSITIVE, default=None,
              help="use the built-in CM profile for this dimension"),
         _arg("--epsilon", required=True,
              help="density budget, a rational like 1/2 or 0.05"),
         _arg("--x", type=_POSITIVE, default=10 ** 6)),
        _cmd_bepsilon),
    "cm": Command(
        "CM divisibility constants for a dimension",
        (_arg("--g", type=_POSITIVE, required=True),
         _arg("--d", type=_POSITIVE, default=None,
              help="also list allowed exponents at this degree")),
        _cmd_cm),
}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsiondeg",
        description="verification sweeps and degree-bound reports")
    parser.add_argument("--version", action="version", version=VERSION)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="write the report to this path, not stdout")
    common.add_argument("--jobs", type=_POSITIVE, default=None,
                        help="worker processes (default: all cores)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for sampled modes")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flags, spec in command.args:
            p.add_argument(*flags, **spec)
    return parser


def _render(args, command, params, body, verdict, started, finished) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(command.csv)
        for record in command.records(body):
            cells = (record[key] for key in command.csv)
            writer.writerow(["|".join(map(str, v)) if isinstance(v, list)
                             else v for v in cells])
        return buf.getvalue()
    manifest = {
        "command": args.command,
        "parameters": params,
        "code_version": VERSION,
        "seed": args.seed_read,
        "verdict": verdict,
        "started": started,
        "finished": finished,
    }
    doc = {"schema_version": SCHEMA_VERSION, "manifest": manifest,
           "report": body}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = COMMANDS[args.command]
    args.seed_read = None  # set by a handler that reads --seed
    started = _utc_now()
    try:
        if args.format == "csv" and command.csv is None:
            raise UsageError(
                f"{args.command} reports have no CSV projection; use json")
        params, body, verdict = command.handler(args)
        text = _render(args, command, params, body, verdict, started,
                       _utc_now())
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 1 if verdict == "fail" else 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
