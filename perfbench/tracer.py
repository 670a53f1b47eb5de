"""Run one torsiondeg CLI command in this process with a span around each
public function of every layer, then write the span totals as JSON.

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json bepsilon --cm-g 1 --epsilon 1/2

The report goes to stdout exactly as `python -m torsiondeg.cli` prints it,
and the exit code is the CLI's.  Nothing under `src/` changes: the spans
replace module attributes at run time, including every imported alias
(`families.primes_array` is the same function as `arith.primes_array`, and
the caller looks up the former), so each call is seen where it is made.

A span's self time is its duration minus the time of the spans it
directly contains, so every second of `cli.main` lands in exactly one
function and the layer totals sum to the root span.  `*.rss_rise_kb` is
the same split applied to the rise of this process's `ru_maxrss`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
from collections import Counter
from time import perf_counter

# Module -> layer.  curvedeg is left out: its commands run in milliseconds.
LAYERS = {
    "torsiondeg.gl2": "gl2",
    "torsiondeg._enumeration": "gl2",
    "torsiondeg.orbits": "orbits",
    "torsiondeg.families": "families",
    "torsiondeg.arith": "arith",
    "torsiondeg.cmbounds": "cmbounds",
    "torsiondeg.cli": "cli",
}

# Functions left unwrapped.  The per-element kernels run up to millions of
# times per command, so a span on each would cost more than the work it
# measures; their time stays in the caller.  `_enumeration` is reached
# only through the gl2 facade of the same name, which is wrapped, and
# `prime_sieve` only through `primes_array`, which owns the sieve time.
SKIP = {
    "torsiondeg.gl2": {"pack", "unpack", "key_det", "key_mul", "key_inv",
                       "key_pow", "key_is_scalar", "projective_order_of",
                       "line_permutation"},
    "torsiondeg._enumeration": {"enumerate_subgroups"},
    "torsiondeg.arith": {"is_prime", "euler_phi", "ord_p", "factorize",
                         "divisors", "prime_sieve"},
    "torsiondeg.cmbounds": {"gr_check"},
}


def _count_enumerate(counters, a, result):
    counters["gl2.classes"] += len(result)
    if a["mode"] == "sampled":
        counters["gl2.pairs_drawn"] += a["count"]
        counters["gl2.sampled_classes"] += len(result)


def _count_cases(counters, a, result):
    counters["orbits.cases"] += 1


def _count_lines(counters, a, result):
    counters["orbits.lines"] += len(result)


def _count_sieve(counters, a, result):
    counters["arith.sieved_n"] += max(a["limit"], 0) + 1


def _count_phi(counters, a, result):
    counters["arith.phi_scanned_n"] += 2 * a["m"] * a["m"]
    counters["arith.phi_hits"] += len(result)


# Counts taken at a span's boundary from its bound arguments and result.
COUNTERS = {
    "gl2.enumerate_subgroups": _count_enumerate,
    "orbits.verify_case_divisibility": _count_cases,
    "orbits.verify_split_pointwise_stabilizers": _count_lines,
    "arith.primes_array": _count_sieve,
    "arith.phi_preimage_divisors": _count_phi,
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span totals held in memory until `totals()` is read."""

    def __init__(self):
        self._open = []  # per open span: [child seconds, child rss kb]
        self.functions = {}  # name -> [calls, self_s, total_s]
        self.layers = {}  # layer -> [self_s, rss_rise_kb]
        self.counters = Counter()

    def wrap(self, name, layer, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            inner = [0.0, 0]
            self._open.append(inner)
            rss0 = _maxrss_kb()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                rise = _maxrss_kb() - rss0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dur
                    self._open[-1][1] += rise
                f = self.functions.setdefault(name, [0, 0.0, 0.0])
                f[0] += 1
                f[1] += dur - inner[0]
                f[2] += dur
                lay = self.layers.setdefault(layer, [0.0, 0])
                lay[0] += dur - inner[0]
                lay[1] += rise - inner[1]
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counters, bound.arguments, result)
            return result

        return span

    def install(self):
        """Wrap every public function of each layer module and point every
        torsiondeg module attribute that names one at its wrapper."""
        import torsiondeg  # noqa: F401  (loads every layer module)

        wrappers = {}
        for modname, layer in LAYERS.items():
            module = importlib.import_module(modname)
            for name, obj in vars(module).items():
                if (name.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != modname
                        or name in SKIP.get(modname, ())):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{name}",
                                                    layer, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "torsiondeg" and not modname.startswith(
                    "torsiondeg."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def totals(self) -> dict:
        return {
            "functions": {n: {"calls": c, "self_s": s, "total_s": t}
                          for n, (c, s, t) in self.functions.items()},
            "layers": {n: {"self_s": s, "rss_rise_kb": r}
                       for n, (s, r) in self.layers.items()},
            "counters": dict(self.counters),
        }


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py OUT.json CLI-ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from torsiondeg import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
