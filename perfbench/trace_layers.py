"""Per-layer tracing from outside the library.

``Tracer()`` wraps each public function named in ``TARGETS`` and
rebinds every module-namespace name that refers to it, in every loaded
``cyclores`` module: ``from .x import f`` copies the binding, so
``powsym.residue``, ``fltharness.is_prime`` or ``cli.scan`` must be
patched as well as the defining module.  Spans nest on one stack; a
function's self time is its span's duration minus the time its child
spans cover.  Aggregates stay in memory until ``report()``.
"""

from __future__ import annotations

import importlib
import sys
import time

TARGETS = {
    "ntheory": ("is_prime", "primes_upto", "multiplicative_order", "primitive_root"),
    "cycint": ("cyc_new", "cyc_mul", "galois", "norm"),
    "cycunits": ("unit_minus", "unit_plus", "inv_one_plus_zeta"),
    "resfield": ("split_prime", "residue", "ideal_dividing", "ideal_from_root",
                 "ideal_from_modulus"),
    "powsym": ("symbol", "zeta_symbol"),
    "regulab": ("bernoulli", "irregular_pairs", "h_minus", "vandiver_witness"),
    "fltharness": ("scan", "verify_congruences", "verify_symbol_identities",
                   "furtwangler_report", "conjugate_symmetry_report", "record_from_json",
                   "record_to_json"),
    "cli": ("run",),
}

# the derived metrics; see observe_* below
DERIVED = (
    "ntheory.is_prime.over63_calls",
    "ntheory.is_prime.over63_s",
    "resfield.split_prime.fgt1_s",
    "fltharness.scan.records",
    "fltharness.scan.returned",
    "fltharness.scan.unfactored",
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.derived = dict.fromkeys(DERIVED, 0)
        self.originals: dict[str, object] = {}
        self._stack: list[float] = []  # child time covered, per open span
        observers = {
            "ntheory.is_prime": self._observe_is_prime,
            "resfield.split_prime": self._observe_split,
            "fltharness.scan": self._observe_scan,
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cyclores" or name.startswith("cyclores.")]
        for mod_name, fns in TARGETS.items():
            module = importlib.import_module(f"cyclores.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original, observers.get(name))
                self.originals[name] = original
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, observe):
        stats = self.stats[name] = [0, 0.0]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                self_s = duration - stack.pop()
                stats[0] += 1
                stats[1] += self_s
                if stack:
                    stack[-1] += duration
            if observe is not None:
                observe(args, result, self_s)
            return result

        return traced

    def _observe_is_prime(self, args, _result, self_s):
        if args[0].bit_length() > 63:
            self.derived["ntheory.is_prime.over63_calls"] += 1
            self.derived["ntheory.is_prime.over63_s"] += self_s

    def _observe_split(self, _args, result, self_s):
        if result and result[0].f > 1:
            self.derived["resfield.split_prime.fgt1_s"] += self_s

    def _observe_scan(self, _args, result, _self_s):
        self.derived["fltharness.scan.returned"] += 1
        self.derived["fltharness.scan.records"] += len(result)
        self.derived["fltharness.scan.unfactored"] += result.unfactored_cofactor is not None

    def report(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name in ("ntheory.primes_upto", "resfield.split_prime"):
            info = self.originals[name].cache_info()
            looked_up = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        out.update(self.derived)
        scans, unfactored = out.pop("fltharness.scan.returned"), out.pop("fltharness.scan.unfactored")
        out["fltharness.scan.unfactored_ratio"] = unfactored / scans if scans else 0.0
        return out
