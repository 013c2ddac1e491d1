"""Per-layer tracing of one `chebcircle verify` call, from outside the
program.

`install` replaces public functions of the modules on the `verify` path
(cli, sieve, galois, circle, singular) by wrappers that record a span
(name, start, end, parent) or count calls.  The program looks each of
them up through its module at call time, so replacing the module
attribute sees every call.  Spans stay in memory until `layer_metrics`
and `dump` run after the call.

Self time is a span's duration minus the time its direct child spans
cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name; a missing attribute is reported on
# stderr and its metrics read 0
SPANNED = (
    ("cli", "cmd_verify"),
    ("sieve", "PrimeTable.build"),
    ("sieve", "weighted_prime_array"),
    ("galois", "classify_batch"),
    ("circle", "verify_theorem"),
    ("circle", "representation_counts"),
    ("singular", "main_term"),
    ("singular", "c_infinity"),
    ("singular", "c_D"),
    ("singular", "euler_product"),
)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = defaultdict(int)
        self.transform_lens = []
        self.classified = defaultdict(list)   # spec -> prime arrays

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None])
            self.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][3] = time.perf_counter()
        return wrapper

    def counter(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if note is not None:
                note(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- installation -----------------------------------------------------

    def install(self, pkg):
        """Wrap the functions of SPANNED and the counters in package pkg."""
        for mod_name, attr in SPANNED:
            owner = getattr(pkg, mod_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, last, None) if owner is not None else None
            if fn is None:
                print(f"trace: {mod_name}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            wrapped = self.span(f"{mod_name}.{attr}", fn)
            # a classmethod fetched from its class is already bound
            setattr(owner, last, staticmethod(wrapped) if path else wrapped)

        def note_classify(args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            primes = args[1] if len(args) > 1 else kwargs["primes"]
            self.classified[spec].append(np.asarray(primes))

        def note_transform(args, kwargs):
            if self.inside("circle.representation_counts"):
                self.counts["circle.transforms"] += 1
                n = args[1] if len(args) > 1 else kwargs.get("n")
                self.transform_lens.append(int(n if n is not None
                                               else len(args[0])))

        pkg.galois.classify_batch = self.counter(
            "galois.classify_calls", pkg.galois.classify_batch, note_classify)
        if hasattr(pkg.singular, "c_p"):
            pkg.singular.c_p = self.counter("singular.cp_evals",
                                            pkg.singular.c_p)
        np.fft.rfft = self.counter("np.fft.rfft", np.fft.rfft, note_transform)
        np.fft.irfft = self.counter("np.fft.irfft", np.fft.irfft,
                                    note_transform)

    # -- results ----------------------------------------------------------

    def _totals(self):
        total = defaultdict(float)
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        self_time = defaultdict(float, {k: total[k] - child[k] for k in total})
        return total, self_time

    def layer_metrics(self, n_rows: int) -> dict:
        total, self_time = self._totals()
        classified = sum(len(a) for arrs in self.classified.values()
                         for a in arrs)
        distinct = sum(len(np.unique(np.concatenate(arrs)))
                       for arrs in self.classified.values())
        classify_s = total["galois.classify_batch"]
        main_s = total["singular.main_term"]
        return {
            "sieve.table_s": total["sieve.PrimeTable.build"],
            "sieve.prime_arrays_s": self_time["sieve.weighted_prime_array"],
            "galois.classify_s": classify_s,
            "galois.primes_classified": classified,
            "galois.classify_useful": distinct / classified if classified
            else 0.0,
            "galois.primes_per_s": classified / classify_s if classify_s
            else 0.0,
            "circle.counts_s": self_time["circle.representation_counts"],
            "circle.transforms": self.counts["circle.transforms"],
            "circle.transform_len": max(self.transform_lens, default=0),
            "circle.verify_loop_s": self_time["circle.verify_theorem"],
            "singular.main_term_s": main_s,
            "singular.ms_per_row": 1000.0 * main_s / n_rows if n_rows
            else 0.0,
            "singular.c_inf_s": total["singular.c_infinity"],
            "singular.c_D_s": total["singular.c_D"],
            "singular.euler_s": total["singular.euler_product"],
            "singular.cp_evals": self.counts["singular.cp_evals"],
            "cli.io_s": self_time["cli.cmd_verify"],
        }

    def shares(self, run_s: float) -> dict:
        """Each layer's self time as a share of the traced run."""
        _, self_time = self._totals()
        layer = defaultdict(float)
        for name, t in self_time.items():
            layer[name.split(".")[0]] += t
        return {k: v / run_s for k, v in sorted(layer.items())}

    def dump(self, path, header: dict):
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(header)
        doc["spans"] = [{"name": n, "parent": p, "start": s - t0,
                         "end": e - t0} for n, p, s, e in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)
