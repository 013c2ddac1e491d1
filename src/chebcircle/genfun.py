"""The generating function over classified primes and its sieved
approximant, compared along a list of alpha: the study of the genfun
command.

G sums log p * e(alpha p) over the primes <= X in a fixed Artin class;
G_sharp replaces the prime indicator by congruence data modulo D and
modulo the primes up to z (sieve.sharp_weights).  minor_arc_scan prints
|G - G_sharp|, the flat part the approximation theorems bound.  F over
ideals and the G-vs-F relation are in tests/lemmas.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import galois, sieve
from .errors import BYTES_BASE, refuse_above
from .expsum import best_approx, phase_array


def estimated_bytes(X: int, spec: galois.GaloisSpec,
                    cls: galois.ClassSpec) -> int:
    """Estimated peak memory of a study of spec's class cls to X, without
    allocating: the sieve's arrays, whose pages stay resident, beside
    sharp_weights' 25 bytes per n <= X and the class's primes (README)."""
    pi = sieve.prime_bound(X)
    return int(BYTES_BASE + max(
        sieve.sieve_bytes(X, [(spec, cls)]),
        26 * (X + 1) + 16 * pi + 8 * pi * spec.class_density(cls)))


@dataclass
class GenfunContext:
    """Frozen inputs of one generating-function study: which primes (via a
    Galois spec and class), the cutoff X, and the sieve level z.  Refused
    by estimated_bytes when built, before anything is sieved."""
    X: int
    z: float
    spec: galois.GaloisSpec
    cls: galois.ClassSpec

    def __post_init__(self):
        refuse_above(estimated_bytes(self.X, self.spec, self.cls),
                     f"genfun at X={self.X}")

    @cached_property
    def primes(self) -> np.ndarray:
        """The primes <= X of the context's class."""
        [ps] = sieve.class_primes(self.spec, self.X,
                                  [self.spec.classes.index(self.cls)])
        return ps

    @cached_property
    def _sharp_support(self):
        """(n with a nonzero sieved weight, those weights times |C|/|G|)."""
        w = sieve.sharp_weights(self.X, self.z, self.spec.modulus,
                                self.cls.coset)
        ns = np.nonzero(w)[0]
        return ns, float(self.spec.class_density(self.cls)) * w[ns]


def eval_G(ctx: GenfunContext, alpha) -> complex:
    """Sum of log p * e(alpha p) over classified primes p <= X."""
    ps = ctx.primes
    logs = np.log(ps.astype(np.float64))
    return complex(np.dot(logs, phase_array(ps, alpha)))


def eval_G_sharp(ctx: GenfunContext, alpha) -> complex:
    ns, w = ctx._sharp_support
    return complex(np.dot(w, phase_array(ns, alpha)))


@dataclass
class ArcScanRow:
    alpha: float
    q: int
    G: complex
    G_sharp: complex
    flat_ratio: float   # |G - G_sharp| / X


def minor_arc_scan(ctx: GenfunContext, alphas) -> list:
    """G, G_sharp and their normalized flat magnitude per alpha, with each
    alpha's best rational denominator up to 10^4 for decay regressions."""
    rows = []
    for a in alphas:
        G, Gs = eval_G(ctx, a), eval_G_sharp(ctx, a)
        rows.append(ArcScanRow(float(a), best_approx(a, 10**4).q, G, Gs,
                               abs(G - Gs) / ctx.X))
    return rows
