"""Generating functions over classified primes and over ideals, their
sieved approximants, and the empirical comparisons between them.

G sums log p * e(alpha p) over primes in a fixed Artin class; F sums the
ideal von Mangoldt function twisted by chi o N, a Dirichlet character chi
composed with the norm, against e(alpha * norm) over a quadratic field (or
over Q itself); the untwisted F takes chi = principal_character(1).  The
sharp variants replace the prime indicator by congruence data modulo D and
modulo primes up to z; the flat variants are the differences the
approximation theorems bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import circle, galois, sieve
from .arith import factorint, phi
from .characters import (DirichletCharacter, characters_trivial_on,
                         principal_character)
from .errors import UnsupportedInstantiation
from .expsum import QuadraticField, best_approx, phase_array


# Peak bytes per n <= X of sieve.sharp_weights: its survivor mask, float64
# weights, int64 arange (its remainder taken in place) and gathered coset
# weights.  Fitted to minor_arc_scan of trivial-e at X = 1e6, 4e6 and 1e7
# and of gaussian-e, s3-cbrt2-1 and d4-qrt2-e at 4e6 (peaks 58.1, 134.9,
# 287.3, 132.7, 130.5 and 138.1 MiB), each within 3% of its measurement;
# tests/measure_peaks.py genfun measures them.
SHARP_BYTES_PER_X = 27


def estimated_bytes(X: int, spec: galois.GaloisSpec) -> int:
    """Estimated peak memory of a study of spec's primes <= X: the larger of
    the sieve and classification of X and sharp_weights over 0..X;
    allocates nothing."""
    return circle.BYTES_BASE + max(circle.sieve_bytes(X, [spec]),
                                   SHARP_BYTES_PER_X * (X + 1))


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
        circle.refuse_above(estimated_bytes(self.X, self.spec),
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


def eval_G_flat(ctx: GenfunContext, alpha) -> complex:
    return eval_G(ctx, alpha) - eval_G_sharp(ctx, alpha)


def _prime_power_terms(fieldL: Optional[QuadraticField], X: int):
    """(norms, weights) of all prime-power ideal norms <= X, with the
    ideal von Mangoldt weight log N(prime) aggregated per norm value.

    With c = chi_d(p), and c = 0 for every p when fieldL is None (the
    rationals), a prime ideal above p has norm q = p^2 if c = -1, else p,
    and each norm q^m <= X has weight (1 if c = 0 else 2) * log p: one
    ideal of log norm log p (ramified, or over Q), two (split), or one of
    log norm 2 log p (inert).
    """
    ps = sieve.primes_upto(X)
    c = (np.zeros_like(ps) if fieldL is None
         else fieldL.chi_table[ps % abs(fieldL.d)])
    q = np.where(c == -1, ps * ps, ps)
    w = np.where(c == 0, 1.0, 2.0) * np.log(ps.astype(np.float64))
    norms, weights = [], []
    qm = q
    while True:
        keep = qm <= X
        q, qm, w = q[keep], qm[keep], w[keep]
        norms.append(qm)
        weights.append(w)
        if len(q) == 0:
            return np.concatenate(norms), np.concatenate(weights)
        qm = qm * q


def eval_F(fieldL: Optional[QuadraticField], chi: DirichletCharacter, X: int,
           alpha) -> complex:
    """Sum over ideals of norm <= X of Lambda_L * chi(norm) * e(alpha *
    norm); fieldL None evaluates the classical Chebyshev sum over Q."""
    if X < 2:
        return 0j
    norms, weights = _prime_power_terms(fieldL, X)
    vals = weights * chi.value_table()[norms % chi.modulus]
    return complex(np.dot(vals, phase_array(norms, alpha)))


def _norm_image_subgroup(fieldL: Optional[QuadraticField]):
    """(modulus m, residues mod m that are norms from L) — the support of
    the congruence weight for F_sharp."""
    if fieldL is None:
        return 1, {0}
    m = abs(fieldL.d)
    return m, np.nonzero(fieldL.chi_table == 1)[0]


def eval_F_sharp(fieldL: Optional[QuadraticField], chi: DirichletCharacter,
                 X: int, z: float, alpha) -> complex:
    """The sieved approximant: the congruence-weighted sum with the
    z-sieve, twisted by chi(n)."""
    if X < 1:
        return 0j
    w = sieve.sharp_weights(X, z, *_norm_image_subgroup(fieldL))
    ns = np.nonzero(w)[0]
    w = w[ns] * chi.value_table()[ns % chi.modulus]
    return complex(np.dot(w, phase_array(ns, alpha)))


def eval_F_flat(fieldL, chi, X, z, alpha) -> complex:
    return eval_F(fieldL, chi, X, alpha) - \
        eval_F_sharp(fieldL, chi, X, z, alpha)


def gf_relation_residual(ctx: GenfunContext, alpha) -> float:
    """|G - (|C|/|G|) sum over characters of the matching F| — the residual
    that grows like sqrt(X).

    K = Q(i) with the identity class is compared against the untwisted
    ideal sum over Q(i); any other abelian spec against Dirichlet-twisted
    sums over Q.
    """
    spec, cls = ctx.spec, ctx.cls
    if ctx.X < 2:
        return 0.0
    if spec.kind != galois.ABELIAN:
        raise UnsupportedInstantiation(
            "the G-vs-F comparison requires an abelian spec")
    G = eval_G(ctx, alpha)
    if spec.modulus == 4 and cls.coset == frozenset({1}):
        F = eval_F(QuadraticField(-4), principal_character(1), ctx.X, alpha)
        return abs(G - 0.5 * F)
    D = spec.modulus
    if D == 1:
        chars, c, pref = [principal_character(1)], 1, 1.0
    else:
        identity_coset = spec.classes[spec.identity_class].coset
        chars = characters_trivial_on(D, identity_coset)
        c = min(cls.coset)
        pref = len(identity_coset) / phi(D)
    acc = 0j
    for ch in chars:
        acc += np.conj(ch(c)) * eval_F(None, ch, ctx.X, alpha)
    return abs(G - pref * acc)


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


@dataclass
class ZeroRatio:
    ratio: float
    expected_r: int


def F_at_zero_ratio(fieldL: Optional[QuadraticField], chi: DirichletCharacter,
                    Y: int) -> ZeroRatio:
    """F(0)/Y against the density r: r = 1 when chi o N is trivial as a
    function on ideals (chi is 1 on every attainable norm residue), else
    r = 0."""
    if Y < 2:
        return ZeroRatio(0.0, 0)
    val = eval_F(fieldL, chi, Y, 0.0).real / Y
    expected = 1 if _trivial_on_ideals(fieldL, chi) else 0
    return ZeroRatio(val, expected)


def _trivial_on_ideals(fieldL: Optional[QuadraticField],
                       chi: DirichletCharacter) -> bool:
    """Whether chi(N(a)) = 1 for every ideal a prime to chi's modulus m, read
    on prime ideals, whose norms mod L = lcm(m, |d|) are the units r with
    chi_d(r) = 1, the squares of the other units and the primes q | d."""
    if fieldL is None:
        return chi.is_principal
    m, dd = chi.modulus, abs(fieldL.d)
    L = math.lcm(m, dd)
    norms = [r if fieldL.chi_table[r % dd] == 1 else r * r
             for r in range(1, L) if math.gcd(r, L) == 1]
    norms += [q for q in factorint(dd) if m % q]
    return all(abs(chi(n) - 1) <= 1e-9 for n in norms)
