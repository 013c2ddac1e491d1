"""Generating functions over classified primes and over ideals, their
sieved approximants, and the empirical comparisons between them.

G sums log p * e(alpha p) over primes in a fixed Artin class; F sums the
ideal von Mangoldt function against a character and e(alpha * norm) over a
quadratic field (or over Q itself).  The sharp variants replace the prime
indicator by congruence data modulo D and modulo primes up to z; the flat
variants are the differences the approximation theorems bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import galois, sieve
from .arith import phi
from .characters import characters_trivial_on, principal_character
from .errors import DomainError, UnsupportedInstantiation
from .expsum import (IdealCharacter, QuadraticField, TRIVIAL_XI, best_approx,
                     norm_counts)

_ROOT_LIMIT = 1 << 20


def phase_array(ns: np.ndarray, alpha) -> np.ndarray:
    """e(alpha * n) for an int64 array of n; exact root-of-unity lookup
    when alpha is a Fraction with a moderate denominator."""
    if isinstance(alpha, Fraction):
        q = alpha.denominator
        if q <= _ROOT_LIMIT:
            a = alpha.numerator % q
            roots = np.exp(2j * np.pi * np.arange(q) / q)
            return roots[(a * ns) % q]
        alpha = float(alpha)
    a = float(alpha)
    return np.exp(2j * np.pi * ((a * ns.astype(np.float64)) % 1.0))


@dataclass
class GenfunContext:
    """Frozen inputs of one generating-function study: which primes (via a
    Galois spec and class), the cutoff X, and the sieve parameters fixing
    z."""
    table: sieve.PrimeTable
    X: int
    params: sieve.SieveParams
    spec: Optional[galois.GaloisSpec] = None
    cls: Optional[galois.ClassSpec] = None

    def __post_init__(self):
        if self.X > self.table.limit:
            raise DomainError("X exceeds the prime table limit")
        self.params.check(self.X)

    @cached_property
    def prime_array(self) -> sieve.WeightedPrimeArray:
        if self.spec is None:
            raise DomainError("context has no Galois spec")
        return sieve.weighted_prime_array(self.table, self.spec, self.cls,
                                          self.X)

    @cached_property
    def _sharp_support(self):
        """(n values surviving the z-sieve, combined double weights)."""
        mask = sieve.sieve_survivor_mask(self.X, self.params.z)
        ns = np.nonzero(mask)[0].astype(np.int64)
        lam = sieve.lambda_kc_table(self.spec, self.cls)
        lam = lam[ns % len(lam)]
        keep = lam != 0
        ns, lam = ns[keep], lam[keep]
        cz = sieve.c_of_z_float(self.params.z)
        pref = float(self.spec.class_density(self.cls))
        return ns, pref * cz * lam


def eval_G(ctx: GenfunContext, alpha) -> complex:
    """Sum of log p * e(alpha p) over classified primes p <= X."""
    wpa = ctx.prime_array
    ps = wpa.primes
    if len(ps) == 0:
        return 0j
    logs = np.log(ps.astype(np.float64))
    return complex(np.dot(logs, phase_array(ps, alpha)))


def eval_G_sharp(ctx: GenfunContext, alpha) -> complex:
    ns, w = ctx._sharp_support
    if len(ns) == 0:
        return 0j
    return complex(np.dot(w, phase_array(ns, alpha)))


def eval_G_flat(ctx: GenfunContext, alpha) -> complex:
    return eval_G(ctx, alpha) - eval_G_sharp(ctx, alpha)


def _prime_power_terms(fieldL: Optional[QuadraticField],
                       table: sieve.PrimeTable, X: int):
    """(norms, weights) of all prime-power ideal norms <= X, with the
    ideal von Mangoldt weight log N(prime) aggregated per norm value.

    fieldL None means the rationals: plain prime powers with weight log p.
    """
    ps = table.primes_upto(X)
    norms = []
    weights = []
    if fieldL is None:
        norms.append(ps)
        weights.append(np.log(ps.astype(np.float64)))
        for p in ps[ps * ps <= X]:
            pe = int(p) * int(p)
            while pe <= X:
                norms.append(np.array([pe], dtype=np.int64))
                weights.append(np.array([math.log(p)]))
                pe *= int(p)
    else:
        m = abs(fieldL.d)
        chtab = np.array([fieldL.chi_int(r) for r in range(m)],
                         dtype=np.int64)
        chp = chtab[ps % m]
        split = ps[chp == 1]
        norms.append(split)
        weights.append(2.0 * np.log(split.astype(np.float64)))
        small = [int(p) for p in ps if int(p) ** 2 <= X]
        for p in small:
            c = int(chtab[p % m])
            logp = math.log(p)
            if c == 1:       # two primes of norm p; powers p^j, each log p
                pe = p * p
                while pe <= X:
                    norms.append(np.array([pe], dtype=np.int64))
                    weights.append(np.array([2.0 * logp]))
                    pe *= p
            elif c == -1:    # inert: one prime of norm p^2, weight 2 log p
                pe = p * p
                while pe <= X:
                    norms.append(np.array([pe], dtype=np.int64))
                    weights.append(np.array([2.0 * logp]))
                    pe *= p * p
        for p in [int(p) for p in ps if m % int(p) == 0]:
            pe = p           # ramified: one prime of norm p, weight log p
            logp = math.log(p)
            while pe <= X:
                norms.append(np.array([pe], dtype=np.int64))
                weights.append(np.array([logp]))
                pe *= p
    return np.concatenate(norms), np.concatenate(weights)


def eval_F(fieldL: Optional[QuadraticField], xi: IdealCharacter, X: int,
           alpha, table: sieve.PrimeTable) -> complex:
    """Sum over ideals of norm <= X of Lambda_L * xi * e(alpha * norm);
    fieldL None evaluates the classical Chebyshev sum over Q."""
    if X < 2:
        return 0j
    norms, weights = _prime_power_terms(fieldL, table, X)
    vals = weights * xi.norm_table(norms)
    return complex(np.dot(vals, phase_array(norms, alpha)))


def _norm_image_subgroup(fieldL: Optional[QuadraticField]):
    """(modulus m, residues mod m that are norms from L) — the support of
    the congruence weight for F_sharp."""
    if fieldL is None:
        return 1, {0}
    m = abs(fieldL.d)
    return m, {r for r in range(m) if fieldL.chi_int(r) == 1}


def eval_F_sharp(fieldL: Optional[QuadraticField], xi: IdealCharacter,
                 X: int, z: float, alpha) -> complex:
    """The sieved approximant: zero unless xi is trivial or composed with
    the norm, else the congruence-weighted sum with the z-sieve."""
    if xi.kind == "other":
        return 0j
    if X < 1:
        return 0j
    m, H = _norm_image_subgroup(fieldL)
    mask = sieve.sieve_survivor_mask(X, z)
    ns = np.nonzero(mask)[0].astype(np.int64)
    if m > 1:
        sel = np.isin(ns % m, list(H))
        ns = ns[sel]
        lam = phi(m) / len(H)
    else:
        lam = 1.0
    if len(ns) == 0:
        return 0j
    cz = sieve.c_of_z_float(z)
    chi_vals = (np.ones(len(ns), dtype=complex) if xi.kind == "trivial"
                else xi.chi.value_table()[ns % xi.chi.modulus])
    return complex(lam * cz * np.dot(chi_vals, phase_array(ns, alpha)))


def eval_F_flat(fieldL, xi, X, z, alpha, table) -> complex:
    return eval_F(fieldL, xi, X, alpha, table) - \
        eval_F_sharp(fieldL, xi, X, z, alpha)


def gf_relation_residual(ctx: GenfunContext, alpha, via: str = "auto") -> float:
    """|G - (|C|/|G|) sum over characters of the matching F| — the residual
    that grows like sqrt(X).

    via="field": K = Q(i) with the identity class, compared against the
    trivial-character ideal sum over Q(i).  via="dirichlet": any abelian
    spec, compared against Dirichlet-twisted sums over Q.
    """
    spec, cls = ctx.spec, ctx.cls
    if spec is None:
        raise UnsupportedInstantiation("context has no Galois spec")
    if ctx.X < 2:
        return 0.0
    if via == "auto":
        via = "field" if (spec.kind == "abelian" and spec.modulus == 4
                          and cls.coset == frozenset({1})) else "dirichlet"
    G = eval_G(ctx, alpha)
    if via == "field":
        if not (spec.kind == "abelian" and spec.modulus == 4
                and cls.coset == frozenset({1})):
            raise UnsupportedInstantiation(
                "field instantiation requires Q(i) with the identity class")
        F = eval_F(QuadraticField(-4), TRIVIAL_XI, ctx.X, alpha, ctx.table)
        return abs(G - 0.5 * F)
    if via != "dirichlet":
        raise UnsupportedInstantiation(via)
    if spec.kind != "abelian":
        raise UnsupportedInstantiation(
            "dirichlet instantiation requires an abelian spec")
    D = spec.modulus
    if D == 1:
        chars, c, pref = [principal_character(1)], 1, 1.0
    else:
        identity_coset = next(cc.coset for cc in spec.classes
                              if 1 in cc.coset)
        chars = characters_trivial_on(D, identity_coset)
        c = min(cls.coset)
        pref = len(identity_coset) / phi(D)
    acc = 0j
    for ch in chars:
        F = eval_F(None, IdealCharacter("norm", ch), ctx.X, alpha, ctx.table)
        acc += np.conj(ch(c)) * F
    return abs(G - pref * acc)


@dataclass
class ArcScanRow:
    alpha: float
    q: int
    flat_ratio: float   # |G_flat(alpha)| / X


def minor_arc_scan(ctx: GenfunContext, alphas, qmax: int = 10**4) -> list:
    """Normalized flat magnitudes per alpha, with each alpha's best
    rational denominator for decay regressions."""
    rows = []
    for a in alphas:
        q = best_approx(a, qmax).q
        rows.append(ArcScanRow(float(a), q,
                               abs(eval_G_flat(ctx, a)) / ctx.X))
    return rows


@dataclass
class ZeroRatio:
    ratio: float
    expected_r: int


def F_at_zero_ratio(fieldL: Optional[QuadraticField], xi: IdealCharacter,
                    Y: int, table: sieve.PrimeTable) -> ZeroRatio:
    """F(0)/Y against the density r: r = 1 when xi is trivial as a
    function on ideals (in particular when the composed Dirichlet
    character is 1 on every attainable norm residue), else r = 0."""
    if Y < 2:
        return ZeroRatio(0.0, 0)
    val = eval_F(fieldL, xi, Y, 0.0, table).real / Y
    expected = 1 if _xi_trivial_on_ideals(fieldL, xi) else 0
    return ZeroRatio(val, expected)


def _xi_trivial_on_ideals(fieldL: Optional[QuadraticField],
                          xi: IdealCharacter) -> bool:
    if xi.kind == "trivial":
        return True
    if xi.kind != "norm":
        return False
    if fieldL is None:
        return xi.chi.is_principal
    bound = max(200, 4 * xi.chi.modulus * abs(fieldL.d))
    r = norm_counts(fieldL, bound)
    for m in range(1, bound + 1):
        if r[m] != 0 and math.gcd(m, xi.chi.modulus) == 1:
            if abs(xi.chi(m) - 1) > 1e-9:
                return False
    return True
