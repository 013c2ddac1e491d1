"""The paper's supporting lemmas, reproduced for the tests: no command
runs them, so they live here, beside the tests that check them.

- Dirichlet characters and the Kronecker symbol;
- qualifying approximations, multiples of alpha without one, and the
  structure-set covering;
- quadratic fields: ideal-norm counts and sums over ideals;
- F, the ideal von Mangoldt sum twisted by chi o N, its sieved approximant
  and the G-vs-F relation residual; F(0)/Y against its density;
- the all-N side: H_sharp, the norms of H - H_sharp, and the Parseval
  identity sum S(N)^2 = integral |H|^2;
- the class weight Lambda_{K,C} at one n, and a spec as its JSON document.

Tests call these at fixed sizes, so nothing here checks a memory limit,
and neither do the all-N count and the convolution they read from
tests/oracles.py, nor the prime lists they read from circle.
Import it as the tests do (`import lemmas`): pytest puts this directory
on the path.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
import oracles

from chebcircle import circle, galois, sieve
from chebcircle.arith import factorint, phi
from chebcircle.errors import ChebCircleError, DomainError
from chebcircle.expsum import (RationalApprox, _as_fraction, convergents,
                               phase_array)
from chebcircle.genfun import GenfunContext, eval_G, eval_G_sharp
from chebcircle.instance import ProblemInstance


class UnsupportedInstantiation(ChebCircleError):
    """The G-vs-F comparison is not implemented for this field/class pair."""


class DegenerateAlpha(ChebCircleError):
    """alpha does not admit the rational-approximation structure required."""


# ---------------------------------------------------------------------------
# Dirichlet characters and the Kronecker symbol: characters mod D are built
# from the cyclic structure of the unit groups of the prime-power factors
# of D; values are stored as a dense complex table indexed by residue (zero
# off the units)
# ---------------------------------------------------------------------------

def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d|n), completely multiplicative in n."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    # factor out 2s
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    if math.gcd(d, n) != 1:
        return 0
    a = d % n
    # Jacobi symbol (a|n) for odd n > 0, with the sign flips already folded
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class DirichletCharacter:
    modulus: int
    values: tuple  # complex, length modulus
    label: str = ""

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    @property
    def is_principal(self) -> bool:
        return all(abs(v - 1) < 1e-12 or abs(v) < 1e-12 for v in self.values)

    def value_table(self) -> np.ndarray:
        return np.array(self.values, dtype=complex)

    def is_trivial_on(self, residues) -> bool:
        return all(abs(self(r) - 1) < 1e-9 for r in residues)


def principal_character(D: int) -> DirichletCharacter:
    vals = tuple(1.0 + 0j if math.gcd(r, D) == 1 else 0j for r in range(D))
    return DirichletCharacter(D, vals, "1")


def kronecker_character(d: int) -> DirichletCharacter:
    """chi_d as a Dirichlet character mod |d|."""
    m = abs(d)
    if m == 1:
        return principal_character(1)
    vals = tuple(complex(kronecker(d, n)) for n in range(m))
    return DirichletCharacter(m, vals, f"kronecker({d})")


def _primitive_root(q: int) -> int:
    """Primitive root mod q for q an odd prime power or 2 or 4."""
    order = phi(q)
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, order // p, q) != 1 for p in factorint(order)):
            return g
    raise DomainError(f"no primitive root mod {q}")


@lru_cache(maxsize=32)
def dirichlet_characters(D: int) -> tuple:
    """All phi(D) Dirichlet characters mod D."""
    if D <= 2:
        return (principal_character(D),)
    # generators of (Z/D)^* with their orders, via CRT components
    gens = []  # (generator mod D, order)
    for q, e in factorint(D).items():
        pe = q ** e
        rest = D // pe
        if q == 2:
            if e == 1:
                continue
            comps = [(-1 % pe, 2)] if e == 2 else [(-1 % pe, 2),
                                                   (3, 2 ** (e - 2))]
        else:
            comps = [(_primitive_root(pe), phi(pe))]
        for g, order in comps:
            lifted = _crt_lift(g, pe, 1, rest)
            gens.append((lifted % D, order))
    # discrete logs of every unit with respect to the generator tuple
    units = [u for u in range(D) if math.gcd(u, D) == 1]
    orders = [range(o) for _, o in gens]
    dlogs = {math.prod(pow(g, k, D) for (g, _), k in zip(gens, expo)) % D:
             expo for expo in itertools.product(*orders)}
    chars = []
    for idx in itertools.product(*orders):
        vals = [0j] * D
        for u in units:
            expo = dlogs[u]
            phase = sum(idx[i] * expo[i] / gens[i][1]
                        for i in range(len(gens)))
            vals[u] = cmath.exp(2j * cmath.pi * phase)
        chars.append(DirichletCharacter(D, tuple(vals), f"chi{idx}"))
    return tuple(chars)


def _crt_lift(a, m, b, n):
    """x = a mod m, x = b mod n (m, n coprime)."""
    if n == 1:
        return a % m
    inv = pow(m, -1, n)
    return (a + m * ((b - a) * inv % n)) % (m * n)


def characters_trivial_on(D: int, subgroup) -> list:
    """Characters mod D that restrict to 1 on the given set of residues."""
    return [ch for ch in dirichlet_characters(D)
            if ch.is_trivial_on(subgroup)]


# ---------------------------------------------------------------------------
# qualifying approximations and structure sets
# ---------------------------------------------------------------------------

def has_denominator_in_range(alpha, qmin, qmax) -> Optional[RationalApprox]:
    """The first convergent a/q of alpha with qmin < q < qmax and
    |alpha - a/q| < 1/q^2, else the least-q such intermediate fraction
    (p0 + p1)/(q0 + q1) or (p1 - p0)/(q1 - q0) of consecutive convergents,
    1/0 in front: by the Fatou-Grace theorem no other a/q qualifies.  The
    latter can come from a q1 up to 2*qmax."""
    x = _as_fraction(alpha)
    conv = [(1, 0)] + convergents(x, 2 * qmax)
    middle = [c for (p0, q0), (p1, q1) in zip(conv, conv[1:])
              for c in ((p0 + p1, q0 + q1), (p1 - p0, q1 - q0))]
    for a, q in conv[1:] + sorted(middle, key=lambda c: c[1]):
        if max(qmin, 0) < q < qmax:
            err = abs(x - Fraction(a, q))
            if err < Fraction(1, q * q):
                return RationalApprox(a, q, float(err))
    return None


def bad_multiple_count(alpha, Y: int, A: float, Xparam: float) -> int:
    """Number of n <= Y such that n*alpha has no qualifying approximation
    with denominator strictly between A and Xparam/A."""
    if A <= 0 or Xparam <= 0:
        raise DomainError("parameters must be positive")
    x = _as_fraction(alpha)
    hi = Xparam / A
    return sum(1 for n in range(1, int(Y) + 1)
               if has_denominator_in_range(n * x, A, hi) is None)


@dataclass
class StructureSet:
    elements: list
    X: float
    A: int
    C: int
    B: float
    min_element: int = field(init=False)

    def __post_init__(self):
        self.min_element = min(self.elements) if self.elements else 0

    def reciprocal_sum(self):
        return sum(1.0 / s for s in self.elements)


def structure_set(alpha, Xparam, A: int, C: int, B) -> StructureSet:
    """The covering set S built from close fractions a/d: S collects d/D
    for divisors D <= A of d whenever |alpha - a/d| <= A/(Xparam*D).

    Every n <= C is then a multiple of an element of S or n*alpha has a
    qualifying approximation with denominator in (A, Xparam/(A*n)).
    """
    if B <= 2 * A:
        raise DomainError("requires B > 2A")
    x = _as_fraction(alpha)
    if x == round(x):
        raise DegenerateAlpha("alpha is an integer")
    if has_denominator_in_range(alpha, B, Xparam / B) is None:
        raise DegenerateAlpha(
            "alpha has no qualifying approximation with denominator in "
            f"({B}, {Xparam / B})")
    S = set()
    for d in range(1, A * C + 1):
        a = round(x * d)
        if math.gcd(a, d) != 1:
            continue
        err = abs(x - Fraction(a, d))
        for D in range(1, A + 1):
            if d % D == 0 and err <= Fraction(A, 1) / (Fraction(Xparam) * D):
                S.add(d // D)
    return StructureSet(sorted(S), Xparam, A, C, B)


def covering_holds(ss: StructureSet, alpha) -> bool:
    """Exhaustive check of the covering property over n <= C."""
    x = _as_fraction(alpha)
    for n in range(1, ss.C + 1):
        if any(n % s == 0 for s in ss.elements):
            continue
        if has_denominator_in_range(n * x, ss.A, ss.X / (ss.A * n)) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# quadratic fields via norm counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticField:
    d: int  # fundamental discriminant

    def __post_init__(self):
        d = self.d
        m = d if d % 4 == 1 else d // 4
        ok = (d % 4 == 1 and d != 1 or d % 4 == 0 and m % 4 in (2, 3)) \
            and all(e == 1 for e in factorint(m).values())
        if not ok:
            raise DomainError(f"{d} is not a fundamental discriminant")

    @cached_property
    def chi_table(self) -> np.ndarray:
        """The Kronecker symbol (d/r) for r = 0..|d|-1 as read-only int64,
        for indexing by n % |d|."""
        tab = np.array([kronecker(self.d, r) for r in range(abs(self.d))],
                       dtype=np.int64)
        tab.flags.writeable = False
        return tab


@lru_cache(maxsize=8)
def norm_counts(fieldK: QuadraticField, X: int) -> np.ndarray:
    """r[m] = number of ideals of norm m, 0 <= m <= X, via the divisor sum
    of the Kronecker character; read-only, as callers share it."""
    m = abs(fieldK.d)
    chtab = fieldK.chi_table
    r = np.zeros(X + 1, dtype=np.int64)
    for e in range(1, X + 1):
        c = chtab[e % m]
        if c:
            r[e::e] += c
    r.flags.writeable = False
    return r


def norm_divisible_recip_sum(fieldK: QuadraticField, n: int, X: int) -> float:
    """Sum of 1/N(a) over ideals with n | N(a) <= X."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > X:
        return 0.0
    r = norm_counts(fieldK, X)
    ms = np.arange(n, X + 1, n)
    return float(np.sum(r[ms] / ms))


def ideal_exp_sum(fieldK: QuadraticField, chi: DirichletCharacter, alpha,
                  X: int) -> complex:
    """Sum over ideals of norm <= X of chi(norm) * e(alpha * norm),
    aggregated through the norm-count sieve."""
    r = norm_counts(fieldK, X)
    ms = np.arange(1, X + 1)
    vals = r[1:].astype(np.float64) * chi.value_table()[ms % chi.modulus]
    return complex(np.dot(vals, phase_array(ms, alpha)))


# ---------------------------------------------------------------------------
# F over ideals, its sieved approximant, and G against F: F sums the ideal
# von Mangoldt function twisted by chi o N, a Dirichlet character chi
# composed with the norm, against e(alpha * norm) over a quadratic field (or
# over Q itself); the untwisted F takes chi = principal_character(1)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# the all-N side: H_sharp, the norms of H_flat = H - H_sharp, Parseval
# ---------------------------------------------------------------------------

def h_sharp_array(inst: ProblemInstance, z: float) -> np.ndarray:
    """Coefficients of H_sharp for every attainable N, indexed like
    weighted_counts: the prefactor times the convolution of the
    congruence-sieve weight arrays."""
    arrays = {fc: sieve.sharp_weights(inst.X, z, fc.spec.modulus,
                                      fc.cls.coset)
              for fc in dict.fromkeys(inst.components)}
    vals = oracles._convolve([arrays[fc] for fc in inst.components], inst.a)
    vals *= float(inst.prefactor)
    return vals


def h_flat_norms(inst: ProblemInstance, z: float):
    """(L1, L2) of H_flat = H - H_sharp: L2 by Parseval over coefficients,
    L1 by sampling the difference polynomial at M roots of unity, M the
    transform length of at least 4x the attainable N."""
    # in place: a separate difference leaves a freed array of every N on
    # the heap below the grid (357 MiB against 388 at X = 1e6, trivial x3)
    diff = oracles.weighted_counts(inst)
    diff -= h_sharp_array(inst, z)
    l2 = float(math.sqrt(np.sum(diff * diff)))
    lo, hi = inst.attainable_range
    M = circle._fft_len(4 * (hi - lo + 1) - 1)
    mags = np.abs(np.fft.rfft(diff, M))
    # the real diff's values at bins M/2 + 1 .. M - 1 are the conjugates
    # of those at 1 .. M/2 - 1 (M is even)
    l1 = float((2 * np.sum(mags) - mags[0] - mags[-1]) / M)
    return l1, l2


def parseval_check(inst: ProblemInstance):
    """(sum of S(N)^2, quadrature of |H|^2 on the grid alpha = j/M, M four
    times the number of N) where the grid side evaluates H(alpha) =
    prod G_i(a_i alpha) from the prime sums directly, independent of the
    convolution path: one prime at a time, e(a_i p j / M) is read from one
    table of the M-th roots of unity at (a_i p mod M) j mod M, a product
    below 2^63 while M < 3e9."""
    comps = circle._component_primes(inst)
    weighted = oracles.weighted_counts(inst, comps)
    lhs = float(np.sum(weighted ** 2))
    M = 4 * len(weighted)
    grid = np.arange(M)
    roots = phase_array(grid, Fraction(1, M))
    H = np.ones(M, dtype=complex)
    for primes, ai in zip(comps, inst.a):
        G = np.zeros(M, dtype=complex)
        for p in primes.tolist():
            G += math.log(p) * roots[(ai * p % M) * grid % M]
        H *= G
    rhs = float(np.mean(np.abs(H) ** 2))
    return lhs, rhs


# ---------------------------------------------------------------------------
# one value of the class weight, and a spec as JSON
# ---------------------------------------------------------------------------

def lambda_kc(spec: galois.GaloisSpec, cls: galois.ClassSpec,
              n: int) -> Fraction:
    """phi(D)/|H| on the class coset mod the spec's modulus, else 0: the
    scalar oracle of the array sieve.sharp_weights builds."""
    D = spec.modulus
    if n % D in cls.coset:
        return Fraction(phi(D), len(cls.coset))
    return Fraction(0)


def spec_to_json(spec: galois.GaloisSpec) -> dict:
    """The document of spec that galois.spec_from_json reads back."""
    doc = {"kind": spec.kind, "modulus": spec.modulus,
           "classes": [{"label": c.label, "coset": sorted(c.coset),
                        "size": c.class_size, "order": c.element_order}
                       for c in spec.classes]}
    if spec.kind == galois.POLYNOMIAL:
        doc["coeffs"] = list(spec.coeffs)
        doc["group_order"] = spec.group_order
    return doc
