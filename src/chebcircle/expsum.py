"""Rational approximation and exponential-sum evaluators.

Covers continued-fraction best approximations, the "denominator in a
range" qualification |alpha - a/q| < 1/q^2 (searched completely, over the
convergents and their neighbouring intermediate fractions), the structure
set covering construction for multiples of a badly approximable number,
the one e(alpha * n) kernel, ideal-norm counting in quadratic fields via
the Kronecker divisor sum, and Weyl polynomial sums evaluated by
incremental finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .arith import factorint
from .characters import DirichletCharacter, kronecker
from .errors import DegenerateAlpha, DomainError


@dataclass(frozen=True)
class RationalApprox:
    a: int
    q: int
    err: float

    @property
    def qualifies(self) -> bool:
        return self.err < 1.0 / self.q**2


def _as_fraction(alpha):
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    return Fraction(alpha)  # exact binary expansion of the double


def convergents(alpha, qmax=None):
    """Continued-fraction convergents (a, q) of alpha, ascending q.

    Floats are treated as the exact binary rational they store, so the
    expansion terminates; qmax stops the scan early.
    """
    x = _as_fraction(alpha)
    p0, q0, p1, q1 = 1, 0, int(math.floor(x)), 1
    out = [(p1, q1)]
    x -= p1
    while x != 0:
        x = 1 / x
        a = int(math.floor(x))
        x -= a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if qmax is not None and q1 > qmax:
            break
        out.append((p1, q1))
    return out


def best_approx(alpha, qmax: int) -> RationalApprox:
    """Convergent with the largest denominator <= qmax.

    Satisfies the Dirichlet guarantee |alpha - a/q| <= 1/(q*qmax) unless
    the expansion terminated first (then err may simply be 0).
    """
    if qmax < 1:
        raise DomainError("qmax must be >= 1")
    a, q = convergents(alpha, qmax)[-1]
    err = abs(float(_as_fraction(alpha) - Fraction(a, q)))
    return RationalApprox(a, q, err)


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
# e(alpha * n)
# ---------------------------------------------------------------------------

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
    a = float(alpha)
    return np.exp(2j * np.pi * ((a * ns.astype(np.float64)) % 1.0))


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
# Weyl sums
# ---------------------------------------------------------------------------

def _difference_table(coeffs):
    """Forward differences Delta^j P(1), j = 0..deg, exact integers."""
    deg = len(coeffs) - 1
    vals = [sum(c * (x ** i) for i, c in enumerate(coeffs))
            for x in range(1, deg + 2)]
    table = []
    while vals:
        table.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return table


def _nonconstant(coeffs) -> list:
    """coeffs without trailing zeros; DomainError unless of degree >= 1."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise DomainError("polynomial degree must be >= 1")
    return c


def weyl_sum(coeffs, alpha, X: int) -> complex:
    """Sum over x = 1..X of e(alpha * P(x)), P given by ascending integer
    coefficients: alpha is read as the exact a/q it stores, r = a*P(x) mod q
    by exact finite differences (no drift at any degree or range), and
    e(r/q) through phase_array, with no large-argument trigonometry."""
    c = _nonconstant(coeffs)
    alpha = _as_fraction(alpha)
    q = alpha.denominator
    t = [(alpha.numerator * d) % q for d in _difference_table(c)]
    # above 2^63 keep the top 63 bits of r and q: r/q moves by < 2^-61
    s = max(q.bit_length() - 63, 0)
    rs = np.empty(max(X, 0), dtype=np.int64)
    for i in range(len(rs)):
        rs[i] = t[0] >> s
        for j in range(len(t) - 1):
            t[j] = (t[j] + t[j + 1]) % q
    return complex(np.sum(phase_array(rs, Fraction(1, q >> s))))


def weyl_bound(coeffs, alpha, X: int):
    """(|c| * X * (1/q + 1/X + q/X^k)^(10^-k), the best approximation a/q
    with q <= min(10^6, max(10, X^k)) it reads); a diagnostic bound on
    |weyl_sum|, no proof."""
    c = _nonconstant(coeffs)
    if X < 1:
        raise DomainError("X must be >= 1")
    x = _as_fraction(alpha)
    if x == round(x):
        raise DomainError("alpha integral: approximation denominator undefined")
    k = len(c) - 1
    ra = best_approx(alpha, min(10**6, max(10, X**k)))
    lead = abs(c[-1])
    return lead * X * (1.0 / ra.q + 1.0 / X + ra.q / X**k) ** (10.0 ** -k), ra
