"""Rational approximation and exponential-sum evaluators.

Covers continued-fraction best approximations, the "denominator in a
range" qualification |alpha - a/q| < 1/q^2, the structure set covering
construction for multiples of a badly approximable number, ideal-norm
counting in quadratic fields via the Kronecker divisor sum, and Weyl
polynomial sums evaluated by incremental finite differences.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import factorint
from .characters import DirichletCharacter, kronecker_character
from .errors import DegenerateAlpha, DomainError, UnsupportedCharacter


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


EXHAUSTIVE_Q_LIMIT = 10_000


def has_denominator_in_range(alpha, qmin, qmax) -> Optional[RationalApprox]:
    """A reduced a/q with qmin < q < qmax and |alpha - a/q| < 1/q^2.

    Scans continued-fraction convergents; falls back to an exhaustive scan
    when qmax is small enough that it is exact.
    """
    x = _as_fraction(alpha)
    for a, q in convergents(alpha, qmax):
        if qmin < q < qmax and abs(x - Fraction(a, q)) < Fraction(1, q * q):
            return RationalApprox(a, q, abs(float(x - Fraction(a, q))))
    if qmax <= EXHAUSTIVE_Q_LIMIT:
        q = int(math.floor(qmin)) + 1
        while q < qmax:
            a = round(x * q)
            if math.gcd(a, q) == 1 and abs(x - Fraction(a, q)) < Fraction(1, q * q):
                return RationalApprox(a, q, abs(float(x - Fraction(a, q))))
            q += 1
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

    @property
    def chi(self) -> DirichletCharacter:
        return kronecker_character(self.d)

    def chi_int(self, n: int) -> int:
        from .characters import kronecker
        return kronecker(self.d, n)


_NORM_COUNT_CACHE = {}


def norm_counts(fieldK: QuadraticField, X: int) -> np.ndarray:
    """r[m] = number of ideals of norm m, 0 <= m <= X, via the divisor sum
    of the Kronecker character."""
    key = (fieldK.d, X)
    hit = _NORM_COUNT_CACHE.get(key)
    if hit is not None:
        return hit
    m = abs(fieldK.d)
    chtab = np.array([fieldK.chi_int(r) for r in range(m)], dtype=np.int64)
    r = np.zeros(X + 1, dtype=np.int64)
    for e in range(1, X + 1):
        c = chtab[e % m]
        if c:
            r[e::e] += c
    if len(_NORM_COUNT_CACHE) > 8:
        _NORM_COUNT_CACHE.clear()
    _NORM_COUNT_CACHE[key] = r
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


# ---------------------------------------------------------------------------
# ideal characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealCharacter:
    """trivial, or a Dirichlet character composed with the norm."""
    kind: str  # "trivial" | "norm" | "other"
    chi: Optional[DirichletCharacter] = None

    def norm_table(self, norms: np.ndarray) -> np.ndarray:
        if self.kind == "trivial":
            return np.ones(len(norms), dtype=complex)
        if self.kind == "norm":
            return self.chi.value_table()[norms % self.chi.modulus]
        raise UnsupportedCharacter(self.kind)


TRIVIAL_XI = IdealCharacter("trivial")


def norm_composed(chi: DirichletCharacter) -> IdealCharacter:
    return IdealCharacter("norm", chi)


def ideal_exp_sum(fieldK: QuadraticField, xi: IdealCharacter, alpha,
                  X: int, log_weighted: bool = False) -> complex:
    """Sum over ideals of norm <= X of xi * e(alpha * norm), optionally
    weighted by log(norm); aggregated through the norm-count sieve."""
    r = norm_counts(fieldK, X)
    ms = np.arange(1, X + 1)
    coefs = r[1:].astype(np.float64)
    if log_weighted:
        coefs = coefs * np.log(ms)
    vals = coefs * xi.norm_table(ms)
    a = float(alpha)
    phases = np.exp(2j * np.pi * ((a * ms) % 1.0))
    return complex(np.dot(vals, phases))


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


def weyl_sum(coeffs, alpha, X: int) -> complex:
    """Sum over x = 1..X of e(alpha * P(x)), P given by ascending integer
    coefficients, evaluated by incremental finite differences so each step
    costs O(deg) and no large-argument trigonometry occurs."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise DomainError("polynomial degree must be >= 1")
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    diffs = _difference_table(c)
    # a double is an exact binary rational, so every input admits an exact
    # integer recurrence mod q: no drift no matter the degree or range
    alpha = _as_fraction(alpha)
    q = alpha.denominator
    a = alpha.numerator
    t = [(a * d) % q for d in diffs]
    if q <= 65536:
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        phase = lambda r: roots[r]
    else:
        phase = lambda r: cmath.exp(2j * cmath.pi * (r / q))
    acc = 0j
    for _ in range(X):
        acc += phase(t[0])
        for j in range(len(t) - 1):
            t[j] = (t[j] + t[j + 1]) % q
    return complex(acc)


def weyl_bound_ratio(coeffs, alpha, X: int, qmax: Optional[int] = None) -> float:
    """|weyl_sum| divided by |c| * X * (1/q + 1/X + q/X^k)^(10^-k), with
    q from the best rational approximation; a diagnostic, not a proof."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise DomainError("polynomial degree must be >= 1")
    x = _as_fraction(alpha)
    if x == round(x):
        raise DomainError("alpha integral: approximation denominator undefined")
    k = len(c) - 1
    if qmax is None:
        qmax = min(10**6, max(10, X**k))
    ra = best_approx(alpha, qmax)
    lead = abs(c[-1])
    bound = lead * X * (1.0 / ra.q + 1.0 / X + ra.q / X**k) ** (10.0 ** -k)
    return abs(weyl_sum(coeffs, alpha, X)) / bound
