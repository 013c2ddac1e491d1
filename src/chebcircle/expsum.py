"""Rational approximation, the one e(alpha * n) kernel, and Weyl sums: the
expsum and ratapprox commands.

Covers continued-fraction best approximations, e(alpha * n) by exact
roots of unity (phase_array, read by genfun too), and Weyl polynomial sums
evaluated by incremental finite differences with their diagnostic bound.
Qualifying approximations, structure sets and ideal-norm counts are in
tests/lemmas.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BYTES_BASE, DomainError, refuse_above


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
    e(r/q) through phase_array, with no large-argument trigonometry.
    Refused before any array when the arrays would pass MAX_BYTES: per x,
    the int64 r and up to 32 bytes in phase_array, and 32 bytes per root
    while phase_array builds its table of q roots."""
    c = _nonconstant(coeffs)
    alpha = _as_fraction(alpha)
    q = alpha.denominator
    roots = 32 * q if q <= _ROOT_LIMIT else 0
    refuse_above(BYTES_BASE + 40 * max(X, 0) + roots, f"expsum at X={X}")
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
