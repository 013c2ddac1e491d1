"""Reference implementations that the tests check the program against: no
command runs them, so they live here, beside the tests that use them.

- S(N): every N with a solution by meet-in-the-middle enumeration
  (brute_force_all); weighted by the product of log p at every
  attainable N by one FFT product (weighted_counts, from _convolve); and
  a product of integer arrays by big-integer multiplication
  (_exact_convolve);
- C_p at one prime, in closed form (c_p) and by counting unit tuples
  (c_p_bruteforce), and C_inf in closed form for a = (1, 1, 1)
  (c_infinity_ternary);
- the sieve weight Lambda_z at one n (lambda_z) and C(z) (c_of_z).

The S(N) references share only the classified prime lists
(circle._component_primes) with counts_at: they spread, pad and
transform their arrays with numpy here, so that a fault in the count's
own helpers does not move them along.  Tests call these at fixed sizes,
so nothing here checks a memory limit.  Import it as the tests do
(`import oracles`): pytest puts this directory on the path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from chebcircle import circle
from chebcircle.instance import ProblemInstance


# ---------------------------------------------------------------------------
# S(N)
# ---------------------------------------------------------------------------

def _spread(values: np.ndarray, ai: int) -> np.ndarray:
    """A copy of values with values[n] at index |ai| n, reversed when
    ai < 0: the coefficients of sum_n values[n] x^(ai n), lowest first."""
    out = np.zeros(abs(ai) * (len(values) - 1) + 1, values.dtype)
    out[::abs(ai)] = values
    return out[::-1] if ai < 0 else out


def _span(arrays, a) -> int:
    """hi - lo of the exponents of prod_i sum_n arrays[i][n] x^(a_i n)."""
    return sum(abs(ai) * (len(v) - 1) for v, ai in zip(arrays, a))


def _length(span: int) -> int:
    """The least even M > span with no prime factor above 5: an M-point
    cyclic product wraps none of the span + 1 coefficients, and pocketfft
    transforms such an M by its radix passes alone."""
    M = span + 2 - span % 2
    while True:
        m = M
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return M
        M += 2


def _convolve(arrays, a) -> np.ndarray:
    """Coefficients of prod_i sum_n arrays[i][n] x^(a_i n), lowest exponent
    first, by FFT over _length(span) points.  Each distinct (array, a_i)
    is transformed once and multiplied in as often as it occurs; the
    first one's spectrum starts the product, so that at most two spectra
    are held at once."""
    span = _span(arrays, a)
    M = _length(span)
    by_id = {id(v): v for v in arrays}
    product = None
    for (key, ai), n in Counter((id(v), ai)
                                for v, ai in zip(arrays, a)).items():
        spectrum = np.fft.rfft(_spread(by_id[key], ai), M)
        if product is None:
            product, n = spectrum.copy(), n - 1
        for _ in range(n):
            product *= spectrum
    del spectrum
    return np.fft.irfft(product, M)[:span + 1]


def _exact_convolve(arrays, a) -> np.ndarray:
    """_convolve by big-integer multiplication (Kronecker substitution,
    base 2^64); exact for nonnegative integer entries whose coefficients
    stay below 2^63."""
    acc = math.prod(int.from_bytes(_spread(v, ai).astype("<u8").tobytes(),
                                   "little")
                    for v, ai in zip(arrays, a))
    data = acc.to_bytes((_span(arrays, a) + 1) * 8, "little")
    return np.frombuffer(data, dtype="<u8").astype(np.int64)


def weighted_counts(inst: ProblemInstance, comps=None) -> np.ndarray:
    """S(N) weighted by the product of log p for every attainable N, index
    0 holding N = attainable_range[0], by _convolve of the arrays over
    0..X holding log p at each prime p of a component (comps, the
    components' prime lists, unless given); clamped at 0 against FFT
    round-off.  Equal components share one array, which _convolve
    transforms once."""
    if comps is None:
        comps = circle._component_primes(inst)
    logs = {}
    for ps in comps:
        if id(ps) not in logs:
            logs[id(ps)] = np.zeros(inst.X + 1)
            logs[id(ps)][ps] = np.log(ps.astype(np.float64))
    weighted = _convolve([logs[id(ps)] for ps in comps], inst.a)
    np.maximum(weighted, 0.0, out=weighted)
    return weighted


def brute_force_all(inst: ProblemInstance):
    """{N: (weighted, unweighted) S(N)} for every N with a solution, by
    meet-in-the-middle enumeration over the classified prime lists.  N
    absent from the dict has S(N) = (0.0, 0)."""
    comps = circle._component_primes(inst)
    half = (inst.k + 1) // 2

    def sums(idx):
        """partial sum over the components idx -> (solution count,
        product of log p)"""
        acc = {0: (1, 1.0)}
        for i in idx:
            nxt = {}
            ps = comps[i]
            logs = np.log(ps.astype(np.float64))
            for s, (cnt, wt) in acc.items():
                for p, lg in zip(ps, logs):
                    key = s + inst.a[i] * int(p)
                    c0, w0 = nxt.get(key, (0, 0.0))
                    nxt[key] = (c0 + cnt, w0 + wt * lg)
            acc = nxt
        return acc

    left, right = sums(range(half)), sums(range(half, inst.k))
    out = {}
    for s, (cnt, wt) in left.items():
        for t, (c1, w1) in right.items():
            c0, w0 = out.get(s + t, (0, 0.0))
            out[s + t] = (c0 + cnt * c1, w0 + wt * w1)
    return {N: (w, c) for N, (c, w) in out.items()}


# ---------------------------------------------------------------------------
# C_p and C_inf
# ---------------------------------------------------------------------------

def c_p(p: int, a, N: int) -> Fraction:
    """Local factor at an unramified prime, p * (solution count over units)
    / (p-1)^k, in closed form: over the k coefficients that p does not
    divide (a variable whose coefficient p divides adds p - 1 free units
    and nothing to the sum), the count is ((p-1)^k + (-1)^k (p-1)) / p if
    p divides N and ((p-1)^k - (-1)^k) / p otherwise."""
    k = sum(v % p != 0 for v in a)
    q, sign = (p - 1) ** k, (-1) ** k
    return Fraction(q - sign if N % p else q + sign * (p - 1), q)


def c_p_bruteforce(p: int, a, N: int) -> Fraction:
    """Exhaustive unit-tuple enumeration; the oracle for c_p."""
    count = sum(1 for xs in itertools.product(range(1, p), repeat=len(a))
                if sum(ai * x for ai, x in zip(a, xs)) % p == N % p)
    return Fraction(p * count, (p - 1) ** len(a))


def c_infinity_ternary(N: float, X: float) -> float:
    """Closed-form cross-check of C_inf for k=3, a=(1,1,1)."""
    if N < 0 or N > 3 * X:
        return 0.0

    def pos2(t):
        return t * t if t > 0 else 0.0

    return 0.5 * (pos2(N) - 3 * pos2(N - X) + 3 * pos2(N - 2 * X))


# ---------------------------------------------------------------------------
# the sieve weight
# ---------------------------------------------------------------------------

def lambda_z(z: float, n: int) -> Fraction:
    """0 if n has a prime factor p <= z, that is, a factor d with
    2 <= d <= z; else C(z)."""
    if any(n % d == 0 for d in range(2, math.floor(z) + 1)):
        return Fraction(0)
    return c_of_z(z)


def c_of_z(z: float) -> Fraction:
    """C(z) = prod p / (p - 1) over the primes p <= z, found by trial
    division."""
    out = Fraction(1)
    for p in range(2, math.floor(z) + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            out *= Fraction(p, p - 1)
    return out
