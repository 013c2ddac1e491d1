"""The main-term components: archimedean density, the D-adic factor, the
unramified Euler factors with closed forms, and their assembly for a whole
list of N at once."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import sieve
from .errors import DomainError
from .instance import ProblemInstance


# ---------------------------------------------------------------------------
# archimedean factor
# ---------------------------------------------------------------------------

def c_infinity(a, X: float, N: float) -> float:
    """Density of the slice {x in [0,X]^k : sum a_i x_i = N}, normalized so
    the integer-point count on the slice is this value up to O(X^(k-2)).

    Closed form (Irwin 1927, Hall 1927): reflecting x_i -> X - x_i where
    a_i < 0 turns the slice into sum |a_i| y_i = N'; its density is the sum
    over subsets S of (-1)^|S| * max(0, N' - X * sum_S |a_i|)^(k-1), divided
    by (k-1)! * prod |a_i|.  The sum is exact in rationals, rounded once."""
    a = [int(v) for v in a]
    if len(a) < 2:
        raise DomainError("need at least two variables")
    if any(v == 0 for v in a):
        raise DomainError("coefficients must be nonzero")
    k = len(a)
    X = Fraction(X)
    lo = X * sum(v for v in a if v < 0)
    hi = X * sum(v for v in a if v > 0)
    if not (lo <= N <= hi):
        return 0.0
    b = [abs(v) for v in a]
    t = Fraction(N) - lo
    total = Fraction(0)
    for r in range(k + 1):
        for S in itertools.combinations(b, r):
            s = t - X * sum(S)
            if s > 0:
                total += (-1) ** r * s ** (k - 1)
    return float(total / (math.factorial(k - 1) * math.prod(b)))


def c_infinity_ternary(N: float, X: float) -> float:
    """Closed-form cross-check for k=3, a=(1,1,1)."""
    if N < 0 or N > 3 * X:
        return 0.0

    def pos2(t):
        return t * t if t > 0 else 0.0

    return 0.5 * (pos2(N) - 3 * pos2(N - X) + 3 * pos2(N - 2 * X))


# ---------------------------------------------------------------------------
# congruence factors
# ---------------------------------------------------------------------------

def _cyclic_convolve(u, v, D):
    out = [0] * D
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                if y:
                    out[(i + j) % D] += x * y
    return out


def c_D(cosets, a, N: int, D: int) -> Fraction:
    """D * #{x_i in H_i : sum a_i x_i = N mod D} / prod |H_i|, exact."""
    acc = None
    denom = 1
    for H, ai in zip(cosets, a):
        v = [0] * D
        for x in H:
            v[(ai * x) % D] += 1
        denom *= len(H)
        acc = v if acc is None else _cyclic_convolve(acc, v, D)
    return Fraction(D * acc[N % D], denom)


def c_p(p: int, a, N: int) -> Fraction:
    """Local factor at an unramified prime: p * (solution count over units)
    / (p-1)^k; closed form when p divides no coefficient."""
    a = [int(v) for v in a]
    k = len(a)
    if all(v % p != 0 for v in a):
        if N % p == 0:
            count = ((p - 1) ** k + (-1) ** k * (p - 1)) // p
        else:
            count = ((p - 1) ** k - (-1) ** k) // p
    else:
        units = [frozenset(range(1, p))] * k
        return c_D(units, a, N, p)
    return Fraction(p * count, (p - 1) ** k)


def c_p_bruteforce(p: int, a, N: int) -> Fraction:
    """Exhaustive unit-tuple enumeration; the oracle for c_p."""
    k = len(a)
    count = 0
    idx = [1] * k
    while True:
        if sum(ai * x for ai, x in zip(a, idx)) % p == N % p:
            count += 1
        j = k - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < p:
                break
            idx[j] = 1
            j -= 1
        if j < 0:
            break
    return Fraction(p * count, (p - 1) ** k)


def _euler_rows(a, Ns, D: int, P_max: int):
    """(product of C_p, first vanishing prime or 0) for each N in Ns, over
    p <= P_max with p not dividing D.

    The one loop over the primes: each N adds log C_p for ascending p, as a
    scalar loop per N would, so the values do not depend on the other N."""
    if P_max < 2:
        raise DomainError("P_max must be >= 2")
    Ns = np.asarray(Ns, dtype=np.int64)
    logs = np.zeros(len(Ns))
    bad = np.zeros(len(Ns), dtype=np.int64)
    for p in sieve.primes_upto(P_max).tolist():
        if D % p == 0:
            continue
        if all(v % p != 0 for v in a):
            # C_p depends only on whether p divides N
            keys, idx = (0, 1), (Ns % p != 0).astype(np.intp)
        else:
            keys, idx = np.unique(Ns % p, return_inverse=True)
        cps = [c_p(p, a, int(r)) for r in keys]
        logs += np.array([math.log(float(c)) if c else 0.0 for c in cps])[idx]
        if not all(cps):
            zero = np.array([c == 0 for c in cps])[idx]
            bad[zero & (bad == 0)] = p
    values = np.array([0.0 if p else math.exp(x) for x, p in zip(logs, bad)])
    return values, bad


def _tail_bound(k: int, N: int, P_max: int) -> float:
    """Bound on |log of the Euler factors beyond P_max|: |C_p - 1| is
    (p-1)^(1-k) when p | N and (p-1)^(-k) otherwise."""
    generic = 2.0 * (P_max - 1.0) ** (1 - k) / max(1, k - 1)
    n_big_divisors = max(0.0, math.log(max(abs(N), 2)) / math.log(P_max))
    return generic + 2.0 * n_big_divisors * (P_max - 1.0) ** (1 - k)


def euler_product(a, N: int, D: int, P_max: int = 10**4):
    """(product of C_p over p <= P_max with p not dividing D, tail bound,
    first vanishing prime or None)."""
    values, bad = _euler_rows(a, [N], D, P_max)
    if bad[0]:
        return 0.0, 0.0, int(bad[0])
    return float(values[0]), _tail_bound(len(a), N, P_max), None


def euler_product_bulk(a, Ns, D: int, P_max: int = 10**4) -> np.ndarray:
    """Euler products for a whole array of N at once; 0 where some C_p
    vanishes."""
    return _euler_rows(a, Ns, D, P_max)[0]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class LocalFactorReport:
    prefactor: Fraction
    C_inf: float
    C_D: Fraction
    euler_truncated: float
    P_max: int
    tail_bound: float
    main_term: float
    vanishing_reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "schema": "chebotarev-circle/1",
            "prefactor": [self.prefactor.numerator,
                          self.prefactor.denominator],
            "C_inf": self.C_inf,
            "C_D": [self.C_D.numerator, self.C_D.denominator],
            "euler_truncated": self.euler_truncated,
            "P_max": self.P_max,
            "tail_bound": self.tail_bound,
            "main_term": self.main_term,
            "vanishing_reason": self.vanishing_reason,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def main_terms(inst: ProblemInstance, Ns,
               P_max: int = 10**4) -> list:
    """One LocalFactorReport per N in Ns, from one pass of the Euler loop;
    C_D depends only on N mod D and is computed once per residue."""
    D = inst.modulus
    pref = inst.prefactor
    cosets = inst.lifted_cosets()
    c_ds = {}
    values, bad = _euler_rows(inst.a, Ns, D, P_max)
    out = []
    for N, value, bad_p in zip(Ns, values, bad):
        N = int(N)
        cinf = c_infinity(inst.a, inst.X, N)
        if N % D not in c_ds:
            c_ds[N % D] = c_D(cosets, inst.a, N, D)
        cd = c_ds[N % D]
        if cd == 0:
            rep = LocalFactorReport(pref, cinf, cd, 0.0, P_max, 0.0, 0.0,
                                    "CD_zero")
        elif bad_p:
            rep = LocalFactorReport(pref, cinf, cd, 0.0, P_max, 0.0, 0.0,
                                    f"Cp_zero({bad_p})")
        else:
            value = float(value)
            mt = float(pref) * cinf * float(cd) * value
            rep = LocalFactorReport(pref, cinf, cd, value, P_max,
                                    _tail_bound(inst.k, N, P_max), mt)
        out.append(rep)
    return out


def main_term(inst: ProblemInstance, N: int,
              P_max: int = 10**4) -> LocalFactorReport:
    return main_terms(inst, [N], P_max)[0]
