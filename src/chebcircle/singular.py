"""The main-term components: archimedean density, the D-adic factor, the
unramified Euler factors with closed forms, and their assembly for a whole
list of N at once."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import SCHEMA, sieve
from .arith import factorint
from .errors import DomainError
from .instance import ProblemInstance

P_MAX = 10**4  # the default Euler-product cutoff P_max


# ---------------------------------------------------------------------------
# archimedean factor
# ---------------------------------------------------------------------------

def c_infinity(a, X: float, N: float) -> float:
    """Density of the slice {x in [0,X]^k : sum a_i x_i = N}, normalized so
    the integer-point count on the slice is this value up to O(X^(k-2)).

    Closed form (Irwin 1927, Hall 1927): reflecting x_i -> X - x_i where
    a_i < 0 turns the slice into sum |a_i| y_i = N'; its density is the sum
    over subsets S of (-1)^|S| * max(0, N' - X * sum_S |a_i|)^(k-1), divided
    by (k-1)! * prod |a_i|.  X and N (int, float or Fraction) are scaled by
    their common denominator L, so the sum is exact in integers; one
    int / int division by L^(k-1) * (k-1)! * prod |a_i| rounds it once, as
    float(Fraction) would."""
    a = [int(v) for v in a]
    if len(a) < 2:
        raise DomainError("need at least two variables")
    if any(v == 0 for v in a):
        raise DomainError("coefficients must be nonzero")
    k = len(a)
    X, N = Fraction(X), Fraction(N)
    L = math.lcm(X.denominator, N.denominator)
    X, N = (v.numerator * (L // v.denominator) for v in (X, N))
    lo = X * sum(v for v in a if v < 0)
    hi = X * sum(v for v in a if v > 0)
    if not (lo <= N <= hi):
        return 0.0
    b = [abs(v) for v in a]
    t = N - lo
    total = 0
    for r in range(k + 1):
        for S in itertools.combinations(b, r):
            s = t - X * sum(S)
            if s > 0:
                total += (-1) ** r * s ** (k - 1)
    return total / (L ** (k - 1) * math.factorial(k - 1) * math.prod(b))


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

def c_D(cosets, a, D: int) -> list:
    """D * #{x_i in H_i : sum a_i x_i = r mod D} / prod |H_i| for every
    residue r mod D, exact.

    The histograms of a_i x mod D over the H_i are multiplied cyclically
    by Kronecker substitution: each is packed as an integer in slots of w
    bytes, w the fewest that hold prod |H_i|, so no count carries into the
    next slot, and each big-integer product is folded at 8wD bits, which
    adds the slot of r + D to the slot of r."""
    denom = math.prod(len(H) for H in cosets)
    w = (denom.bit_length() + 7) // 8
    fold = 2 ** (8 * w * D) - 1
    acc = 1
    for H, ai in zip(cosets, a):
        hist = np.bincount([ai * x % D for x in H], minlength=D)
        slots = np.zeros((D, w), dtype=np.uint8)
        # a count is below 2**64, and below 2**(8w)
        slots[:, :8] = hist.astype("<u8").view(np.uint8).reshape(D, 8)[:, :w]
        acc *= int.from_bytes(slots.tobytes(), "little")
        acc = (acc & fold) + (acc >> (8 * w * D))
    data = acc.to_bytes(w * D, "little")
    return [Fraction(D * int.from_bytes(data[r * w:(r + 1) * w], "little"),
                     denom) for r in range(D)]


def _closed_cp(p: int, k: int):
    """(numerator if p divides N, numerator if not, denominator) of C_p,
    where k counts the coefficients that p does not divide (a variable
    whose coefficient p divides adds p - 1 free units and nothing to the
    sum): p * (solution count over units) / (p-1)^k, where the count is
    ((p-1)^k + (-1)^k (p-1)) / p if p divides N and ((p-1)^k - (-1)^k) / p
    otherwise."""
    q, sign = (p - 1) ** k, (-1) ** k
    return q + sign * (p - 1), q - sign, q


def c_p(p: int, a, N: int) -> Fraction:
    """Local factor at an unramified prime, p * (solution count over units)
    / (p-1)^k, in the closed form of _closed_cp."""
    n_div, n_not, q = _closed_cp(p, sum(v % p != 0 for v in a))
    return Fraction(n_not if N % p else n_div, q)


def c_p_bruteforce(p: int, a, N: int) -> Fraction:
    """Exhaustive unit-tuple enumeration; the oracle for c_p."""
    count = sum(1 for xs in itertools.product(range(1, p), repeat=len(a))
                if sum(ai * x for ai, x in zip(a, xs)) % p == N % p)
    return Fraction(p * count, (p - 1) ** len(a))


def _euler_rows(a, Ns, D: int, P_max: int):
    """(product of C_p, first vanishing prime or 0) for each N in Ns, over
    the primes p <= P_max and then the primes above P_max that divide a
    coefficient, p not dividing D.

    Each row of a rows x primes matrix of log C_p is summed in ascending p
    by np.cumsum, which adds sequentially as a scalar loop per N would, so
    the values do not depend on the other N; a vanishing C_p enters as
    -inf.  One pass gives log C_p for p dividing neither N nor any
    coefficient, and _closed_cp, over the coefficients p does not divide,
    both values at each p that divides a coefficient or an N of the
    block.  int / int rounds each exact ratio once, as float(Fraction)
    does.
    What factorint leaves of |a_i| after trial division to P_max is 1 or,
    below P_max**2, a prime; a larger cofactor raises DomainError.  The
    matrix is built over blocks of at most 2**18 entries."""
    if P_max < 2:
        raise DomainError("P_max must be >= 2")
    Ns = np.asarray(Ns, dtype=np.int64)
    small = sieve.primes_upto(P_max).tolist()
    divides = Counter()    # prime -> number of coefficients it divides
    for ai in a:
        factors = factorint(ai, P_max)
        v = max(factors, default=1)
        if v >= P_max ** 2:
            raise DomainError(f"coefficient {ai} leaves a cofactor {v} >= "
                              f"P_max**2 after the primes <= P_max = "
                              f"{P_max}; raise P_max")
        divides.update(factors.keys())
    ps = [p for p in small + sorted(p for p in divides if p > P_max)
          if D % p]
    if not ps:
        return np.ones(len(Ns)), np.zeros(len(Ns), dtype=np.int64)

    k, sign = len(a), (-1) ** len(a)
    log_not = np.array([math.log((q - sign) / q) if q != sign else -math.inf
                        for q in [(p - 1) ** k for p in ps]])
    log_div = np.full(len(ps), np.nan)  # nan until closed sets it

    def closed(cols):  # both values at the columns cols, by _closed_cp
        for j in cols:
            n_div, n_not, q = _closed_cp(ps[j], k - divides[ps[j]])
            log_div[j], log_not[j] = (math.log(n / q) if n else -math.inf
                                      for n in (n_div, n_not))

    closed([j for j, p in enumerate(ps) if p in divides])
    prow = np.array(ps, dtype=np.int64)
    logs = np.empty(len(Ns))
    bad = np.zeros(len(Ns), dtype=np.int64)
    step = 2**18 // len(ps) or 1
    for s in range(0, len(Ns), step):
        block = slice(s, s + step)
        hit = Ns[block, None] % prow == 0
        closed(np.flatnonzero(hit.any(axis=0) & np.isnan(log_div)))
        M = np.where(hit, log_div, log_not)
        for j in np.flatnonzero(np.fmin(log_div, log_not) == -math.inf)[::-1]:
            bad[block][M[:, j] == -math.inf] = ps[j]
        logs[block] = np.cumsum(M, axis=1, out=M)[:, -1]
    return np.array([math.exp(x) for x in logs.tolist()]), bad


def _tail_bound(k: int, N: int, P_max: int) -> float:
    """Bound on |log of the Euler factors beyond P_max|: |C_p - 1| is
    (p-1)^(1-k) when p | N and (p-1)^(-k) otherwise."""
    generic = 2.0 * (P_max - 1.0) ** (1 - k) / max(1, k - 1)
    n_big_divisors = max(0.0, math.log(max(abs(N), 2)) / math.log(P_max))
    return generic + 2.0 * n_big_divisors * (P_max - 1.0) ** (1 - k)


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
            "schema": SCHEMA,
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


def main_terms(inst: ProblemInstance, Ns,
               P_max: int = P_MAX) -> list:
    """One LocalFactorReport per N in Ns, from one pass of the Euler loop
    and one table of C_D over the residues mod D, read at N mod D."""
    D = inst.modulus
    pref = inst.prefactor
    values, bad = _euler_rows(inst.a, Ns, D, P_max)
    c_ds = c_D(inst.lifted_cosets(), inst.a, D)
    out = []
    for N, value, bad_p in zip(Ns, values, bad):
        N = int(N)
        cinf = c_infinity(inst.a, inst.X, N)
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
