"""Prime tables, the local weight functions, and smooth-number counting.

The sieve substrate is a flat smallest-prime-factor table; everything else
(prime lists, Moebius walks, squarefree smooth enumeration) is derived
from it or from direct enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import galois
from .arith import phi
from .errors import DomainError


@dataclass
class PrimeTable:
    limit: int
    spf: np.ndarray      # smallest prime factor, spf[0] = spf[1] = 0
    primes: np.ndarray   # ascending int64

    @classmethod
    def build(cls, limit: int) -> "PrimeTable":
        if limit < 2:
            raise DomainError("prime table limit must be >= 2")
        spf = np.zeros(limit + 1, dtype=np.uint32)
        for i in range(2, math.isqrt(limit) + 1):
            if spf[i] == 0:
                sl = spf[i * i::i]
                sl[sl == 0] = i
        rest = np.nonzero(spf == 0)[0][2:]
        spf[rest] = rest
        primes = np.nonzero(spf == np.arange(limit + 1, dtype=np.uint32))[0]
        primes = primes[primes >= 2].astype(np.int64)
        return cls(limit, spf, primes)

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            raise DomainError(f"{n} outside table range")
        return int(self.spf[n]) == n

    def primes_upto(self, x) -> np.ndarray:
        return self.primes[self.primes <= x]

    def factor(self, n: int):
        """(prime, exponent) pairs of n <= limit."""
        out = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out


def level(X: int, A=1.0, B=None):
    """(B, z) of the sieve level z = (log X)^B, where B = 4A unless given."""
    if B is None:
        B = 4.0 * A
    return B, math.log(X) ** B


def primes_upto(z: float) -> list:
    """The primes p <= z as Python ints, from a PrimeTable."""
    return PrimeTable.build(max(int(z), 2)).primes_upto(z).tolist()


def lambda_p(p: int, n: int) -> Fraction:
    """0 if p | n, else 1/(1 - 1/p)."""
    if n % p == 0:
        return Fraction(0)
    return Fraction(p, p - 1)


def lambda_z(z: float, n: int) -> Fraction:
    """Product of lambda_p over p <= z; equals 0 or C(z)."""
    for p in primes_upto(z):
        if n % p == 0:
            return Fraction(0)
    return c_of_z(z)


def c_of_z(z: float) -> Fraction:
    out = Fraction(1)
    for p in primes_upto(z):
        out *= Fraction(p, p - 1)
    return out


def c_of_z_float(z: float) -> float:
    """C(z) in double precision, summed in log space; use for bulk arrays
    where the exact rational would be astronomically large."""
    ps = np.array(primes_upto(z), dtype=np.float64)
    if len(ps) == 0:
        return 1.0
    return float(np.exp(-np.sum(np.log1p(-1.0 / ps))))


def p_of_z(z: float) -> int:
    out = 1
    for p in primes_upto(z):
        out *= p
    return out


def p_of_z_q(z: float, q: int) -> int:
    out = 1
    for p in primes_upto(z):
        if q % p != 0:
            out *= p
    return out


def lambda_kc(spec: galois.GaloisSpec, cls: galois.ClassSpec,
              n: int) -> Fraction:
    """phi(D)/|H| on the class coset mod the spec's modulus, else 0."""
    D = spec.modulus
    if D == 1:
        return Fraction(1)
    if n % D in cls.coset:
        return Fraction(phi(D), len(cls.coset))
    return Fraction(0)


def smooth_count(z: float, Y: float) -> int:
    """Number of squarefree z-smooth n <= Y (n=1 included), by depth-first
    product enumeration; never materializes non-smooth integers."""
    primes = primes_upto(z)

    def walk(i, prod):
        count = 1
        for j in range(i, len(primes)):
            nxt = prod * primes[j]
            if nxt > Y:
                break
            count += walk(j + 1, nxt)
        return count

    return walk(0, 1) if Y >= 1 else 0


@dataclass
class WeightedPrimeArray:
    X: int
    class_label: str
    weights: np.ndarray    # weights[p] = log p for classified primes
    indicator: np.ndarray  # uint8, 1 at classified primes
    primes: np.ndarray     # the classified primes themselves

    @property
    def count(self):
        return len(self.primes)


def weighted_prime_array(table: PrimeTable, spec: galois.GaloisSpec,
                         cls: galois.ClassSpec, X: int,
                         labels=None) -> WeightedPrimeArray:
    """The primes <= X of class cls.  labels, when given, is
    galois.classify_batch(spec, table.primes_upto(X)), so that the classes
    of one spec share one classification."""
    if X > table.limit:
        raise DomainError("X exceeds the prime table limit")
    ps = table.primes_upto(X)
    idx = list(spec.classes).index(cls)
    if labels is None:
        labels = galois.classify_batch(spec, ps)
    mine = ps[labels == idx]
    weights = np.zeros(X + 1)
    weights[mine] = np.log(mine.astype(np.float64))
    indicator = np.zeros(X + 1, dtype=np.uint8)
    indicator[mine] = 1
    return WeightedPrimeArray(X, cls.label, weights, indicator, mine)


def sieve_survivor_mask(X: int, z: float) -> np.ndarray:
    """Boolean mask over 0..X of n with no prime factor <= z (n=1 counts);
    the support of lambda_z."""
    mask = np.ones(X + 1, dtype=bool)
    mask[0] = False
    for p in primes_upto(z):
        if p > X:
            break
        mask[p::p] = False
    return mask


def sharp_weights(X: int, z: float, D: int, coset) -> np.ndarray:
    """The sieved model Lambda_{K,C}(n) * Lambda_z(n) as floats over
    n = 0..X: C(z) * phi(D)/|coset| where n survives the z-sieve and
    n mod D lies in coset, else 0."""
    w = sieve_survivor_mask(X, z).astype(np.float64)
    w *= c_of_z_float(z)
    lam = np.zeros(D)
    lam[list(coset)] = phi(D) / len(coset)
    w *= lam[np.arange(X + 1) % D]
    return w
