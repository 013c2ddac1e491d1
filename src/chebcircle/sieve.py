"""Prime tables, the local weight functions, and smooth-number counting.

The one sieve is Eratosthenes' striking of the multiples of a list of
primes (_survivors): sieve_survivor_mask strikes by the primes <= z, and
the prime table is the survivors of z = sqrt(X) together with the primes
<= sqrt(X), found the same way.
Everything else (Moebius walks, squarefree smooth enumeration) is derived
from these lists or from direct enumeration.
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
    primes: np.ndarray   # ascending int64

    @classmethod
    def build(cls, limit: int) -> "PrimeTable":
        if limit < 2:
            raise DomainError("prime table limit must be >= 2")
        return cls(limit, _primes_through(limit))

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            raise DomainError(f"{n} outside table range")
        i = np.searchsorted(self.primes, n)
        return i < len(self.primes) and int(self.primes[i]) == n

    def primes_upto(self, x) -> np.ndarray:
        return self.primes[self.primes <= x]


def _primes_through(n: int) -> np.ndarray:
    """The primes <= n, ascending int64: the primes <= sqrt(n), found
    recursively, then the survivors > 1 of striking by them."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    small = _primes_through(math.isqrt(n))
    mask = _survivors(n, small)
    mask[1] = False
    return np.concatenate([small, np.nonzero(mask)[0]])


def _survivors(X: int, primes: np.ndarray) -> np.ndarray:
    """Boolean mask over 0..X of n with no factor in primes (n=1 counts)."""
    mask = np.ones(X + 1, dtype=bool)
    mask[0] = False
    for p in primes.tolist():
        mask[p::p] = False
    return mask


def level(X: int, A=1.0, B=None):
    """(B, z) of the sieve level z = (log X)^B, where B = 4A unless given."""
    if B is None:
        B = 4.0 * A
    return B, math.log(X) ** B


def primes_upto(z: float) -> list:
    """The primes p <= z as Python ints."""
    return _primes_through(int(z)).tolist()


def lambda_z(z: float, n: int) -> Fraction:
    """0 if n has a prime factor p <= z, else C(z)."""
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
    return _survivors(X, _primes_through(min(int(z), X)))


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
