"""Prime lists, the local weight functions, and smooth-number counting.

The one sieve is Eratosthenes' striking of the multiples of a list of
primes (_survivors): sieve_survivor_mask strikes by the primes <= z, and
primes_upto(X) is the survivors of z = sqrt(X) together with the primes
<= sqrt(X), found the same way.  Each routine lists the primes it needs.
Everything else (Moebius walks, squarefree smooth enumeration) is derived
from these lists or from direct enumeration.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import galois
from .arith import phi
from .errors import DomainError


def primes_upto(x) -> np.ndarray:
    """The primes p <= x, ascending int64: the primes <= sqrt(x), found
    recursively, then the survivors > 1 of striking by them."""
    n = int(x)
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    small = primes_upto(math.isqrt(n))
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


def lambda_z(z: float, n: int) -> Fraction:
    """0 if n has a prime factor p <= z, else C(z)."""
    for p in primes_upto(z).tolist():
        if n % p == 0:
            return Fraction(0)
    return c_of_z(z)


def c_of_z(z: float) -> Fraction:
    out = Fraction(1)
    for p in primes_upto(z).tolist():
        out *= Fraction(p, p - 1)
    return out


def c_of_z_float(z: float) -> float:
    """C(z) in double precision, summed in log space; use for bulk arrays
    where the exact rational would be astronomically large."""
    ps = primes_upto(z).astype(np.float64)
    return float(np.exp(-np.sum(np.log1p(-1.0 / ps))))


def lambda_kc(spec: galois.GaloisSpec, cls: galois.ClassSpec,
              n: int) -> Fraction:
    """phi(D)/|H| on the class coset mod the spec's modulus, else 0."""
    D = spec.modulus
    if n % D in cls.coset:
        return Fraction(phi(D), len(cls.coset))
    return Fraction(0)


def smooth_count(z: float, Y: float) -> int:
    """Number of squarefree z-smooth n <= Y (n=1 included), by depth-first
    product enumeration; never materializes non-smooth integers."""
    if not (math.isfinite(z) and math.isfinite(Y)):
        raise DomainError("z and Y must be finite")
    primes = primes_upto(z).tolist()

    def walk(i, prod):
        count = 1
        for j in range(i, len(primes)):
            nxt = prod * primes[j]
            if nxt > Y:
                break
            count += walk(j + 1, nxt)
        return count

    return walk(0, 1) if Y >= 1 else 0


def class_primes(spec: galois.GaloisSpec, X: int) -> list:
    """The primes <= X of each class of spec, in the order of
    spec.classes: one ascending int64 array per class, from one sieve and
    one classification.  Ramified primes lie in no class."""
    ps = primes_upto(X)
    labels = galois.classify_batch(spec, ps)
    return [ps[labels == i] for i in range(len(spec.classes))]


def sieve_survivor_mask(X: int, z: float) -> np.ndarray:
    """Boolean mask over 0..X of n with no prime factor <= z (n=1 counts);
    the support of lambda_z."""
    return _survivors(X, primes_upto(min(z, X)))


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
