"""Prime lists, the sieved weights, and smooth-number counting: the primes
of a class (class_primes) that verify and genfun count over, the sieved
model of a class (sharp_weights) that genfun compares against, and the
squarefree smooth count of the smooth command.

The one sieve is Eratosthenes' striking of the multiples of a list of
primes (_survivors): sieve_survivor_mask strikes by the primes <= z, and
primes_upto(X) is the survivors of z = sqrt(X) together with the primes
<= sqrt(X), found the same way.  Each routine lists the primes it needs.
Everything else (Moebius walks, squarefree smooth enumeration) is derived
from these lists or from direct enumeration.  lambda_z is the scalar
oracle of the sieve weight; the scalar class weight is in tests/lemmas.py.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import galois
from .arith import phi
from .errors import BYTES_BASE, DomainError, refuse_above

# Peak bytes of class_primes over BYTES_BASE (sieve_bytes): per unit of X
# for the sieve and, for an f of degree n > 1, per n^2 per prime of one
# classification block.  Fitted, with the count's constants in circle, to
# the rows table of tests/measure_peaks.py.
ROWS_SIEVE_PER_X = 3
ROWS_PER_BLOCK_N2 = 17


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


def smooth_count(z: float, Y: float) -> int:
    """Number of squarefree z-smooth n <= Y (n=1 included), by depth-first
    product enumeration over the primes <= min(z, Y), the only ones that
    divide an n <= Y; never materializes non-smooth integers.  Refused
    before the sieve when listing those primes would pass MAX_BYTES: a
    mask byte per n <= x, and per prime (fewer than 1.26 x / log x, by
    Rosser and Schoenfeld) two int64, a list slot and an int object."""
    if not (math.isfinite(z) and math.isfinite(Y)):
        raise DomainError("z and Y must be finite")
    x = max(min(z, Y), 2)
    refuse_above(BYTES_BASE + x + 48 * 1.26 * x / math.log(x),
                 f"smooth to {x:.6g}")
    primes = primes_upto(min(z, Y)).tolist()

    def walk(i, prod):
        count = 1
        for j in range(i, len(primes)):
            nxt = prod * primes[j]
            if nxt > Y:
                break
            count += walk(j + 1, nxt)
        return count

    return walk(0, 1) if Y >= 1 else 0


def class_primes(spec: galois.GaloisSpec, X: int, indices) -> list:
    """The primes <= X of the classes of spec at indices (positions in
    spec.classes): one ascending int64 array per index, from one sieve and
    one classification, and one pass over the primes per index.  Ramified
    primes lie in no class.  The primes at residues mod D that no class
    at indices holds are dropped first, so that classify_batch neither
    labels them nor runs its Frobenius kernel on them."""
    ps = primes_upto(X)
    D = spec.modulus
    held = np.zeros(D, dtype=bool)
    held[[r % D for i in indices for r in spec.classes[i].coset]] = True
    ps = ps[held[ps % D]]
    labels = galois.classify_batch(spec, ps)
    return [ps[labels == i] for i in indices]


def sieve_bytes(X: int, specs) -> int:
    """Estimated peak bytes, over BYTES_BASE, of class_primes of X by each
    spec: the sieve of X and the classification by f, of degree n, which
    holds about n^2 int64 per prime of one block of galois.CLASSIFY_BLOCK
    primes when n > 1; allocates nothing."""
    n = max(len(spec.poly) - 1 for spec in specs)
    block = ROWS_PER_BLOCK_N2 * n * n * galois.CLASSIFY_BLOCK if n > 1 else 0
    return ROWS_SIEVE_PER_X * (X + 1) + block


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
