"""Prime lists, the sieved weights, and smooth-number counting: the primes
of a class (class_primes) that verify and genfun count over, the sieved
model of a class (sharp_weights) that genfun compares against, and the
squarefree smooth count of the smooth command.

The one sieve is Eratosthenes' striking of the multiples of a list of
primes (_survivors): sieve_survivor_mask strikes by the primes <= z, and
primes_upto(X) is the survivors of z = sqrt(X) together with the primes
<= sqrt(X), found the same way.  Each routine lists the primes it needs.
Everything else (Moebius walks, squarefree smooth enumeration) is derived
from these lists or from direct enumeration.  The scalar sieve weight
is in tests/oracles.py, the scalar class weight in tests/lemmas.py.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from . import galois
from .arith import phi
from .errors import BYTES_BASE, DomainError, refuse_above


def prime_bound(x: float) -> float:
    """An upper bound on the number of primes <= x: x / (log x - 3/2)
    (Rosser and Schoenfeld, 1962), and x below e^(5/2)."""
    return x / max(math.log(max(x, 1)) - 1.5, 1)


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
    mask byte per n <= x, and per prime (prime_bound) two int64, a list
    slot and an int object."""
    if not (math.isfinite(z) and math.isfinite(Y)):
        raise DomainError("z and Y must be finite")
    x = max(min(z, Y), 2)
    refuse_above(BYTES_BASE + x + 48 * prime_bound(x), f"smooth to {x:.6g}")
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


def sieve_bytes(X: int, classes) -> int:
    """Peak bytes over BYTES_BASE of class_primes of X for the (spec,
    class) pairs classes, by the arrays each step holds at once (README,
    memory limits); allocates nothing."""
    pi, by_spec = prime_bound(X), {}
    for spec, cls in classes:
        by_spec.setdefault(spec, set()).update(cls.coset)
    peak = X + 1 + 16 * pi
    for spec, held in by_spec.items():
        keys = Counter(r for (_, r), _ in spec.class_keys())
        share, n = pi / len(keys), len(spec.poly) - 1
        shared = share * sum(keys[r] > 1 for r in held)
        # classify_batch: five int64 per held prime, or two beside three
        # per shared one and np.unique's 7 or the kernel's: its Frobenius
        # matrix (n^2), x^p and three more polynomials of its order steps,
        # the orders, and a residue per nonzero low coefficient of f and
        # one more
        low = sum(c != 0 for c in spec.poly[:-1])
        kernel = 8 * (n * n + 4 * n + 2 + low) * min(shared,
                                                     galois.CLASSIFY_BLOCK)
        peak = max(peak, 40 * share * len(held), 16 * share * len(held)
                   + 24 * shared + max(56 * shared, kernel * (n > 1)))
    return int(peak)


def sieve_survivor_mask(X: int, z: float) -> np.ndarray:
    """Boolean mask over 0..X of n with no prime factor <= z (n=1 counts);
    the support of Lambda_z."""
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
