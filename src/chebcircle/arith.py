"""Trial division, the one factoring helper for the small integers the
package meets (moduli, group orders, discriminant checks and the
coefficients of an Euler product), and Miller-Rabin, the one primality
test."""

from __future__ import annotations

import math

from .errors import DomainError


def factorint(n: int, limit: float = math.inf) -> dict:
    """{prime: exponent} of |n| by trial division; {} for 0 and +-1.
    Trial division stops after limit: what is left of |n|, if not 1, is one
    key, a prime when it is below limit**2."""
    n = abs(n)
    out = {}
    i = 2
    while i * i <= n and i <= limit:
        while n % i == 0:
            out[i] = out.get(i, 0) + 1
            n //= i
        i += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorint(n).items())


# The first twelve primes: no composite below is_prime's bound is a strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES; False below 2.  Raises
    DomainError at or above 318665857834031151167461, where those bases
    no longer decide primality."""
    if n < 2:
        return False
    if n >= 318665857834031151167461:
        raise DomainError(f"is_prime({n}): Miller-Rabin to the bases "
                          f"2..37 is proven only below 3.19e23")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
