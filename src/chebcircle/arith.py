"""Trial division, the one factoring helper for the small integers the
package meets: moduli, group orders and discriminant checks."""

from __future__ import annotations

import math


def factorint(n: int) -> dict:
    """{prime: exponent} of |n| by trial division; {} for 0 and +-1."""
    n = abs(n)
    out = {}
    i = 2
    while i * i <= n:
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
