"""Dirichlet characters and the Kronecker symbol.

Characters mod D are built from the cyclic structure of the unit groups
of the prime-power factors of D; values are stored as a dense complex
table indexed by residue (zero off the units).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import factorint, phi
from .errors import DomainError


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d|n), completely multiplicative in n."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    # factor out 2s
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    if math.gcd(d, n) != 1:
        return 0
    a = d % n
    # Jacobi symbol (a|n) for odd n > 0, with the sign flips already folded
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class DirichletCharacter:
    modulus: int
    values: tuple  # complex, length modulus
    label: str = ""

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    @property
    def is_principal(self) -> bool:
        return all(abs(v - 1) < 1e-12 or abs(v) < 1e-12 for v in self.values)

    def value_table(self) -> np.ndarray:
        return np.array(self.values, dtype=complex)

    def is_trivial_on(self, residues) -> bool:
        return all(abs(self(r) - 1) < 1e-9 for r in residues)


def principal_character(D: int) -> DirichletCharacter:
    vals = tuple(1.0 + 0j if math.gcd(r, D) == 1 else 0j for r in range(D))
    return DirichletCharacter(D, vals, "1")


def kronecker_character(d: int) -> DirichletCharacter:
    """chi_d as a Dirichlet character mod |d|."""
    m = abs(d)
    if m == 1:
        return principal_character(1)
    vals = tuple(complex(kronecker(d, n)) for n in range(m))
    return DirichletCharacter(m, vals, f"kronecker({d})")


def _primitive_root(q: int) -> int:
    """Primitive root mod q for q an odd prime power or 2 or 4."""
    order = phi(q)
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, order // p, q) != 1 for p in factorint(order)):
            return g
    raise DomainError(f"no primitive root mod {q}")


@lru_cache(maxsize=32)
def dirichlet_characters(D: int) -> tuple:
    """All phi(D) Dirichlet characters mod D."""
    if D <= 2:
        return (principal_character(D),)
    # generators of (Z/D)^* with their orders, via CRT components
    gens = []  # (generator mod D, order)
    for q, e in factorint(D).items():
        pe = q ** e
        rest = D // pe
        if q == 2:
            if e == 1:
                continue
            comps = [(-1 % pe, 2)] if e == 2 else [(-1 % pe, 2),
                                                   (3, 2 ** (e - 2))]
        else:
            comps = [(_primitive_root(pe), phi(pe))]
        for g, order in comps:
            lifted = _crt_lift(g, pe, 1, rest)
            gens.append((lifted % D, order))
    # discrete logs of every unit with respect to the generator tuple
    units = [u for u in range(D) if math.gcd(u, D) == 1]
    orders = [range(o) for _, o in gens]
    dlogs = {math.prod(pow(g, k, D) for (g, _), k in zip(gens, expo)) % D:
             expo for expo in itertools.product(*orders)}
    chars = []
    for idx in itertools.product(*orders):
        vals = [0j] * D
        for u in units:
            expo = dlogs[u]
            phase = sum(idx[i] * expo[i] / gens[i][1]
                        for i in range(len(gens)))
            vals[u] = cmath.exp(2j * cmath.pi * phase)
        chars.append(DirichletCharacter(D, tuple(vals), f"chi{idx}"))
    return tuple(chars)


def _crt_lift(a, m, b, n):
    """x = a mod m, x = b mod n (m, n coprime)."""
    if n == 1:
        return a % m
    inv = pow(m, -1, n)
    return (a + m * ((b - a) * inv % n)) % (m * n)


def characters_trivial_on(D: int, subgroup) -> list:
    """Characters mod D that restrict to 1 on the given set of residues."""
    return [ch for ch in dirichlet_characters(D)
            if ch.is_trivial_on(subgroup)]
