"""Galois extensions of Q and classification of primes by Frobenius class.

A field is described either by abelian congruence data (a modulus and a
partition of the units into cosets) or by a monic irreducible integer
polynomial f whose splitting field is the Galois extension K, together
with a class table and the coset data of the abelianization of
Gal(K/Q), read modulo D.  Every class has one key: the order of Frobenius
acting on the roots of f, which is the lcm of the degrees of the
irreducible factors of f mod p, and the residue of p mod D.  An abelian
spec has no f and is keyed by its residue alone.

The batch classifier reads the order from the Frobenius matrix of
GF(p)[x]/(f), for whole arrays of primes at once; the scalar oracle
frobenius_class reads it from a distinct-degree factorization of f mod p,
which is squarefree at every unramified p.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .arith import factorint, is_prime
from .errors import DomainError, InconsistentSpec, ValidationError

ABELIAN = "abelian"
POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class ClassSpec:
    label: str
    coset: frozenset
    class_size: int = 1
    element_order: int = 1


@dataclass(frozen=True)
class GaloisSpec:
    kind: str
    modulus: int  # D_K (abelian) or the abelianization modulus D (polynomial)
    classes: tuple
    coeffs: Optional[tuple] = None  # monic, ascending; polynomial kind only
    group_order: Optional[int] = None

    def __post_init__(self):
        if self.kind == ABELIAN:
            object.__setattr__(self, "group_order", len(self.classes))

    @property
    def poly(self):
        """f, or x for an abelian spec: Frobenius fixes its one root."""
        return self.coeffs or (0, 1)

    def class_keys(self):
        """[((Frobenius order on the roots of f, residue mod D), class
        index)], one entry per coset residue of each class."""
        return [((c.element_order if self.coeffs else 1, r % self.modulus), i)
                for i, c in enumerate(self.classes) for r in c.coset]

    @cached_property
    def ramified_modulus(self):
        """Primes dividing this are treated as ramified."""
        if self.kind == ABELIAN:
            return max(self.modulus, 1)
        return abs(poly_discriminant(self.coeffs))

    def class_by_label(self, label):
        for c in self.classes:
            if c.label == label:
                return c
        raise KeyError(label)

    def class_density(self, cls):
        """|C|/|G| as an exact rational."""
        return Fraction(cls.class_size, self.group_order)


# ---------------------------------------------------------------------------
# polynomials over GF(p), coefficients ascending
# ---------------------------------------------------------------------------

def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod_p(coeffs, p):
    return _trim([c % p for c in coeffs])


def _poly_mulmod(a, b, f, p):
    """a*b reduced mod (f, p); f monic."""
    n = len(a) + len(b) - 1
    out = [0] * max(n, 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, f, p)[1]


def _poly_divmod(a, b, p):
    """(quotient, remainder) of a by b over GF(p), by long division."""
    a = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        c = (a[k] * inv) % p
        if c:
            q[k - db] = c
            for j in range(db + 1):
                a[k - db + j] = (a[k - db + j] - c * b[j]) % p
    return _trim(q), _trim(a[:db])


def _poly_gcd(a, b, p):
    a, b = _poly_mod_p(a, p), _poly_mod_p(b, p)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _poly_powmod(base, e, f, p):
    result = [1]
    base = _poly_divmod(base, f, p)[1]
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_deriv(f, p):
    return _trim([(i * c) % p for i, c in enumerate(f)][1:])


def _distinct_degree_degrees(g, p):
    """Degrees (with count) of irreducible factors of squarefree monic g."""
    degs = []
    h = [0, 1]  # x
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _poly_powmod(h, p, g, p)
        delta = list(h)
        while len(delta) < 2:
            delta.append(0)
        delta[1] = (delta[1] - 1) % p
        factor = _poly_gcd(delta, g, p)
        if len(factor) > 1:
            degs.extend([d] * ((len(factor) - 1) // d))
            g = _poly_divmod(g, factor, p)[0]
            h = _poly_divmod(h, g, p)[1]
    if len(g) > 1:
        degs.append(len(g) - 1)
    return degs


def poly_factor_degrees(coeffs, p):
    """Sorted degrees of the irreducible factors of f mod p, by
    distinct-degree factorization; f must be squarefree mod p, which every
    p not dividing disc(f) guarantees."""
    f = _poly_mod_p(list(coeffs), p)
    if len(f) - 1 != len(coeffs) - 1:
        raise InconsistentSpec(f"leading coefficient vanishes mod {p}")
    if len(_poly_gcd(f, _poly_deriv(f, p), p)) > 1:
        raise DomainError(f"f is not squarefree mod {p}")
    return sorted(_distinct_degree_degrees(f, p))


# ---------------------------------------------------------------------------
# integer polynomial utilities
# ---------------------------------------------------------------------------

def poly_discriminant(coeffs):
    """Discriminant of an integer polynomial via the Sylvester resultant."""
    f = list(coeffs)
    n = len(f) - 1
    if n < 2:
        return 1
    fp = [i * c for i, c in enumerate(f)][1:]
    res = _resultant(f, fp)
    lead = f[-1]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    disc = sign * res // lead
    return disc


def _resultant(f, g):
    """Integer resultant: the determinant of the Sylvester matrix by
    Gaussian elimination over Fractions."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(reversed(f)) + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(reversed(g)) + [0] * (m - 1 - i))
    mat = [Fraction(x) for row in rows for x in row]
    # plain fraction Gaussian elimination; sizes here are tiny
    det = Fraction(1)
    a = [mat[i * size:(i + 1) * size] for i in range(size)]
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, size):
                    a[r][c] -= factor * a[col][c]
    assert det.denominator == 1
    return det.numerator


def _units(D):
    return [u for u in range(D) if math.gcd(u, D) == 1]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def frobenius_class(spec: GaloisSpec, p: int) -> int:
    """Index in spec.classes of the Artin-symbol class of p, or -1 when p
    is ramified.  The order of Frobenius is the lcm of the factor degrees
    of f mod p; this is the scalar oracle of classify_batch and shares
    none of its arithmetic."""
    if spec.ramified_modulus % p == 0:
        return -1
    key = (math.lcm(*poly_factor_degrees(spec.poly, p)), p % spec.modulus)
    for k, i in spec.class_keys():
        if k == key:
            return i
    raise InconsistentSpec(f"no class has the key {key} of p={p}")


def classify_batch(spec: GaloisSpec, primes) -> np.ndarray:
    """Class index (position in spec.classes) per prime; -1 for ramified.

    Vectorized; must agree with frobenius_class prime by prime.
    """
    ps = np.asarray(primes, dtype=np.int64)
    out = np.full(ps.shape, -1, dtype=np.int64)
    unram = ~_divides(spec.ramified_modulus, ps)
    good = ps[unram]
    orders = _frobenius_orders_batch(spec.poly, good)
    keys = spec.class_keys()
    top = max([d for (d, _), _ in keys] + [int(orders.max(initial=0))])
    lookup = np.full((top + 1, spec.modulus), -2, dtype=np.int64)
    for (d, r), i in keys:
        lookup[d, r] = i
    mapped = lookup[orders, good % spec.modulus]
    if (mapped == -2).any():
        raise InconsistentSpec(
            f"no class has the key of p={good[mapped == -2][0]}")
    out[unram] = mapped
    return out


def _divides(n: int, ps) -> np.ndarray:
    """Mask of the entries of ps (int64, 0 < p < 2**31) that divide n, by
    Horner's rule over the base-2**31 digits of |n|."""
    n = abs(n)
    r = np.zeros_like(ps)
    for shift in range(31 * (n.bit_length() // 31), -1, -31):
        r = (r * 2**31 + ((n >> shift) & (2**31 - 1))) % ps
    return r == 0


def _batch_mulmod(a, b, fl, ps):
    """Row-wise product of degree<n polys a, b modulo (f, p).  a, b are
    (N, n) int64; fl is (N, n) holding the low coefficients of monic f.
    Each product is reduced mod p before it is added to another."""
    n, pcol = a.shape[1], ps[:, None]
    prod = np.zeros((len(ps), 2 * n - 1), dtype=np.int64)
    for i in range(n):
        prod[:, i:i + n] += a[:, i:i + 1] * b % pcol
    for k in range(2 * n - 2, n - 1, -1):
        prod[:, k - n:k] -= prod[:, k:k + 1] % pcol * fl % pcol
    return prod[:, :n] % pcol


def _frobenius_orders_batch(coeffs, ps):
    """Order of Frobenius on the roots of f (the lcm of the irreducible
    factor degrees of f mod p) for each unramified prime: the least d with
    e_x Q^d = e_x, where row i of the Frobenius matrix Q is x^(ip) mod
    (f, p) and e_x is the coordinate vector of x."""
    ps = np.asarray(ps, dtype=np.int64)
    N, n = len(ps), len(coeffs) - 1
    if n == 1:
        return np.ones(N, dtype=np.int64)
    pcol = ps[:, None]
    fl = np.array(coeffs[:-1], dtype=np.int64)[None, :] % pcol
    # x^p mod (f, p), one squaring per bit of p and a multiply-by-x on the
    # rows whose bit is set
    xp = np.zeros((N, n), dtype=np.int64)
    xp[:, 0] = 1
    for bit in range(int(ps.max(initial=1)).bit_length() - 1, -1, -1):
        xp = _batch_mulmod(xp, xp, fl, ps)
        times_x = (np.pad(xp[:, :-1], ((0, 0), (1, 0)))
                   - xp[:, -1:] * fl) % pcol
        xp = np.where(((ps >> bit) & 1 == 1)[:, None], times_x, xp)
    Q = np.zeros((N, n, n), dtype=np.int64)
    Q[:, 0, 0] = 1
    Q[:, 1] = xp
    for i in range(2, n):
        Q[:, i] = _batch_mulmod(Q[:, i - 1], xp, fl, ps)
    e_x = np.eye(1, n, 1, dtype=np.int64)
    orders = np.zeros(N, dtype=np.int64)
    rows = np.arange(N)
    v = xp
    for d in range(1, math.lcm(*range(1, n + 1)) + 1):
        fixed = (v == e_x).all(axis=1)
        orders[rows[fixed]] = d
        rows, v = rows[~fixed], v[~fixed]
        if len(rows) == 0:
            break
        # each product is reduced before the sum: n terms below p < 2**31
        r = ps[rows, None, None]
        v = (v[:, :, None] * Q[rows] % r).sum(axis=1) % r[:, 0]
    return orders


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_spec(spec: GaloisSpec) -> None:
    """Raise ValidationError listing every issue of spec, if it has any."""
    issues = _spec_issues(spec)
    if issues:
        raise ValidationError(issues)


def _spec_issues(spec: GaloisSpec) -> list:
    issues = []
    D = spec.modulus
    if D < 1:
        return [("InvalidModulus", f"modulus {D} < 1")]
    units = set(_units(D))
    for c in spec.classes:
        bad = set(c.coset) - units
        if bad:
            issues.append(("InvalidCoset", f"class {c.label}: "
                           f"{sorted(bad)} not units mod {D}"))
    keys = [k for k, _ in spec.class_keys()]
    if len(set(keys)) != len(keys):
        issues.append(("UnidentifiableClasses", "two classes share an "
                       "element order and a coset residue"))
    if spec.kind == ABELIAN:
        seen = []
        for c in spec.classes:
            seen.extend(c.coset)
        if sorted(seen) != sorted(units):
            issues.append(("CosetsNotPartition",
                           f"cosets do not partition the units mod {D}"))
        sizes = {len(c.coset) for c in spec.classes}
        if len(sizes) > 1:
            issues.append(("UnequalCosets", "coset sizes differ"))
        return issues
    # polynomial kind
    f = spec.coeffs
    if f is None or len(f) < 2:
        return issues + [("MissingPolynomial",
                          "polynomial spec without coefficients")]
    if f[-1] != 1:
        issues.append(("NotMonic", "defining polynomial must be monic"))
    G = spec.group_order or 0
    if sum(c.class_size for c in spec.classes) != G:
        issues.append(("ClassSizeSum",
                       "class sizes do not sum to the group order"))
    for c in spec.classes:
        if G and G % c.element_order != 0:
            issues.append(("OrderDividesGroup",
                           f"class {c.label}: order {c.element_order} does "
                           f"not divide |G|={G}"))
    disc = spec.ramified_modulus
    if disc == 0:
        return issues + [("SquarefulPolynomial", "discriminant of f is zero")]
    for p in factorint(D):
        if disc % p != 0:
            issues.append(("ModulusRamification",
                           f"prime {p} divides the modulus but not disc(f)"))
    if len(f) > 2 and _has_rational_root(f):
        issues.append(("Reducible", "polynomial has a rational root"))
    if not issues:
        _check_keys(spec, issues)
    return issues


def _has_rational_root(f):
    a0 = f[0]
    if a0 == 0:
        return True
    cands = set()
    for t in range(1, int(math.isqrt(abs(a0))) + 1):
        if a0 % t == 0:
            cands.update({t, -t, a0 // t, -(a0 // t)})
    return any(sum(c * r**i for i, c in enumerate(f)) == 0 for r in cands)


def _check_keys(spec, issues):
    """Each of the first 25 unramified primes matches exactly one
    class: the keys are distinct, so frobenius_class finds at most one."""
    ram = spec.ramified_modulus
    primes = (p for p in itertools.count(2) if is_prime(p) and ram % p)
    for p in itertools.islice(primes, 25):
        try:
            frobenius_class(spec, p)
        except InconsistentSpec as exc:
            issues.append(("MissingClass", str(exc)))
            return


# ---------------------------------------------------------------------------
# serialization and built-ins
# ---------------------------------------------------------------------------

def spec_to_json(spec: GaloisSpec) -> dict:
    doc = {"kind": spec.kind, "modulus": spec.modulus,
           "classes": [{"label": c.label, "coset": sorted(c.coset),
                        "size": c.class_size, "order": c.element_order}
                       for c in spec.classes]}
    if spec.kind == POLYNOMIAL:
        doc["coeffs"] = list(spec.coeffs)
        doc["group_order"] = spec.group_order
    return doc


def spec_from_json(doc) -> GaloisSpec:
    if isinstance(doc, str):
        doc = json.loads(doc)
    classes = tuple(
        ClassSpec(label=c["label"], coset=frozenset(c["coset"]),
                  class_size=c.get("size", 1),
                  element_order=c.get("order", 1))
        for c in doc["classes"])
    if doc["kind"] == ABELIAN:
        return GaloisSpec(ABELIAN, int(doc["modulus"]), classes)
    return GaloisSpec(POLYNOMIAL, int(doc["modulus"]), classes,
                      coeffs=tuple(doc["coeffs"]),
                      group_order=int(doc["group_order"]))


def builtin_spec(name: str) -> GaloisSpec:
    if name == "trivial":
        return GaloisSpec(ABELIAN, 1,
                          (ClassSpec("e", frozenset({0})),))
    if name == "gaussian":
        return GaloisSpec(ABELIAN, 4,
                          (ClassSpec("e", frozenset({1})),
                           ClassSpec("c", frozenset({3}), element_order=2)))
    if name == "s3-cbrt2":
        return GaloisSpec(
            POLYNOMIAL, 3,
            (ClassSpec("1", frozenset({1}), class_size=1, element_order=1),
             ClassSpec("2", frozenset({2}), class_size=3, element_order=2),
             ClassSpec("3", frozenset({1}), class_size=2, element_order=3)),
            coeffs=(-2, 0, 0, 1),
            group_order=6)
    if name == "d4-qrt2":
        # Q(2^(1/4), i); its abelianization is Gal(Q(zeta_8)/Q)
        return GaloisSpec(
            POLYNOMIAL, 8,
            (ClassSpec("e", frozenset({1}), class_size=1, element_order=1),
             ClassSpec("r2", frozenset({1}), class_size=1, element_order=2),
             ClassSpec("r", frozenset({5}), class_size=2, element_order=4),
             ClassSpec("s", frozenset({3}), class_size=2, element_order=2),
             ClassSpec("t", frozenset({7}), class_size=2, element_order=2)),
            coeffs=(-2, 0, 0, 0, 1),
            group_order=8)
    raise KeyError(f"unknown built-in spec {name!r}")


BUILTIN_NAMES = ("trivial", "gaussian", "s3-cbrt2", "d4-qrt2")
