"""Galois extensions of Q and classification of primes by Frobenius class.

A field is described either by abelian congruence data (a modulus and a
partition of the units into cosets) or by a monic irreducible integer
polynomial f whose splitting field is the Galois extension K, together
with a class table and the coset data of the abelianization of
Gal(K/Q), read modulo D.  Every class has one key: the order of Frobenius
acting on the roots of f, which is the lcm of the degrees of the
irreducible factors of f mod p, and the residue of p mod D.  An abelian
spec has no f and is keyed by its residue alone.

The batch classifier reads the class from p mod D where one class holds
that residue, else the order from the Frobenius matrix of GF(p)[x]/(f),
for whole arrays of primes at once; the scalar oracle frobenius_class
reads it from a distinct-degree factorization of f mod p, which is
squarefree at every unramified p.
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

from .arith import is_prime, phi
from .errors import DomainError, InconsistentSpec, ValidationError

ABELIAN = "abelian"
POLYNOMIAL = "polynomial"
# Primes per call of _frobenius_orders_batch in _classes_by_key, whose n x n
# Frobenius matrices and temporaries take about 200 bytes per prime for a
# cubic f: classifying in blocks bounds that memory by the block, not X.
CLASSIFY_BLOCK = 2**16


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
    def class_of_key(self) -> dict:
        """{key: class index} of class_keys, built once per spec."""
        return dict(self.class_keys())

    @cached_property
    def identity_class(self) -> int:
        """Index in classes of the class of the identity, keyed (1, 1 mod
        D): Frobenius fixes every root and p = 1 mod D."""
        index = self.class_of_key.get((1, 1 % self.modulus))
        if index is None:
            raise DomainError("spec has no identity class")
        return index

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
        labels = ", ".join(repr(c.label) for c in self.classes)
        raise ValidationError([("UnknownClass", f"no class has the label "
                                f"{label!r}; the labels are {labels}")])

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
    """Discriminant of an integer polynomial f of degree n,
    (-1)^(n(n-1)/2) Res(f, f')/lc(f), with the resultant read from the
    Euclidean algorithm over Q: Res(f, g) = (-1)^(deg f deg g)
    lc(g)^(deg f - deg r) Res(g, r) for r = f mod g, and Res(f, c) =
    c^(deg f) for a constant c."""
    f = [Fraction(c) for c in coeffs]
    n = len(f) - 1
    if n < 2:
        return 1
    g = [i * c for i, c in enumerate(f)][1:]
    disc = (-1) ** (n * (n - 1) // 2) / f[-1]
    while len(g) > 1:
        m, d = len(f) - 1, len(g) - 1
        r = f[:]  # f mod g, by long division
        for k in range(m - d, -1, -1):
            c = r[k + d] / g[-1]
            for j, gj in enumerate(g):
                r[k + j] -= c * gj
        r = _trim(r[:d])
        if not r:
            return 0
        disc *= (-1) ** (m * d) * g[-1] ** (m - len(r) + 1)
        f, g = g, r
    disc *= g[0] ** (len(f) - 1)
    assert disc.denominator == 1
    return disc.numerator


def _primes_prime_to(m):
    """The primes not dividing m, ascending."""
    return (p for p in itertools.count(2) if is_prime(p) and m % p)


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
    index = spec.class_of_key.get(key)
    if index is None:
        raise InconsistentSpec(f"no class has the key {key} of p={p}")
    return index


def classify_batch(spec: GaloisSpec, primes) -> np.ndarray:
    """Class index (position in spec.classes) per prime; -1 for ramified.

    A residue mod D that one class's coset holds names that class, by a
    table of D entries; only the primes at the other residues go through
    the Frobenius kernel, in _classes_by_key.  So a prime on an owned
    residue is not checked against its class's order (validate_spec reads
    the keys of 25 primes).  Agrees with frobenius_class on a valid spec.
    Takes primes below 2**31 only (DomainError otherwise), where a product
    of two residues mod p stays below 2**62; frobenius_class takes any.
    """
    ps = np.asarray(primes, dtype=np.int64)
    _batch_p_max(ps)  # DomainError from 2**31 on, before any arithmetic
    table = np.full(spec.modulus, -3, dtype=np.int64)  # -2: shared, -3: none
    for (_, r), i in spec.class_keys():
        table[r] = i if table[r] in (-3, i) else -2
    out = table[ps % spec.modulus]
    out[_residues(spec.ramified_modulus, ps) == 0] = -1
    shared = np.flatnonzero(out < -1)
    out[shared] = _classes_by_key(spec, ps[shared])
    return out


def _classes_by_key(spec: GaloisSpec, ps) -> np.ndarray:
    """Class index per unramified prime of ps by its key, its Frobenius
    order (over blocks of CLASSIFY_BLOCK primes) and residue mod D;
    InconsistentSpec names the first prime whose key no class has."""
    orders = np.empty(len(ps), dtype=np.int64)
    for lo in range(0, len(ps), CLASSIFY_BLOCK):
        block = ps[lo:lo + CLASSIFY_BLOCK]
        orders[lo:lo + len(block)] = _frobenius_orders_batch(spec.poly, block)
    D = spec.modulus
    codes, at = np.unique(orders * D + ps % D, return_inverse=True)
    mapped = np.array([spec.class_of_key.get(divmod(c, D), -2)
                       for c in codes.tolist()], np.int64)[at]
    missing = np.flatnonzero(mapped == -2)
    if missing.size:
        k = missing[0]
        key = (int(orders[k]), int(ps[k] % D))
        raise InconsistentSpec(f"no class has the key {key} of p={ps[k]}")
    return mapped


def _residues(n: int, ps) -> np.ndarray:
    """n mod p for each entry of ps (int64, 0 < p < 2**31), for any int n,
    by Horner's rule over the base-2**31 digits of |n| signed as n."""
    sign, m = (-1 if n < 0 else 1), abs(n)
    r = np.zeros_like(ps)
    for shift in range(31 * (m.bit_length() // 31), -1, -31):
        r = (r * 2**31 + sign * ((m >> shift) & (2**31 - 1))) % ps
    return r


def _batch_p_max(ps) -> int:
    """max(ps), after a DomainError unless every p is below 2**31, where a
    product of two residues mod p stays below 2**62."""
    p_max = int(ps.max(initial=2))
    if p_max >= 2**31:
        raise DomainError(f"the batch classifier takes primes below 2**31, "
                          f"not {p_max}; frobenius_class takes any prime")
    return p_max


def _reduce(acc, bound, k, ps):
    """Reduce row k of acc mod p in place; bound[k] bounds |acc[k]|."""
    np.remainder(acc[k], ps, out=acc[k])
    bound[k] = int(ps.max())


def _accumulate(acc, bound, lo, terms, size, ps):
    """acc[lo:lo + len(terms)] += terms, where bound[k] bounds |acc[k]| and
    size (below 2**62) bounds |terms|; a row that could pass 2**63 - 1 is
    first reduced mod p."""
    for k in range(lo, lo + len(terms)):
        if bound[k] + size >= 2**63:
            _reduce(acc, bound, k, ps)
        bound[k] += size
    acc[lo:lo + len(terms)] += terms


def _batch_mulmod(a, b, f, ps, p_max):
    """Product of degree<n polys a, b modulo (f, p), one column per prime.
    a, b are (n, N) int64 residues, one row per coefficient; f lists
    (j, c_j, s_j) for the nonzero low coefficients of monic f, where c_j is
    the residue of -f_j least in absolute value and s_j bounds |c_j|.
    Products are added unreduced: a coefficient is reduced mod p only when
    one more term could pass 2**63 - 1, which takes about
    (2**63 - 1) // (p_max - 1)**2 products of residues, and once at the
    end.  A top coefficient folds down by f unreduced while its products
    with the c_j stay below 2**62.  For the built-in fields at p <= 10**5
    the end is the only reduction."""
    n = len(a)
    prod = np.zeros((2 * n - 1, len(ps)), dtype=np.int64)
    bound = [0] * (2 * n - 1)
    for i in range(n):
        _accumulate(prod, bound, i, a[i] * b, (p_max - 1) ** 2, ps)
    for k in range(2 * n - 2, n - 1, -1):
        for j, c, size in f:
            if bound[k] * size >= 2**62:
                _reduce(prod, bound, k, ps)
            _accumulate(prod, bound, k - n + j, (prod[k] * c)[None],
                        bound[k] * size, ps)
    return prod[:n] % ps


def _frobenius_orders_batch(coeffs, ps):
    """Order of Frobenius on the roots of f (the lcm of the irreducible
    factor degrees of f mod p) for each unramified prime below 2**31: the
    least d with e_x Q^d = e_x, where row i of the Frobenius matrix Q is
    x^(ip) mod (f, p) and e_x is the coordinate vector of x.  Polynomials
    are stored coefficient-major, one contiguous row of primes per
    coefficient."""
    ps = np.asarray(ps, dtype=np.int64)
    p_max = _batch_p_max(ps)
    N, n = len(ps), len(coeffs) - 1
    if n == 1:
        return np.ones(N, dtype=np.int64)
    f = []
    for j, c in enumerate(coeffs[:-1]):
        if c:
            r = _residues(-c, ps)
            f.append((j, r - ps * (r > ps // 2), min(abs(c), p_max // 2)))
    # x^p mod (f, p), one squaring per bit of p and a multiply-by-x kept
    # on the primes whose bit is set
    xp = np.zeros((n, N), dtype=np.int64)
    xp[0] = 1
    for bit in range(p_max.bit_length() - 1, -1, -1):
        xp = _batch_mulmod(xp, xp, f, ps, p_max)
        times_x = np.zeros_like(xp)
        times_x[1:] = xp[:-1]
        for j, c, _ in f:
            times_x[j] = (times_x[j] + xp[-1] * c) % ps
        xp += (ps >> bit & 1) * (times_x - xp)
    del times_x  # not held beside Q
    Q = np.zeros((n, n, N), dtype=np.int64)
    Q[0, 0] = 1
    Q[1] = xp
    for i in range(2, n):
        Q[i] = _batch_mulmod(Q[i - 1], xp, f, ps, p_max)
    e_x = np.eye(n, 1, -1, dtype=np.int64)
    orders = np.zeros(N, dtype=np.int64)
    v = xp
    for d in range(1, math.lcm(*range(1, n + 1)) + 1):
        orders[(orders == 0) & (v == e_x).all(axis=0)] = d
        if orders.all():
            break
        w, bound = np.zeros_like(v), [0] * n
        for i in range(n):
            _accumulate(w, bound, 0, v[i] * Q[i], (p_max - 1) ** 2, ps)
        v = w % ps
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
    nonunits = []
    for c in spec.classes:
        bad = sorted(r for r in c.coset
                     if not 0 <= r < D or math.gcd(r, D) != 1)
        nonunits += bad
        if bad:
            issues.append(("InvalidCoset", f"class {c.label}: "
                           f"{bad} not units mod {D}"))
        if not c.coset:
            issues.append(("InvalidCoset", f"class {c.label}: empty coset"))
    keys = [k for k, _ in spec.class_keys()]
    if len(set(keys)) != len(keys):
        issues.append(("UnidentifiableClasses", "two classes share an "
                       "element order and a coset residue"))
    G = spec.group_order or 0
    counts = [(f"class {c.label}: {name}", v) for c in spec.classes
              for name, v in (("size", c.class_size),
                              ("order", c.element_order))]
    if spec.kind == POLYNOMIAL:
        counts.append(("group_order", G))
    issues += [("NonPositive", f"{name} {v} is below 1")
               for name, v in counts if v < 1]
    # each coset is the image of as many elements of G
    by_coset = {}
    for c in spec.classes:
        by_coset[c.coset] = by_coset.get(c.coset, 0) + c.class_size
    if any(size * len(by_coset) != G for size in by_coset.values()):
        issues.append(("ClassSizeSum", "the class sizes of each coset do "
                       "not sum to the group order over the number of "
                       "cosets"))
    for c in spec.classes:
        if min(G, c.element_order) > 0 and G % c.element_order:
            issues.append(("OrderDividesGroup",
                           f"class {c.label}: order {c.element_order} does "
                           f"not divide |G|={G}"))
    # the distinct cosets hold distinct units, as many as there are units,
    # before any structure sized by D is built; phi(D) >= sqrt(D/2)
    # refuses too few before phi factors D
    cosets = dict.fromkeys(c.coset for c in spec.classes)
    seen = [r for coset in cosets for r in coset]
    if (nonunits or len(set(seen)) != len(seen)
            or 2 * len(seen) ** 2 < D or len(seen) != phi(D)):
        issues.append(("CosetsNotPartition",
                       f"cosets do not partition the units mod {D}"))
    if len({len(coset) for coset in cosets}) > 1:
        issues.append(("UnequalCosets", "coset sizes differ"))
    if spec.kind == ABELIAN:
        return issues
    # polynomial kind; the checks below read a monic f
    f = spec.coeffs
    if f is None or len(f) < 2:
        return issues + [("MissingPolynomial",
                          "polynomial spec without coefficients")]
    if f[-1] != 1:
        return issues + [("NotMonic", "defining polynomial must be monic")]
    disc = spec.ramified_modulus
    if disc == 0:
        return issues + [("SquarefulPolynomial", "discriminant of f is zero")]
    # strip from D its primes that divide disc; what is left has none
    rest = D
    while (g := math.gcd(rest, disc)) > 1:
        rest //= g
    if rest > 1:
        issues.append(("ModulusRamification", f"the modulus has the factor "
                       f"{rest}, prime to disc(f)"))
    if len(f) > 2 and _has_rational_root(f, disc):
        issues.append(("Reducible", "polynomial has a rational root"))
    if not issues:
        _check_keys(spec, issues)
    return issues


def _has_rational_root(f, disc):
    """Whether f has an integer root (for monic f, a rational one): the
    roots mod the least prime p dividing neither disc nor f[-1] are simple,
    so Newton's step lifts each past 2B > 2|root|, B = 1 + max|a_i|."""
    p = next(_primes_prime_to(disc * f[-1]))
    df = [i * c for i, c in enumerate(f)][1:]
    ev = lambda g, x: sum(c * x**i for i, c in enumerate(g))
    B = 1 + max(map(abs, f))
    for r in [x for x in range(p) if ev(f, x) % p == 0]:  # roots mod p
        m = p
        while m <= 2 * B:
            m *= m
            r = (r - ev(f, r) * pow(ev(df, r), -1, m)) % m
        if ev(f, r - m if 2 * r > m else r) == 0:
            return True
    return False


def _check_keys(spec, issues):
    """Each of the first 25 unramified primes matches exactly one class:
    the keys are distinct, so _classes_by_key finds at most one for each,
    owned residue or not, and names the least prime that matches none."""
    primes = np.fromiter(itertools.islice(
        _primes_prime_to(spec.ramified_modulus), 25), dtype=np.int64)
    try:
        _classes_by_key(spec, primes)
    except InconsistentSpec as exc:
        issues.append(("MissingClass", str(exc)))


# ---------------------------------------------------------------------------
# JSON specs and built-ins
# ---------------------------------------------------------------------------

def is_json_int(v) -> bool:
    """Whether v is a JSON integer (bool is not)."""
    return type(v) is int


_JSON_TYPES = {
    f"{ABELIAN!r} or {POLYNOMIAL!r}": lambda v: v in (ABELIAN, POLYNOMIAL),
    "a string": lambda v: isinstance(v, str),
    "an integer": is_json_int,
    "a list of integers": lambda v: (isinstance(v, list)
                                     and all(map(is_json_int, v))),
    "a list of objects": lambda v: (isinstance(v, list)
                                    and all(isinstance(c, dict) for c in v)),
}


def _type_issues(where, doc, fields):
    """One issue per key of fields (key: JSON type) that doc lacks or holds
    with another type."""
    return [("MissingKey", f"{where} lacks {key!r}") if key not in doc
            else ("BadType", f"{where}: {key!r} takes {kind}")
            for key, kind in fields.items()
            if key not in doc or not _JSON_TYPES[kind](doc[key])]


def _json_issues(doc) -> list:
    """The issues of a JSON spec whose fields are missing or not of their
    JSON type; none when spec_from_json can read it as it stands."""
    if not isinstance(doc, dict):
        return [("BadType", "a spec takes a JSON object")]
    fields = {"kind": f"{ABELIAN!r} or {POLYNOMIAL!r}",
              "modulus": "an integer", "classes": "a list of objects"}
    if doc.get("kind") == POLYNOMIAL:
        fields.update(coeffs="a list of integers", group_order="an integer")
    issues = _type_issues("spec", doc, fields)
    if _JSON_TYPES["a list of objects"](doc.get("classes")):
        for i, c in enumerate(doc["classes"]):
            issues += _type_issues(  # size and order default to 1
                f"classes[{i}]", {"size": 1, "order": 1, **c},
                {"label": "a string", "coset": "a list of integers",
                 "size": "an integer", "order": "an integer"})
    return issues


def spec_from_json(doc) -> GaloisSpec:
    """The spec of a JSON document, read as it stands: a field that is
    missing or not of its JSON type is a ValidationError."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    issues = _json_issues(doc)
    if issues:
        raise ValidationError(issues)
    classes = tuple(
        ClassSpec(label=c["label"], coset=frozenset(c["coset"]),
                  class_size=c.get("size", 1),
                  element_order=c.get("order", 1))
        for c in doc["classes"])
    if doc["kind"] == ABELIAN:
        return GaloisSpec(ABELIAN, doc["modulus"], classes)
    return GaloisSpec(POLYNOMIAL, doc["modulus"], classes,
                      coeffs=tuple(doc["coeffs"]),
                      group_order=doc["group_order"])


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
