"""Elliptic curves whose discriminant is supported on primes splitting
completely in a prescribed Galois field.

The construction takes split primes p, q and a third split prime
r = p + 432 n^2 q; the curve y^2 = x^3 + (pq/4) x + n p q^2 then has
discriminant -p^2 q^3 r.  An integral model (scaling by u = 2) is emitted
alongside, whose discriminant gains the factor 2^12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import SCHEMA, galois
from .arith import is_prime
from .errors import NotFoundWithinLimit


def _splits_completely(spec: galois.GaloisSpec, p: int) -> bool:
    return galois.frobenius_class(spec, p) == spec.identity_class


@dataclass
class CurveCertificate:
    p: int
    q: int
    r: int
    n: int
    transcript: list = field(default_factory=list)  # (prime, class label)

    @property
    def A(self) -> Fraction:
        return Fraction(self.p * self.q, 4)

    @property
    def B(self) -> int:
        return self.n * self.p * self.q ** 2

    @property
    def discriminant(self) -> int:
        return -self.p ** 2 * self.q ** 3 * self.r

    # integral model via the substitution (x, y) -> (x/4, y/8)
    @property
    def A_integral(self) -> int:
        return 4 * self.p * self.q

    @property
    def B_integral(self) -> int:
        return 64 * self.n * self.p * self.q ** 2

    @property
    def discriminant_integral(self) -> int:
        return (1 << 12) * self.discriminant

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "p": self.p, "q": self.q, "r": self.r, "n": self.n,
            "model": {"A": [self.A.numerator, self.A.denominator],
                      "B": self.B, "discriminant": self.discriminant},
            "integral_model": {"A": self.A_integral, "B": self.B_integral,
                               "discriminant": self.discriminant_integral,
                               "note": "scaled by u=2; discriminant gains "
                                       "a factor 2^12"},
            "transcript": [list(t) for t in self.transcript],
        }


def construct_curve(spec: galois.GaloisSpec,
                    search_limit: int) -> CurveCertificate:
    """Smallest (q, then p) with p, q <= search_limit, both split
    completely, and r = p + 432 n^2 q also prime and split; n is the
    spec's abelianization modulus."""
    n = max(1, spec.modulus)
    step = 432 * n * n

    def split_primes():
        m = 2
        while m <= search_limit:
            if is_prime(m) and _splits_completely(spec, m):
                yield m
            m += 1

    for q in split_primes():
        for p in split_primes():
            r = p + step * q
            if is_prime(r) and _splits_completely(spec, r):
                cert = CurveCertificate(p, q, r, n)
                for v in (p, q, r):
                    i = galois.frobenius_class(spec, v)
                    cert.transcript.append((v, spec.classes[i].label))
                return cert
    raise NotFoundWithinLimit(f"no certificate with p, q <= {search_limit}")


@dataclass
class CertificateCheck:
    ok: bool
    reasons: list

    def __bool__(self):
        return self.ok


def check_certificate(cert: CurveCertificate,
                      spec: galois.GaloisSpec) -> CertificateCheck:
    """Re-derives each invariant that a certificate can break: r = p +
    432 n^2 q, and p, q and r prime and split completely.  The
    discriminant needs no check: -16(4A^3 + 27B^2) = -p^2 q^3 (p + 432 n^2
    q) for every p, q and n, which is -p^2 q^3 r once r is checked."""
    reasons = []
    if cert.r != cert.p + 432 * cert.n ** 2 * cert.q:
        reasons.append("r != p + 432n^2q")
    for name, v in (("p", cert.p), ("q", cert.q), ("r", cert.r)):
        if not is_prime(v):
            reasons.append(f"{name} not prime")
        elif not _splits_completely(spec, v):
            reasons.append(f"{name} not identity class")
    return CertificateCheck(not reasons, reasons)
