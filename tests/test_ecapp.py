import random
from dataclasses import replace

import pytest

from chebcircle import ecapp, galois, sieve
from chebcircle.arith import is_prime
from chebcircle.errors import DomainError, NotFoundWithinLimit


class TestPrimality:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
        for n in range(-2, 40):
            assert is_prime(n) == (n in primes)

    def test_against_table(self):
        primes = set(sieve.primes_upto(10**4).tolist())
        for n in range(2, 10**4):
            assert is_prime(n) == (n in primes)

    def test_large_composites(self):
        assert not is_prime(3215031751)  # strong pseudoprime to 2,3,5,7
        # strong pseudoprimes to the bases 2..17: 10670053 * 32010157 and
        # 149491 * 747451 * 34233211
        assert not is_prime(341550071728321)
        assert not is_prime(3825123056546413051)
        assert is_prime(2**31 - 1)
        assert is_prime(2**61 - 1)
        with pytest.raises(DomainError):  # beyond the proven bound
            is_prime(318665857834031151167461)


class TestDiscriminantIdentity:
    def test_random_triples(self):
        # -16(4A^3 + 27B^2) = -p^2 q^3 (p + 432 n^2 q) for any p, q, n: the
        # discriminant that a certificate reports is its model's
        rng = random.Random(77)
        for _ in range(100):
            p = rng.randint(1, 10**6)
            q = rng.randint(1, 10**6)
            n = rng.randint(1, 100)
            cert = ecapp.CurveCertificate(p, q, p + 432 * n * n * q, n)
            assert cert.discriminant == \
                -16 * (4 * cert.A**3 + 27 * cert.B**2)
            assert cert.discriminant_integral == \
                -16 * (4 * cert.A_integral**3 + 27 * cert.B_integral**2)

    def test_certificate_properties(self):
        cert = ecapp.CurveCertificate(p=13, q=2, r=877, n=1)
        assert cert.A * 4 == cert.p * cert.q
        assert cert.B == cert.n * cert.p * cert.q**2
        assert cert.discriminant == -16 * (4 * cert.A**3 + 27 * cert.B**2)
        assert cert.discriminant_integral == \
            -16 * (4 * cert.A_integral**3 + 27 * cert.B_integral**2)


class TestConstructCurve:
    def test_rational_field(self):
        spec = galois.builtin_spec("trivial")
        cert = ecapp.construct_curve(spec, 10**6)
        assert cert.n == 1
        assert cert.r == cert.p + 432 * cert.q
        assert ecapp.check_certificate(cert, spec)
        assert {lbl for _, lbl in cert.transcript} == {"e"}

    def test_gaussian_field(self):
        spec = galois.builtin_spec("gaussian")
        cert = ecapp.construct_curve(spec, 10**6)
        assert cert.n == 4
        assert cert.r == cert.p + 6912 * cert.q
        for v in (cert.p, cert.q, cert.r):
            assert v % 4 == 1
        assert ecapp.check_certificate(cert, spec)

    def test_tiny_limit(self):
        spec = galois.builtin_spec("gaussian")
        with pytest.raises(NotFoundWithinLimit):
            ecapp.construct_curve(spec, 10)

    def test_json_document(self):
        spec = galois.builtin_spec("trivial")
        cert = ecapp.construct_curve(spec, 10**4)
        doc = cert.to_json()
        assert doc["schema"] == "chebotarev-circle/1"
        assert doc["model"]["discriminant"] == cert.discriminant
        assert doc["integral_model"]["A"] == 4 * cert.p * cert.q


class TestIdentityClass:
    # Q(i) with its classes listed inert first: the identity is still the
    # class of p = 1 mod 4, not the first class of order 1
    SWAPPED = {"kind": "abelian", "modulus": 4,
               "classes": [{"label": "c", "coset": [3]},
                           {"label": "e", "coset": [1]}]}

    def test_swapped_spec_certifies_split_primes(self):
        spec = galois.spec_from_json(self.SWAPPED)
        galois.validate_spec(spec)
        cert = ecapp.construct_curve(spec, 2000)
        assert (cert.p, cert.q, cert.r) == (29, 5, 34589)
        assert {lbl for _, lbl in cert.transcript} == {"e"}
        assert ecapp.check_certificate(cert, spec)

    def test_swapped_spec_rejects_inert_primes(self):
        spec = galois.spec_from_json(self.SWAPPED)
        chk = ecapp.check_certificate(
            ecapp.CurveCertificate(p=7, q=3, r=20743, n=4), spec)
        assert not chk
        assert chk.reasons == ["p not identity class", "q not identity class",
                               "r not identity class"]


class TestCheckCertificate:
    def setup_method(self):
        self.spec = galois.builtin_spec("gaussian")
        self.cert = ecapp.construct_curve(self.spec, 10**4)

    def test_valid(self):
        chk = ecapp.check_certificate(self.cert, self.spec)
        assert chk and chk.reasons == []

    def test_tampered_r(self):
        bad = replace(self.cert, r=self.cert.r + 2)
        chk = ecapp.check_certificate(bad, self.spec)
        assert not chk
        assert "r != p + 432n^2q" in chk.reasons

    def test_inert_q(self):
        # q = 7 is 3 mod 4: not in the identity class of Q(i)
        bad = ecapp.CurveCertificate(p=self.cert.p, q=7,
                                     r=self.cert.p + 432 * 16 * 7, n=4)
        chk = ecapp.check_certificate(bad, self.spec)
        assert not chk
        assert "q not identity class" in chk.reasons

    def test_composite_p(self):
        bad = ecapp.CurveCertificate(p=9, q=5, r=9 + 432 * 16 * 5, n=4)
        chk = ecapp.check_certificate(bad, self.spec)
        assert not chk
        assert "p not prime" in chk.reasons

    def test_discriminant_support_is_pqr(self):
        d = -self.cert.discriminant
        for v in (self.cert.p, self.cert.p, self.cert.q, self.cert.q,
                  self.cert.q, self.cert.r):
            assert d % v == 0
            d //= v
        assert d == 1
