import math
import tracemalloc
from fractions import Fraction

import lemmas
import numpy as np
import pytest
from lemmas import QuadraticField

from chebcircle import errors, galois, sieve
from chebcircle.arith import factorint, is_prime
from chebcircle.errors import ResourceLimit


class TestPrimes:
    def test_primality(self):
        assert is_prime(2)
        assert is_prime(9973)
        assert not is_prime(9999)

    def test_against_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        for n in range(2, 500):
            assert is_prime(n) == trial(n)

    def test_factor(self):
        assert factorint(360) == {2: 3, 3: 2, 5: 1}

    def test_factor_with_limit(self):
        # trial division stops after the limit; what is left is one key
        assert factorint(-360, 3) == {2: 3, 3: 2, 5: 1}
        assert factorint(4 * 10007 * 10009, 100) == {2: 2, 10007 * 10009: 1}
        assert factorint(2**61 - 1, 10**4) == {2**61 - 1: 1}
        assert factorint(2 * 9973, 100) == {2: 1, 9973: 1}
        for n in range(-200, 201):
            assert factorint(n, 15) == factorint(n)

    def test_build_matches_trial_division(self):
        # every limit from the smallest, through the base of the recursion
        def trial(n):
            return all(n % d for d in range(2, math.isqrt(n) + 1))
        for limit in range(2, 201):
            want = [n for n in range(2, limit + 1) if trial(n)]
            assert sieve.primes_upto(limit).tolist() == want

    def test_out_of_range(self):
        # no primes below 2; none missed past any fixed bound
        for n in (-5, 0, 1, 1.9):
            assert sieve.primes_upto(n).tolist() == []
            assert not is_prime(n)
        assert sieve.primes_upto(10**5)[-1] == 99991
        assert is_prime(99991) and not is_prime(10**5)


class TestLambdaFamily:
    def test_lambda_z(self):
        assert sieve.lambda_z(10, 11) == Fraction(35, 8)
        assert sieve.lambda_z(10, 6) == 0
        assert sieve.lambda_z(1.5, 42) == 1

    def test_aggregates(self):
        assert sieve.c_of_z(10) == Fraction(35, 8)

    def test_c_of_z_float_matches_exact(self):
        for z in (1.0, 2.0, 10.0, 100.0):
            assert sieve.c_of_z_float(z) == pytest.approx(
                float(sieve.c_of_z(z)), rel=1e-12)

    def test_moebius_identity(self):
        # Lambda_z(n) = C(z) * sum of mu(d) over d | gcd(n, P(z))
        def mu(n):
            out, d = 1, 2
            while d * d <= n:
                if n % d == 0:
                    n //= d
                    if n % d == 0:
                        return 0
                    out = -out
                d += 1
            return -out if n > 1 else out

        for z in (2, 7, 30):
            cz = sieve.c_of_z(z)
            pz = math.prod(sieve.primes_upto(z))
            for n in list(range(1, 200)) + [9991, 10000]:
                g = math.gcd(n, pz)
                divisors = [d for d in range(1, g + 1) if g % d == 0]
                rhs = cz * sum(mu(d) for d in divisors)
                assert sieve.lambda_z(z, n) == rhs

    def test_lambda_kc(self):
        spec = galois.builtin_spec("gaussian")
        e = spec.class_by_label("e")
        assert lemmas.lambda_kc(spec, e, 5) == 2
        assert lemmas.lambda_kc(spec, e, 7) == 0
        triv = galois.builtin_spec("trivial")
        assert lemmas.lambda_kc(triv, triv.classes[0], 12345) == 1


class TestSmoothCount:
    def test_examples(self):
        assert sieve.smooth_count(3, 10) == 4      # {1, 2, 3, 6}
        assert sieve.smooth_count(1.5, 100) == 1
        assert sieve.smooth_count(10, 210) == 16

    def test_against_independent_sieve(self):
        # mark squarefree z-smooth numbers directly
        Y = 10**6
        spf = np.zeros(Y + 1, dtype=np.int64)
        for i in range(2, int(Y**0.5) + 1):
            if spf[i] == 0:
                spf[i * i::i] = i
        for z in (7, 19, 30):
            ok = np.ones(Y + 1, dtype=bool)
            ok[0] = False
            for p in range(2, Y + 1):
                if spf[p] == 0 and p > 1:
                    if p > z:
                        ok[p::p] = False
                    else:
                        ok[p * p::p * p] = False
                if p > z and p * p > Y:
                    break
            # remaining large primes handled by a final pass
            n = np.arange(Y + 1)
            large_prime_factor = np.zeros(Y + 1, dtype=bool)
            for p in range(2, Y + 1):
                if spf[p] == 0 and p > z:
                    large_prime_factor[p::p] = True
            ok &= ~large_prime_factor
            ok[1] = True
            assert sieve.smooth_count(z, Y) == int(ok.sum())

    def test_gate_charges_at_least_the_traced_peak(self, monkeypatch):
        # a limit one byte above BYTES_BASE and below the call's traced
        # peak refuses it
        tracemalloc.start()
        try:
            sieve.smooth_count(10**6, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "MAX_BYTES", errors.BYTES_BASE + peak - 1)
        with pytest.raises(ResourceLimit):
            sieve.smooth_count(10**6, 10**6)

    def test_growth_regression(self):
        # S(z, Y) * Y^-(1 - 1/(2B)) stays bounded by exp(c sqrt(log X))
        X = 10**6
        for B in (2, 3):
            z = math.log(X) ** B
            ratios = [sieve.smooth_count(z, Y) * Y ** -(1 - 1 / (2 * B))
                      for Y in (10**3, 10**4, 10**5, 10**6)]
            c = math.log(max(max(ratios), 1.0)) / math.sqrt(math.log(X))
            assert c < 3


class TestClassPrimes:
    def test_trivial(self):
        spec = galois.builtin_spec("trivial")
        [ps] = sieve.class_primes(spec, 10, [0])
        assert ps.tolist() == [2, 3, 5, 7]
        assert ps.dtype == np.int64

    def test_gaussian_identity(self):
        spec = galois.builtin_spec("gaussian")
        e, c = sieve.class_primes(spec, 30, [0, 1])
        assert e.tolist() == [5, 13, 17, 29]
        assert c.tolist() == [3, 7, 11, 19, 23]

    def test_sextic_split_primes(self):
        spec = galois.builtin_spec("s3-cbrt2")
        [ps] = sieve.class_primes(
            spec, 50, [spec.classes.index(spec.class_by_label("1"))])
        assert ps.tolist() == [31, 43]

    @pytest.mark.parametrize("name", [*galois.BUILTIN_NAMES, "mod5"])
    def test_selected_classes_match_the_full_split(self, name):
        # Q(zeta_5): four classes, one residue mod 5 each
        spec = galois.builtin_spec(name) if name != "mod5" else \
            galois.GaloisSpec(galois.ABELIAN, 5, tuple(
                galois.ClassSpec(str(r), frozenset({r})) for r in range(1, 5)))
        ps = sieve.primes_upto(3000)
        labels = galois.classify_batch(spec, ps)
        full = [ps[labels == i] for i in range(len(spec.classes))]
        every = sieve.class_primes(spec, 3000, range(len(spec.classes)))
        assert len(every) == len(full)
        assert all(np.array_equal(x, y) for x, y in zip(every, full))
        last = len(full) - 1
        for idx in ([0], [last], [last, 0], list(range(last, -1, -1))):
            got = sieve.class_primes(spec, 3000, idx)
            assert len(got) == len(idx)
            for i, arr in zip(idx, got):
                assert arr.dtype == np.int64
                assert np.array_equal(arr, full[i])

    def test_partition_property(self):
        for name in galois.BUILTIN_NAMES:
            spec = galois.builtin_spec(name)
            X = 5000
            total = sum(len(ps) for ps in sieve.class_primes(
                spec, X, range(len(spec.classes))))
            ps = sieve.primes_upto(X)
            ram = sum(1 for p in ps
                      if galois.frobenius_class(spec, int(p)) == -1)
            # classes "1" and "3" of the sextic share a coset but not primes
            uniq = {c.label for c in spec.classes}
            assert len(uniq) == len(spec.classes)
            assert total == len(ps) - ram


def test_sieve_params_linkage():
    B, z = sieve.level(10**4)
    assert B == 4.0
    assert z == pytest.approx(math.log(10**4) ** 4)


def test_sharp_weights_match_scalar_definitions():
    # every built-in class, and Q(i)'s norm image as an abelian class
    m, H = lemmas._norm_image_subgroup(QuadraticField(-4))
    norm_image = galois.GaloisSpec(galois.ABELIAN, m,
                                   (galois.ClassSpec("N", frozenset(H)),))
    pairs = [(norm_image, norm_image.classes[0])]
    for name in galois.BUILTIN_NAMES:
        spec = galois.builtin_spec(name)
        pairs += [(spec, c) for c in spec.classes]
    assert len(pairs) == 12
    X = 500
    for z in (1.5, 2, 7.5, 30):
        for spec, cls in pairs:
            w = sieve.sharp_weights(X, z, spec.modulus, cls.coset)
            want = [float(lemmas.lambda_kc(spec, cls, n) * sieve.lambda_z(z, n))
                    for n in range(1, X + 1)]
            assert w[0] == 0.0
            assert list(w[1:]) == pytest.approx(want, rel=1e-12, abs=0)


def test_survivor_mask():
    m = sieve.sieve_survivor_mask(20, 3.0)
    survivors = [int(i) for i in np.nonzero(m)[0]]
    assert survivors == [1, 5, 7, 11, 13, 17, 19]
