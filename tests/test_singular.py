import functools
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import lemmas
import numpy as np
import pytest

from chebcircle import galois, sieve, singular
from chebcircle.errors import DomainError
from chebcircle.instance import (FieldClass, ProblemInstance,
                                 classical_instance, uniform_instance)


class TestCInfinity:
    def test_ternary_triangle(self):
        # k=3, a=(1,1,1), N <= X: density N^2/2
        for N in (10, 37, 50):
            got = singular.c_infinity((1, 1, 1), 50, N)
            assert got == pytest.approx(N * N / 2, rel=1e-6)

    def test_binary_segment(self):
        for N in (0, 7, 13, 20):
            got = singular.c_infinity((1, 1), 20, N)
            assert got == pytest.approx(N, abs=1e-6)

    def test_empty_slice(self):
        assert singular.c_infinity((1, 1, 1), 10, 31) == 0.0
        assert singular.c_infinity((1, 1), 10, -1) == 0.0

    def test_matches_closed_ternary_form(self):
        X = 50.0
        for N in range(0, 151, 7):
            got = singular.c_infinity((1, 1, 1), X, N)
            want = singular.c_infinity_ternary(N, X)
            assert got == pytest.approx(want, abs=1e-5 * max(1.0, want))

    def test_lattice_point_oracle(self):
        # |C_inf(N) - #lattice solutions| <= 3 * X^(k-2)
        X = 50
        counts = np.zeros(3 * X + 1)
        for x in range(X + 1):
            for y in range(X + 1):
                counts[x + y:x + y + X + 1] += 1
        for N in range(0, 3 * X + 1):
            got = singular.c_infinity((1, 1, 1), X, N)
            assert abs(got - counts[N]) <= 3 * X

    def test_mixed_signs_against_lattice(self):
        # |C_inf(N) - #lattice solutions| <= 3 * X^(k-2)
        for a, X in (((1, -1, 2), 30), ((2, -3), 60), ((1, -1, 1, 2), 12)):
            counts = {}
            for x in itertools.product(range(X + 1), repeat=len(a)):
                n = sum(ai * xi for ai, xi in zip(a, x))
                counts[n] = counts.get(n, 0) + 1
            lo = X * sum(v for v in a if v < 0)
            hi = X * sum(v for v in a if v > 0)
            for N in range(lo, hi + 1):
                got = singular.c_infinity(a, X, N)
                assert abs(got - counts.get(N, 0)) <= 3 * X ** (len(a) - 2)

    def test_matches_numerical_integration(self):
        # midpoint rule in x3 over the exact two-variable density of
        # a1 x1 + a2 x2; (2, 3, 3) at X = 344, N = 1336 is a slice where
        # adaptive quadrature once missed the density by 0.26 X
        n = 200000
        for a, X, N in (((2, 3, 3), 344, 1336), ((1, -2, 3), 100, 77),
                        ((-3, 1, 2), 50, -20)):
            x3 = (np.arange(n) + 0.5) * X / n
            t = N - a[2] * x3
            b1 = (t - max(0, a[0] * X)) / a[1]
            b2 = (t - min(0, a[0] * X)) / a[1]
            length = (np.minimum(X, np.maximum(b1, b2)) -
                      np.maximum(0, np.minimum(b1, b2)))
            want = float(np.sum(np.maximum(0, length))) * X / n / abs(a[0])
            assert singular.c_infinity(a, X, N) == pytest.approx(want,
                                                                 rel=1e-8)

    @staticmethod
    def fraction_c_infinity(a, X, N):
        """The closed form summed in Fractions and rounded once."""
        k, X, N = len(a), Fraction(X), Fraction(N)
        lo = X * sum(v for v in a if v < 0)
        hi = X * sum(v for v in a if v > 0)
        if not (lo <= N <= hi):
            return 0.0
        b = [abs(v) for v in a]
        total = Fraction(0)
        for r in range(k + 1):
            for S in itertools.combinations(b, r):
                s = N - lo - X * sum(S)
                if s > 0:
                    total += (-1) ** r * s ** (k - 1)
        return float(total / (math.factorial(k - 1) * math.prod(b)))

    def test_integer_sum_equals_fraction_sum(self):
        rng = random.Random(23)
        for _ in range(400):
            a = [rng.choice([-1, 1]) * rng.randint(1, 9)
                 for _ in range(rng.randint(2, 6))]
            X = rng.choice([rng.randint(1, 10**6), rng.uniform(0.5, 10**6),
                            Fraction(rng.randint(1, 10**6),
                                     rng.randint(1, 97))])
            lo = X * sum(v for v in a if v < 0)
            hi = X * sum(v for v in a if v > 0)
            N = lo + (hi - lo) * Fraction(rng.randint(-5, 105), 100)
            for N in (N, float(N), math.floor(N)):
                assert singular.c_infinity(a, X, N) == \
                    self.fraction_c_infinity(a, X, N), (a, X, N)

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            singular.c_infinity((1,), 10, 5)
        with pytest.raises(DomainError):
            singular.c_infinity((1, 0), 10, 5)


class TestCD:
    def test_gaussian_identity_triples(self):
        H = [frozenset({1})] * 3
        assert singular.c_D(H, (1, 1, 1), 4)[3] == 4
        assert singular.c_D(H, (1, 1, 1), 4)[1] == 0

    def test_trivial_modulus(self):
        assert singular.c_D([frozenset({0})], (1,), 1) == [1]

    def test_exhaustive_small_moduli(self):
        rng = random.Random(41)
        for D in range(2, 13):
            units = [u for u in range(D) if math.gcd(u, D) == 1]
            for k in (2, 3, 4):
                # random subgroups/cosets as plain subsets of the units
                Hs = [frozenset(rng.sample(units,
                                           rng.randint(1, len(units))))
                      for _ in range(k)]
                a = [rng.choice([-2, -1, 1, 2, 3]) for _ in range(k)]
                for N in range(D):
                    count = sum(
                        1 for xs in itertools.product(*Hs)
                        if sum(ai * x for ai, x in zip(a, xs)) % D == N % D)
                    denom = 1
                    for H in Hs:
                        denom *= len(H)
                    assert singular.c_D(Hs, a, D)[N % D] == \
                        Fraction(D * count, denom)

    def test_slot_width_boundaries(self):
        # prod |H_i| = 255 packs counts in one byte, 256 in two; a residue
        # can take every tuple, so its count fills its slot
        for D, sizes in ((19, (3, 5, 17)), (17, (16, 16)), (17, (1, 16, 16)),
                         (5, (1, 1, 1))):
            Hs = [frozenset(range(1, s + 1)) for s in sizes]
            for a in ((1,) * len(sizes), (0,) * len(sizes),
                      (1, -1, 2)[:len(sizes)]):
                counts = Counter(sum(ai * x for ai, x in zip(a, xs)) % D
                                 for xs in itertools.product(*Hs))
                denom = math.prod(sizes)
                assert singular.c_D(Hs, a, D) == [
                    Fraction(D * counts[r], denom) for r in range(D)]

    @staticmethod
    def check_unit_table(p, a):
        table = singular.c_D([range(1, p)] * len(a), a, p)
        assert len(table) == p
        for r in range(p):
            assert table[r] == singular.c_p(p, a, r), (p, a, r)

    def test_table_matches_closed_form(self):
        # k_p of the k coefficients are units mod p, the rest multiples
        rng = random.Random(17)
        for p in (2, 3, 5, 7, 11):
            for k in (1, 2, 3, 4):
                for k_p in range(1, k + 1):
                    a = ([rng.randrange(1, p) + p * rng.randint(-2, 2)
                          for _ in range(k_p)]
                         + [p * rng.choice([-2, -1, 1, 3])
                            for _ in range(k - k_p)])
                    self.check_unit_table(p, a)

    def test_table_exact_past_int64(self):
        # prod |H_i| = 210**9 > 2**63: an int64 count would wrap
        assert 210**9 > 2**63
        self.check_unit_table(211, [1] * 9)
        self.check_unit_table(211, [1, -2, 3, 211, 5, -422, 7, 8, 633])

    @pytest.mark.parametrize("a", [(1, 1, 1), (1, -2, 3)])
    def test_large_modulus_matches_dft(self, a):
        # S_5 from x^5 - x - 1: D = 2869, cosets the Jacobi symbol
        # (r / 2869) = +1 and -1; classes (12345), (1234), (123)
        D = 2869
        even = [r for r in range(D) if lemmas.kronecker(r, D) == 1]
        odd = [r for r in range(D) if lemmas.kronecker(r, D) == -1]
        cosets = [even, odd, even]
        table = singular.c_D(cosets, a, D)
        spectrum = np.prod([np.fft.fft(np.bincount(
            [ai * x % D for x in H], minlength=D))
            for H, ai in zip(cosets, a)], axis=0)
        counts = np.fft.ifft(spectrum).real
        assert np.abs(counts - np.rint(counts)).max() < 1e-6
        denom = math.prod(len(H) for H in cosets)
        assert table == [Fraction(D * int(c), denom)
                         for c in np.rint(counts).tolist()]
        assert sum(table) == D

    def test_main_terms_builds_one_table(self, monkeypatch):
        calls = []
        real = singular.c_D

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(singular, "c_D", counted)
        gauss = galois.builtin_spec("gaussian")
        s3 = galois.builtin_spec("s3-cbrt2")
        inst = ProblemInstance(
            (FieldClass(gauss, gauss.class_by_label("e")),
             FieldClass(s3, s3.class_by_label("2")),
             FieldClass(s3, s3.class_by_label("3"))), (1, 1, 1), 10**4)
        assert inst.modulus == 12
        Ns = list(range(10**4 + 1, 10**4 + 13))
        reps = singular.main_terms(inst, Ns)
        assert len(calls) == 1
        assert sorted(N % 12 for N in Ns) == list(range(12))
        table = real(inst.lifted_cosets(), inst.a, 12)
        assert [rep.C_D for rep in reps] == [table[N % 12] for N in Ns]


class TestCP:
    def test_classical_values(self):
        assert singular.c_p(3, (1, 1, 1), 3) == Fraction(3, 4)
        assert singular.c_p(3, (1, 1, 1), 1) == Fraction(9, 8)
        # matches the 1 - (p-1)^-2 / 1 + (p-1)^-3 shapes
        assert singular.c_p(3, (1, 1, 1), 0) == 1 - Fraction(1, 4)
        assert singular.c_p(3, (1, 1, 1), 2) == 1 + Fraction(1, 8)

    @staticmethod
    def exhaustive_counts(p, a):
        """#solutions over unit tuples for every N mod p, by enumerating
        all (p-1)^k tuples with numpy."""
        sums = np.zeros(1, dtype=np.int64)
        units = np.arange(1, p, dtype=np.int64)
        for ai in a:
            sums = (sums[:, None] + ai * units[None, :]).ravel() % p
        return np.bincount(sums, minlength=p)

    def test_exhaustive_grid_both_coefficient_families(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for k in (2, 3, 4):
                for a in ((1,) * k, tuple(range(1, k + 1))):
                    counts = self.exhaustive_counts(p, a)
                    for N in range(p):
                        assert singular.c_p(p, a, N) == \
                            Fraction(p * int(counts[N]), (p - 1) ** k)

    def test_library_brute_force_path(self):
        for p in (2, 3, 5, 7):
            for k in (2, 3):
                for a in ((1,) * k, tuple(range(1, k + 1))):
                    for N in range(p):
                        assert singular.c_p(p, a, N) == \
                            singular.c_p_bruteforce(p, a, N)

    def test_divisible_coefficient_path(self):
        # p divides a coefficient: the closed form over the k_p
        # coefficients that p does not divide, k_p = 2 and then 1
        for p, coeffs in ((5, ((1, 5, 2), (1, 5, -10))),
                          (7, ((1, 7, 2), (3, 7, 14)))):
            for a in coeffs:
                for N in range(p):
                    assert singular.c_p(p, a, N) == \
                        singular.c_p_bruteforce(p, a, N), (p, a, N)


class TestEulerProduct:
    def test_even_ternary_vanishes(self):
        [value], [bad] = singular._euler_rows((1, 1, 1), [10**5 + 2], 1,
                                              singular.P_MAX)
        assert value == 0.0 and bad == 2

    def test_truncation_consistency(self):
        [v1], _ = singular._euler_rows((1, 1, 1), [10**5 + 1], 1, 10**3)
        [v2], _ = singular._euler_rows((1, 1, 1), [10**5 + 1], 1, 10**4)
        assert abs(v1 - v2) / v2 < 1e-3

    def test_truncation_within_tail_bound(self):
        rng = random.Random(9)
        cases = []
        for _ in range(20):
            k = rng.randint(2, 4)
            a = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k))
            cases.append((a, rng.randint(1, 10**6), rng.choice([1, 3, 4]),
                          rng.choice([100, 300, 1000])))
        # 10007 > P divides a coefficient and N = 21 * 10007:
        # |log C_10007| ~ 1e-4 is far above the tail bound, so the product
        # must hold it
        cases.append(((1, 1, 10007), 210147, 1, 10**4))
        for a, N, D, P in cases:
            [v1], [bad1] = singular._euler_rows(a, [N], D, P)
            [v2], [bad2] = singular._euler_rows(a, [N], D, 2 * P)
            if bad1 or bad2 or v1 == 0 or v2 == 0:
                assert 10007 not in a
                continue
            tail = singular._tail_bound(len(a), N, P)
            assert abs(math.log(v1) - math.log(v2)) <= tail
        # two coefficients 10007 and 10007 | N: x_1 = N = 0 mod 10007 has
        # no unit solution, so C_10007 = 0, unless 10007 | D and C_D holds
        # the factor
        values, bad = singular._euler_rows((1, 10007, 10007), [210147], 1,
                                           10**4)
        assert (values.tolist(), bad.tolist()) == ([0.0], [10007])
        _, bad = singular._euler_rows((1, 10007, 10007), [210147], 10007,
                                      10**4)
        assert bad.tolist() == [0]
        inst = uniform_instance("trivial", "e", 3, (1, 10007, 10007), 20)
        [rep] = singular.main_terms(inst, [210147], 10**4)
        assert rep.vanishing_reason == "Cp_zero(10007)"

    def test_cofactor_above_pmax_squared_rejected(self):
        # 10007 * 10009 has no prime factor <= 100 and is >= 100**2
        with pytest.raises(DomainError, match="raise P_max"):
            singular._euler_rows((1, 1, 10007 * 10009), [5], 1, 100)
        # a prime cofactor below P_max**2 joins the product
        assert singular._euler_rows((1, -2 * 9973), [9973], 1, 100)[1] \
            .tolist() == [9973]

    def test_matches_classical_series(self):
        # independent formula path, skipping p = 2 on both sides via D = 2
        for N in (10**5 + 1, 10**5 + 3, 12345):
            [got], _ = singular._euler_rows((1, 1, 1), [N], 2,
                                            singular.P_MAX)
            series = 1.0
            for p in range(3, 10**4):
                if all(p % d for d in range(2, int(p**0.5) + 1)):
                    if N % p == 0:
                        series *= 1 - (p - 1.0) ** -2
                    else:
                        series *= 1 + (p - 1.0) ** -3
            assert got == pytest.approx(series, rel=1e-9)

    def test_requires_primes(self):
        with pytest.raises(DomainError):
            singular._euler_rows((1, 1), [5], 1, 1)

    @staticmethod
    def scalar_euler(a, N, D, P_max):
        """(product, first vanishing prime or 0) of one N: math.log of each
        C_p, summed in ascending p, then math.exp."""
        total = 0.0
        for p in sieve.primes_upto(P_max).tolist():
            if D % p:
                r = N % p
                if all(v % p for v in a):
                    r = min(r, 1)  # c_p then depends only on whether p | N
                log_c = log_cp_by_residue(p, a, r)
                if log_c is None:
                    return 0.0, p
                total += log_c
        return math.exp(total), 0

    def check_rows(self, a, Ns, D, P_max):
        values, bad = singular._euler_rows(a, Ns, D, P_max)
        for N, v, b in zip(Ns, values.tolist(), bad.tolist()):
            assert (v, b) == self.scalar_euler(a, int(N), D, P_max), (a, N, D)

    def test_rows_match_scalar_oracle(self):
        rng = random.Random(13)
        for a in ((1, 1, 1), (1, -1), (1, 2, 3), (2, -3, 5, 1), (3, 6, 9)):
            for D in (1, 3, 4, 8):
                Ns = np.array([rng.randint(-10**6, 10**6) for _ in range(12)]
                              + [0, 1, 2, 6, 30, 210], dtype=np.int64)
                self.check_rows(a, Ns, D, 10**3)

    def test_rows_with_coefficient_primes_match_scalar_oracle(self):
        # up to seven coefficients up to 60: many p divide one or several
        # of them, and C_p then differs from the one-pass value; some rows
        # are products of many p, and no row is 0, which every p divides
        rng = random.Random(7)
        for _ in range(30):
            a = tuple(rng.choice([-1, 1]) * rng.randint(1, 60)
                      for _ in range(rng.randint(2, 7)))
            Ns = np.array([rng.randint(-10**6, 10**6) for _ in range(6)]
                          + [30030, 17 * 19 * 23 * 29 * 31, 1999],
                          dtype=np.int64)
            self.check_rows(a, Ns, 1, 2000)

    def test_even_rows_vanish_at_two_for_odd_k(self):
        Ns = np.arange(10**5, 10**5 + 20, dtype=np.int64)
        values, bad = singular._euler_rows((1, 1, 1), Ns, 3, 10**3)
        assert bad.tolist() == [2 if N % 2 == 0 else 0 for N in Ns.tolist()]
        assert ((values == 0) == (Ns % 2 == 0)).all()
        self.check_rows((1, 1, 1), Ns, 3, 10**3)

    def test_rows_span_several_blocks(self):
        # 1229 primes below 10**4 give blocks of 2**18 // 1229 = 213 rows
        Ns = np.arange(150001, 150001 + 2 * 250, 2, dtype=np.int64)
        self.check_rows((1, 1, 1), Ns, 1, 10**4)
        self.check_rows((1, -1), Ns - 1, 1, 10**4)

    def test_rows_memory_is_blocked(self):
        # unblocked, 10**5 rows x 1229 primes of float64 would be ~940 MiB
        tracemalloc.start()
        try:
            singular._euler_rows((1, -1), np.arange(2, 10**5), 1, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@functools.lru_cache(maxsize=None)
def log_cp_by_residue(p, a, r):
    """math.log(float(c_p)), or None where c_p vanishes; c_p depends on N
    only through N mod p."""
    c = singular.c_p(p, a, r)
    return math.log(float(c)) if c else None


class TestMainTerm:
    def test_classical_positive(self):
        inst = classical_instance(10**5)
        [rep] = singular.main_terms(inst, [10**5 + 1])
        assert rep.vanishing_reason is None
        assert rep.main_term > 0
        assert rep.main_term == pytest.approx(
            float(rep.prefactor) * rep.C_inf * float(rep.C_D) *
            rep.euler_truncated, rel=1e-12)

    def test_gaussian_identity_congruence_vanishing(self):
        inst = uniform_instance("gaussian", "e", 3, (1, 1, 1), 10**4)
        [rep] = singular.main_terms(inst, [10**4 + 1])  # N = 1 mod 4
        assert rep.vanishing_reason == "CD_zero"
        assert rep.main_term == 0.0

    def test_goldbach_type_difference(self):
        inst = uniform_instance("trivial", "e", 3, (1, 1, -1), 10**4)
        # N = 0 forces an even sum of three odd units mod 2: C_2 = 0
        [rep] = singular.main_terms(inst, [0])
        assert rep.vanishing_reason == "Cp_zero(2)"
        # odd targets are the live case for p1 + p2 - p3
        [rep] = singular.main_terms(inst, [1])
        assert rep.vanishing_reason is None
        assert rep.main_term > 0

    def test_even_target_euler_vanishing(self):
        inst = classical_instance(10**4)
        [rep] = singular.main_terms(inst, [10**4 + 2])
        assert rep.vanishing_reason == "Cp_zero(2)"
        assert rep.main_term == 0.0

    def test_main_terms_rows_are_independent(self):
        # live, CD_zero and Cp_zero(2) rows in one N list: each row gets
        # the report it gets alone
        gauss = uniform_instance("gaussian", "e", 3, (1, 1, 1), 10**4)
        diff = uniform_instance("trivial", "e", 3, (1, 1, -1), 10**4)
        for inst, Ns, reasons in (
                (gauss, [10**4 + 3, 10**4 + 1, 10**4 + 7, 10**4 + 5],
                 [None, "CD_zero", None, "CD_zero"]),
                (diff, [1, 0, 3, 2],
                 [None, "Cp_zero(2)", None, "Cp_zero(2)"])):
            reps = singular.main_terms(inst, Ns)
            assert [r.vanishing_reason for r in reps] == reasons
            for N, rep in zip(Ns, reps):
                assert [rep] == singular.main_terms(inst, [N])
                assert rep.C_inf == singular.c_infinity(inst.a, inst.X, N)
                if rep.vanishing_reason is None:
                    assert rep.main_term > 0 and rep.tail_bound > 0
                else:
                    assert rep.main_term == rep.euler_truncated == 0.0
        # the live Goldbach-type rows differ only at p = 3, which divides
        # N = 3: C_3 = 1 - 1/4 there against 1 + 1/8 at N = 1
        one, _, three, _ = singular.main_terms(diff, [1, 0, 3, 2])
        assert three.euler_truncated / one.euler_truncated == \
            pytest.approx((1 - 1 / 4) / (1 + 1 / 8), rel=1e-12)

    def test_json_report(self):
        inst = classical_instance(10**4)
        [rep] = singular.main_terms(inst, [10**4 + 1])
        doc = json.loads(json.dumps(rep.to_json(), indent=2))
        assert doc["schema"] == "chebotarev-circle/1"
        assert doc["main_term"] == rep.main_term
        assert doc["vanishing_reason"] is None
        assert doc["C_D"] == [rep.C_D.numerator, rep.C_D.denominator]
