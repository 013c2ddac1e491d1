import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import lemmas
import numpy as np
import pytest
from lemmas import principal_character

from chebcircle import errors, expsum
from chebcircle.errors import DegenerateAlpha, DomainError, ResourceLimit

PHI = (1 + math.sqrt(5)) / 2
ONE = principal_character(1)


class TestBestApprox:
    def test_pi(self):
        ra = expsum.best_approx(math.pi, 10)
        assert (ra.a, ra.q) == (22, 7)
        assert ra.qualifies

    def test_exact_rational(self):
        ra = expsum.best_approx(Fraction(1, 3), 100)
        assert (ra.a, ra.q) == (1, 3)
        assert ra.err == 0

    def test_golden_ratio(self):
        ra = expsum.best_approx(PHI, 100)
        assert (ra.a, ra.q) == (144, 89)

    def test_dirichlet_guarantee_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            alpha = rng.random()
            qmax = rng.randint(1, 10**4)
            ra = expsum.best_approx(alpha, qmax)
            assert ra.err <= 1.0 / (ra.q * qmax) + 1e-15

    def test_bad_qmax(self):
        with pytest.raises(DomainError):
            expsum.best_approx(0.5, 0)


class TestDenominatorInRange:
    def test_pi(self):
        ra = lemmas.has_denominator_in_range(math.pi, 1, 10)
        assert (ra.a, ra.q) == (22, 7)

    def test_half_has_none(self):
        assert lemmas.has_denominator_in_range(Fraction(1, 2), 3, 100) is None

    def test_golden_denominators(self):
        qs = set()
        for qmin in range(10, 100):
            ra = lemmas.has_denominator_in_range(PHI, qmin, 100)
            if ra is not None:
                qs.add(ra.q)
        assert qs == {13, 21, 34, 55, 89}

    def test_exhaustive_agrees(self):
        # every q in (10, 100) with a reduced a/q within 1/q^2 is Fibonacci
        x = Fraction(PHI)
        good = set()
        for q in range(11, 100):
            a = round(x * q)
            if math.gcd(a, q) == 1 and abs(x - Fraction(a, q)) < \
                    Fraction(1, q * q):
                good.add(q)
        assert good == {13, 21, 34, 55, 89}

    def test_matches_exhaustive_scan(self):
        # floats and Fractions with small and large denominators, of either
        # sign; qmax <= 10**4 integral or fractional; qmin 0, an integer, a
        # fraction or negative
        rng = random.Random(2026)
        outcomes = set()
        for _ in range(5000):
            alpha = rng.choice([
                rng.uniform(-3, 3),
                Fraction(rng.randint(-3000, 3000), rng.randint(1, 3000)),
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))])
            qmax = 10 ** rng.uniform(0, 4)
            qmax = rng.choice([qmax, int(qmax) + 1])
            qmin = rng.choice([0, rng.uniform(-1, qmax),
                               rng.randrange(int(qmax) + 1)])
            ra = lemmas.has_denominator_in_range(alpha, qmin, qmax)
            got = None if ra is None else (ra.a, ra.q)
            assert got == exhaustive_denominator(alpha, qmin, qmax), \
                (alpha, qmin, qmax)
            outcomes.add(None if ra is None else
                         (ra.a, ra.q) in expsum.convergents(alpha))
        assert outcomes == {None, True, False}

    def test_intermediate_fractions_past_ten_thousand(self):
        ra = lemmas.has_denominator_in_range(math.sqrt(2), 16608, 19608)
        assert (ra.a, ra.q) == (27720, 19601)
        assert ra.err < 0.71 / ra.q**2
        ra = lemmas.has_denominator_in_range(0.6855436987230825, 6124, 10392)
        assert ra.q == 6198

    def test_intermediate_edge_cases(self):
        # 47/53 is no convergent: it comes from a consecutive pair of them
        alpha = Fraction(362238, 408641)
        ra = lemmas.has_denominator_in_range(alpha, 45.7, 120.7)
        assert (ra.a, ra.q) == (47, 53)
        assert (47, 53) not in expsum.convergents(alpha)
        # phi's convergents 1/1 and 2/1 give the candidate (2 - 1)/(1 - 1)
        ra = lemmas.has_denominator_in_range(PHI, 0, 3)
        assert (ra.a, ra.q) == (1, 1)
        assert lemmas.has_denominator_in_range(PHI, -1, 1) is None


def exhaustive_denominator(alpha, qmin, qmax):
    """(a, q) of the first qualifying convergent with qmin < q < qmax, else
    of the least q in that range found by trying every q; None if none."""
    x = expsum._as_fraction(alpha)
    for a, q in expsum.convergents(alpha, qmax):
        if qmin < q < qmax and abs(x - Fraction(a, q)) < Fraction(1, q * q):
            return (a, q)
    q = int(math.floor(qmin)) + 1
    while q < qmax:
        a = round(x * q)
        if math.gcd(a, q) == 1 and abs(x - Fraction(a, q)) < Fraction(1, q * q):
            return (a, q)
        q += 1
    return None


class TestBadMultiples:
    def test_half(self):
        assert lemmas.bad_multiple_count(Fraction(1, 2), 10, 1, 100) == 5

    def test_empty(self):
        assert lemmas.bad_multiple_count(PHI, 0, 2, 10**4) == 0

    def test_golden_matches_direct_scan(self):
        direct = sum(
            1 for n in range(1, 101)
            if lemmas.has_denominator_in_range(n * Fraction(PHI), 2,
                                               10**4 / 2) is None)
        assert lemmas.bad_multiple_count(PHI, 100, 2, 10**4) == direct


class TestStructureSet:
    def test_integer_alpha_rejected(self):
        with pytest.raises(DegenerateAlpha):
            lemmas.structure_set(0, 10**4, 2, 50, 100)

    def test_requires_b_gap(self):
        with pytest.raises(DomainError):
            lemmas.structure_set(PHI, 10**4, 10, 50, 15)

    def test_covering_property(self):
        for alpha in (PHI, math.sqrt(2), math.pi):
            ss = lemmas.structure_set(alpha, 10**5, 2, 200, 30)
            assert lemmas.covering_holds(ss, alpha)
            assert ss.min_element >= 1

    def test_reciprocal_sum_fit(self):
        rng = random.Random(11)
        worst = 0.0
        for _ in range(20):
            alpha = rng.random()
            A = rng.randint(1, 3)
            B = 2 * A + rng.randint(1, 20)
            X = 10 ** rng.randint(4, 6)
            try:
                ss = lemmas.structure_set(alpha, X, A, 100, B)
            except DegenerateAlpha:
                continue
            formula = A * A / B + A ** 4 * 100 / X
            if formula > 0:
                worst = max(worst, ss.reciprocal_sum() / formula)
        assert worst < 50  # fitted constant; regression guard


class TestNormCounts:
    def test_gaussian_small(self):
        r = lemmas.norm_counts(lemmas.QuadraticField(-4), 10)
        assert list(r[:11]) == [0, 1, 1, 0, 1, 2, 0, 0, 1, 1, 2]

    def test_sum_of_two_squares_oracle(self):
        # ideals of Z[i] of norm m <-> representations up to units
        X = 2000
        r = lemmas.norm_counts(lemmas.QuadraticField(-4), X)
        counts = np.zeros(X + 1, dtype=np.int64)
        for a in range(1, int(X**0.5) + 1):
            for b in range(0, int(X**0.5) + 1):
                n = a * a + b * b
                if n <= X:
                    counts[n] += 1
        assert np.array_equal(r[1:], counts[1:])

    def test_shared_and_read_only(self):
        K = lemmas.QuadraticField(-4)
        r = lemmas.norm_counts(K, 50)
        assert lemmas.norm_counts(lemmas.QuadraticField(-4), 50) is r
        with pytest.raises(ValueError):
            r[1] = 7

    def test_not_fundamental(self):
        with pytest.raises(DomainError):
            lemmas.QuadraticField(-3 * 4)

    def test_recip_sum(self):
        K = lemmas.QuadraticField(-4)
        got = lemmas.norm_divisible_recip_sum(K, 1, 10)
        want = 1 + 1 / 2 + 1 / 4 + 2 / 5 + 1 / 8 + 1 / 9 + 2 / 10
        assert got == pytest.approx(want, rel=1e-12)
        assert lemmas.norm_divisible_recip_sum(K, 3, 8) == 0.0
        assert lemmas.norm_divisible_recip_sum(K, 11, 10) == 0.0


class TestIdealExpSum:
    def test_zero_alpha_counts_ideals(self):
        K = lemmas.QuadraticField(-4)
        got = lemmas.ideal_exp_sum(K, ONE, 0.0, 10)
        assert got == pytest.approx(9)

    def test_half_alpha(self):
        K = lemmas.QuadraticField(-4)
        got = lemmas.ideal_exp_sum(K, ONE, 0.5, 4)
        assert got == pytest.approx(1 + 0j, abs=1e-9)

    def test_rational_alpha_reads_roots_of_unity(self):
        K = lemmas.QuadraticField(-4)
        r = lemmas.norm_counts(K, 60)
        want = sum(int(r[m]) * cmath.exp(2j * cmath.pi * (3 * m % 7) / 7)
                   for m in range(1, 61))
        got = lemmas.ideal_exp_sum(K, ONE, Fraction(3, 7), 60)
        assert got == pytest.approx(want, abs=1e-12)
        roots = np.exp(2j * np.pi * np.arange(7) / 7)
        assert got == complex(np.dot(r[1:].astype(np.float64),
                                     roots[3 * np.arange(1, 61) % 7]))

    def test_gauss_circle_constant(self):
        K = lemmas.QuadraticField(-4)
        X = 10**6
        got = lemmas.ideal_exp_sum(K, ONE, 0.0, X).real / X
        assert got == pytest.approx(math.pi / 4, rel=0.01)


class TestWeylSum:
    def test_full_period(self):
        assert expsum.weyl_sum((0, 1), Fraction(1, 3), 3) == \
            pytest.approx(0, abs=1e-12)

    def test_gauss_sum_magnitude(self):
        for q in (5, 13, 17, 29):
            s = expsum.weyl_sum((0, 0, 1), Fraction(1, q), q)
            assert abs(s) == pytest.approx(math.sqrt(q), rel=1e-10)

    def test_gate_charges_at_least_the_traced_peak(self, monkeypatch):
        # the charge counts the arrays, not the call's few kB of other
        # objects (BYTES_BASE holds those): a limit above BYTES_BASE by 99%
        # of the traced peak refuses the call, with a table of 7 roots, of
        # 2**20 roots and with none
        for alpha in (Fraction(1, 7), Fraction(3, 2**20), 0.361):
            tracemalloc.start()
            try:
                expsum.weyl_sum((0, 0, 1), alpha, 10**5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            monkeypatch.setattr(errors, "MAX_BYTES",
                                errors.BYTES_BASE + 0.99 * peak)
            with pytest.raises(ResourceLimit):
                expsum.weyl_sum((0, 0, 1), alpha, 10**5)
            monkeypatch.undo()

    def test_alpha_zero(self):
        assert expsum.weyl_sum((0, 1), 0.0, 7) == pytest.approx(7)

    def test_conjugate_symmetry(self):
        rng = random.Random(3)
        for _ in range(10):
            coeffs = tuple(rng.randint(-5, 5) for _ in range(4)) + (1,)
            alpha = rng.random()
            s1 = expsum.weyl_sum(coeffs, alpha, 200)
            s2 = expsum.weyl_sum(coeffs, -alpha, 200)
            assert s1 == pytest.approx(s2.conjugate(), abs=1e-10)

    def test_incremental_matches_direct(self):
        rng = random.Random(5)
        for deg, X in ((2, 10**4), (3, 10**4), (4, 10**5)):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(deg)) + (1,)
            alpha = rng.random()
            got = expsum.weyl_sum(coeffs, alpha, X)
            num, den = Fraction(alpha).as_integer_ratio()
            direct = 0j
            for x in range(1, X + 1):
                p = sum(c * x**i for i, c in enumerate(coeffs))
                direct += cmath.exp(2j * cmath.pi * ((num * p) % den) / den)
            assert got == pytest.approx(direct, abs=1e-8)

    def test_exact_rational_path(self):
        # Fraction alpha: phases are exact roots of unity
        s = expsum.weyl_sum((0, 0, 1), Fraction(2, 5), 5)
        direct = sum(cmath.exp(2j * cmath.pi * (2 * x * x % 5) / 5)
                     for x in range(1, 6))
        assert s == pytest.approx(direct, abs=1e-12)

    @staticmethod
    def _direct(coeffs, alpha, X):
        num, den = Fraction(alpha).as_integer_ratio()
        return sum(cmath.exp(2j * cmath.pi * (
            (num * sum(c * x**i for i, c in enumerate(coeffs))) % den) / den)
            for x in range(1, X + 1))

    def test_denominator_above_int64(self):
        # q = 2^152-ish for the double 1e-30, and 2^70 + 1 for the Fraction
        for alpha in (1e-30, Fraction(5, 2**70 + 1), -1e-30):
            for coeffs, X in (((0, 0, 1), 1000), ((3, -1, 0, 2), 500)):
                assert expsum.weyl_sum(coeffs, alpha, X) == \
                    pytest.approx(self._direct(coeffs, alpha, X), abs=1e-8)

    def test_denominator_above_old_root_table(self):
        # 65 536 < q <= 2^20: phase_array's exact root table
        for alpha in (Fraction(12345, 1048573), Fraction(3, 70001)):
            for coeffs, X in (((0, 0, 0, 1), 3000), ((1, 2, 1), 2000)):
                assert expsum.weyl_sum(coeffs, alpha, X) == \
                    pytest.approx(self._direct(coeffs, alpha, X), abs=1e-8)

    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            expsum.weyl_sum((3,), 0.5, 10)


class TestWeylBoundRatio:
    def test_gauss_case(self):
        s = expsum.weyl_sum((0, 0, 1), Fraction(1, 5), 5)
        got = abs(s) / expsum.weyl_bound((0, 0, 1), Fraction(1, 5), 5)[0]
        want = math.sqrt(5) / (5 * (1 / 5 + 1 / 5 + 1 / 5) ** (10.0**-2))
        assert got == pytest.approx(want, rel=1e-9)

    def test_integer_alpha_rejected(self):
        with pytest.raises(DomainError):
            expsum.weyl_bound((0, 0, 1), 0, 10)

    def test_finite_on_random_grid(self):
        rng = random.Random(17)
        for _ in range(50):
            deg = rng.randint(1, 3)
            coeffs = tuple(rng.randint(-2, 2) for _ in range(deg)) + \
                (rng.choice([-2, -1, 1, 2]),)
            alpha = rng.random()
            X = rng.randint(10, 300)
            r = (abs(expsum.weyl_sum(coeffs, alpha, X))
                 / expsum.weyl_bound(coeffs, alpha, X)[0])
            assert math.isfinite(r) and r >= 0

    def test_reads_the_approximation_within_qmax(self):
        # qmax = max(10, X^2) = 25 for X = 5, so 1/pi is read as 7/22
        bound, ra = expsum.weyl_bound((0, 0, 1), 0.3183098861837907, 5)
        assert (ra.a, ra.q) == (7, 22)
        assert bound == pytest.approx(
            5 * (1 / 22 + 1 / 5 + 22 / 25) ** (10.0**-2), rel=1e-12)
