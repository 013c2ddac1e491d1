import math
import random
import tracemalloc
from fractions import Fraction

import lemmas
import measure_peaks
import numpy as np
import pytest
from lemmas import (QuadraticField, UnsupportedInstantiation,
                    dirichlet_characters, kronecker_character, norm_counts,
                    principal_character)

from chebcircle import errors, galois, genfun, sieve
from chebcircle.arith import is_prime
from chebcircle.errors import ResourceLimit

ONE = principal_character(1)

PHI = (1 + math.sqrt(5)) / 2


def ctx_for(name, label, X, z=None):
    spec = galois.builtin_spec(name)
    cls = spec.class_by_label(label)
    z = math.log(X) ** 4 if z is None else z
    return genfun.GenfunContext(X, z, spec, cls)


class TestEvalG:
    def test_trivial_at_zero(self):
        ctx = ctx_for("trivial", "e", 10)
        want = sum(math.log(p) for p in (2, 3, 5, 7))
        assert genfun.eval_G(ctx, 0.0) == pytest.approx(want)

    def test_gaussian_identity_at_zero(self):
        ctx = ctx_for("gaussian", "e", 30)
        want = sum(math.log(p) for p in (5, 13, 17, 29))
        assert genfun.eval_G(ctx, 0.0).real == pytest.approx(want)
        assert want == pytest.approx(10.37, abs=0.05)

    def test_integer_periodicity(self):
        ctx = ctx_for("gaussian", "c", 100)
        for alpha in (Fraction(1, 3), Fraction(2, 7), 0.3):
            assert genfun.eval_G(ctx, alpha + 1) == pytest.approx(
                genfun.eval_G(ctx, alpha), abs=1e-9)

    def test_conjugate_symmetry(self):
        ctx = ctx_for("s3-cbrt2", "2", 500)
        for alpha in (0.3, PHI % 1, 0.77):
            assert genfun.eval_G(ctx, -alpha) == pytest.approx(
                genfun.eval_G(ctx, alpha).conjugate(), abs=1e-10)


class TestEvalF:
    def test_chebyshev_psi(self):
        got = lemmas.eval_F(None, ONE, 10, 0.0)
        want = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
        assert got.real == pytest.approx(want)

    def test_gaussian_small_cutoff(self):
        got = lemmas.eval_F(QuadraticField(-4), ONE, 5, 0.0)
        want = 2 * math.log(2) + 2 * math.log(5)
        assert got.real == pytest.approx(want)

    def test_integer_alpha(self):
        K = QuadraticField(-4)
        assert lemmas.eval_F(K, ONE, 100, Fraction(3)) \
            == pytest.approx(lemmas.eval_F(K, ONE, 100, 0.0))

    def test_below_two(self):
        assert lemmas.eval_F(None, ONE, 1, 0.3) == 0j

    def test_gaussian_lattice_walk_oracle(self):
        # enumerate the prime elements of Z[i] directly: one associate per
        # prime (a > 0, b >= 0), then their powers, and aggregate by norm
        X = 10**4
        weights = {}
        limit = int(X**0.5) + 1
        for a in range(1, limit + 1):
            for b in range(0, limit + 1):
                n = a * a + b * b
                if n > X:
                    break
                prime = is_prime(n)
                if b == 0:
                    # associates of a rational prime: prime iff inert
                    prime = is_prime(a) and a % 4 == 3
                    n = a * a
                    if n > X or not prime:
                        continue
                if not prime:
                    continue
                w = math.log(n)
                pe = n
                while pe <= X:
                    weights[pe] = weights.get(pe, 0.0) + w
                    pe *= n
        norms, wts = lemmas._prime_power_terms(QuadraticField(-4), X)
        got = {}
        for n, w in zip(norms, wts):
            got[int(n)] = got.get(int(n), 0.0) + float(w)
        assert set(got) == set(weights)
        for n in got:
            assert got[n] == pytest.approx(weights[n], rel=1e-12)

    @pytest.mark.parametrize("d", [None, -4, -3, 5, -7, 8, 12, -8, 13])
    def test_prime_power_weights_dirichlet_identity(self, d):
        # -zeta_L' = zeta_L * (-zeta_L'/zeta_L): sum over d | n of
        # W(d) r(n/d) = r(n) log n, with W the weight per norm and r the
        # ideal count per norm (r = 1 over Q)
        X = 3000
        fieldL = None if d is None else QuadraticField(d)
        r = (np.ones(X + 1) if d is None
             else norm_counts(fieldL, X).astype(np.float64))
        norms, wts = lemmas._prime_power_terms(fieldL, X)
        W = np.zeros(X + 1)
        np.add.at(W, norms, wts)
        conv = np.zeros(X + 1)
        for q in np.nonzero(W)[0]:
            conv[q::q] += W[q] * r[1:X // q + 1]
        n = np.arange(1, X + 1)
        assert conv[1:] == pytest.approx(r[1:] * np.log(n), rel=1e-12,
                                         abs=1e-12)


class TestSharpApproximants:
    def test_empty_sieve(self):
        ctx = ctx_for("trivial", "e", 3, z=math.log(3))
        assert genfun.eval_G_sharp(ctx, 0.0).real == pytest.approx(3)

    def test_odd_numbers_only(self):
        ctx = ctx_for("trivial", "e", 10, z=2.0)
        assert genfun.eval_G_sharp(ctx, 0.0).real == pytest.approx(10)

    def test_gaussian_congruence_weight(self):
        ctx = ctx_for("gaussian", "e", 10, z=2.0)
        assert genfun.eval_G_sharp(ctx, 0.0).real == pytest.approx(6)

    def test_f_sharp_norm_residues(self):
        got = lemmas.eval_F_sharp(QuadraticField(-4), ONE, 10, 2.0,
                                  0.0)
        assert got.real == pytest.approx(12)

    def test_flat_is_exact_difference(self):
        ctx = ctx_for("gaussian", "e", 1000)
        for alpha in (0.0, 0.37, PHI % 1):
            assert lemmas.eval_G_flat(ctx, alpha) == \
                genfun.eval_G(ctx, alpha) - genfun.eval_G_sharp(ctx, alpha)

    def test_flat_small_at_zero(self):
        # full-mass cancellation at the central point needs z < sqrt(X)
        ctx = ctx_for("trivial", "e", 10**5, z=math.log(10**5) ** 2)
        assert abs(lemmas.eval_G_flat(ctx, 0.0)) / 10**5 < 0.1


class TestRelationResidual:
    def test_dirichlet_route_requires_abelian(self):
        ctx = ctx_for("s3-cbrt2", "1", 100)
        with pytest.raises(UnsupportedInstantiation):
            lemmas.gf_relation_residual(ctx, 0.3)

    def test_sqrt_x_bound_both_routes(self):
        rng = random.Random(23)
        X = 10**4
        bound = 10 * math.sqrt(X)
        ctx_e = ctx_for("gaussian", "e", X)
        ctx_c = ctx_for("gaussian", "c", X)
        for _ in range(64):
            alpha = rng.random()
            assert lemmas.gf_relation_residual(ctx_e, alpha) <= bound
            assert lemmas.gf_relation_residual(ctx_c, alpha) <= bound

    def test_trivial_spec_dirichlet_route(self):
        ctx = ctx_for("trivial", "e", 10**4)
        # G has primes only, F has prime powers: difference is O(sqrt X)
        assert lemmas.gf_relation_residual(ctx, 0.0) <= 10 * math.sqrt(10**4)


class TestMinorArcScan:
    def test_empty(self):
        ctx = ctx_for("trivial", "e", 100)
        assert genfun.minor_arc_scan(ctx, []) == []

    def test_rows_carry_g_and_g_sharp(self):
        ctx = ctx_for("gaussian", "e", 3000)
        alphas = [0.0, Fraction(1, 7), 0.361]
        for a, r in zip(alphas, genfun.minor_arc_scan(ctx, alphas)):
            G, Gs = genfun.eval_G(ctx, a), genfun.eval_G_sharp(ctx, a)
            assert (r.alpha, r.q) == (float(a), genfun.best_approx(a, 10**4).q)
            assert (r.G, r.G_sharp) == (G, Gs)
            assert r.flat_ratio == abs(lemmas.eval_G_flat(ctx, a)) / ctx.X

    def test_rational_grid_three_decades(self):
        rats = [a / q for q in range(3, 21, 4) for a in range(1, 5)
                if math.gcd(a, q) == 1][:16]
        maxima = {}
        for X in (10**4, 10**5, 10**6):
            ctx = ctx_for("trivial", "e", X)
            rows = genfun.minor_arc_scan(ctx, rats)
            assert all(r.q <= 20 for r in rows)
            maxima[X] = max(r.flat_ratio for r in rows)
        # major-arc points decay from 1e4 to 1e5; 1e6 stays below the start
        assert maxima[10**5] < maxima[10**4]
        assert maxima[10**6] < maxima[10**4]


class TestFlatDecay:
    def test_f_flat_log_normalized_non_increasing(self):
        K = QuadraticField(-4)
        grid = [(j * PHI) % 1.0 for j in range(1, 17)]
        vals = []
        for X in (10**4, 10**5, 10**6):
            z = math.log(X) ** 4
            vals.append(max(abs(lemmas.eval_F_flat(K, ONE, X, z, a))
                            * math.log(X) / X for a in grid))
        assert vals[0] >= vals[1] >= vals[2]


class TestFAtZero:
    def test_trivial_character(self):
        K = QuadraticField(-4)
        zr = lemmas.F_at_zero_ratio(K, ONE, 10**4)
        assert zr.expected_r == 1
        assert zr.ratio == pytest.approx(1.0, abs=0.05)

    def test_chi_minus4_of_norm_is_trivial_on_ideals(self):
        # every coprime norm in Z[i] is 1 mod 4, so the twist is invisible
        K = QuadraticField(-4)
        zr = lemmas.F_at_zero_ratio(K, kronecker_character(-4), 10**4)
        assert zr.expected_r == 1
        assert zr.ratio == pytest.approx(1.0, abs=0.05)

    def test_genuinely_twisted_rational_sum_cancels(self):
        zr = lemmas.F_at_zero_ratio(None, kronecker_character(-4), 10**4)
        assert zr.expected_r == 0
        assert abs(zr.ratio) <= 0.02

    def test_tiny_cutoff(self):
        zr = lemmas.F_at_zero_ratio(QuadraticField(-4), ONE, 1)
        assert zr.ratio == 0.0


def scan_trivial_on_ideals(fieldL, chi):
    """The former check: chi = 1 on every norm up to a guessed bound."""
    if fieldL is None:
        return chi.is_principal
    bound = max(200, 4 * chi.modulus * abs(fieldL.d))
    r = norm_counts(fieldL, bound)
    for m in range(1, bound + 1):
        if r[m] != 0 and math.gcd(m, chi.modulus) == 1:
            if abs(chi(m) - 1) > 1e-9:
                return False
    return True


def test_trivial_on_ideals_matches_norm_scan():
    trivial = 0
    for d in (-4, -3, 5, -7, 8, -8, 12, 13):
        K = QuadraticField(d)
        for m in range(1, 25):
            for chi in dirichlet_characters(m):
                want = scan_trivial_on_ideals(K, chi)
                assert lemmas._trivial_on_ideals(K, chi) == want, (d, chi)
                trivial += want
    assert trivial > 8 * 24


def test_phase_array_exact_roots():
    ns = np.arange(1, 8, dtype=np.int64)
    got = genfun.phase_array(ns, Fraction(2, 7))
    want = np.exp(2j * np.pi * (2 * ns % 7) / 7.0)
    assert np.allclose(got, want, atol=1e-12)


class TestMemoryGate:
    def test_estimate_tracks_measured_peak(self):
        # peak RSS of minor_arc_scan (tests/measure_peaks.py genfun)
        for row, peak, est in measure_peaks.estimates("genfun"):
            assert 0.95 * peak <= est <= 1.05 * peak, row

    @pytest.mark.parametrize("name", ["trivial-e", "s3-cbrt2-1",
                                      "d4-qrt2-e"])
    def test_gate_charges_at_least_the_traced_peak(self, monkeypatch, name):
        # a limit one byte below BYTES_BASE and the traced peak of the
        # scan refuses the context
        tracemalloc.start()
        try:
            genfun.minor_arc_scan(measure_peaks.context(name, 10**6),
                                  measure_peaks.ALPHAS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "MAX_BYTES", errors.BYTES_BASE + peak - 1)
        with pytest.raises(ResourceLimit):
            measure_peaks.context(name, 10**6)

    def test_refused_before_the_sieve(self, monkeypatch):
        # sharp_weights over 0..5e8 alone needs about 13 GiB
        def no_sieve(*args):
            raise AssertionError("primes listed past the memory gate")

        monkeypatch.setattr(sieve, "primes_upto", no_sieve)
        monkeypatch.setattr(sieve, "sharp_weights", no_sieve)
        ctx_for("trivial", "e", 10**6)
        with pytest.raises(ResourceLimit, match="GiB"):
            ctx_for("trivial", "e", 5 * 10**8)
