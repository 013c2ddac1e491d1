import math
import random

import numpy as np
import pytest

from chebcircle import circle, galois, sieve
from chebcircle.errors import ResourceLimit, ValidationError
from chebcircle.instance import (FieldClass, ProblemInstance,
                                 classical_instance, uniform_instance)


def params_b2(X):
    return sieve.SieveParams(1.0, 2.0, math.log(X) ** 2)


class TestInstanceValidation:
    def test_common_divisor_rejected(self):
        with pytest.raises(ValidationError):
            uniform_instance("trivial", "e", 2, (2, 4), 100)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            uniform_instance("trivial", "e", 2, (1, 0), 100)

    def test_single_term_rejected(self):
        spec = galois.builtin_spec("trivial")
        with pytest.raises(ValidationError):
            ProblemInstance((FieldClass(spec, spec.classes[0]),), (1,), 100)

    def test_tiny_cutoff_rejected(self):
        with pytest.raises(ValidationError):
            uniform_instance("trivial", "e", 2, (1, 1), 1)

    def test_mixed_moduli(self):
        spec_g = galois.builtin_spec("gaussian")
        spec_s = galois.builtin_spec("s3-cbrt2")
        inst = ProblemInstance(
            (FieldClass(spec_g, spec_g.class_by_label("e")),
             FieldClass(spec_s, spec_s.class_by_label("1"))),
            (1, 1), 100)
        assert inst.modulus == 12
        for coset in inst.lifted_cosets():
            assert all(math.gcd(r, 12) == 1 for r in coset)


class TestRepresentationCounts:
    def test_vinogradov_small(self, table_small):
        inst = classical_instance(10)
        co = circle.representation_counts(inst, table_small)
        assert co.unweighted_at(10) == 6  # permutations of 2+3+5
        assert co.weighted_at(10) == pytest.approx(
            6 * math.log(2) * math.log(3) * math.log(5))
        assert co.unweighted_at(29) == 0

    def test_difference_instance(self, table_small):
        inst = uniform_instance("trivial", "e", 2, (1, -1), 10)
        co = circle.representation_counts(inst, table_small)
        direct = sum(1 for p in (2, 3, 5, 7) for q in (2, 3, 5, 7)
                     if p - q == 2)
        assert co.unweighted_at(2) == direct
        assert co.n_range == (-10, 10)
        assert co.unweighted_at(-5) == 1  # 2 - 7

    def test_total_mass(self, table_small):
        for name, label in (("trivial", "e"), ("gaussian", "e"),
                            ("s3-cbrt2", "2")):
            inst = uniform_instance(name, label, 3, (1, 1, 1), 500)
            co = circle.representation_counts(inst, table_small)
            spec = galois.builtin_spec(name)
            cls = spec.class_by_label(label)
            n_primes = sieve.weighted_prime_array(
                table_small, spec, cls, 500).count
            assert int(co.unweighted.sum()) == n_primes ** 3

    def test_order_independence(self, table_small):
        spec_t = galois.builtin_spec("trivial")
        spec_g = galois.builtin_spec("gaussian")
        fcs = (FieldClass(spec_t, spec_t.classes[0]),
               FieldClass(spec_g, spec_g.class_by_label("e")),
               FieldClass(spec_g, spec_g.class_by_label("c")))
        a = (1, 1, 1)
        co1 = circle.representation_counts(
            ProblemInstance(fcs, a, 300), table_small)
        co2 = circle.representation_counts(
            ProblemInstance(fcs[::-1], a, 300), table_small)
        assert np.array_equal(co1.unweighted, co2.unweighted)

    def test_resource_limit(self, table_small):
        inst = uniform_instance("trivial", "e", 3, (100, 100, 1), 10**4)
        inst.a = (10**5, 10**5, 1)  # bypass gcd guard to hit the size guard
        with pytest.raises(ResourceLimit):
            circle.representation_counts(inst, table_small)

    def test_memory_estimate_tracks_measured_peak(self):
        # peak RSS of `verify` on trivial x3, a = (1, 1, 1): 215 MiB at
        # X = 10^6 and 764 MiB at 4 * 10^6, about 30 MiB of it the
        # interpreter and numpy
        for X, rss_mib in ((10**6, 215), (4 * 10**6, 764)):
            est = circle.estimated_bytes(classical_instance(X)) / 2**20
            assert 0.8 * rss_mib <= est <= 1.2 * rss_mib

    def test_memory_gate_allocates_nothing(self):
        inst = classical_instance(10**9)
        assert circle.estimated_bytes(inst) > circle.MAX_BYTES
        with pytest.raises(ResourceLimit):
            circle.check_memory(inst)
        circle.check_memory(classical_instance(10**6))

    def test_one_classification_per_spec(self, table_small, monkeypatch):
        calls = []
        real = galois.classify_batch

        def counting(spec, primes):
            calls.append(spec)
            return real(spec, primes)

        monkeypatch.setattr(galois, "classify_batch", counting)
        spec = galois.builtin_spec("s3-cbrt2")
        inst = ProblemInstance(tuple(FieldClass(spec, c)
                                     for c in spec.classes), (1, 1, 1), 3000)
        circle.verify_theorem(inst, inst.params.z, [4501, 4507], table_small)
        assert calls == [spec]

    def test_random_instances_match_oracle(self, table_small):
        rng = random.Random(101)
        names = ["trivial", "gaussian", "s3-cbrt2"]
        labels = {"trivial": ["e"], "gaussian": ["e", "c"],
                  "s3-cbrt2": ["1", "2", "3"]}
        for _ in range(4):
            k = rng.choice([2, 3])
            X = rng.randint(20, 400)
            while True:
                a = tuple(rng.choice([-3, -2, -1, 1, 2, 3])
                          for _ in range(k))
                if math.gcd(*[abs(v) for v in a]) == 1:
                    break
            comps = []
            for _ in range(k):
                name = rng.choice(names)
                spec = galois.builtin_spec(name)
                cls = spec.class_by_label(rng.choice(labels[name]))
                comps.append(FieldClass(spec, cls))
            inst = ProblemInstance(tuple(comps), a, X)
            co = circle.representation_counts(inst, table_small)
            oracle = circle.brute_force_all(inst, table_small)
            lo, hi = inst.attainable_range
            for N in range(lo, hi + 1):
                w, u = oracle.get(N, (0.0, 0))
                assert co.unweighted_at(N) == u
                if u:
                    assert co.weighted_at(N) == pytest.approx(w, rel=1e-6)
                else:
                    assert abs(co.weighted_at(N)) <= 1e-6 * max(
                        1.0, float(np.max(co.weighted)))


class TestBruteForce:
    def test_weighted_example(self, table_small):
        inst = classical_instance(10)
        w, u = circle.brute_force_S(inst, 10, table_small)
        assert u == 6
        assert w == pytest.approx(6 * math.log(2) * math.log(3) *
                                  math.log(5))

    def test_out_of_range(self, table_small):
        inst = classical_instance(10)
        assert circle.brute_force_S(inst, 31, table_small) == (0.0, 0)

    def test_gaussian_identity_triples(self, table_small):
        inst = uniform_instance("gaussian", "e", 3, (1, 1, 1), 100)
        primes = [p for p in range(2, 101)
                  if all(p % d for d in range(2, p)) and p % 4 == 1]
        direct = sum(1 for p in primes for q in primes for r in primes
                     if p + q + r == 39)
        w, u = circle.brute_force_S(inst, 39, table_small)
        assert u == direct


class TestSharpCoefficients:
    def test_tent_function(self, table_small):
        # weights all 1 when the sieve is empty: convolution of two boxes
        X = 10
        inst = uniform_instance("trivial", "e", 2, (1, 1), X)
        arr = circle.h_sharp_array(inst, 1.5)
        for N in range(0, 2 * X + 1):
            want = sum(1 for n in range(1, X + 1) if 1 <= N - n <= X)
            assert arr.weighted_at(N) == pytest.approx(want)
        assert arr.weighted_at(2 * X + 5) == 0.0

    def test_ratio_near_one_with_effective_sieve(self, table_small):
        # z must stay below sqrt(X) for the almost-prime mass to survive
        X = 10**4
        inst = classical_instance(X, params=params_b2(X))
        z = inst.params.z
        arr = circle.h_sharp_array(inst, z)
        from chebcircle import singular
        for N in range(X - 19, X + 20, 2):
            main = singular.main_term(inst, N).main_term
            assert arr.weighted_at(N) / main == pytest.approx(1.0, abs=0.15)

    def test_single_coefficient_path(self, table_small):
        X = 100
        inst = classical_instance(X)
        arr = circle.h_sharp_array(inst, inst.params.z)
        assert circle.h_sharp_coefficient(inst, inst.params.z, 50) == \
            arr.weighted_at(50)


class TestFlatNorms:
    def test_l2_decay_binary(self, table_small):
        vals = []
        for X in (10**3, 10**4):
            inst = uniform_instance("trivial", "e", 2, (1, 1), X,
                                    params=params_b2(X))
            _, l2 = circle.h_flat_norms(inst, inst.params.z, table_small)
            vals.append(l2 / X**1.5)
        assert vals[1] < vals[0]

    def test_no_unweighted_channel(self, table_small, monkeypatch):
        calls = []
        real = circle._exact_convolve

        def counting(inst, arrays):
            calls.append(inst)
            return real(inst, arrays)

        monkeypatch.setattr(circle, "_exact_convolve", counting)
        X = 10**3
        assert X <= circle.EXACT_X_LIMIT
        inst = uniform_instance("trivial", "e", 2, (1, 1), X,
                                params=params_b2(X))
        circle.h_flat_norms(inst, inst.params.z, table_small)
        assert calls == []

    def test_l2_parseval_vs_grid(self, table_small):
        X = 10**3
        inst = uniform_instance("trivial", "e", 2, (1, 1), X,
                                params=params_b2(X))
        H = circle.representation_counts(inst, table_small)
        Hs = circle.h_sharp_array(inst, inst.params.z)
        diff = H.weighted - Hs.weighted
        _, l2 = circle.h_flat_norms(inst, inst.params.z, table_small)
        assert l2 == pytest.approx(math.sqrt(np.sum(diff * diff)),
                                   rel=1e-12)
        # direct quadrature of |H_flat|^2 on an oversampled alpha grid
        M = 8 * len(diff)
        grid_vals = np.fft.fft(diff, M)
        grid_l2 = math.sqrt(np.mean(np.abs(grid_vals) ** 2))
        assert grid_l2 == pytest.approx(l2, rel=0.01)


class TestVerifyTheorem:
    def test_congruence_vanishing_consistency(self, table_small):
        inst = uniform_instance("gaussian", "e", 3, (1, 1, 1), 10**4)
        Ns = [n for n in range(10**4 + 1, 10**4 + 200, 4)]  # 1 mod 4
        res = circle.verify_theorem(inst, inst.params.z, Ns, table_small)
        for row in res.rows:
            assert "vanishing" in row.flags
            assert row.S_unweighted == 0
            assert row.main_term == 0.0

    def test_even_targets_flagged(self, table_small):
        inst = classical_instance(10**4)
        res = circle.verify_theorem(inst, inst.params.z,
                                    [10**4, 10**4 + 2], table_small)
        for row in res.rows:
            assert "vanishing" in row.flags
            assert row.ratio is None

    def test_classical_ratios_near_one(self, table_small):
        X = 10**4
        inst = classical_instance(X)
        Ns = list(range(X - 99, X + 100, 4))
        res = circle.verify_theorem(inst, inst.params.z, Ns, table_small)
        assert res.median_abs_dev is not None
        assert res.median_abs_dev <= 0.10

    def test_boundary_flagging(self, table_small):
        X = 10**3
        inst = classical_instance(X)
        res = circle.verify_theorem(inst, inst.params.z, [7, 3 * X - 4],
                                    table_small)
        assert all("boundary" in row.flags for row in res.rows)


class TestParseval:
    def test_exact_identity(self, table_small):
        inst = classical_instance(10**3)
        lhs, rhs = circle.parseval_check(inst, table_small)
        assert rhs == pytest.approx(lhs, rel=0.005)

    def test_mixed_sign_instance(self, table_small):
        inst = uniform_instance("gaussian", "e", 2, (2, -1), 400)
        lhs, rhs = circle.parseval_check(inst, table_small)
        assert rhs == pytest.approx(lhs, rel=0.005)


    def test_one_classification_per_spec(self, table_small, monkeypatch):
        calls = []
        real = galois.classify_batch

        def counting(spec, primes):
            calls.append(spec)
            return real(spec, primes)

        monkeypatch.setattr(galois, "classify_batch", counting)
        spec = galois.builtin_spec("s3-cbrt2")
        inst = ProblemInstance(tuple(FieldClass(spec, c)
                                     for c in spec.classes[:2]), (1, 1), 300)
        lhs, rhs = circle.parseval_check(inst, table_small)
        assert calls == [spec]
        assert rhs == pytest.approx(lhs, rel=0.005)


class TestExactConvolutionChannel:
    def test_matches_fft_at_small_x(self, table_small):
        inst = classical_instance(800)
        co = circle.representation_counts(inst, table_small)
        # recompute the unweighted channel by FFT and compare
        comps = circle._component_arrays(inst, table_small)
        fft_u = np.rint(circle._convolve(
            inst, [c.indicator for c in comps])).astype(np.int64)
        assert np.array_equal(np.maximum(fft_u, 0), co.unweighted)


class TestFFTChannel:
    X = 12000  # above EXACT_X_LIMIT: both channels go through the FFT

    @pytest.fixture(scope="class")
    def table(self):
        return sieve.PrimeTable.build(self.X)

    def instance(self, fields, a):
        comps = []
        for name, label in fields:
            spec = galois.builtin_spec(name)
            comps.append(FieldClass(spec, spec.class_by_label(label)))
        return ProblemInstance(tuple(comps), a, self.X)

    @pytest.mark.parametrize("fields,transforms", [
        ((("trivial", "e"),) * 3, 2),  # one per channel
        ((("s3-cbrt2", "1"), ("s3-cbrt2", "2"), ("s3-cbrt2", "3")), 6),
    ])
    def test_each_distinct_component_transformed_once(
            self, table, monkeypatch, fields, transforms):
        assert self.X > circle.EXACT_X_LIMIT
        calls = []
        real = np.fft.rfft

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        circle.representation_counts(self.instance(fields, (1, 1, 1)), table)
        assert len(calls) == transforms

    @pytest.mark.parametrize("fields,a", [
        ((("trivial", "e"), ("gaussian", "c")), (2, -1)),
        ((("gaussian", "e"), ("gaussian", "e")), (1, 1)),
    ])
    def test_matches_oracle(self, table, fields, a):
        inst = self.instance(fields, a)
        co = circle.representation_counts(inst, table)
        oracle = circle.brute_force_all(inst, table)
        lo, hi = inst.attainable_range
        assert co.n_range == (lo, hi)
        top = float(np.max(co.weighted))
        for N in range(lo, hi + 1):
            w, u = oracle.get(N, (0.0, 0))
            assert co.unweighted_at(N) == u
            if u:
                assert co.weighted_at(N) == pytest.approx(w, rel=1e-6)
            else:
                assert abs(co.weighted_at(N)) <= 1e-6 * top
