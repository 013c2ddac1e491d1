import math
import random
import tracemalloc

import numpy as np
import pytest

from chebcircle import circle, galois, sieve
from chebcircle.errors import ResourceLimit, ValidationError
from chebcircle.instance import (FieldClass, ProblemInstance,
                                 classical_instance, uniform_instance)


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
    def test_vinogradov_small(self):
        inst = classical_instance(10)
        weighted, unweighted = circle.counts_at(inst, [10, 29])
        assert unweighted.tolist() == [6, 0]  # permutations of 2+3+5
        assert weighted[0] == pytest.approx(
            6 * math.log(2) * math.log(3) * math.log(5))

    def test_difference_instance(self):
        inst = uniform_instance("trivial", "e", 2, (1, -1), 10)
        direct = sum(1 for p in (2, 3, 5, 7) for q in (2, 3, 5, 7)
                     if p - q == 2)
        _, unweighted = circle.counts_at(inst, [2, -5])
        assert unweighted.tolist() == [direct, 1]  # -5 = 2 - 7
        assert len(circle.weighted_counts(inst)) == 21  # N = -10..10

    def test_total_mass(self):
        for name, label in (("trivial", "e"), ("gaussian", "e"),
                            ("s3-cbrt2", "2")):
            inst = uniform_instance(name, label, 3, (1, 1, 1), 500)
            lo, hi = inst.attainable_range
            _, unweighted = circle.counts_at(inst, range(lo, hi + 1))
            spec = galois.builtin_spec(name)
            cls = spec.class_by_label(label)
            n_primes = len(sieve.class_primes(spec, 500)[
                spec.classes.index(cls)])
            assert int(unweighted.sum()) == n_primes ** 3

    def test_order_independence(self):
        spec_t = galois.builtin_spec("trivial")
        spec_g = galois.builtin_spec("gaussian")
        fcs = (FieldClass(spec_t, spec_t.classes[0]),
               FieldClass(spec_g, spec_g.class_by_label("e")),
               FieldClass(spec_g, spec_g.class_by_label("c")))
        a = (1, 1, 1)
        Ns = range(0, 3 * 300 + 1)
        _, u1 = circle.counts_at(ProblemInstance(fcs, a, 300), Ns)
        _, u2 = circle.counts_at(ProblemInstance(fcs[::-1], a, 300), Ns)
        assert np.array_equal(u1, u2)

    def test_resource_limit(self):
        inst = uniform_instance("trivial", "e", 3, (100, 100, 1), 10**4)
        inst.a = (10**5, 10**5, 1)  # bypass gcd guard to hit the size guard
        with pytest.raises(ResourceLimit):
            circle.weighted_counts(inst)

    def test_memory_estimate_tracks_measured_peak(self):
        # peak RSS (ru_maxrss) of weighted_counts, one fresh process per
        # instance, about 29 MiB of it the interpreter and numpy
        t, g, s, d = "trivial", "gaussian", "s3-cbrt2", "d4-qrt2"
        s3 = [(s, "1"), (s, "2"), (s, "3")]
        d4 = [(d, "r"), (d, "s"), (d, "t"), (d, "e")]
        peaks = [  # (field-class pairs, a, X, MiB)
            ([(t, "e")] * 3, (1, 1, 1), 10**4, 30.5),
            ([(t, "e")] * 3, (1, 1, 1), 2 * 10**5, 63.6),
            ([(t, "e")] * 3, (1, 1, 1), 10**6, 167.5),
            ([(t, "e")] * 3, (1, 1, 1), 4 * 10**6, 579.4),
            ([(t, "e")] * 2, (1, 1), 4 * 10**6, 323.4),
            ([(t, "e")] * 4, (1, 1, 1, 1), 10**6, 167.6),
            ([(g, "e"), (g, "e"), (g, "c")], (1, 1, 1), 10**6, 174.9),
            ([(g, "e"), (g, "c")], (2, -1), 2 * 10**6, 349.6),
            ([(g, "e")] * 2 + [(g, "c")] * 2, (1, 1, 1, 1), 2 * 10**6,
             319.2),
            (s3, (1, 1, 1), 10**6, 184.1),
            (s3, (1, 1, 1), 2 * 10**6, 337.0),
            ([(s, "1"), (s, "1"), (s, "2")], (1, 2, 3), 5 * 10**5, 179.5),
            (d4, (1, 1, 1, 1), 2 * 10**5 + 5 * 10**4, 70.0),
            (d4, (1, 1, 1, 1), 10**6, 189.9),
            # interleaved repeats: _convolve holds one spectrum while it
            # transforms the other
            ([(d, "r"), (d, "s")] * 2, (1, 1, 1, 1), 10**6, 206.3),
            ([(g, "e"), (g, "c")] * 2, (1, 1, 1, 1), 10**6, 206.9),
        ]
        for fields, a, X, rss_mib in peaks:
            inst = TestCountsAt.instance(fields, a, X)
            est = circle.estimated_bytes(inst) / 2**20
            assert 0.95 * rss_mib <= est <= 1.05 * rss_mib, (fields, a, X)

    def test_memory_gate_allocates_nothing(self):
        inst = classical_instance(10**9)
        assert circle.estimated_bytes(inst) > circle.MAX_BYTES
        with pytest.raises(ResourceLimit):
            circle.check_memory(inst)
        circle.check_memory(classical_instance(10**6))

    def test_one_classification_per_spec(self, monkeypatch):
        calls = []
        real = galois.classify_batch

        def counting(spec, primes):
            calls.append(spec)
            return real(spec, primes)

        monkeypatch.setattr(galois, "classify_batch", counting)
        spec = galois.builtin_spec("s3-cbrt2")
        inst = ProblemInstance(tuple(FieldClass(spec, c)
                                     for c in spec.classes), (1, 1, 1), 3000)
        circle.verify_theorem(inst, [4501, 4507])
        assert calls == [spec]

    def test_random_instances_match_oracle(self):
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
            oracle = circle.brute_force_all(inst)
            lo, hi = inst.attainable_range
            Ns = range(lo - 1, hi + 2)
            every = circle.weighted_counts(inst)
            assert len(every) == hi - lo + 1
            floor = 1e-6 * max(1.0, float(np.max(every)))
            for N, sw, su in zip(Ns, *circle.counts_at(inst, Ns)):
                w, u = oracle.get(N, (0.0, 0))
                assert su == u
                inside = lo <= N <= hi
                if u:
                    assert sw == pytest.approx(w, rel=1e-6)
                    assert every[N - lo] == pytest.approx(w, rel=1e-6)
                else:
                    assert abs(sw) <= floor
                    assert not inside or abs(every[N - lo]) <= floor


class TestBruteForce:
    def test_weighted_example(self):
        inst = classical_instance(10)
        w, u = circle.brute_force_all(inst)[10]
        assert u == 6
        assert w == pytest.approx(6 * math.log(2) * math.log(3) *
                                  math.log(5))

    def test_out_of_range(self):
        inst = classical_instance(10)
        assert 31 not in circle.brute_force_all(inst)

    def test_gaussian_identity_triples(self):
        inst = uniform_instance("gaussian", "e", 3, (1, 1, 1), 100)
        primes = [p for p in range(2, 101)
                  if all(p % d for d in range(2, p)) and p % 4 == 1]
        direct = sum(1 for p in primes for q in primes for r in primes
                     if p + q + r == 39)
        w, u = circle.brute_force_all(inst)[39]
        assert u == direct


class TestSharpCoefficients:
    def test_tent_function(self):
        # weights all 1 when the sieve is empty: convolution of two boxes
        X = 10
        inst = uniform_instance("trivial", "e", 2, (1, 1), X)
        arr = circle.h_sharp_array(inst, 1.5)
        assert len(arr) == 2 * X + 1  # N = 0..2X
        for N in range(0, 2 * X + 1):
            want = sum(1 for n in range(1, X + 1) if 1 <= N - n <= X)
            assert arr[N] == pytest.approx(want)

    def test_ratio_near_one_with_effective_sieve(self):
        # z must stay below sqrt(X) for the almost-prime mass to survive
        X = 10**4
        inst = classical_instance(X)
        z = math.log(X) ** 2
        arr = circle.h_sharp_array(inst, z)
        from chebcircle import singular
        for N in range(X - 19, X + 20, 2):
            main = singular.main_term(inst, N).main_term
            assert arr[N] / main == pytest.approx(1.0, abs=0.15)


class TestFlatNorms:
    def test_l2_decay_binary(self):
        vals = []
        for X in (10**3, 10**4):
            inst = uniform_instance("trivial", "e", 2, (1, 1), X)
            _, l2 = circle.h_flat_norms(inst, math.log(X) ** 2)
            vals.append(l2 / X**1.5)
        assert vals[1] < vals[0]

    def test_l2_parseval_vs_grid(self):
        X = 10**3
        inst = uniform_instance("trivial", "e", 2, (1, 1), X)
        H = circle.weighted_counts(inst)
        Hs = circle.h_sharp_array(inst, math.log(X) ** 2)
        diff = H - Hs
        _, l2 = circle.h_flat_norms(inst, math.log(X) ** 2)
        assert l2 == pytest.approx(math.sqrt(np.sum(diff * diff)),
                                   rel=1e-12)
        # direct quadrature of |H_flat|^2 on an oversampled alpha grid
        M = 8 * len(diff)
        grid_vals = np.fft.fft(diff, M)
        grid_l2 = math.sqrt(np.mean(np.abs(grid_vals) ** 2))
        assert grid_l2 == pytest.approx(l2, rel=0.01)


class TestVerifyTheorem:
    def test_congruence_vanishing_consistency(self):
        inst = uniform_instance("gaussian", "e", 3, (1, 1, 1), 10**4)
        Ns = [n for n in range(10**4 + 1, 10**4 + 200, 4)]  # 1 mod 4
        res = circle.verify_theorem(inst, Ns)
        for row in res.rows:
            assert "vanishing" in row.flags
            assert row.S_unweighted == 0
            assert row.main_term == 0.0

    def test_even_targets_flagged(self):
        inst = classical_instance(10**4)
        res = circle.verify_theorem(inst, [10**4, 10**4 + 2])
        for row in res.rows:
            assert "vanishing" in row.flags
            assert row.ratio is None

    def test_classical_ratios_near_one(self):
        X = 10**4
        inst = classical_instance(X)
        Ns = list(range(X - 99, X + 100, 4))
        res = circle.verify_theorem(inst, Ns)
        assert res.median_abs_dev is not None
        assert res.median_abs_dev <= 0.10

    def test_boundary_flagging(self):
        X = 10**3
        inst = classical_instance(X)
        res = circle.verify_theorem(inst, [7, 3 * X - 4])
        assert all("boundary" in row.flags for row in res.rows)


class TestParseval:
    def test_exact_identity(self):
        inst = classical_instance(10**3)
        lhs, rhs = circle.parseval_check(inst)
        assert rhs == pytest.approx(lhs, rel=0.005)

    def test_mixed_sign_instance(self):
        inst = uniform_instance("gaussian", "e", 2, (2, -1), 400)
        lhs, rhs = circle.parseval_check(inst)
        assert rhs == pytest.approx(lhs, rel=0.005)


    def test_one_classification_per_spec(self, monkeypatch):
        calls = []
        real = galois.classify_batch

        def counting(spec, primes):
            calls.append(spec)
            return real(spec, primes)

        monkeypatch.setattr(galois, "classify_batch", counting)
        spec = galois.builtin_spec("s3-cbrt2")
        inst = ProblemInstance(tuple(FieldClass(spec, c)
                                     for c in spec.classes[:2]), (1, 1), 300)
        lhs, rhs = circle.parseval_check(inst)
        assert calls == [spec]
        assert rhs == pytest.approx(lhs, rel=0.005)


    def test_phase_matrix_memory_bounded(self):
        # the whole phase matrix of trivial x2 at X = 3000 peaks at 473 MiB
        inst = uniform_instance("trivial", "e", 2, (1, 1), 3000)
        tracemalloc.start()
        try:
            lhs, rhs = circle.parseval_check(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rhs == pytest.approx(lhs, rel=0.005)


class TestFFTChannel:
    X = 12000

    def instance(self, fields, a):
        comps = []
        for name, label in fields:
            spec = galois.builtin_spec(name)
            comps.append(FieldClass(spec, spec.class_by_label(label)))
        return ProblemInstance(tuple(comps), a, self.X)

    # h_flat_norms convolves S and H_sharp over every N: one transform per
    # distinct component in each
    @pytest.mark.parametrize("fields,transforms", [
        ((("trivial", "e"),) * 3, 2),
        ((("s3-cbrt2", "1"), ("s3-cbrt2", "2"), ("s3-cbrt2", "3")), 6),
    ])
    def test_each_distinct_component_transformed_once(
            self, monkeypatch, fields, transforms):
        calls = []
        real = np.fft.rfft

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        circle.h_flat_norms(self.instance(fields, (1, 1, 1)), 30.0)
        assert len(calls) == transforms

    @pytest.mark.parametrize("fields,a", [
        ((("trivial", "e"), ("gaussian", "c")), (2, -1)),
        ((("gaussian", "e"), ("gaussian", "e")), (1, 1)),
    ])
    def test_matches_oracle(self, fields, a):
        inst = self.instance(fields, a)
        oracle = circle.brute_force_all(inst)
        lo, hi = inst.attainable_range
        every = circle.weighted_counts(inst)
        assert len(every) == hi - lo + 1
        top = float(np.max(every))
        Ns = range(lo - 1, hi + 2)
        for N, sw, su in zip(Ns, *circle.counts_at(inst, Ns)):
            w, u = oracle.get(N, (0.0, 0))
            assert su == u
            inside = lo <= N <= hi
            if u:
                assert sw == pytest.approx(w, rel=1e-6)
                assert every[N - lo] == pytest.approx(w, rel=1e-6)
            else:
                assert abs(sw) <= 1e-6 * top
                assert not inside or abs(every[N - lo]) <= 1e-6 * top


class TestCountsAt:
    """counts_at, the rows-only path of verify, against the all-N
    weighted_counts, an exact convolution of all k indicator arrays, and
    the oracle."""
    X_ABOVE = 10500

    @staticmethod
    def instance(fields, a, X):
        comps = []
        for name, label in fields:
            spec = galois.builtin_spec(name)
            comps.append(FieldClass(spec, spec.class_by_label(label)))
        return ProblemInstance(tuple(comps), a, X)

    @pytest.mark.parametrize("X", [800, 3000, X_ABOVE])
    @pytest.mark.parametrize("fields,a", [
        ((("gaussian", "c"), ("trivial", "e")), (3, -2)),
        ((("s3-cbrt2", "2"),) * 2, (-1, 1)),
        ((("trivial", "e"),) * 3, (1, 1, 1)),
        ((("gaussian", "e"), ("s3-cbrt2", "3"), ("gaussian", "e")),
         (2, -3, 1)),
        ((("trivial", "e"), ("gaussian", "c"), ("trivial", "e"),
          ("s3-cbrt2", "1")), (-1, 3, 2, -2)),
    ])
    def test_matches_all_n_counts(self, fields, a, X):
        inst = self.instance(fields, a, X)
        every = circle.weighted_counts(inst)
        ones = circle._dense(circle._component_primes(inst), X, False)
        exact = circle._exact_convolve(ones, inst.a)
        lo, hi = inst.attainable_range
        Ns = ([lo - 1, lo, lo + 1, hi - 1, hi, hi + 1]
              + random.Random(X).sample(range(lo, hi + 1), 200))
        weighted, unweighted = circle.counts_at(inst, Ns)

        def at(values, N):
            return values[N - lo] if lo <= N <= hi else 0

        assert unweighted.tolist() == [at(exact, N) for N in Ns]
        tol = 1e-14 * float(np.max(every))
        for N, got in zip(Ns, weighted.tolist()):
            want = at(every, N)
            assert abs(got - want) <= 1e-12 * want + tol, N

    def test_peak_memory_within_all_n_count(self):
        # one channel's head at a time: no more than the all-N count holds
        inst = classical_instance(10**5, k=4)
        lo, hi = inst.attainable_range
        Ns = [(lo + hi) // 2 + 2 * i + 1 for i in range(20)]
        peaks = []
        for run in (circle.weighted_counts, lambda i: circle.counts_at(i, Ns)):
            tracemalloc.start()
            try:
                run(inst)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], [p / 2**20 for p in peaks]

    def test_matches_oracle_above_exact_limit(self):
        spec = galois.builtin_spec("s3-cbrt2")
        inst = self.instance((("s3-cbrt2", "1"),) * 3, (1, 1, 1), self.X_ABOVE)
        lo, hi = inst.attainable_range
        oracle = circle.brute_force_all(inst)
        Ns = list(range(lo - 1, hi + 2))
        weighted, unweighted = circle.counts_at(inst, Ns)
        assert unweighted.tolist() == [oracle.get(N, (0.0, 0))[1] for N in Ns]
        # the highest N with a solution has few terms, each near X, where
        # an all-N transform's round-off is large against them
        N = max(oracle)
        ps = [int(p) for p in sieve.primes_upto(inst.X) if p >= N - 2 * inst.X
              and galois.frobenius_class(spec, int(p)) == 0]  # class "1"
        terms = [math.log(p) * math.log(q) * math.log(N - p - q)
                 for p in ps for q in ps if N - p - q in ps]
        direct = math.fsum(terms)
        assert len(terms) == oracle[N][1]
        assert abs(weighted[Ns.index(N)] - direct) <= 1e-13 * direct
