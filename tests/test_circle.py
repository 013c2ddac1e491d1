import itertools
import json
import math
import random
import tracemalloc

import lemmas
import measure_peaks
import numpy as np
import oracles
import pytest

from chebcircle import circle, cli, errors, galois, sieve
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
        assert len(oracles.weighted_counts(inst)) == 21  # N = -10..10

    def test_total_mass(self):
        for name, label in (("trivial", "e"), ("gaussian", "e"),
                            ("s3-cbrt2", "2")):
            inst = uniform_instance(name, label, 3, (1, 1, 1), 500)
            lo, hi = inst.attainable_range
            _, unweighted = circle.counts_at(inst, range(lo, hi + 1))
            spec = galois.builtin_spec(name)
            cls = spec.class_by_label(label)
            [ps] = sieve.class_primes(spec, 500, [spec.classes.index(cls)])
            n_primes = len(ps)
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

    def test_resource_limit(self, monkeypatch):
        # a trivial instance with huge |a_i|: the head's spread by 10^5 and
        # its span are priced at about 15 GiB, refused before the sieve
        def no_sieve(x):
            raise AssertionError("primes listed past the memory gate")

        monkeypatch.setattr(sieve, "primes_upto", no_sieve)
        inst = uniform_instance("trivial", "e", 3, (100, 100, 1), 10**4)
        inst.a = (10**5, 10**5, 1)  # bypass gcd guard to hit the size guard
        with pytest.raises(ResourceLimit):
            circle.counts_at(inst, [10**9 + 1])
        # while trivial x3 at X = 5e7 is admitted for 20 rows (0.8 GiB)
        assert circle.rows_estimated_bytes(
            classical_instance(5 * 10**7), 20) < 0.25 * errors.MAX_BYTES

    def test_resource_limit_of_a_spread_head(self, monkeypatch):
        # k = 2 takes no transform, but its head array spread by a_0 =
        # 10^4 is about 13 GB at X = 1e6: refused before the sieve
        def no_sieve(x):
            raise AssertionError("primes listed past the memory gate")

        monkeypatch.setattr(sieve, "primes_upto", no_sieve)
        inst = uniform_instance("trivial", "e", 2, (10**4, 1), 10**6)
        with pytest.raises(ResourceLimit):
            circle.counts_at(inst, [10**10])

    @pytest.mark.parametrize("fields, a, at", [
        ([("trivial", "e")] * 3, (1, 1, 1), None),
        ([("trivial", "e")] * 2, (1, 1), None),
        ([("trivial", "e")] * 2, (3, 1), None),
        ([("trivial", "e")] * 5, (1,) * 5, None),
        ([("gaussian", "e")] * 2 + [("gaussian", "c")] * 2, (1,) * 4, None),
        ([("s3-cbrt2", c) for c in "123"], (1, 2, 3), (2, 6)),
        ([("d4-qrt2", c) for c in "ers"], (1, 1, 1), None),
        ([("d4-qrt2", c) for c in "rst"], (1, 1, 1), None)])
    def test_gate_charges_at_least_the_traced_peak(self, monkeypatch,
                                                   fields, a, at):
        # the traced peak of counts_at at 50 rows, with pocketfft's
        # scratch, which tracemalloc does not see, held as an array while
        # each transform runs (not beside the sieve, which transforms
        # nothing): a limit one byte below it refuses
        def with_scratch(transform):
            def run(values, n):
                scratch = np.empty(circle.FFT_SCRATCH * n)
                out = transform(values, n)
                del scratch
                return out
            return run

        inst, Ns = measure_peaks.rows_of(fields, a, 2 * 10**5, at)
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name,
                                with_scratch(getattr(np.fft, name)))
        tracemalloc.start()
        try:
            circle.counts_at(inst, Ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "MAX_BYTES",
                            errors.BYTES_BASE + peak - 1)
        with pytest.raises(ResourceLimit):
            circle.counts_at(inst, Ns)

    @pytest.mark.parametrize("first, flags", [
        (13001, ""), (40001, "boundary+vanishing")])
    def test_row_charge_covers_the_traced_row(self, monkeypatch, first,
                                              flags):
        # the bytes per row that verify_theorem holds at its last row,
        # traced over 500 and 1 500 odd N from first of trivial x3 at
        # X = 1e4, rated or past the range: at most ROW_BYTES, which
        # also rounds each object up to pymalloc's 16-byte blocks
        held, row = [0], circle.VerifyRow

        def traced(*args):
            held[0] = tracemalloc.get_traced_memory()[0]
            return row(*args)

        inst, per_rows = classical_instance(10**4), []
        circle.verify_theorem(inst, [first])  # fills the caches untraced
        monkeypatch.setattr(circle, "VerifyRow", traced)
        for rows in (500, 1500):
            tracemalloc.start()
            try:
                res = circle.verify_theorem(inst,
                                            range(first, first + 2 * rows, 2))
                per_rows.append(held[0])
            finally:
                tracemalloc.stop()
        assert {r.flags for r in res.rows} == {flags}
        assert (per_rows[1] - per_rows[0]) / 1000 <= circle.ROW_BYTES

    def test_rows_estimate_tracks_measured_peak(self):
        # peak RSS of counts_at at 50 rows (tests/measure_peaks.py rows),
        # and of `chebcircle verify` of trivial x3 at X = 1e4 over 1e5 and
        # 4e5 odd N (measure_peaks.py verify), which holds each row's N,
        # count, main term and CSV line at once
        for table in ("rows", "verify"):
            for row, peak, est in measure_peaks.estimates(table):
                assert 0.95 * peak <= est <= 1.05 * peak, row

    def test_one_classification_per_spec(self, monkeypatch):
        calls = []
        real = galois.classify_batch

        def counting(spec, primes):
            calls.append((spec, len(primes)))
            return real(spec, primes)

        monkeypatch.setattr(galois, "classify_batch", counting)
        spec = galois.builtin_spec("s3-cbrt2")
        inst = ProblemInstance(tuple(FieldClass(spec, c)
                                     for c in spec.classes), (1, 1, 1), 3000)
        circle.verify_theorem(inst, [4501, 4507])
        # the plan's classification of 2 and 3, then one of the 430 primes
        # <= 3000 but 3, whose residue 0 mod 3 no class holds
        assert calls == [(spec, 2), (spec, 429)]

    def test_component_primes_split_only_used_classes(self, monkeypatch):
        # two of the four classes of Q(zeta_5); equal components share one
        # array
        spec = TestCountsAt.MOD5
        inst = TestCountsAt.instance([(spec, "4"), (spec, "2"), (spec, "4")],
                                     (1, 1, 1), 3000)
        asked = []
        real = sieve.class_primes

        def recording(spec, X, indices):
            asked.append(list(indices))
            return real(spec, X, indices)

        monkeypatch.setattr(sieve, "class_primes", recording)
        comps = circle._component_primes(inst)
        assert asked == [[3, 1]]
        every = real(spec, 3000, range(len(spec.classes)))
        for arr, i in zip(comps, (3, 1, 3)):
            assert np.array_equal(arr, every[i])
        assert comps[0] is comps[2]

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
            oracle = oracles.brute_force_all(inst)
            lo, hi = inst.attainable_range
            Ns = range(lo - 1, hi + 2)
            every = oracles.weighted_counts(inst)
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
        w, u = oracles.brute_force_all(inst)[10]
        assert u == 6
        assert w == pytest.approx(6 * math.log(2) * math.log(3) *
                                  math.log(5))

    def test_out_of_range(self):
        inst = classical_instance(10)
        assert 31 not in oracles.brute_force_all(inst)

    def test_gaussian_identity_triples(self):
        inst = uniform_instance("gaussian", "e", 3, (1, 1, 1), 100)
        primes = [p for p in range(2, 101)
                  if all(p % d for d in range(2, p)) and p % 4 == 1]
        direct = sum(1 for p in primes for q in primes for r in primes
                     if p + q + r == 39)
        w, u = oracles.brute_force_all(inst)[39]
        assert u == direct


class TestSharpCoefficients:
    def test_tent_function(self):
        # weights all 1 when the sieve is empty: convolution of two boxes
        X = 10
        inst = uniform_instance("trivial", "e", 2, (1, 1), X)
        arr = lemmas.h_sharp_array(inst, 1.5)
        assert len(arr) == 2 * X + 1  # N = 0..2X
        for N in range(0, 2 * X + 1):
            want = sum(1 for n in range(1, X + 1) if 1 <= N - n <= X)
            assert arr[N] == pytest.approx(want)

    def test_ratio_near_one_with_effective_sieve(self):
        # z must stay below sqrt(X) for the almost-prime mass to survive
        X = 10**4
        inst = classical_instance(X)
        z = math.log(X) ** 2
        arr = lemmas.h_sharp_array(inst, z)
        from chebcircle import singular
        Ns = range(X - 19, X + 20, 2)
        for N, rep in zip(Ns, singular.main_terms(inst, Ns)):
            assert arr[N] / rep.main_term == pytest.approx(1.0, abs=0.15)


class TestFlatNorms:
    def test_l2_decay_binary(self):
        vals = []
        for X in (10**3, 10**4):
            inst = uniform_instance("trivial", "e", 2, (1, 1), X)
            _, l2 = lemmas.h_flat_norms(inst, math.log(X) ** 2)
            vals.append(l2 / X**1.5)
        assert vals[1] < vals[0]

    def test_l2_parseval_vs_grid(self):
        X = 10**3
        inst = uniform_instance("trivial", "e", 2, (1, 1), X)
        H = oracles.weighted_counts(inst)
        Hs = lemmas.h_sharp_array(inst, math.log(X) ** 2)
        diff = H - Hs
        _, l2 = lemmas.h_flat_norms(inst, math.log(X) ** 2)
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
        lhs, rhs = lemmas.parseval_check(inst)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_mixed_sign_instance(self):
        inst = uniform_instance("gaussian", "e", 2, (2, -1), 400)
        lhs, rhs = lemmas.parseval_check(inst)
        assert rhs == pytest.approx(lhs, rel=1e-12)


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
        lhs, rhs = lemmas.parseval_check(inst)
        assert calls == [spec]
        assert rhs == pytest.approx(lhs, rel=1e-12)


    def test_phase_matrix_memory_bounded(self):
        # the grid side holds a few arrays of the grid's length, not a
        # phase matrix of grid points by primes (473 MiB for trivial x2 at
        # X = 3000)
        inst = uniform_instance("trivial", "e", 2, (1, 1), 3000)
        tracemalloc.start()
        try:
            lhs, rhs = lemmas.parseval_check(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rhs == pytest.approx(lhs, rel=1e-12)


class TestFFTChannel:
    X = 12000

    def instance(self, fields, a):
        comps = []
        for name, label in fields:
            spec = galois.builtin_spec(name)
            comps.append(FieldClass(spec, spec.class_by_label(label)))
        return ProblemInstance(tuple(comps), a, self.X)

    # h_flat_norms convolves S and H_sharp over every N: one transform per
    # distinct component in each, besides the one of its L1 grid
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
        lemmas.h_flat_norms(self.instance(fields, (1, 1, 1)), 30.0)
        assert len(calls) == transforms + 1

    def test_transform_length_is_least_even_5_smooth(self):
        def smooth(n):
            for f in (2, 3, 5):
                while n % f == 0:
                    n //= f
            return n == 1

        for span in [*range(1, 5001), 33332, 500000, 10**7]:
            least = span + 1 + (span + 1) % 2
            while not smooth(least):
                least += 2
            assert circle._fft_len(span) == least, span
            assert least <= 1 << span.bit_length()

    @pytest.mark.parametrize("fields,a", [
        ((("trivial", "e"), ("gaussian", "c")), (2, -1)),
        ((("gaussian", "e"), ("gaussian", "e")), (1, 1)),
    ])
    def test_matches_oracle(self, fields, a):
        inst = self.instance(fields, a)
        oracle = oracles.brute_force_all(inst)
        lo, hi = inst.attainable_range
        every = oracles.weighted_counts(inst)
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

    # abelian fields of conductor 5: Q(zeta_5), whose class "1" holds the
    # primes 1 mod 5, and Q(sqrt 5), whose class "s" holds those 1 or 4
    # mod 5 and whose class "n" holds 2
    MOD5 = galois.GaloisSpec(galois.ABELIAN, 5, tuple(
        galois.ClassSpec(str(r), frozenset({r})) for r in range(1, 5)))
    MOD5_SQ = galois.GaloisSpec(galois.ABELIAN, 5, (
        galois.ClassSpec("s", frozenset({1, 4})),
        galois.ClassSpec("n", frozenset({2, 3}))))

    @staticmethod
    def instance(fields, a, X):
        """fields: (built-in name or spec, class label) per component."""
        comps = []
        for name, label in fields:
            spec = galois.builtin_spec(name) if isinstance(name, str) else name
            comps.append(FieldClass(spec, spec.class_by_label(label)))
        return ProblemInstance(tuple(comps), a, X)

    @staticmethod
    def assert_matches_oracle(inst, what):
        """counts_at at every N from one below to one above the range: the
        unweighted count equal to brute_force_all's, the weighted one to a
        math.fsum of the enumerated terms."""
        primes = [sieve.class_primes(fc.spec, inst.X, [
            fc.spec.classes.index(fc.cls)])[0].tolist()
            for fc in inst.components]
        terms = {}
        for ps in itertools.product(*primes):
            terms.setdefault(sum(ai * p for ai, p in zip(inst.a, ps)),
                             []).append(math.prod(map(math.log, ps)))
        oracle = oracles.brute_force_all(inst)
        lo, hi = inst.attainable_range
        Ns = range(lo - 1, hi + 2)
        top = max(map(math.fsum, terms.values()), default=0.0)
        for N, sw, su in zip(Ns, *circle.counts_at(inst, Ns)):
            assert su == oracle.get(N, (0.0, 0))[1], (what, N)
            # FFT round-off is absolute, a few ulp of the largest value:
            # small values near the ends of the range are 3e-13 off
            # relative to themselves
            direct = math.fsum(terms.get(N, []))
            assert abs(sw - direct) <= 1e-13 * direct + 1e-14 * top, \
                (what, N)

    @pytest.mark.parametrize("X", [800, 3000, X_ABOVE])
    @pytest.mark.parametrize("fields,a", [
        ((("gaussian", "c"), ("trivial", "e")), (3, -2)),
        ((("s3-cbrt2", "2"),) * 2, (-1, 1)),
        ((("trivial", "e"),) * 3, (1, 1, 1)),
        ((("gaussian", "e"), ("s3-cbrt2", "3"), ("gaussian", "e")),
         (2, -3, 1)),
        ((("trivial", "e"), ("gaussian", "c"), ("trivial", "e"),
          ("s3-cbrt2", "1")), (-1, 3, 2, -2)),
        ((("gaussian", "e"), ("gaussian", "c")) * 2, (1, 1, 1, 1)),
    ])
    def test_matches_all_n_counts(self, fields, a, X):
        inst = self.instance(fields, a, X)
        every = oracles.weighted_counts(inst)
        ones = [np.isin(np.arange(X + 1), ps).astype(np.uint8)
                for ps in circle._component_primes(inst)]
        exact = oracles._exact_convolve(ones, inst.a)
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
        for run in (oracles.weighted_counts,
                    lambda i: circle.counts_at(i, Ns)):
            tracemalloc.start()
            try:
                run(inst)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], [p / 2**20 for p in peaks]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_prime_two_terms_match_oracle(self, k):
        # 0..k components whose class holds 3 (trivial, which also holds
        # 2, gaussian c and d4-qrt2 s) among classes that hold neither 2
        # nor 3; N of every residue mod 6 over the whole range, so that
        # every head offset is used
        rng = random.Random(k)
        holds3 = [("trivial", "e"), ("gaussian", "c"), ("d4-qrt2", "s")]
        others = [("gaussian", "e"), ("s3-cbrt2", "1"), ("s3-cbrt2", "2"),
                  ("s3-cbrt2", "3"), ("d4-qrt2", "t")]
        for n_holds3 in range(k + 1):
            for _ in range(2):
                X = rng.randrange(30, 120 if k < 4 else 60)
                fields = (rng.choices(holds3, k=n_holds3)
                          + rng.choices(others, k=k - n_holds3))
                rng.shuffle(fields)
                while True:
                    a = tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                              for _ in range(k))
                    if math.gcd(*a) == 1:
                        break
                self.assert_matches_oracle(self.instance(fields, a, X),
                                           (fields, a))

    @pytest.mark.parametrize("fields, a, X, steps", [
        ((("gaussian", "e"), ("gaussian", "e"), ("gaussian", "c")),
         (1, 1, 1), 200, {12}),
        ((("s3-cbrt2", "1"), ("s3-cbrt2", "2"), ("s3-cbrt2", "3")),
         (1, 1, 1), 300, {6}),
        ((("d4-qrt2", "e"), ("d4-qrt2", "r"), ("d4-qrt2", "s")),
         (1, 1, 1), 400, {24}),
        (((MOD5, "1"),) * 3, (1, 2, -1), 300, {30}),
        (((MOD5_SQ, "s"), (MOD5_SQ, "n"), (MOD5_SQ, "s")), (2, 1, -1), 150,
         {6}),
        # the trivial class holds 2 and 3: the terms where it takes one of
        # them step by the other classes' steps
        ((("trivial", "e"), ("gaussian", "e"), ("gaussian", "c")),
         (1, 3, -2), 120, {6, 12}),
        # the step is read from the classes, not from the primes X holds:
        # class e of d4-qrt2 holds no prime below 73, class 1 of s3-cbrt2
        # only 31 below 43, class "1" of Q(zeta_5) only 11 below 31
        ((("d4-qrt2", "e"), ("d4-qrt2", "r"), ("d4-qrt2", "s")),
         (1, -1, 1), 60, {24}),
        ((("d4-qrt2", "e"), ("d4-qrt2", "r"), ("d4-qrt2", "s")),
         (1, -1, 1), 80, {24}),
        ((("s3-cbrt2", "1"), ("s3-cbrt2", "3"), ("s3-cbrt2", "1")),
         (1, 2, 1), 40, {6}),
        ((("s3-cbrt2", "1"),) * 2, (1, -1), 40, {6}),
        ((("trivial", "e"),) * 3, (1, 1, 1), 100, {6}),
        (((MOD5_SQ, "s"),) * 3, (1, 1, 1), 100, {6}),
        ((("s3-cbrt2", "1"), ("trivial", "e"), ("s3-cbrt2", "3")),
         (1, 1, 1), 150, {6}),
        ((("trivial", "e"), (MOD5, "1"), (MOD5, "1")), (1, 1, 1), 30,
         {6, 30}),
    ])
    def test_progression_steps_match_oracle(self, fields, a, X, steps):
        # every term's step is the gcd of the _progression steps of the
        # components R that take primes >= 5 in it (a term in which every
        # component takes 2 or 3 has none)
        inst = self.instance(fields, a, X)
        terms = circle._plan(inst)
        for R, g, *_ in terms:
            if R:
                assert g == math.gcd(*(
                    circle._progression(inst.components[i])[0] for i in R))
        assert {g for R, g, *_ in terms if R} == steps
        self.assert_matches_oracle(inst, (fields, a, X))

    @pytest.mark.parametrize("fields, X, Ns, length", [
        # perfbench's s3-classify: each class lies in one residue class
        # mod 6, so the head of two components spans about 2X/6
        ((("s3-cbrt2", "1"), ("s3-cbrt2", "2"), ("s3-cbrt2", "3")), 10**5,
         range(150001, 150601, 6), 33750),
        # classical-fft: the trivial class steps by 6 in two phases, so
        # the head of two components spans about 2X/6
        ((("trivial", "e"),) * 3, 5 * 10**5, range(10001, 1490000, 59166),
         168750),
    ])
    def test_head_transform_length(self, monkeypatch, fields, X, Ns, length):
        lengths = []
        real = np.fft.rfft

        def recording(a, n=None, *args, **kwargs):
            lengths.append(n)
            return real(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording)
        circle.counts_at(self.instance(fields, (1, 1, 1), X), Ns)
        assert lengths and set(lengths) == {length}

    @pytest.mark.parametrize("fields, steps", [
        ([("trivial", "e")] * 3, 2),
        ([("gaussian", "e"), ("gaussian", "e"), ("gaussian", "c")], 4),
        ([("s3-cbrt2", "1"), ("s3-cbrt2", "2"), ("s3-cbrt2", "3")], 6),
        ([("d4-qrt2", "e"), ("d4-qrt2", "r"), ("d4-qrt2", "s")], 8),
        ([("s3-cbrt2", "1"), ("trivial", "e"), ("s3-cbrt2", "3")], 2),
        ([(MOD5, "1")] * 3, 10),
        ([(MOD5_SQ, "s")] * 3, 2),
    ])
    def test_coset_steps_bound_the_progression_steps(self, monkeypatch,
                                                     fields, steps):
        # steps is the gcd over the components of the coset step
        # lcm(2, h), h the gcd of D and the differences of a coset's
        # residues; the wheel steps each class by lcm(6, h), so every term
        # of the plan steps by a multiple of lcm(3, steps).  The plan is
        # read before the sieve: it lists no prime <= X
        def no_sieve(*args):
            raise AssertionError("the plan listed primes")

        monkeypatch.setattr(sieve, "primes_upto", no_sieve)
        monkeypatch.setattr(sieve, "class_primes", no_sieve)
        inst = self.instance(fields, (1, 1, 1), 3000)
        G = math.lcm(3, steps)
        assert math.gcd(*(circle._progression(fc)[0]
                          for fc in inst.components)) == G
        assert all(t.g % G == 0 for t in circle._plan(inst) if t.R)

    @pytest.mark.parametrize("X", [2, 3, 4, 100])
    def test_plan_specials_match_the_sieve(self, X):
        # the primes below 5 that the plan reads by classifying 2 and 3
        # are those of the sieved class arrays
        for fields in [[("trivial", "e"), ("gaussian", "c"),
                        ("s3-cbrt2", "1")],
                       [("d4-qrt2", "s"), ("gaussian", "e"),
                        (self.MOD5, "2"), (self.MOD5_SQ, "n")]]:
            inst = self.instance(fields, (1,) * len(fields), X)
            assert circle._specials(inst) == [
                tuple(int(p) for p in ps[:2] if p < 5)
                for ps in circle._component_primes(inst)]

    @staticmethod
    def transforms(monkeypatch, inst, Ns):
        """(forward, inverse) transforms of counts_at(inst, Ns)."""
        calls = {"rfft": 0, "irfft": 0}

        def counting(name):
            real = getattr(np.fft, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(np.fft, name, counting(name))
        circle.counts_at(inst, Ns)
        return calls["rfft"], calls["irfft"]

    def test_equal_components_transformed_once(self, monkeypatch):
        # trivial x3 at N of every odd residue mod 6: per channel one
        # forward transform of each phase (1 and 5 mod 6) of the shared
        # array, whichever heads use it; the terms with a prime 2 or 3
        # need none
        inst = classical_instance(1000)
        assert self.transforms(monkeypatch, inst, range(1000, 1020)) \
            == (4, 6)

    def test_classical_fft_rows_transform_twice(self, monkeypatch):
        # perfbench's classical-fft rows are one residue mod 6: two heads
        # per channel, each a transform back, from two forward transforms
        inst = classical_instance(5 * 10**5)
        Ns = range(10001, 1490000, 59166)
        assert {N % 6 for N in Ns} == {5}
        assert self.transforms(monkeypatch, inst, Ns) == (4, 4)

    def test_mixed_k4_small_transforms(self, monkeypatch):
        # the golden mixed-k4-small at its N range: the trivial components
        # take 2 or 3 in most terms, which leaves heads of one, two or
        # three components at several steps; terms that differ only in the
        # shift c build equal heads, each transformed anew
        inst = self.instance([("trivial", "e"), ("gaussian", "c"),
                              ("trivial", "e"), ("gaussian", "e")],
                             (1, -1, 2, 3), 6000)
        assert self.transforms(monkeypatch, inst, range(-7001, 37001, 1100)) \
            == (44, 38)

    @pytest.mark.parametrize("offset, raises", [(0.2, False), (0.25, True)])
    def test_inexact_head_raises(self, monkeypatch, tmp_path, offset,
                                 raises):
        inst = classical_instance(300)
        Ns = [301, 302, 603]
        _, want = circle.counts_at(inst, Ns)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *args: irfft(*args) + offset)
        if raises:
            with pytest.raises(ResourceLimit, match="round-off"):
                circle.counts_at(inst, Ns)
            spec = tmp_path / "instance.json"
            spec.write_text(json.dumps({
                "fields": [{"builtin": "trivial", "class": "e"}] * 3,
                "a": [1, 1, 1], "X": 300}))
            assert cli.main(["verify", str(spec), "--out-dir",
                             str(tmp_path)]) == 3
        else:
            assert circle.counts_at(inst, Ns)[1].tolist() == want.tolist()

    def test_matches_oracle_above_exact_limit(self):
        spec = galois.builtin_spec("s3-cbrt2")
        inst = self.instance((("s3-cbrt2", "1"),) * 3, (1, 1, 1), self.X_ABOVE)
        lo, hi = inst.attainable_range
        oracle = oracles.brute_force_all(inst)
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
