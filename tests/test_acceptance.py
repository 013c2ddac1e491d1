"""End-to-end acceptance runs: oracle equivalence, desk-scale ratio and
decay checks, exactness grids, and the certificate pipeline."""

import itertools
import math
import random
import time
from fractions import Fraction

import lemmas
import numpy as np
import oracles
import pytest
from lemmas import QuadraticField, kronecker_character, principal_character

from chebcircle import circle, ecapp, expsum, galois, genfun, sieve, singular
from chebcircle.instance import (FieldClass, ProblemInstance,
                                 classical_instance, uniform_instance)

PHI = (1 + math.sqrt(5)) / 2
GRID_116 = [(j * PHI) % 1.0 for j in range(1, 117)]


def test_convolution_matches_brute_force_on_random_instances():
    t0 = time.time()
    rng = random.Random(2024)
    labels = {"trivial": ["e"], "gaussian": ["e", "c"],
              "s3-cbrt2": ["1", "2", "3"]}
    for _ in range(10):
        k = rng.choice([2, 3])
        X = rng.randint(20, 500)
        while True:
            a = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k))
            if math.gcd(*[abs(v) for v in a]) == 1:
                break
        comps = []
        for _ in range(k):
            name = rng.choice(list(labels))
            spec = galois.builtin_spec(name)
            cls = spec.class_by_label(rng.choice(labels[name]))
            comps.append(FieldClass(spec, cls))
        inst = ProblemInstance(tuple(comps), a, X)
        oracle = oracles.brute_force_all(inst)
        lo, hi = inst.attainable_range
        every = oracles.weighted_counts(inst)
        assert len(every) == hi - lo + 1
        Ns = range(lo - 1, hi + 2)
        for N, sw, su in zip(Ns, *circle.counts_at(inst, Ns)):
            w, u = oracle.get(N, (0.0, 0))
            assert su == u
            if u:
                assert sw == pytest.approx(w, rel=1e-6)
                assert every[N - lo] == pytest.approx(w, rel=1e-6)
    assert time.time() - t0 < 60


def test_classical_ternary_ratios_at_two_hundred_thousand():
    t0 = time.time()
    X = 2 * 10**5
    inst = classical_instance(X)
    rng = random.Random(7)
    Ns = sorted(rng.sample(
        [n for n in range(int(0.8 * X) + 1, int(1.2 * X), 2)], 50))
    res = circle.verify_theorem(inst, Ns)
    assert res.median_abs_dev <= 0.05
    assert res.q90_abs_dev <= 0.15
    assert time.time() - t0 < 600


def test_d4_ratios_at_a_hundred_thousand():
    # d4-qrt2: r, s and t have orders 4, 2, 2 and residues 5, 3, 7 mod 8;
    # e and r2 share residue 1 and differ in order
    X = 10**5
    spec = galois.builtin_spec("d4-qrt2")
    for labels in (("r", "s", "t"), ("e", "r2", "s")):
        comps = tuple(FieldClass(spec, spec.class_by_label(lb))
                      for lb in labels)
        inst = ProblemInstance(comps, (1, 1, 1), X)
        residue = sum(min(fc.cls.coset) for fc in comps) % 8
        start = 3 * X // 2 + (residue - 3 * X // 2) % 8
        Ns = list(range(start, start + 8 * 30, 8))
        res = circle.verify_theorem(inst, Ns)
        assert all(row.ratio is not None for row in res.rows)
        assert res.median_abs_dev <= 0.03


def test_gaussian_identity_congruence_and_ratios():
    X = 2 * 10**5
    inst = uniform_instance("gaussian", "e", 3, (1, 1, 1), X)
    # three primes 1 mod 4 sum to 3 mod 4: every other N has no solution
    every = oracles.weighted_counts(inst)
    ns = np.arange(len(every)) + inst.attainable_range[0]
    assert np.all(every[ns % 4 != 3] <= 1e-6 * every.max())
    Ns = [n for n in range(1, 3 * X, 997) if n % 4 != 3]
    _, unweighted = circle.counts_at(inst, Ns)
    assert not unweighted.any()
    Ns = [n for n in range(X + 3, X + 3 + 30 * 4, 4)]
    res = circle.verify_theorem(inst, Ns)
    assert res.median_abs_dev <= 0.10


def test_local_factor_exactness_grids():
    t0 = time.time()
    rng = random.Random(3)
    # congruence factor against exhaustive tuple enumeration
    for D in range(1, 13):
        units = ([u for u in range(D) if math.gcd(u, D) == 1]
                 if D > 1 else [0])
        for k in (2, 3, 4):
            Hs = [frozenset(rng.sample(units, rng.randint(1, len(units))))
                  for _ in range(k)]
            a = [rng.choice([-2, -1, 1, 2, 3]) for _ in range(k)]
            denom = 1
            for H in Hs:
                denom *= len(H)
            for N in range(D):
                count = sum(
                    1 for xs in itertools.product(*Hs)
                    if sum(ai * x for ai, x in zip(a, xs)) % D == N)
                assert singular.c_D(Hs, a, D)[N % D] == \
                    Fraction(D * count, denom)
    # unit-tuple local factor against exhaustive enumeration
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in (2, 3, 4):
            for a in ((1,) * k, tuple(range(1, k + 1))):
                sums = np.zeros(1, dtype=np.int64)
                units = np.arange(1, p, dtype=np.int64)
                for ai in a:
                    sums = (sums[:, None] +
                            ai * units[None, :]).ravel() % p
                counts = np.bincount(sums, minlength=p)
                for N in range(p):
                    assert oracles.c_p(p, a, N) == \
                        Fraction(p * int(counts[N]), (p - 1) ** k)
    assert time.time() - t0 < 10


def test_relation_residual_grows_no_faster_than_sqrt():
    rng = random.Random(55)
    alphas = [rng.random() for _ in range(64)]
    medians = {"field": {}, "dirichlet": {}}
    for X in (10**4, 10**5):
        z = math.log(X) ** 4
        spec = galois.builtin_spec("gaussian")
        ctx_e = genfun.GenfunContext(X, z, spec, spec.class_by_label("e"))
        ctx_c = genfun.GenfunContext(X, z, spec, spec.class_by_label("c"))
        for route, ctx in (("field", ctx_e), ("dirichlet", ctx_c)):
            vals = sorted(lemmas.gf_relation_residual(ctx, a)
                          for a in alphas)
            medians[route][X] = vals[len(vals) // 2]
    for route in ("field", "dirichlet"):
        assert medians[route][10**5] / medians[route][10**4] \
            <= 3 * math.sqrt(10)


def test_ideal_sum_density_at_zero_trivial_character():
    K = QuadraticField(-4)
    zr = lemmas.F_at_zero_ratio(K, principal_character(1), 10**6)
    assert 0.98 <= zr.ratio <= 1.02


def test_twisted_ideal_sum_cancellation_at_zero():
    # chi_{-3} composed with the norm is nontrivial on ideals of Z[i]:
    # (2+i) has norm 5 and chi_{-3}(5) = -1.  Its L-function is
    # L(s, chi_{-3}) L(s, chi_{12}), with no pole at s = 1, so the prime
    # ideal theorem for Hecke characters makes F(0)/Y tend to 0.
    K = QuadraticField(-4)
    zr = lemmas.F_at_zero_ratio(K, kronecker_character(-3), 10**6)
    assert zr.expected_r == 0
    assert abs(zr.ratio) <= 0.02
    # chi_{-4} composed with the norm cannot cancel: an odd sum of two
    # squares is 1 mod 4, so it is 1 on every ideal prime to (1+i) and
    # the sum keeps the density 1 of the trivial character.
    zr = lemmas.F_at_zero_ratio(K, kronecker_character(-4), 10**6)
    assert zr.expected_r == 1
    assert abs(zr.ratio - 1) <= 0.02


def test_flat_generating_function_decay_on_fixed_grid():
    for name, label in (("trivial", "e"), ("gaussian", "e")):
        spec = galois.builtin_spec(name)
        cls = spec.class_by_label(label)
        maxima = []
        for X in (10**4, 10**5, 10**6):
            ctx = genfun.GenfunContext(X, math.log(X) ** 4, spec, cls)
            maxima.append(max(abs(lemmas.eval_G_flat(ctx, a)) *
                              math.log(X) / X for a in GRID_116))
        assert maxima[0] >= maxima[1] >= maxima[2]


def test_gauss_sum_magnitudes_exact():
    for q in (5, 13, 17, 29):
        for a in range(1, q):
            s = expsum.weyl_sum((0, 0, 1), Fraction(a, q), q)
            assert abs(abs(s) - math.sqrt(q)) <= 1e-9


def test_smooth_count_matches_dfs_enumeration():
    def dfs_count(primes, i, prod, Y):
        if i == len(primes) or prod * primes[i] > Y:
            return 1
        total = dfs_count(primes, i + 1, prod, Y)
        if prod * primes[i] <= Y:
            total += dfs_count(primes, i + 1, prod * primes[i], Y)
        return total

    all_primes = [p for p in range(2, 31)
                  if all(p % d for d in range(2, p))]
    for z in (2, 7, 19, 30):
        ps = [p for p in all_primes if p <= z]
        for Y in (10, 10**3, 10**6):
            assert sieve.smooth_count(z, Y) == dfs_count(ps, 0, 1, Y)

    # growth regression: S(z,Y) * Y^-(1 - 1/(2B)) bounded by exp(c sqrt(log X))
    X = 10**6
    for B in (2, 3):
        z = math.log(X) ** B
        ratios = [sieve.smooth_count(z, Y) * Y ** -(1 - 1 / (2 * B))
                  for Y in (10**3, 10**4, 10**5, 10**6)]
        c = math.log(max(max(ratios), 1.0)) / math.sqrt(math.log(X))
        assert c < 3


def test_parseval_identity_classical():
    inst = classical_instance(10**3)
    lhs, rhs = lemmas.parseval_check(inst)
    assert abs(rhs - lhs) <= 1e-12 * lhs


def test_curve_certificates_for_rational_and_gaussian_fields():
    t0 = time.time()
    for name in ("trivial", "gaussian"):
        spec = galois.builtin_spec(name)
        cert = ecapp.construct_curve(spec, 10**6)
        chk = ecapp.check_certificate(cert, spec)
        assert chk and chk.reasons == []
        d = -cert.discriminant
        for v in (cert.p, cert.p, cert.q, cert.q, cert.q, cert.r):
            assert d % v == 0
            d //= v
        assert d == 1
    assert time.time() - t0 < 60


def test_difference_instance_average_deviation_decreases():
    fractions = {}
    for X in (10**4, 10**5):
        inst = uniform_instance("trivial", "e", 2, (1, -1), X)
        lo = inst.attainable_range[0]
        Ns = np.arange(2, X + 1, dtype=np.int64)
        S = oracles.weighted_counts(inst)[Ns - lo]
        S[S < 1e-6 * S.max()] = 0.0   # FFT round-off floor
        c_inf = (X - Ns).astype(np.float64)
        euler = singular._euler_rows((1, -1), Ns, 1, 10**4)[0]
        main = c_inf * euler
        deviant = np.abs(S - main) > main / 2
        fractions[X] = float(np.mean(deviant))
    assert fractions[10**5] < fractions[10**4]
