import math

import numpy as np
import pytest

from chebcircle import galois, sieve
from chebcircle.errors import DomainError, InconsistentSpec, ValidationError


def gaussian():
    return galois.builtin_spec("gaussian")


def s3():
    return galois.builtin_spec("s3-cbrt2")


SEXTIC = (108, 0, 0, 0, 0, 0, 1)  # x^6 + 108, Galois over Q with group S3


def s3_sextic():
    """s3-cbrt2's classes on the Galois polynomial x^6 + 108."""
    return galois.GaloisSpec("polynomial", 3, s3().classes, coeffs=SEXTIC,
                             group_order=6)


QUINTIC = (-1, -1, 0, 0, 0, 1)  # x^5 - x - 1: group S5, discriminant 2869


def primes_below(n, count):
    """The count largest primes below n, by trial division."""
    small = sieve.PrimeTable.build(math.isqrt(n)).primes
    out = []
    for c in range(n - 1, 1, -1):
        if (c % small != 0).all():
            out.append(c)
            if len(out) == count:
                return out


class TestFrobeniusClass:
    def test_split_prime_in_gaussian(self):
        assert galois.frobenius_class(gaussian(), 5).class_label == "e"

    def test_inert_prime_in_gaussian(self):
        assert galois.frobenius_class(gaussian(), 7).class_label == "c"

    def test_ramified(self):
        assert galois.frobenius_class(gaussian(), 2).ramified

    def test_sextic_order_one(self):
        # x^3 - 2 and x^6 + 108 split into linear factors mod 31 (4^3 = 2)
        assert galois.frobenius_class(s3(), 31).class_label == "1"

    def test_sextic_order_two(self):
        assert galois.frobenius_class(s3(), 5).class_label == "2"

    def test_trivial_spec_classifies_everything(self):
        spec = galois.builtin_spec("trivial")
        for p in (2, 3, 97):
            assert galois.frobenius_class(spec, p).class_label == "e"

    def test_abelian_depends_only_on_residue(self, table_small):
        spec = gaussian()
        by_residue = {1: set(), 3: set()}
        for p in table_small.primes_upto(3000):
            p = int(p)
            if p == 2:
                continue
            by_residue[p % 4].add(galois.frobenius_class(spec, p).class_label)
        assert by_residue == {1: {"e"}, 3: {"c"}}


class TestPolyFactorDegrees:
    def test_split_quadratic(self):
        assert sorted(galois.poly_factor_degrees((1, 0, 1), 5)) == [1, 1]

    def test_inert_quadratic(self):
        assert galois.poly_factor_degrees((1, 0, 1), 3) == [2]

    def test_sextic_all_linear(self):
        degs = galois.poly_factor_degrees((108, 0, 0, 0, 0, 0, 1), 31)
        assert degs == [1, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("coeffs, p", [((1, 0, 1), 2),
                                           ((-2, 0, 0, 1), 2),
                                           ((-2, 0, 0, 1), 3)])
    def test_repeated_factor_rejected(self, coeffs, p):
        # x^2 + 1 = (x + 1)^2 mod 2; x^3 - 2 is x^3 mod 2 and (x + 1)^3 mod 3
        with pytest.raises(DomainError):
            galois.poly_factor_degrees(coeffs, p)

    def test_galois_shape_all_unramified_primes(self, table_small):
        # a Galois f: all factor degrees equal, d * count = deg f
        ram = galois.poly_discriminant(SEXTIC)
        for p in table_small.primes_upto(10**4):
            p = int(p)
            if ram % p == 0:
                continue
            degs = galois.poly_factor_degrees(SEXTIC, p)
            assert len(set(degs)) == 1
            assert degs[0] * len(degs) == 6


class TestValidateSpec:
    def test_builtins_valid(self):
        for name in galois.BUILTIN_NAMES:
            assert galois.validate_spec(galois.builtin_spec(name)).ok

    def test_invalid_coset_member(self):
        spec = galois.GaloisSpec("abelian", 4,
                                 (galois.ClassSpec("e", frozenset({1})),
                                  galois.ClassSpec("c", frozenset({2}))))
        rep = galois.validate_spec(spec)
        assert any(code == "InvalidCoset" for code, _ in rep.issues)

    def test_duplicate_orders_rejected(self):
        # same order and same residue: no prime can tell a from b
        spec = galois.GaloisSpec(
            "polynomial", 4,
            (galois.ClassSpec("a", frozenset({1}), 1, 2),
             galois.ClassSpec("b", frozenset({1, 3}), 1, 2)),
            coeffs=(1, 0, 1), group_order=2)
        rep = galois.validate_spec(spec)
        assert any(code == "UnidentifiableClasses" for code, _ in rep.issues)

    def test_shared_order_with_distinct_residues_accepted(self):
        # d4-qrt2's r2, s and t all have order 2
        spec = galois.builtin_spec("d4-qrt2")
        assert len([c for c in spec.classes if c.element_order == 2]) == 3
        assert galois.validate_spec(spec).ok

    def test_swapped_cosets_rejected(self):
        # classes 2 and 3 of s3-cbrt2 with their cosets exchanged: p = 5
        # has key (2, 2), which no class then carries
        c1, c2, c3 = s3().classes
        spec = galois.GaloisSpec(
            "polynomial", 3,
            (c1, galois.ClassSpec("2", c3.coset, 3, 2),
             galois.ClassSpec("3", c2.coset, 2, 3)),
            coeffs=s3().coeffs, group_order=6)
        rep = galois.validate_spec(spec)
        assert any(code == "MissingClass" for code, _ in rep.issues)
        with pytest.raises(InconsistentSpec):
            galois.classify_batch(spec, [5])

    def test_sextic_spec_still_valid(self):
        assert galois.validate_spec(s3_sextic()).ok

    def test_partition_required(self):
        spec = galois.GaloisSpec("abelian", 4,
                                 (galois.ClassSpec("e", frozenset({1})),))
        assert not galois.validate_spec(spec).ok

    def test_raise_helper(self):
        spec = galois.GaloisSpec("abelian", 4,
                                 (galois.ClassSpec("e", frozenset({1})),))
        with pytest.raises(ValidationError):
            galois.validate_spec(spec).raise_if_invalid()


class TestBatchClassifier:
    def test_matches_scalar(self, table_small):
        for name in galois.BUILTIN_NAMES:
            spec = galois.builtin_spec(name)
            labels = [c.label for c in spec.classes]
            ps = table_small.primes_upto(2000)
            idx = galois.classify_batch(spec, ps)
            for p, i in zip(ps, idx):
                res = galois.frobenius_class(spec, int(p))
                if i == -1:
                    assert res.ramified
                else:
                    assert labels[i] == res.class_label

    def test_matches_scalar_just_below_two_to_the_31(self):
        # products of residues near 2**31 reach 2**62: each one must be
        # reduced before it is added to another.  Powers of x modulo a
        # radical f are monomials, so only the quintic adds such products.
        ps = primes_below(2**31, 20)
        for name in ("s3-cbrt2", "d4-qrt2"):
            spec = galois.builtin_spec(name)
            labels = [c.label for c in spec.classes]
            got = [labels[i] for i in galois.classify_batch(spec, ps)]
            assert got == [galois.frobenius_class(spec, p).class_label
                           for p in ps]
        assert galois._frobenius_orders_batch(QUINTIC, ps).tolist() == [
            math.lcm(*galois.poly_factor_degrees(QUINTIC, p)) for p in ps]

    def test_quintic_orders_match_factor_degrees(self, table_small):
        # an S5 quintic: orders up to 6 = lcm(2, 3), above deg f
        disc = galois.poly_discriminant(QUINTIC)
        assert disc == 2869
        ps = [int(p) for p in table_small.primes_upto(10**4) if disc % p]
        orders = galois._frobenius_orders_batch(QUINTIC, ps)
        assert orders.tolist() == [
            math.lcm(*galois.poly_factor_degrees(QUINTIC, p)) for p in ps]
        assert {5, 6} <= set(orders.tolist())

    def test_cubic_matches_sextic_to_a_hundred_thousand(self, table_million):
        ps = table_million.primes_upto(10**5)
        assert np.array_equal(galois.classify_batch(s3(), ps),
                              galois.classify_batch(s3_sextic(), ps))

    def test_empirical_density_within_three_percent(self, table_million):
        for name in ("gaussian", "s3-cbrt2", "d4-qrt2"):
            spec = galois.builtin_spec(name)
            idx = galois.classify_batch(spec, table_million.primes)
            unram = int((idx >= 0).sum())
            for i, cls in enumerate(spec.classes):
                observed = int((idx == i).sum()) / unram
                expected = float(spec.class_density(cls))
                assert abs(observed - expected) <= 0.03 * max(expected, 1e-9)


class TestDiscriminant:
    def test_quadratic(self):
        assert galois.poly_discriminant((1, 0, 1)) == -4

    def test_cubic(self):
        # x^3 - 2 has discriminant -108
        assert galois.poly_discriminant((-2, 0, 0, 1)) == -108

    def test_computed_once_per_spec(self, table_small, monkeypatch):
        calls = []
        real = galois.poly_discriminant

        def counting(coeffs):
            calls.append(coeffs)
            return real(coeffs)

        monkeypatch.setattr(galois, "poly_discriminant", counting)
        spec = galois.builtin_spec("d4-qrt2")
        for p in table_small.primes[:200]:
            galois.frobenius_class(spec, int(p))
        assert len(calls) == 1
        assert spec == galois.builtin_spec("d4-qrt2")
        assert hash(spec) == hash(galois.builtin_spec("d4-qrt2"))


def test_json_roundtrip():
    for name in galois.BUILTIN_NAMES:
        spec = galois.builtin_spec(name)
        again = galois.spec_from_json(galois.spec_to_json(spec))
        assert again == spec
