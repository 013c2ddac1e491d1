import ast
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import lemmas
import numpy as np
import pytest

import chebcircle
from chebcircle import cli, galois, sieve
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
PHI5 = (1, 1, 1, 1, 1)  # x^4 + x^3 + x^2 + x + 1, the fifth cyclotomic


def s5_quintic():
    """x^5 - x - 1 with its seven classes by cycle type, (label, coset,
    size, order): Frobenius is even where disc = 2869 is a square mod p,
    that is where (p | 2869) = 1, so the four even classes share those
    residues mod 2869 and the three odd ones the rest."""
    units = [r for r in range(2869) if math.gcd(r, 2869) == 1]
    even = frozenset(r for r in units if lemmas.kronecker(r, 2869) == 1)
    odd = frozenset(units) - even
    classes = [("1", even, 1, 1), ("(12)(34)", even, 15, 2),
               ("(123)", even, 20, 3), ("(12345)", even, 24, 5),
               ("(12)", odd, 10, 2), ("(1234)", odd, 30, 4),
               ("(123)(45)", odd, 20, 6)]
    return galois.GaloisSpec(
        "polynomial", 2869,
        tuple(galois.ClassSpec(*c) for c in classes),
        coeffs=QUINTIC, group_order=120)


def primes_below(n, count):
    """The count largest primes below n, by trial division."""
    small = sieve.primes_upto(math.isqrt(n))
    out = []
    for c in range(n - 1, 1, -1):
        if (c % small != 0).all():
            out.append(c)
            if len(out) == count:
                return out


def primes_above(n, count):
    """The count least primes above n, by trial division."""
    small = sieve.primes_upto(math.isqrt(2 * n))
    out = []
    for c in range(n + 1, 2 * n):
        if (c % small != 0).all():
            out.append(c)
            if len(out) == count:
                return out


def factor_orders(coeffs, ps):
    """Order of Frobenius at each p, from the scalar factorization."""
    return [math.lcm(*galois.poly_factor_degrees(coeffs, p)) for p in ps]


def batch_orders(coeffs, ps):
    """Order of Frobenius at each p of ps not dividing disc(f), from the
    batch kernel, beside the scalar oracle's."""
    disc = galois.poly_discriminant(coeffs)
    ps = [p for p in ps if disc % p]
    return (galois._frobenius_orders_batch(coeffs, ps).tolist(),
            factor_orders(coeffs, ps))


# degree 4, with coefficients far above the primes below 2**31 and below
BIG = (-(10**12 + 39), 10**9 + 7, -3, 5, 1)
# degree 4, with coefficients past int64 of either sign
HUGE = (-(3**80), 2**64 + 1, 0, 5, 1)


class TestFrobeniusClass:
    # class indices: gaussian e = 0, c = 1; s3-cbrt2 "1" = 0, "2" = 1
    def test_split_prime_in_gaussian(self):
        assert galois.frobenius_class(gaussian(), 5) == 0

    def test_inert_prime_in_gaussian(self):
        assert galois.frobenius_class(gaussian(), 7) == 1

    def test_ramified(self):
        assert galois.frobenius_class(gaussian(), 2) == -1

    def test_sextic_order_one(self):
        # x^3 - 2 and x^6 + 108 split into linear factors mod 31 (4^3 = 2)
        assert galois.frobenius_class(s3(), 31) == 0

    def test_sextic_order_two(self):
        assert galois.frobenius_class(s3(), 5) == 1

    def test_trivial_spec_classifies_everything(self):
        spec = galois.builtin_spec("trivial")
        for p in (2, 3, 97):
            assert galois.frobenius_class(spec, p) == 0

    def test_abelian_depends_only_on_residue(self):
        spec = gaussian()
        by_residue = {1: set(), 3: set()}
        for p in sieve.primes_upto(3000):
            p = int(p)
            if p == 2:
                continue
            by_residue[p % 4].add(galois.frobenius_class(spec, p))
        assert by_residue == {1: {0}, 3: {1}}

    def test_key_table_built_once_per_spec(self, monkeypatch):
        # frobenius_class, identity_class and the key lookup of the batch
        # kernel read one mapping, built at the spec's first lookup
        calls = []
        real = galois.GaloisSpec.class_keys

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(galois.GaloisSpec, "class_keys", counting)
        spec = s5_quintic()
        ps = sieve.primes_upto(2000).tolist()
        scalar = [galois.frobenius_class(spec, p) for p in ps]
        assert scalar.count(-1) == 2  # 19 and 151
        assert spec.identity_class == 0
        unramified = np.array([p for p in ps if 2869 % p], np.int64)
        assert galois._classes_by_key(spec, unramified).tolist() == [
            i for i in scalar if i >= 0]
        assert len(calls) == 1


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

    def test_galois_shape_all_unramified_primes(self):
        # a Galois f: all factor degrees equal, d * count = deg f
        ram = galois.poly_discriminant(SEXTIC)
        for p in sieve.primes_upto(10**4):
            p = int(p)
            if ram % p == 0:
                continue
            degs = galois.poly_factor_degrees(SEXTIC, p)
            assert len(set(degs)) == 1
            assert degs[0] * len(degs) == 6


class TestPolyDivmod:
    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
    def test_quotient_and_remainder(self, p):
        rng = np.random.default_rng(p)

        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
            return out

        for _ in range(200):
            a = [int(c) for c in rng.integers(0, p, rng.integers(0, 9))]
            b = [int(c) for c in rng.integers(0, p, rng.integers(0, 6))]
            b.append(int(rng.integers(1, p)))
            q, r = galois._poly_divmod(a, b, p)
            assert len(r) < len(b)
            qb = mul(q, b) if q else []
            total = [((qb[i] if i < len(qb) else 0)
                      + (r[i] if i < len(r) else 0)) % p
                     for i in range(max(len(qb), len(r)))]
            assert galois._trim(total) == galois._trim([c % p for c in a])


def issue_codes(spec):
    """The issue codes ValidationError carries for an invalid spec."""
    with pytest.raises(ValidationError) as exc:
        galois.validate_spec(spec)
    return [code for code, _ in exc.value.issues]


class TestValidateSpec:
    def test_builtins_valid(self):
        for name in galois.BUILTIN_NAMES:
            galois.validate_spec(galois.builtin_spec(name))

    def test_invalid_coset_member(self):
        spec = galois.GaloisSpec("abelian", 4,
                                 (galois.ClassSpec("e", frozenset({1})),
                                  galois.ClassSpec("c", frozenset({2}))))
        assert "InvalidCoset" in issue_codes(spec)

    def test_duplicate_orders_rejected(self):
        # same order and same residue: no prime can tell a from b
        spec = galois.GaloisSpec(
            "polynomial", 4,
            (galois.ClassSpec("a", frozenset({1}), 1, 2),
             galois.ClassSpec("b", frozenset({1, 3}), 1, 2)),
            coeffs=(1, 0, 1), group_order=2)
        assert "UnidentifiableClasses" in issue_codes(spec)

    def test_shared_order_with_distinct_residues_accepted(self):
        # d4-qrt2's r2, s and t all have order 2
        spec = galois.builtin_spec("d4-qrt2")
        assert len([c for c in spec.classes if c.element_order == 2]) == 3
        galois.validate_spec(spec)

    def test_swapped_cosets_rejected(self):
        # classes 2 and 3 of s3-cbrt2 with their cosets (and sizes, so
        # that each coset still holds half of G) exchanged: p = 5 has key
        # (2, 2), which no class then carries
        c1, c2, c3 = s3().classes
        spec = galois.GaloisSpec(
            "polynomial", 3,
            (c1, galois.ClassSpec("2", c3.coset, 2, 2),
             galois.ClassSpec("3", c2.coset, 3, 3)),
            coeffs=s3().coeffs, group_order=6)
        with pytest.raises(ValidationError) as exc:
            galois.validate_spec(spec)
        [(code, text)] = exc.value.issues
        assert code == "MissingClass"
        assert text == "no class has the key (2, 2) of p=5"
        # classify_batch labels p = 5 from its residue, which class "3"
        # alone holds; the key check that validation runs reads its order
        with pytest.raises(InconsistentSpec, match=r"\(2, 2\) of p=5"):
            galois._classes_by_key(spec, np.array([5]))

    def test_validation_runs_the_batch_classifier_only(self, tmp_path,
                                                       monkeypatch, capsys):
        def scalar(spec, p):
            raise AssertionError("frobenius_class called")

        monkeypatch.setattr(galois, "frobenius_class", scalar)
        for spec in [*map(galois.builtin_spec, galois.BUILTIN_NAMES),
                     s3_sextic()]:
            galois.validate_spec(spec)
        instance = Path(__file__).parent / "data/s3-cbrt2/instance.json"
        code = cli.main(["verify", str(instance), "--out-dir",
                         str(tmp_path), "--no-timestamp"])
        assert code == 0, capsys.readouterr().err

    def test_order_above_every_prime_needs_no_table_row(self):
        # classes of order 3*10**9, one on each coset: no prime can have
        # them, so neither validation nor the classifier sizes a lookup by
        # them
        big = tuple(galois.ClassSpec(f"big{r}", frozenset({r}),
                                     3 * 10**9 - 3, 3 * 10**9)
                    for r in (1, 2))
        spec = galois.GaloisSpec("polynomial", 3, s3().classes + big,
                                 coeffs=s3().coeffs, group_order=6 * 10**9)
        galois.validate_spec(spec)
        ps = sieve.primes_upto(1000)
        assert galois.classify_batch(spec, ps).tolist() == \
            galois.classify_batch(s3(), ps).tolist()

    def test_sextic_spec_still_valid(self):
        galois.validate_spec(s3_sextic())

    @pytest.mark.parametrize("coeffs", [(-2, 0, 0, 0), (-2, 0, 0, 2)])
    def test_non_monic_checked_no_further(self, coeffs):
        # a vanishing leading coefficient has no discriminant to read
        spec = galois.GaloisSpec("polynomial", 3, s3().classes,
                                 coeffs=coeffs, group_order=6)
        assert issue_codes(spec) == ["NotMonic"]

    def test_sizes_and_orders_below_one_rejected(self):
        c1, c2, c3 = s3().classes
        spec = galois.GaloisSpec(
            "polynomial", 3,
            (galois.ClassSpec("1", c1.coset, -1, 1),
             galois.ClassSpec("2", c2.coset, 3, 2),
             galois.ClassSpec("3", c3.coset, 4, 0)),
            coeffs=s3().coeffs, group_order=6)
        assert issue_codes(spec) == ["NonPositive", "NonPositive"]

    def test_abelian_sizes_sum_to_the_class_count(self):
        e, c = gaussian().classes
        spec = galois.GaloisSpec("abelian", 4,
                                 (e, galois.ClassSpec("c", c.coset, 3, 2)))
        assert issue_codes(spec) == ["ClassSizeSum"]

    def test_unknown_label_names_the_labels(self):
        with pytest.raises(ValidationError, match="'e', 'c'"):
            gaussian().class_by_label("x")

    def test_partition_required(self):
        spec = galois.GaloisSpec("abelian", 4,
                                 (galois.ClassSpec("e", frozenset({1})),))
        assert issue_codes(spec) == ["CosetsNotPartition"]

    def test_partition_check_reads_the_cosets_only(self):
        # one class of one unit mod 4 * 10**6: rejected from its residues
        # and phi(D), with no table of the units mod D
        spec = galois.GaloisSpec("abelian", 4 * 10**6,
                                 (galois.ClassSpec("e", frozenset({1})),))
        tracemalloc.start()
        try:
            codes = issue_codes(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes == ["CosetsNotPartition"]
        assert peak < 2**20

    def test_polynomial_partition_checked_before_the_keys(self):
        # f = x^2 - D with cosets {1} and {2} mod D = 10**7 + 19: refused
        # from its residues, before _check_keys classifies primes through
        # a lookup of 3 x D int64 (229 MiB)
        D = 10**7 + 19
        spec = galois.spec_from_json({
            "kind": "polynomial", "modulus": D, "coeffs": [-D, 0, 1],
            "group_order": 2,
            "classes": [{"label": "e", "coset": [1], "size": 1, "order": 1},
                        {"label": "c", "coset": [2], "size": 1,
                         "order": 2}]})
        tracemalloc.start()
        try:
            codes = issue_codes(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes == ["CosetsNotPartition"]
        assert peak < 2**20

    def test_partition_check_bounds_the_modulus_before_phi(self,
                                                            monkeypatch):
        # one residue mod D near 10**18: phi(D) >= sqrt(D/2) > 1, so the
        # spec is refused without factoring D
        def no_phi(n):
            raise AssertionError("phi called")

        monkeypatch.setattr(galois, "phi", no_phi)
        spec = galois.GaloisSpec("abelian", (10**9 + 7) * (10**9 + 9),
                                 (galois.ClassSpec("e", frozenset({1})),))
        assert issue_codes(spec) == ["CosetsNotPartition"]

    def test_repeated_or_missing_units_not_a_partition(self):
        # each coset holds units mod 8, but 3 twice and 7 never
        spec = galois.GaloisSpec("abelian", 8,
                                 (galois.ClassSpec("a", frozenset({1, 3})),
                                  galois.ClassSpec("b", frozenset({3, 5}))))
        assert issue_codes(spec) == ["UnidentifiableClasses",
                                     "CosetsNotPartition"]

    def test_invalid_modulus_checked_no_further(self):
        spec = galois.GaloisSpec("abelian", 0,
                                 (galois.ClassSpec("e", frozenset({1})),))
        assert issue_codes(spec) == ["InvalidModulus"]

    def test_order_must_divide_the_group_order(self):
        c1, c2, c3 = s3().classes
        spec = galois.GaloisSpec(
            "polynomial", 3, (c1, c2, galois.ClassSpec("3", c3.coset, 2, 4)),
            coeffs=s3().coeffs, group_order=6)
        assert issue_codes(spec) == ["OrderDividesGroup"]

    def test_constant_polynomial_is_missing(self):
        spec = spec_over_q((1,), [("e", 1, 1)])
        assert issue_codes(spec) == ["MissingPolynomial"]

    def test_squareful_polynomial_rejected(self):
        spec = spec_over_q((0, 0, 1), [("e", 1, 1), ("c", 1, 2)])
        assert issue_codes(spec) == ["SquarefulPolynomial"]

    def test_modulus_primes_must_ramify(self):
        # disc(x^3 - 2) = -108: 3 divides it, 5 does not
        spec = galois.GaloisSpec("polynomial", 15, s3().classes,
                                 coeffs=s3().coeffs, group_order=6)
        assert issue_codes(spec) == ["CosetsNotPartition",
                                     "ModulusRamification"]

    def test_modulus_ramification_read_by_gcds(self):
        # D = 3 q1 q2 with q1 q2 near 10**18 is not factored: dividing out
        # its gcds with disc(f) = -108 leaves q1 q2; D = 9 leaves 1
        q = (10**9 + 7) * (10**9 + 9)
        spec = galois.GaloisSpec("polynomial", 3 * q, s3().classes,
                                 coeffs=s3().coeffs, group_order=6)
        with pytest.raises(ValidationError, match=f"factor {q},"):
            galois.validate_spec(spec)
        assert issue_codes(spec) == ["CosetsNotPartition",
                                     "ModulusRamification"]
        spec = galois.GaloisSpec("polynomial", 9, s3().classes,
                                 coeffs=s3().coeffs, group_order=6)
        assert "ModulusRamification" not in issue_codes(spec)

    def test_class_sizes_sum_per_coset(self):
        # s3-cbrt2 with the sizes of classes 2 and 3 swapped sums to |G|
        # but gives the coset {1} four elements of six
        c1, c2, c3 = s3().classes
        spec = galois.GaloisSpec(
            "polynomial", 3, (c1, galois.ClassSpec("2", c2.coset, 2, 2),
                              galois.ClassSpec("3", c3.coset, 3, 3)),
            coeffs=s3().coeffs, group_order=6)
        assert issue_codes(spec) == ["ClassSizeSum"]
        for name in galois.BUILTIN_NAMES:
            galois.validate_spec(galois.builtin_spec(name))

    def test_identity_class_is_keyed_order_one_residue_one(self):
        assert gaussian().identity_class == 0
        swapped = galois.GaloisSpec("abelian", 4, gaussian().classes[::-1])
        assert swapped.identity_class == 1
        assert s3().identity_class == 0
        assert galois.builtin_spec("d4-qrt2").identity_class == 0
        assert galois.builtin_spec("trivial").identity_class == 0
        no_identity = galois.GaloisSpec("abelian", 4, gaussian().classes[1:])
        with pytest.raises(DomainError, match="no identity class"):
            no_identity.identity_class


class TestSpecFromJson:
    def test_non_object_rejected(self):
        with pytest.raises(ValidationError) as exc:
            galois.spec_from_json([1, 2])
        assert exc.value.issues == [("BadType",
                                     "a spec takes a JSON object")]

    def test_json_text_is_parsed(self):
        doc = lemmas.spec_to_json(gaussian())
        assert galois.spec_from_json(json.dumps(doc)) == gaussian()
        with pytest.raises(ValidationError) as exc:
            galois.spec_from_json('"gaussian"')
        assert [code for code, _ in exc.value.issues] == ["BadType"]


def divisor_scan_root(f):
    """The former integer-root test: every divisor t <= sqrt|a0|."""
    a0 = f[0]
    if a0 == 0:
        return True
    cands = set()
    for t in range(1, int(math.isqrt(abs(a0))) + 1):
        if a0 % t == 0:
            cands.update({t, -t, a0 // t, -(a0 // t)})
    return any(sum(c * r**i for i, c in enumerate(f)) == 0 for r in cands)


def spec_over_q(coeffs, classes):
    """A spec over Q with modulus 1: (label, size, order) per class."""
    return galois.GaloisSpec(
        "polynomial", 1,
        tuple(galois.ClassSpec(lab, frozenset({0}), size, order)
              for lab, size, order in classes),
        coeffs=coeffs, group_order=sum(size for _, size, _ in classes))


class TestRationalRoot:
    def test_matches_divisor_scan(self):
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        while sum(seen.values()) < 600:
            deg = rng.randint(2, 5)
            f = [rng.randint(-60, 60) for _ in range(deg)] + [1]
            if rng.random() < 0.5:
                r = rng.randint(-40, 40)  # f := (x - r) * f
                f = [a - r * b for a, b in zip([0] + f, f + [0])]
            disc = galois.poly_discriminant(f)
            if disc == 0:
                continue
            want = divisor_scan_root(f)
            assert galois._has_rational_root(f, disc) == want, f
            seen[want] += 1
        assert min(seen.values()) > 200

    def test_large_constant_coefficient_validates(self):
        # x^2 + 2^64 + 1: the divisor scan would try 2^32 candidates
        spec = spec_over_q((2**64 + 1, 0, 1), [("e", 1, 1), ("c", 1, 2)])
        galois.validate_spec(spec)

    def test_large_integer_root_found(self):
        r = 2**40 + 15  # (x - r)(x^2 + 1)
        spec = spec_over_q((-r, 1, -r, 1),
                              [("1", 1, 1), ("2", 3, 2), ("3", 2, 3)])
        assert issue_codes(spec) == ["Reducible"]


class TestBatchClassifier:
    def test_matches_scalar(self):
        for name in galois.BUILTIN_NAMES:
            spec = galois.builtin_spec(name)
            ps = sieve.primes_upto(2000)
            assert galois.classify_batch(spec, ps).tolist() == [
                galois.frobenius_class(spec, int(p)) for p in ps]

    @pytest.mark.parametrize("spec, X", [
        *((galois.builtin_spec(name), 2 * 10**4)
          for name in galois.BUILTIN_NAMES),
        (s3_sextic(), 2 * 10**4), (s5_quintic(), 2 * 10**4)],
        ids=[*galois.BUILTIN_NAMES, "s3-sextic", "s5"])
    def test_residue_first_matches_scalar(self, spec, X):
        # owned residues (all of gaussian's and trivial's, 2 mod 3, 3, 5
        # and 7 mod 8) and shared ones (1 mod 3, 1 mod 8, every residue
        # of the quintic's 9 450 keys)
        galois.validate_spec(spec)
        ps = sieve.primes_upto(X)
        assert galois.classify_batch(spec, ps).tolist() == [
            galois.frobenius_class(spec, p) for p in ps.tolist()]

    def test_kernel_sees_only_the_primes_at_shared_residues(self,
                                                            monkeypatch):
        seen = []
        real = galois._frobenius_orders_batch

        def recording(coeffs, ps):
            seen.extend(np.asarray(ps).tolist())
            return real(coeffs, ps)

        monkeypatch.setattr(galois, "_frobenius_orders_batch", recording)
        X = 2 * 10**4
        ps = sieve.primes_upto(X).tolist()
        # class_primes drops the residues its classes do not hold first
        for name, labels, want in (
                ("s3-cbrt2", "123", [p for p in ps if p % 3 == 1]),
                ("d4-qrt2", ("e", "r", "s"), [p for p in ps if p % 8 == 1]),
                ("d4-qrt2", "rst", []),
                ("gaussian", "ec", []),
                ("trivial", "e", [])):
            spec = galois.builtin_spec(name)
            seen.clear()
            sieve.class_primes(spec, X, [
                spec.classes.index(spec.class_by_label(label))
                for label in labels])
            assert seen == want, (name, labels)
        seen.clear()
        galois.classify_batch(s5_quintic(), ps)
        assert seen == [p for p in ps if p not in (19, 151)]
        # validation reads the key of each of its 25 primes
        seen.clear()
        galois.validate_spec(s3())
        assert seen == [p for p in ps if p > 3][:25]

    def test_blocks_match_scalar(self, monkeypatch):
        # blocks of 7 unramified primes, so that the primes below 2000 of
        # d4-qrt2 end in a block of one, against the scalar oracle
        monkeypatch.setattr(galois, "CLASSIFY_BLOCK", 7)
        ps = sieve.primes_upto(2000)
        for name in ("s3-cbrt2", "d4-qrt2"):
            spec = galois.builtin_spec(name)
            assert galois.classify_batch(spec, ps).tolist() == [
                galois.frobenius_class(spec, int(p)) for p in ps]

    def test_matches_scalar_just_below_two_to_the_31(self):
        # products of residues near 2**31 reach 2**62: each one must be
        # reduced before it is added to another.  Powers of x modulo a
        # radical f are monomials, so only the quintic adds such products.
        ps = primes_below(2**31, 20)
        for name in ("s3-cbrt2", "d4-qrt2"):
            spec = galois.builtin_spec(name)
            assert galois.classify_batch(spec, ps).tolist() == [
                galois.frobenius_class(spec, p) for p in ps]
        assert galois._frobenius_orders_batch(QUINTIC, ps).tolist() == [
            math.lcm(*galois.poly_factor_degrees(QUINTIC, p)) for p in ps]

    def test_small_primes_beside_primes_just_below_two_to_the_31(self):
        # the largest prime of a batch bounds every coefficient, so the
        # primes below 100 are reduced here as often as 2**31 needs
        ps = sieve.primes_upto(100).tolist() + primes_below(2**31, 10)
        for coeffs in (QUINTIC, PHI5, SEXTIC, BIG, HUGE):
            got, want = batch_orders(coeffs, ps)
            assert got == want, coeffs

    def test_reductions_inside_a_coefficient(self):
        # near 1.6e9 an int64 holds three products of residues, so a
        # coefficient that takes four or five is reduced part way through
        ps = primes_below(1_600_000_000, 20)
        assert (2**63 - 1) // (max(ps) - 1) ** 2 == 3
        for coeffs in (QUINTIC, PHI5, SEXTIC, BIG, HUGE):
            got, want = batch_orders(coeffs, ps)
            assert got == want, coeffs

    def test_random_monic_polynomials(self):
        # every prime to 2*10**4 goes through the batch; the scalar oracle
        # checks the first 100 and 200 more drawn from the rest
        rng = random.Random(29)
        ps = sieve.primes_upto(2 * 10**4).tolist()
        for n in range(2, 7):
            for size in (9, 10**12):
                while True:
                    coeffs = tuple(rng.randint(-size, size)
                                   for _ in range(n)) + (1,)
                    disc = galois.poly_discriminant(coeffs)
                    if disc:
                        break
                qs = [p for p in ps if disc % p]
                got = galois._frobenius_orders_batch(coeffs, qs).tolist()
                picked = list(range(100)) + sorted(
                    rng.sample(range(100, len(qs)), 200))
                assert [got[i] for i in picked] == factor_orders(
                    coeffs, [qs[i] for i in picked]), coeffs

    def test_rejects_primes_from_two_to_the_31(self):
        # from 2**31 on a product of two residues can pass 2**62, and from
        # 2**32 on _residues overflows: the batch path raises before any
        # arithmetic, and the scalar oracle still answers there
        above = primes_above(2**32, 40)
        for ps in (above, primes_above(2**31, 3), [3, 5] + above[:1]):
            with pytest.raises(DomainError, match=r"2\*\*31"):
                galois._frobenius_orders_batch(QUINTIC, ps)
            for name in galois.BUILTIN_NAMES:
                with pytest.raises(DomainError, match=r"2\*\*31"):
                    galois.classify_batch(galois.builtin_spec(name), ps)
        d4 = galois.builtin_spec("d4-qrt2")
        for p in above[:8]:
            # x^4 - 2 splits at p = 1 mod 8 iff 2 is a fourth power mod p
            if p % 8 == 1:
                label = "e" if pow(2, (p - 1) // 4, p) == 1 else "r2"
            else:
                label = {3: "s", 5: "r", 7: "t"}[p % 8]
            assert d4.classes[galois.frobenius_class(d4, p)].label == label
        assert set(factor_orders(QUINTIC, above[:8])) <= {1, 2, 3, 4, 5, 6}

    def test_quintic_orders_match_factor_degrees(self):
        # an S5 quintic: orders up to 6 = lcm(2, 3), above deg f
        disc = galois.poly_discriminant(QUINTIC)
        assert disc == 2869
        ps = [int(p) for p in sieve.primes_upto(10**4) if disc % p]
        orders = galois._frobenius_orders_batch(QUINTIC, ps)
        assert orders.tolist() == [
            math.lcm(*galois.poly_factor_degrees(QUINTIC, p)) for p in ps]
        assert {5, 6} <= set(orders.tolist())

    def test_dense_cyclotomic_orders_are_orders_mod_five(self):
        # every coefficient of Phi_5 is nonzero; Frobenius acts on the
        # fifth roots of unity as x -> x^p, with the order of p mod 5
        ps = [p for p in sieve.primes_upto(10**4).tolist() if p != 5]
        ps += primes_below(2**31, 20)
        want = [next(d for d in range(1, 5) if pow(p, d, 5) == 1) for p in ps]
        assert galois._frobenius_orders_batch(PHI5, ps).tolist() == want

    def test_cubic_matches_sextic_to_a_hundred_thousand(self):
        ps = sieve.primes_upto(10**5)
        assert np.array_equal(galois.classify_batch(s3(), ps),
                              galois.classify_batch(s3_sextic(), ps))

    def test_empirical_density_within_three_percent(self):
        for name in ("gaussian", "s3-cbrt2", "d4-qrt2"):
            spec = galois.builtin_spec(name)
            idx = galois.classify_batch(spec, sieve.primes_upto(10**6))
            unram = int((idx >= 0).sum())
            for i, cls in enumerate(spec.classes):
                observed = int((idx == i).sum()) / unram
                expected = float(spec.class_density(cls))
                assert abs(observed - expected) <= 0.03 * max(expected, 1e-9)


def test_package_exports_resolve():
    for name in chebcircle.__all__:
        assert getattr(chebcircle, name) is not None, name


def test_src_defines_only_what_src_runs():
    # a name counts as used when another top-level statement of a src
    # module names it, as a name, an attribute or an import; references
    # that only the tests run live in tests/oracles.py
    src = Path(chebcircle.__file__).parent
    defined, named = [], set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append(own)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        None)
                names = ([a.name for a in node.names]
                         if isinstance(node, ast.ImportFrom) else [name])
                named.update(n for n in names if n and n != own)
    unused = {n for n in defined if n not in named} - set(chebcircle.__all__)
    assert unused == set()


def sylvester_resultant(f, g):
    """Integer resultant: the determinant of the Sylvester matrix by
    Gaussian elimination over Fractions."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(reversed(f)) + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(reversed(g)) + [0] * (m - 1 - i))
    mat = [Fraction(x) for row in rows for x in row]
    # plain fraction Gaussian elimination; sizes here are tiny
    det = Fraction(1)
    a = [mat[i * size:(i + 1) * size] for i in range(size)]
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, size):
                    a[r][c] -= factor * a[col][c]
    assert det.denominator == 1
    return det.numerator


def sylvester_discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f')/lc(f), from the Sylvester
    resultant."""
    n = len(f) - 1
    if n < 2:
        return 1
    res = sylvester_resultant(list(f), [i * c for i, c in enumerate(f)][1:])
    return (-1) ** (n * (n - 1) // 2) * res // f[-1]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestDiscriminant:
    def test_matches_sylvester_determinant(self):
        rng = random.Random(24)
        repeated = 0
        for _ in range(2000):
            deg = rng.randint(1, 8)
            lead = rng.choice((1, 2, -3))
            if deg >= 2 and rng.random() < 0.25:
                # f = g * h^2, with h monic: a repeated root
                e = rng.randint(1, deg // 2)
                h = [rng.randint(-9, 9) for _ in range(e)] + [1]
                g = [rng.randint(-10**4, 10**4)
                     for _ in range(deg - 2 * e)] + [lead]
                f = poly_mul(g, poly_mul(h, h))
                repeated += 1
            else:
                f = [rng.randint(-10**12, 10**12)
                     for _ in range(deg)] + [lead]
            assert galois.poly_discriminant(f) == sylvester_discriminant(f), f
        assert repeated > 300

    def test_quadratic(self):
        assert galois.poly_discriminant((1, 0, 1)) == -4

    def test_cubic(self):
        # x^3 - 2 has discriminant -108
        assert galois.poly_discriminant((-2, 0, 0, 1)) == -108

    def test_computed_once_per_spec(self, monkeypatch):
        calls = []
        real = galois.poly_discriminant

        def counting(coeffs):
            calls.append(coeffs)
            return real(coeffs)

        monkeypatch.setattr(galois, "poly_discriminant", counting)
        spec = galois.builtin_spec("d4-qrt2")
        for p in sieve.primes_upto(10**4)[:200]:
            galois.frobenius_class(spec, int(p))
        assert len(calls) == 1
        assert spec == galois.builtin_spec("d4-qrt2")
        assert hash(spec) == hash(galois.builtin_spec("d4-qrt2"))


def test_json_roundtrip():
    for name in galois.BUILTIN_NAMES:
        spec = galois.builtin_spec(name)
        again = galois.spec_from_json(lemmas.spec_to_json(spec))
        assert again == spec
