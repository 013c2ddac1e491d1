"""Problem instances: the tuple of (field, class) pairs, coefficients,
and cutoff that every pipeline consumes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import galois
from .errors import ValidationError


@dataclass(frozen=True)
class FieldClass:
    spec: galois.GaloisSpec
    cls: galois.ClassSpec


@dataclass
class ProblemInstance:
    components: tuple      # FieldClass per prime variable
    a: tuple               # nonzero integers, gcd 1
    X: int

    def __post_init__(self):
        self.components = tuple(self.components)
        self.a = tuple(int(v) for v in self.a)
        issues = []
        if len(self.components) != len(self.a):
            issues.append(("ShapeMismatch",
                           "one coefficient per field/class pair required"))
        if self.k < 2:
            issues.append(("TooFewTerms", "k must be at least 2"))
        if any(v == 0 for v in self.a):
            issues.append(("ZeroCoefficient", "coefficients must be nonzero"))
        elif self.a and reduce(math.gcd, (abs(v) for v in self.a)) != 1:
            issues.append(("CommonDivisor",
                           "coefficients share a common divisor"))
        if self.X < 2:
            issues.append(("CutoffTooSmall", "X must be at least 2"))
        if issues:
            raise ValidationError(issues)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def modulus(self) -> int:
        """lcm of the per-field abelianization moduli."""
        return reduce(math.lcm, (fc.spec.modulus for fc in self.components), 1)

    @property
    def prefactor(self) -> Fraction:
        out = Fraction(1)
        for fc in self.components:
            out *= fc.spec.class_density(fc.cls)
        return out

    def lifted_cosets(self):
        """Each class coset lifted from (Z/D_i)^* to (Z/D)^*, D the lcm."""
        D = self.modulus
        out = []
        for fc in self.components:
            Di = fc.spec.modulus
            if Di == 1:
                out.append(frozenset(r for r in range(D)
                                     if math.gcd(r, D) == 1) if D > 1
                           else frozenset({0}))
            else:
                out.append(frozenset(r for r in range(D)
                                     if math.gcd(r, D) == 1
                                     and (r % Di) in fc.cls.coset))
        return out

    @property
    def attainable_range(self):
        """(lowest, highest) value of sum a_i * p_i with 0 <= p_i <= X."""
        lo = sum(v * self.X for v in self.a if v < 0)
        hi = sum(v * self.X for v in self.a if v > 0)
        return lo, hi


def uniform_instance(name: str, cls_label: str, k: int, a,
                     X: int) -> ProblemInstance:
    """All k components share one builtin field and class."""
    spec = galois.builtin_spec(name)
    cls = spec.class_by_label(cls_label)
    return ProblemInstance(tuple(FieldClass(spec, cls) for _ in range(k)),
                           tuple(a), X)


def classical_instance(X: int, k: int = 3) -> ProblemInstance:
    return uniform_instance("trivial", "e", k, (1,) * k, X)
