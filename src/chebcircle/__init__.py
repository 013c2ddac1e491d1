"""Desk-scale numerical verification of ternary-Goldbach-type counts with
primes constrained to Chebotarev classes: exact representation counts,
singular-series main terms, generating functions and their sieved
approximants, exponential sums, and an elliptic-curve application."""

__version__ = "0.1.0"
SCHEMA = "chebotarev-circle/1"  # the tag of every JSON document written

from .errors import (ChebCircleError, DomainError, InconsistentSpec,
                     NotFoundWithinLimit, ResourceLimit, ValidationError)
from .galois import (ClassSpec, GaloisSpec, builtin_spec, frobenius_class,
                     validate_spec)
from .instance import FieldClass, ProblemInstance, classical_instance

__all__ = [
    "ChebCircleError", "ClassSpec", "DomainError", "FieldClass",
    "GaloisSpec", "InconsistentSpec", "NotFoundWithinLimit",
    "ProblemInstance", "ResourceLimit", "SCHEMA", "ValidationError",
    "builtin_spec", "classical_instance", "frobenius_class",
    "validate_spec",
]
