"""Exception types shared across the package."""


class ChebCircleError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ChebCircleError):
    """An argument is outside the mathematical domain of the operation."""


class InconsistentSpec(ChebCircleError):
    """A Galois spec turned out to be internally inconsistent at use time
    (e.g. a prime whose Frobenius order on the roots of f and residue mod
    D form the key of no class)."""


class ValidationError(ChebCircleError):
    """A spec or instance failed validation."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"{code}: {msg}" for code, msg in self.issues))


class UnsupportedInstantiation(ChebCircleError):
    """The G-vs-F comparison is not implemented for this field/class pair."""


class DegenerateAlpha(ChebCircleError):
    """alpha does not admit the rational-approximation structure required."""


class ResourceLimit(ChebCircleError):
    """The requested computation exceeds the configured size limits."""


class NotFoundWithinLimit(ChebCircleError):
    """A search completed without finding a witness inside the given bounds."""
