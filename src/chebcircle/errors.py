"""Exception types shared across the package, and the memory limit that
every command checks before the allocations it guards."""

# The limit, and the peak bytes of the interpreter and numpy that every
# memory estimate starts from: the one constant of the estimates read off
# a resident peak; they otherwise count the bytes that a call holds.
MAX_BYTES = 4 * 2**30
BYTES_BASE = 31 * 2**20


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


class ResourceLimit(ChebCircleError):
    """The requested computation exceeds the configured size limits."""


def refuse_above(need: int, what: str):
    """Raise ResourceLimit when need, in bytes, is above MAX_BYTES."""
    if need > MAX_BYTES:
        raise ResourceLimit(f"{what} needs about {need / 2**30:.1f} GiB; "
                            f"the limit is {MAX_BYTES / 2**30:.0f} GiB")


class NotFoundWithinLimit(ChebCircleError):
    """A search completed without finding a witness inside the given bounds."""
