"""Exception types shared across the package."""


class ErrorLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(ErrorLabError, ValueError):
    """A specification object violates one of its invariants."""


class DimensionError(ErrorLabError, ValueError):
    """Array shapes do not match the declared dimensions."""


class FitError(ErrorLabError, RuntimeError):
    """Model training failed."""


class SingularSystemError(FitError):
    """An unregularized linear system is rank deficient."""


class EmptySelectionError(ErrorLabError, RuntimeError):
    """A selection rule kept zero rows."""


class InvariantError(ErrorLabError, RuntimeError):
    """An internal algebraic identity failed; always a bug, never user error."""


class ConfigError(ErrorLabError, ValueError):
    """A scenario file failed to parse or validate."""



class NonFiniteOutputError(ErrorLabError, ValueError):
    """A JSON output holds NaN or an infinity, which JSON cannot represent."""
