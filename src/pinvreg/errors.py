"""Exception types shared across the package.

Argument misuse raises plain ValueError (or the ValidationError subclass so the
CLI can map it to exit code 1); numerical failures raise NumericalError
subclasses mapped to exit code 2.
"""

__all__ = [
    "ValidationError",
    "DataError",
    "NumericalError",
    "StabilityError",
    "SingularBlockError",
    "RobustFitError",
    "RegularizationError",
]


class ValidationError(ValueError):
    """Bad input: config keys, file contents, out-of-domain arguments."""


class DataError(ValidationError):
    """Malformed data file. Carries the offending 1-based line number if known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(RuntimeError):
    """Numerical failure: singular or unstable linear algebra."""


class StabilityError(NumericalError):
    """Near-singular Gram matrix. Carries the offending SpectralReport."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SingularBlockError(NumericalError):
    """A dyadic block Gram matrix is numerically singular."""

    def __init__(self, message, block_index=None, report=None):
        super().__init__(message)
        self.block_index = block_index
        self.report = report


class RobustFitError(NumericalError):
    """Every subsample iteration of a robust fit failed."""


class RegularizationError(NumericalError):
    """Kernel system not positive definite; a larger ridge parameter is required."""
