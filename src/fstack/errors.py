"""Exception types shared across the package."""


class FstackError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(FstackError):
    """Filter specification outside its valid domain."""


class DesignFailureError(FstackError):
    """A filter design did not verify against its specification.

    Carries the best achieved metrics so callers can decide whether to
    retry with a longer filter or more sections.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class FramingError(FstackError):
    """Filter-bank input is not a whole number of commutator revolutions."""


class PlanningError(FstackError):
    """Frequency-stacking plan is geometrically infeasible."""


class StackingError(FstackError):
    """Stacked sub-bands overlap or fall outside the Nyquist zone."""


class RateMismatchError(FstackError):
    """Signal sample rate does not match the stage it was fed to."""


class CoefficientFileError(FstackError):
    """Malformed coefficient file; message carries the offending line."""


class StabilityError(FstackError):
    """All-pass coefficient on or outside the unit circle."""


class ConfigError(FstackError):
    """Run configuration failed validation; message lists every bad key."""
