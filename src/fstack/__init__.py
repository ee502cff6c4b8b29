"""Frequency-stacking planner, prototype filter design and two-stage
polyphase channelizer simulation."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DesignFailureError,
    FramingError,
    FstackError,
    InvalidSpecError,
    PlanningError,
    RateMismatchError,
    StabilityError,
    StackingError,
)

__all__ = [
    "ConfigError",
    "DesignFailureError",
    "FramingError",
    "FstackError",
    "InvalidSpecError",
    "PlanningError",
    "RateMismatchError",
    "StabilityError",
    "StackingError",
    "__version__",
]
