"""Error types, and the finite-value check of the config dataclasses.

Every class subclasses ValueError so callers that only know stdlib
semantics still get sensible behaviour; the CLI maps them to exit codes.
"""

import dataclasses
import math


class RoutedKlError(ValueError):
    """Base class for all library errors."""


class InvalidDistributionError(RoutedKlError):
    """Input is not a valid point on the probability simplex."""


class NonFiniteInputError(RoutedKlError):
    """Logits or other numeric inputs contain NaN or infinity."""


class InfeasibleFloorError(RoutedKlError):
    """p_min * top_k >= 1: no floored distribution exists."""


class UndefinedDivergenceError(RoutedKlError):
    """KL support violation: q is zero somewhere p is positive."""


class DimensionError(RoutedKlError):
    """Mismatched vector lengths or array shapes."""


class RangeError(RoutedKlError):
    """Scalar argument outside its declared range."""


class StepSizeError(RoutedKlError):
    """Euler step left the probability simplex."""


class EnumerationBudgetError(RoutedKlError):
    """Task too large for exact sequence enumeration."""


class InternalConsistencyError(RoutedKlError):
    """A runtime invariant that should hold by construction failed."""


class NumericFailureError(RoutedKlError):
    """Non-finite loss or other numeric breakdown during training."""


class ConfigError(RoutedKlError):
    """Run configuration is missing, malformed, or inconsistent."""


def require_finite_fields(config, error: type = RangeError) -> None:
    """Raise ``error`` naming the first float field of a config
    dataclass that is NaN or infinite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")
