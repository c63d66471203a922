"""Exception taxonomy shared across the package, and the integer and real
number checks that configuration values share.

The CLI maps these onto process exit codes, so new error conditions should
subclass one of the existing categories rather than raising bare ValueError.
"""

import math
from numbers import Integral, Real


class CsiBreathError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CsiBreathError):
    """A scenario, filter, or run configuration is invalid (CLI exit code 2)."""


class TraceFormatError(CsiBreathError):
    """A CSI trace file is malformed or inconsistent (CLI exit code 3)."""


class NoWindowError(CsiBreathError):
    """Segmentation produced no complete analysis window (CLI exit code 4)."""


class UndefinedPhaseError(CsiBreathError):
    """A phase quantity is undefined, e.g. the dynamic component is zero."""


class SingularRatioError(CsiBreathError):
    """A ratio or decomposition hit a pole / zero denominator."""


class StreamGuardError(CsiBreathError):
    """Too many samples of a ratio stream failed the denominator guard."""


class DegenerateScenarioError(CsiBreathError):
    """A simulation scenario violates its physical preconditions."""


class ZeroVarianceError(CsiBreathError):
    """Autocorrelation of a constant (zero-variance) series is undefined."""


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError unless ``value`` is an integer (not a bool)
    of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, minimum: float = -math.inf, finite: bool = True) -> None:
    """Raise ConfigurationError unless ``value`` is a real number (not a bool,
    not NaN) of at least ``minimum``, and finite unless ``finite`` is false."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or math.isnan(value)
        or (finite and math.isinf(value))
        or value < minimum
    ):
        bound = f" >= {minimum:g}" if minimum > -math.inf else ""
        kind = "a finite number" if finite else "a number"
        raise ConfigurationError(f"{name} must be {kind}{bound}, got {value!r}")
