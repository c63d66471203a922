"""Exception taxonomy shared across the package, and the integer check that
configuration values share.

The CLI maps these onto process exit codes, so new error conditions should
subclass one of the existing categories rather than raising bare ValueError.
"""

from numbers import Integral


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


class AlignmentError(CsiBreathError):
    """Stream rotation alignment is undefined (zero inner product)."""


class ZeroVarianceError(CsiBreathError):
    """Autocorrelation of a constant (zero-variance) series is undefined."""


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError unless ``value`` is an integer (not a bool)
    of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
