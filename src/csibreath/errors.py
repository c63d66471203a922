"""Exception taxonomy shared across the package, the integer and real
number checks that configuration values share, and ``writing`` for outputs.

The CLI maps these onto process exit codes, so new error conditions should
subclass one of the existing categories rather than raising bare ValueError.
"""

import contextlib
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


class OutputError(CsiBreathError):
    """An output directory or file cannot be written (CLI exit code 2)."""


class SingularRatioError(CsiBreathError):
    """A ratio or decomposition hit a pole / zero denominator."""


class StreamGuardError(CsiBreathError):
    """Too many samples of a ratio stream failed the denominator guard."""


class DegenerateScenarioError(CsiBreathError):
    """A simulation scenario violates its physical preconditions."""


class ZeroVarianceError(CsiBreathError):
    """Autocorrelation of a constant (zero-variance) series is undefined."""


def check_integer(name: str, value, minimum: int, maximum: float = math.inf) -> None:
    """Raise ConfigurationError unless ``value`` is an integer (not a bool)
    from ``minimum`` to ``maximum``."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not minimum <= value <= maximum):
        bound = f"from {minimum} to {maximum}" if maximum < math.inf else f">= {minimum}"
        raise ConfigurationError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(name: str, value, minimum: float = -math.inf, finite: bool = True) -> None:
    """Raise ConfigurationError unless ``value`` is a real number (not a bool,
    not NaN) of at least ``minimum``, and finite unless ``finite`` is false.
    An integer beyond the float range has no float value, so it fails too."""
    number = math.nan
    if isinstance(value, Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            number = float(value)
    if math.isnan(number) or (finite and not math.isfinite(number)) or number < minimum:
        bound = f" >= {minimum:g}" if minimum > -math.inf else ""
        kind = "a finite number" if finite else "a number"
        raise ConfigurationError(f"{name} must be {kind}{bound}, got {value!r}")


@contextlib.contextmanager
def writing(path):
    """Raise an OSError in the block as an OutputError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc
