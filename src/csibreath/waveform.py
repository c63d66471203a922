"""Projection of the complex combined signal onto its best real axis, plus
outlier rejection and polynomial smoothing of the resulting waveform.

The projection angle is what removes the classic blind spots: wherever the
amplitude of the ratio barely moves, its phase does (and vice versa), so some
axis cos(theta) * Re + sin(theta) * Im always carries the motion. The angle
is chosen by maximizing the respiration-band ratio on a 360-point grid and
then refined with a golden-section pass around the best grid point.

The Hampel filter takes the medians of all its full windows in two
vectorised ``np.median`` calls. The Savitzky-Golay smoother is plain numpy
and equals ``scipy.signal.savgol_filter(mode="interp")`` bit for bit, except
for near-degenerate fits (polyorder close to the window length), where the
two agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .ratio import band_energies, ssnr_values

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ProjectedWaveform:
    series: np.ndarray
    angle_rad: float
    band_ratio: float
    infinite: bool = False


def _projections(values: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Real projections of a complex series at each angle, shape (A, K)."""
    return np.outer(np.cos(angles), values.real) + np.outer(
        np.sin(angles), values.imag
    )


def project(values: np.ndarray, sample_rate_hz: float) -> ProjectedWaveform:
    """Pick the projection angle with the best respiration-band ratio.

    Ties on the coarse grid go to the smaller angle. When projections sit at
    the leakage floor (no real out-of-band energy at any angle), the angle
    maximizing in-band energy is returned with the infinite flag set.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size < 4:
        raise ConfigurationError("projection expects a 1-D series of length >= 4")
    grid = np.arange(360) * (2.0 * np.pi / 360.0)
    projected = _projections(values, grid)
    ratios = ssnr_values(projected, sample_rate_hz)

    if np.isinf(ratios).any():
        band, _ = band_energies(projected, sample_rate_hz)
        band = np.where(np.isinf(ratios), band, -np.inf)
        best = int(np.argmax(band))
        series = projected[best]
        return ProjectedWaveform(
            series=series, angle_rad=float(grid[best]),
            band_ratio=float("inf"), infinite=True,
        )

    best = int(np.argmax(ratios))  # argmax takes the first (smallest) angle on ties

    def ratio_at(theta: float) -> float:
        series = np.cos(theta) * values.real + np.sin(theta) * values.imag
        return float(ssnr_values(series[None, :], sample_rate_hz)[0])

    step = 2.0 * np.pi / 360.0
    lo, hi = grid[best] - step, grid[best] + step
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = ratio_at(x1), ratio_at(x2)
    for _ in range(40):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = ratio_at(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = ratio_at(x1)
    theta = (x1 if f1 >= f2 else x2) % (2.0 * np.pi)
    final = float(max(f1, f2))
    if final < ratios[best]:  # refinement never beats the grid point: keep it
        theta, final = float(grid[best]), float(ratios[best])
    series = np.cos(theta) * values.real + np.sin(theta) * values.imag
    return ProjectedWaveform(series=series, angle_rad=theta, band_ratio=final)


def hampel(
    series: np.ndarray, half_width: int, threshold: float = 3.0
) -> tuple[np.ndarray, int]:
    """Sliding-median outlier rejection.

    A sample is replaced by the median of its window (half-width samples on
    each side, truncated at the edges) when it deviates from that median by
    more than ``threshold`` * 1.4826 * MAD. With a locally constant window
    (MAD = 0) any deviation at all is an outlier. Returns the filtered
    series and the replacement count.
    """
    if half_width < 1:
        raise ConfigurationError("hampel half_width must be >= 1")
    if threshold < 0:
        raise ConfigurationError("hampel threshold must be non-negative")
    x = np.asarray(series, dtype=float)
    n = x.size
    width = 2 * half_width + 1
    med = np.empty(n)
    mad = np.empty(n)
    if n >= width:  # samples with a full window, all at once
        windows = sliding_window_view(x, width)
        full = slice(half_width, n - half_width)
        med[full] = np.median(windows, axis=1)
        mad[full] = np.median(np.abs(windows - med[full, None]), axis=1)
        truncated = [*range(half_width), *range(n - half_width, n)]
    else:
        truncated = range(n)
    for k in truncated:
        window = x[max(0, k - half_width) : k + half_width + 1]
        med[k] = np.median(window)
        mad[k] = np.median(np.abs(window - med[k]))
    outliers = np.abs(x - med) > threshold * 1.4826 * mad
    return np.where(outliers, med, x), int(outliers.sum())


def savitzky_golay(series: np.ndarray, window_length: int, polyorder: int) -> np.ndarray:
    """Least-squares polynomial smoothing (edges via polynomial fit).

    Each interior sample is the value at the window centre of the
    degree-``polyorder`` least-squares polynomial through its
    ``window_length`` samples, a fixed linear filter. The first and last
    ``window_length // 2`` samples take the polynomial fitted to the first
    or last ``window_length`` samples instead (scipy's ``mode="interp"``).
    """
    if window_length % 2 == 0 or window_length < 3:
        raise ConfigurationError("window_length must be odd and >= 3")
    if polyorder < 0:
        raise ConfigurationError("polyorder must be >= 0")
    if polyorder >= window_length:
        raise ConfigurationError("polyorder must be smaller than window_length")
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < window_length:
        raise ConfigurationError("series shorter than the smoothing window")
    half = window_length // 2
    # filter taps: row 0 of the pseudo-inverse of the Vandermonde matrix on
    # the offsets half, ..., -half (convolution order)
    offsets = np.arange(half, -half - 1, -1, dtype=float)
    vander = offsets ** np.arange(polyorder + 1, dtype=float)[:, None]
    unit = np.zeros(polyorder + 1)
    unit[0] = 1.0
    taps = np.linalg.lstsq(
        vander, unit, rcond=np.finfo(float).eps * window_length
    )[0]
    # the interior sums run in the order of scipy.ndimage.convolve1d, which
    # pairs mirrored samples when the taps are symmetric to within eps
    shifted = [x[half + j : n - half + j] for j in range(-half, half + 1)]
    if np.all(np.abs(taps[half + 1 :] - taps[half - 1 :: -1]) <= np.finfo(float).eps):
        acc = shifted[half] * taps[half]
        for j in range(half, 0, -1):  # outermost pair first
            acc = acc + (shifted[half - j] + shifted[half + j]) * taps[half + j]
    else:
        acc = shifted[2 * half] * taps[0]
        for k in range(2 * half):
            acc = acc + shifted[k] * taps[2 * half - k]
    out = np.empty(n)
    out[half : n - half] = acc
    positions = np.arange(window_length, dtype=float)
    out[:half] = _polyfit_eval(positions, x[:window_length], polyorder, positions[:half])
    out[n - half :] = _polyfit_eval(
        positions, x[n - window_length :], polyorder, positions[window_length - half :]
    )
    return out


def _polyfit_eval(
    t: np.ndarray, y: np.ndarray, degree: int, at: np.ndarray
) -> np.ndarray:
    """Least-squares polynomial through (t, y), evaluated at ``at``.

    The Vandermonde columns are scaled to unit norm before the solve, as
    ``np.polyfit`` does, and the polynomial is evaluated by Horner's rule.
    """
    powers = np.arange(degree, -1, -1, dtype=float)
    lhs = t[:, None] ** powers
    scale = np.sqrt(np.sum(lhs * lhs, axis=0))
    coeffs = np.linalg.lstsq(
        lhs / scale, y, rcond=t.size * np.finfo(float).eps
    )[0] / scale
    values = np.zeros_like(at)
    for c in coeffs:
        values = values * at + c
    return values


def clean(
    series: np.ndarray,
    sample_rate_hz: float,
    hampel_half_width: int | None = None,
    hampel_threshold: float = 3.0,
    sg_window: int | None = None,
    sg_polyorder: int = 3,
) -> tuple[np.ndarray, int]:
    """Hampel then Savitzky-Golay with rate-derived default window sizes.

    Defaults: hampel half-width floor(0.5 * F_s) and a smoothing window of
    the next odd integer >= F_s (about one second).
    """
    if hampel_half_width is None:
        hampel_half_width = max(1, int(0.5 * sample_rate_hz))
    if sg_window is None:
        sg_window = int(math.ceil(sample_rate_hz))
        if sg_window % 2 == 0:
            sg_window += 1
    sg_window = max(sg_window, sg_polyorder + 1 + (sg_polyorder % 2))
    if sg_window % 2 == 0:
        sg_window += 1
    despiked, replaced = hampel(series, hampel_half_width, hampel_threshold)
    return savitzky_golay(despiked, sg_window, sg_polyorder), replaced
