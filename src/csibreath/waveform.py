"""Projection of the complex combined signal onto its best real axis, plus
outlier rejection and polynomial smoothing of the resulting waveform.

The projection angle is what removes the classic blind spots: wherever the
amplitude of the ratio barely moves, its phase does (and vice versa), so some
axis cos(theta) * Re + sin(theta) * Im always carries the motion. The band
energies of that projection are quadratic forms in (cos theta, sin theta)
over the 2x2 in-band and out-of-band Gram matrices of the spectra of Re and
Im, so the axis with the best respiration-band ratio is their top
generalized eigenvector: ``ratio.max_snr``, the solver the subcarrier search
uses too. ``ratio.band_grams`` gives both Gram matrices from one 2-row FFT,
with the band split ``ratio.band_energies`` makes.

The Hampel filter takes the medians of all its full windows in two
vectorised ``ratio.median`` calls (``np.median`` bit for bit, without
``numpy.ma``). The Savitzky-Golay smoother is plain numpy
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
from .ratio import LEAKAGE_FLOOR_FRACTION, band_grams, max_snr, median, ssnr_values

# how far inside the end of an open arc of leakage-floor angles a projection
# is taken, as a fraction of the arc's half-width
_FLOOR_ARC_MARGIN = 1e-3

# ``clean``'s filters: a Hampel filter of half-width 0.5 s and threshold 3,
# then a cubic Savitzky-Golay smoother over about one second
HAMPEL_HALF_WIDTH_S = 0.5
HAMPEL_THRESHOLD = 3.0
SG_WINDOW_S = 1.0
SG_POLYORDER = 3


@dataclass(frozen=True)
class ProjectedWaveform:
    series: np.ndarray
    angle_rad: float
    band_ratio: float
    infinite: bool = False


def _harmonics(gram: np.ndarray) -> tuple[float, float, float]:
    """(g0, g1, g2) with u' G u = g0 + g1 cos(phi) + g2 sin(phi), for the
    2x2 Gram matrix G, u = (cos theta, sin theta) and phi = 2 theta."""
    return (
        (gram[0, 0] + gram[1, 1]) / 2.0,
        (gram[0, 0] - gram[1, 1]) / 2.0,
        gram[0, 1],
    )


def _best_at_floor(a: tuple[float, float, float], c: tuple[float, float, float]) -> float:
    """phi with the largest a(phi) among the angles where c(phi) < 0.

    Those angles form one open arc around the minimum of c. The maximum of
    a is returned when it lies inside the arc; otherwise the arc's end
    nearest it, moved inside by a small fraction of the half-width.
    """
    size = math.hypot(c[1], c[2])
    centre = math.atan2(-c[2], -c[1])
    half = math.acos(max(-1.0, c[0] / size)) if size > 0 else math.pi
    peak = math.atan2(a[2], a[1])
    offset = math.remainder(peak - centre, 2.0 * math.pi)
    if abs(offset) < half:
        return peak
    return centre + math.copysign(half * (1.0 - _FLOOR_ARC_MARGIN), offset)


def project(values: np.ndarray, sample_rate_hz: float) -> ProjectedWaveform:
    """Project onto the real axis with the best respiration-band ratio.

    The angle lies in [0, pi): the ratio has period pi. When some
    projections sit at the leakage floor (out-of-band energy below
    ``LEAKAGE_FLOOR_FRACTION`` of the total, a band ratio of inf), the one
    of them with the most in-band energy is returned. ``band_ratio`` is
    ``ssnr_values`` of the returned series, and ``infinite`` says whether it
    is inf.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size < 4:
        raise ConfigurationError("projection expects a 1-D series of length >= 4")
    band_gram, out_gram = band_grams(np.stack([values.real, values.imag]), sample_rate_hz)
    band, out = _harmonics(band_gram.real), _harmonics(out_gram.real)
    # out-of-band energy above the floor's share of the total: negative
    # exactly for the projections at the leakage floor
    headroom = tuple(
        o - LEAKAGE_FLOOR_FRACTION * (i + o) for i, o in zip(band, out)
    )
    if headroom[0] < math.hypot(headroom[1], headroom[2]):
        theta = _best_at_floor(band, headroom) / 2.0
    else:
        axis = max_snr(band_gram.real, out_gram.real)
        theta = 0.0 if axis is None else math.atan2(axis[1], axis[0])
    theta %= math.pi
    if theta == math.pi:  # theta was a hair below a multiple of pi
        theta = 0.0
    series = np.cos(theta) * values.real + np.sin(theta) * values.imag
    ratio = float(ssnr_values(series[None, :], sample_rate_hz)[0])
    return ProjectedWaveform(
        series=series, angle_rad=theta, band_ratio=ratio, infinite=math.isinf(ratio)
    )


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
    if n >= width:  # the full windows at once, then the truncated ones as a left and
        # a right row of each length: a row partitions as it would alone
        groups = [(sliding_window_view(x, width), slice(half_width, n - half_width))] + [
            (np.stack([x[:size], x[n - size :]]), [size - half_width - 1, n - size + half_width])
            for size in range(half_width + 1, width)
        ]
    else:
        groups = [(x[None, max(0, k - half_width) : k + half_width + 1], [k]) for k in range(n)]
    for windows, k in groups:
        med[k] = median(windows, axis=1)
        mad[k] = median(np.abs(windows - med[k, None]), axis=1)
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


def clean(series: np.ndarray, sample_rate_hz: float) -> tuple[np.ndarray, int]:
    """Hampel then Savitzky-Golay, with windows set by the sample rate.

    The Hampel half-width is floor(HAMPEL_HALF_WIDTH_S * F_s) samples (at
    least 1), and the smoothing window the next odd integer >= SG_WINDOW_S *
    F_s, widened to fit a polynomial of order SG_POLYORDER. Returns the
    cleaned series and the Hampel replacement count.
    """
    half_width = max(1, int(HAMPEL_HALF_WIDTH_S * sample_rate_hz))
    sg_window = max(int(math.ceil(SG_WINDOW_S * sample_rate_hz)), SG_POLYORDER + 2)
    sg_window += 1 - sg_window % 2
    despiked, replaced = hampel(series, half_width, HAMPEL_THRESHOLD)
    return savitzky_golay(despiked, sg_window, SG_POLYORDER), replaced
