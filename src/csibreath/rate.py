"""Respiration-rate estimation from the autocorrelation of a waveform.

The rate is read off the lag spacing between the zero-lag peak and the first
qualifying peak after it: f_bpm = 60 * F_s / (k_p2 - k_p1). Peak indices are
reported one-based (the zero-lag peak is index 1), lags are handled
zero-based internally. Peaks are found by ``_find_peaks``, plain numpy that
gives the same peaks and prominences as ``scipy.signal.find_peaks`` with
``distance`` and ``prominence``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .errors import ConfigurationError, ZeroVarianceError
from .ratio import BAND_HIGH_HZ, BAND_LOW_HZ

BAND_LOW_BPM = 60.0 * BAND_LOW_HZ    # 10.02
BAND_HIGH_BPM = 60.0 * BAND_HIGH_HZ  # 30.0

MIN_WINDOW_S = 10.0

# A qualifying peak's prominence is at least this fraction of the
# autocorrelation maximum after lag zero.
MIN_PROMINENCE_FRAC = 0.2


@dataclass(frozen=True)
class RespirationEstimate:
    """Rate estimate with the evidence used to produce it.

    ``f_bpm`` is None when the estimate was withheld; ``flags`` then says
    why ("no-peak" or "out-of-band", with the rejected value preserved in
    ``rejected_bpm``).
    """

    f_bpm: float | None
    k_p1: int
    k_p2: int | None
    lag_samples: float | None
    confidence: float
    window_id: int = -1
    flags: tuple[str, ...] = ()
    rejected_bpm: float | None = None


def acf(series: np.ndarray) -> np.ndarray:
    """Biased autocorrelation of a real series, normalized so acf[0] = 1.

    Biased means no 1/(K - lag) correction, so values taper toward long
    lags. Raises ZeroVarianceError for a constant input.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ConfigurationError("acf expects a 1-D series of length >= 2")
    x = x - x.mean()
    energy = float(np.dot(x, x))
    if energy == 0.0:
        raise ZeroVarianceError("constant series has no autocorrelation")
    nfft = 1 << int(np.ceil(np.log2(2 * x.size)))
    spectrum = rfft(x, nfft)
    correlation = irfft(np.abs(spectrum) ** 2, nfft)[: x.size]
    return correlation / energy


def _find_peaks(
    x: np.ndarray, distance: int, prominence: float
) -> tuple[np.ndarray, np.ndarray]:
    """Peak indices and their prominences, in increasing index order.

    A peak is a run of equal samples with a lower sample on each side (so
    never the first or last sample), located at the run's midpoint. Peaks
    closer than ``distance`` to a higher one are dropped, visiting the
    highest first. A peak's prominence is its height above the higher of
    the two minima between it and the nearest higher sample on each side
    (or the signal's end). Peaks with prominence below ``prominence`` are
    dropped last.
    """
    n = x.size
    run_starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    run_ends = np.append(run_starts[1:] - 1, n - 1)
    inner = (run_starts > 0) & (run_ends < n - 1)
    first, last = run_starts[inner], run_ends[inner]
    is_peak = (x[first - 1] < x[first]) & (x[last + 1] < x[last])
    peaks = (first[is_peak] + last[is_peak]) // 2

    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            keep[np.abs(peaks - peaks[j]) < distance] = False
            keep[j] = True
    peaks = peaks[keep]

    prominences = np.empty(peaks.size)
    for i, p in enumerate(peaks):
        # "not <=" rather than ">": a NaN ends the walk too
        higher_left = np.flatnonzero(~(x[:p] <= x[p]))
        higher_right = np.flatnonzero(~(x[p + 1 :] <= x[p]))
        lo = higher_left[-1] + 1 if higher_left.size else 0
        hi = p + 1 + higher_right[0] if higher_right.size else n
        prominences[i] = x[p] - max(x[lo : p + 1].min(), x[p:hi].min())
    qualifying = prominences >= prominence
    return peaks[qualifying], prominences[qualifying]


def _parabolic_refine(r: np.ndarray, peak: int) -> float:
    """Sub-sample peak location from a three-point parabola.

    The biased estimator tapers linearly with lag, dragging the apparent
    peak toward zero; the neighborhood is de-tapered first when safely away
    from the far edge (where the division would amplify noise instead).
    """
    if peak <= 0 or peak >= r.size - 1:
        return float(peak)
    lags = np.array([peak - 1, peak, peak + 1], dtype=float)
    y = r[peak - 1 : peak + 2].astype(float)
    taper = 1.0 - lags / r.size
    if taper[-1] > 0.1:
        y = y / taper
    denom = y[0] - 2.0 * y[1] + y[2]
    if denom >= 0:  # not locally concave; keep the integer lag
        return float(peak)
    return peak + 0.5 * (y[0] - y[2]) / denom


def estimate_rate(
    series: np.ndarray,
    sample_rate_hz: float,
    window_id: int = -1,
) -> RespirationEstimate:
    """Rate from the first qualifying autocorrelation peak after lag zero.

    Qualifying peaks have prominence of at least ``MIN_PROMINENCE_FRAC``
    times the autocorrelation maximum after lag zero and are spaced at least
    F_s / 0.5 samples apart (one minimum respiration period). The estimate
    is withheld when the rate falls outside [10.02, 30] breaths per minute.
    The peak's lag is refined to a sub-sample one (``_parabolic_refine``).
    """
    x = np.asarray(series, dtype=float)
    if x.size < MIN_WINDOW_S * sample_rate_hz:
        raise ConfigurationError(
            f"rate estimation needs at least {MIN_WINDOW_S:.0f} s of samples"
        )
    r = acf(x)
    tail_max = float(r[1:].max())
    no_peak = RespirationEstimate(
        f_bpm=None, k_p1=1, k_p2=None, lag_samples=None, confidence=0.0,
        window_id=window_id, flags=("no-peak",),
    )
    if tail_max <= 0:
        return no_peak
    min_distance = max(1, int(round(sample_rate_hz / BAND_HIGH_HZ)))
    peaks, prominences = _find_peaks(r, min_distance, MIN_PROMINENCE_FRAC * tail_max)
    if peaks.size == 0:
        return no_peak
    lag = int(peaks[0])
    confidence = float(min(1.0, prominences[0]))
    refined = _parabolic_refine(r, lag)
    f_bpm = 60.0 * sample_rate_hz / refined
    if not BAND_LOW_BPM <= f_bpm <= BAND_HIGH_BPM:
        return RespirationEstimate(
            f_bpm=None, k_p1=1, k_p2=lag + 1, lag_samples=refined,
            confidence=confidence, window_id=window_id,
            flags=("out-of-band",), rejected_bpm=f_bpm,
        )
    return RespirationEstimate(
        f_bpm=f_bpm, k_p1=1, k_p2=lag + 1, lag_samples=refined,
        confidence=confidence, window_id=window_id,
    )
