"""Gain/rotation alignment and weighted summation of ratio streams.

Every stream carries the same chest motion but with its own static offset,
amplitude scale, and rotation in the complex plane. Alignment removes the
offset (Q), divides by a sliding-window gain estimate (V = Q / G), and
rotates each stream onto the best one before a quality-weighted sum, which
a centered moving average then smooths at the streams' own rate. Streams
whose band ratio falls below a fraction mu (a constant 0.5 in the pipeline)
of the best stream's are dropped; the best stream itself always survives
(the threshold is inclusive).

A window's streams travel as arrays, one row per stream: ``StreamStack``
from the fan-out, ``AlignedStack`` from alignment. Alignment and summation
run on all rows at once. The primitives ``remove_offset`` and
``stream_gain`` work along the last axis, so one stream and a stack go
through the same code, and each row of a stack equals its stream alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .ratio import StreamStack, ssnr_values

logger = logging.getLogger(__name__)

# Streams at the leakage floor report an infinite band ratio; cap it so the
# weighted sum stays finite (the cap only matters in near-noise-free runs
# where every surviving stream saturates anyway).
INFINITE_WEIGHT_CAP = 1e12

# Window lengths in seconds, converted to samples at the streams' own rate:
# the sliding mean behind each stream's gain G, and the moving average of
# the combined sum.
GAIN_WINDOW_S = 0.5
SMOOTHING_S = 0.33


@dataclass(frozen=True)
class AlignedStack:
    """The streams ``align_streams`` keeps, one row each, with their
    alignment byproducts."""

    denominators: np.ndarray         # int, one per stream
    offset_removed: np.ndarray       # Q: values minus their mean
    gains: np.ndarray                # G: max sliding-window mean magnitude
    normalized: np.ndarray           # V: Q divided by the gain
    band_ratios: np.ndarray          # beta
    rotations: np.ndarray            # Theta, radians onto the reference
    sample_rate_hz: float

    def __len__(self) -> int:
        return len(self.denominators)


@dataclass(frozen=True)
class CombinedSignal:
    values: np.ndarray               # weighted aligned sum
    smoothed: np.ndarray             # after the moving average
    sample_rate_hz: float
    reference_denominator: int
    contributing: int
    weights: np.ndarray              # gamma of each aligned stream, 0 if dropped


def remove_offset(values: np.ndarray) -> np.ndarray:
    """Subtract the mean along the last axis, so only the motion-driven
    excursion of each stream remains."""
    values = np.asarray(values)
    return values - values.mean(axis=-1, keepdims=True)


def stream_gain(offset_removed: np.ndarray, gain_window: int) -> float | np.ndarray:
    """Largest magnitude of the sliding ``gain_window``-sample mean along the
    last axis: a float for one stream, an array for a stack of them.

    Windows shorter than ``gain_window`` (series shorter than the window)
    fall back to the full-series mean magnitude.
    """
    if gain_window < 1:
        raise ConfigurationError("gain window must be >= 1")
    q = np.asarray(offset_removed)
    if q.shape[-1] < gain_window:
        gains = np.abs(q.mean(axis=-1))
    else:
        zero = np.zeros(q.shape[:-1] + (1,), dtype=complex)
        csum = np.cumsum(np.concatenate([zero, q], axis=-1), axis=-1)
        means = (csum[..., gain_window:] - csum[..., :-gain_window]) / gain_window
        gains = np.max(np.abs(means), axis=-1)
    return float(gains) if gains.ndim == 0 else gains


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Smooth a series over ``window`` samples: centered, length-preserving,
    edges averaged over the samples actually available."""
    if window < 1:
        raise ConfigurationError("smoothing window must be >= 1")
    v = np.asarray(values)
    if window == 1:
        return v.copy()
    kernel = np.ones(window)
    summed = np.convolve(v, kernel, mode="same")
    counts = np.convolve(np.ones(v.size), kernel, mode="same")
    return summed / counts


def align_streams(streams: StreamStack, gain_window: int) -> AlignedStack:
    """Offset-remove, gain-normalize, and rotate streams onto the best one.

    The reference is the stream with the highest band ratio. V = Q / G
    equalizes the stream excursions. Streams with zero gain or an undefined
    rotation are dropped with a log record. Every step runs once on the
    whole stack; each row equals the stream aligned alone.
    """
    if not len(streams):
        raise ConfigurationError("no streams to align")
    betas = ssnr_values(streams.values, streams.sample_rate_hz)
    offset_removed = remove_offset(streams.values)
    gains = stream_gain(offset_removed, gain_window)
    for i in np.flatnonzero(gains == 0.0):
        logger.warning("dropping constant stream (denominator %d)", streams.denominators[i])
    live = np.flatnonzero(gains != 0.0)
    if not live.size:
        raise ConfigurationError("every stream was degenerate")
    normalized = offset_removed[live] / gains[live, None]

    reference = int(np.argmax(betas[live]))  # band ratios are never NaN
    # the rotation minimizing sum |reference - row * exp(j theta)|^2 is the
    # angle of <reference, row>, undefined when that is zero
    inner = np.sum(normalized[reference] * np.conj(normalized), axis=-1)
    rotations = np.angle(inner)
    rotations[reference] = 0.0
    alignable = inner != 0
    alignable[reference] = True
    for i in live[~alignable]:
        logger.warning("dropping unalignable stream (denominator %d)", streams.denominators[i])
    kept = live[alignable]
    return AlignedStack(
        denominators=streams.denominators[kept],
        offset_removed=offset_removed[kept],
        gains=gains[kept],
        normalized=normalized[alignable],
        band_ratios=betas[kept],
        rotations=rotations[alignable],
        sample_rate_hz=streams.sample_rate_hz,
    )


def combine(
    aligned: AlignedStack, smoothing_window: int, mu: float = 0.5
) -> CombinedSignal:
    """Quality-weighted sum of aligned streams plus a moving average.

    A stream survives when its band ratio is at least ``mu`` times the best
    stream's (inclusive, so the best stream always contributes). Surviving
    streams are weighted by their band ratio. The pipeline keeps the default
    0.5: no cut (0) moved no row of a paired check at p < 0.05 (README).
    """
    if not len(aligned):
        raise ConfigurationError("no aligned streams to combine")
    if not 0.0 <= mu <= 1.0:
        raise ConfigurationError("mu must lie in [0, 1]")
    capped = np.minimum(aligned.band_ratios, INFINITE_WEIGHT_CAP)
    survivors = capped >= mu * capped.max()
    kept = np.flatnonzero(survivors)
    phasors = np.exp(1j * aligned.rotations[kept])
    weighted = capped[kept, None] * aligned.normalized[kept] * phasors[:, None]
    # an axis-0 sum of rows adds them one after another, as a loop would
    total = weighted.sum(axis=0, initial=0.0)
    return CombinedSignal(
        values=total,
        smoothed=moving_average(total, smoothing_window),
        sample_rate_hz=aligned.sample_rate_hz,
        reference_denominator=int(aligned.denominators[np.argmax(aligned.band_ratios)]),
        contributing=int(kept.size),
        weights=np.where(survivors, capped, 0.0),
    )
