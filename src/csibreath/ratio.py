"""Cross-subcarrier CSI ratios and the band-ratio quality metric.

Dividing the CSI at one subcarrier by the CSI at another cancels every
impairment that is common to both: the carrier phase walk drops out exactly,
sampling-clock slope reduces to a constant offset (it scales with the
physical index difference), and perfectly correlated impulse amplitudes
cancel sample-by-sample. What survives is a ratio of two circles in the
complex plane that still carries the respiration motion.

Ratios are formed from the rows of a ``CsiTrace`` matrix, usually after
``average_phase_blocks`` has averaged the packets of a trace in blocks.
Every ratio of the package guards its denominator the same way, through
``GuardTable.divide``: a near-zero denominator sample is flagged and its
quotient interpolated from its neighbours, and a row with too many flagged
samples is rejected. It divides whole batches at once, one numerator over
many rows or many numerators over one row.

The quality metric is the band ratio: spectral energy in the respiration
band over the energy above it. One zero-padded FFT per row gives the bins up
to the band's top edge (51 of 512 for 100 samples at 10 Hz), and Parseval's
theorem gives the energy above them from the time-domain energy of the
windowed row, so the bins above the band are never summed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    SingularRatioError,
    StreamGuardError,
)
from .simulate import CsiTrace

# Respiration band: 10.02 to 30 breaths per minute.
BAND_LOW_HZ = 0.167
BAND_HIGH_HZ = 0.5

# Fraction of flagged denominator samples above which a stream is rejected.
MAX_GUARDED_FRACTION = 0.10

# Out-of-band energy below this fraction of total is indistinguishable from
# windowing leakage; the band ratio is then reported as infinite.
LEAKAGE_FLOOR_FRACTION = 1e-6


# ----------------------------------------------------------------------------
# Ratio construction
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class CscrStream:
    """A cross-subcarrier ratio series.

    ``numerator`` is a tuple of (complex weight, subcarrier index) pairs; a
    plain two-subcarrier ratio has the single entry ((1+0j, m1),).
    ``interpolated`` marks samples whose denominator failed the guard and
    were filled by linear interpolation.
    """

    values: np.ndarray
    sample_rate_hz: float
    numerator: tuple[tuple[complex, int], ...]
    denominator: int
    interpolated: np.ndarray


@dataclass(frozen=True)
class StreamStack:
    """Ratio streams of one numerator over several denominator rows, one
    row per stream; ``interpolated`` is as in ``CscrStream``."""

    values: np.ndarray         # complex, (streams, samples)
    sample_rate_hz: float
    denominators: np.ndarray   # int, one per stream
    interpolated: np.ndarray   # bool, (streams, samples)

    def __len__(self) -> int:
        return len(self.denominators)


@dataclass(frozen=True)
class GuardTable:
    """Denominator guard status of every row of a CSI matrix.

    A sample is flagged when its magnitude is at most ``guard_rel`` times the
    median magnitude of its row. A row is rejected when it is flagged
    throughout or when more than ``max_flagged`` of it is flagged. Built once
    per matrix with ``guard_table``, so many ratios over the same rows share
    one median per row. ``divide`` is the one guarded division of the
    package; ``ratio`` and ``guarded_ratio`` are its one-row case.
    """

    flagged: np.ndarray    # bool, (rows, samples)
    rejected: np.ndarray   # bool, one per row
    max_flagged: float

    def divide(
        self, numerators: np.ndarray, denominators: np.ndarray, rows: int | np.ndarray
    ) -> np.ndarray:
        """``numerators / denominators``, guarded by the status of ``rows``.

        ``denominators`` must be the table's rows ``rows`` (one row index,
        or an array of them); numerators broadcast against them, so one
        numerator can go over many rows or many numerators over one row.
        In every quotient row whose denominator row has flagged samples,
        those samples are replaced by linear interpolation of the
        surrounding valid ratio samples (edges clamp to the nearest valid
        sample); the rest is the plain quotient. Raises StreamGuardError
        when a row is rejected.
        """
        rejected = np.atleast_1d(rows)[np.atleast_1d(self.rejected[rows])]
        if rejected.size:
            row = rejected[0]
            if self.flagged[row].all():
                raise StreamGuardError("denominator is zero throughout the stream")
            share = np.mean(self.flagged[row])
            raise StreamGuardError(
                f"{share:.1%} of denominator samples failed the guard "
                f"(limit {self.max_flagged:.0%})"
            )
        # a flagged sample may divide by zero; it is overwritten below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = (numerators / denominators).astype(complex, copy=False)
        quotients = values.reshape(-1, values.shape[-1])
        flagged = np.broadcast_to(self.flagged[rows], values.shape).reshape(quotients.shape)
        idx = np.arange(quotients.shape[1])
        for j in np.flatnonzero(flagged.any(axis=1)):
            quotient, bad = quotients[j], flagged[j]
            good = ~bad
            quotient[bad] = np.interp(
                idx[bad], idx[good], quotient[good].real
            ) + 1j * np.interp(idx[bad], idx[good], quotient[good].imag)
        return values

    def ratio(
        self, numerator: np.ndarray, denominator: np.ndarray, row: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``divide`` of one numerator by the table's row ``row``, and the
        mask of its interpolated samples."""
        return self.divide(numerator, denominator, row), self.flagged[row].copy()


def guard_table(
    matrix: np.ndarray,
    guard_rel: float = 1e-9,
    max_flagged: float = MAX_GUARDED_FRACTION,
) -> GuardTable:
    """Guard status of each row of ``matrix`` as a ratio denominator."""
    mag = np.abs(np.atleast_2d(matrix))
    flagged = mag <= guard_rel * np.median(mag, axis=1, keepdims=True)
    rejected = flagged.all(axis=1) | (flagged.mean(axis=1) > max_flagged)
    return GuardTable(flagged, rejected, max_flagged)


def guarded_ratio(
    numerator: np.ndarray,
    denominator: np.ndarray,
    guard_rel: float = 1e-9,
    max_flagged: float = MAX_GUARDED_FRACTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ratio with near-zero denominators interpolated over.

    Samples where |denominator| falls below ``guard_rel`` times the median
    denominator magnitude are flagged and replaced by linear interpolation of
    the surrounding valid ratio samples (edges clamp to the nearest valid
    sample). Raises StreamGuardError when more than ``max_flagged`` of the
    stream is flagged.
    """
    guards = guard_table(denominator, guard_rel, max_flagged)
    return guards.ratio(numerator, denominator, 0)


def cscr(
    trace: CsiTrace,
    numerator_index: int,
    denominator_index: int,
    guard_rel: float = 1e-9,
) -> CscrStream:
    """Ratio of the CSI at two grid positions, one sample per packet."""
    if numerator_index == denominator_index:
        raise ConfigurationError("numerator and denominator subcarriers must differ")
    h = trace.values
    values, bad = guarded_ratio(h[numerator_index], h[denominator_index], guard_rel)
    return CscrStream(
        values=values,
        sample_rate_hz=trace.sample_rate_hz,
        numerator=((1 + 0j, numerator_index),),
        denominator=denominator_index,
        interpolated=bad,
    )


_AVERAGE_ROWS = 32  # rows block-averaged at a time


def unwrap_finite(phase: np.ndarray) -> np.ndarray:
    """``np.unwrap`` along the last axis, stepping over non-finite samples:
    they stay NaN, and the unwrap goes on from the previous finite sample,
    so one bad packet does not spoil the phase after it. Where every sample
    is finite this is ``np.unwrap``, bit for bit."""
    finite = np.isfinite(phase)
    if finite.all():
        return np.unwrap(phase, axis=-1)
    out = np.full(phase.shape, np.nan)
    for index in np.ndindex(phase.shape[:-1]):
        keep = finite[index]
        out[index][keep] = np.unwrap(phase[index][keep])
    return out


def average_phase_blocks(trace: CsiTrace, block_size: int) -> CsiTrace:
    """Average unwrapped phase (and magnitude) over blocks of ``block_size``.

    Packet-boundary jitter is zero-mean per packet, so block-averaging the
    phase suppresses it by ~1/sqrt(block_size) before ratios are formed.
    The result has floor(K / block_size) packets at ``sample_rate_hz /
    block_size``, each timed at the mean of its block; a trailing partial
    block is dropped. ``block_size`` = 1 returns the input unchanged.
    """
    if block_size < 1:
        raise ConfigurationError("block_size must be >= 1")
    if block_size == 1:
        return trace
    n_blocks = len(trace) // block_size
    if n_blocks == 0:
        raise ConfigurationError("fewer packets than one block")
    h = trace.values[:, : n_blocks * block_size]
    averaged = np.empty((h.shape[0], n_blocks), dtype=complex)
    # rows unwrap and average independently, so a few at a time give the
    # same bits with temporaries of a few rows instead of the whole matrix
    for first in range(0, h.shape[0], _AVERAGE_ROWS):
        rows = h[first : first + _AVERAGE_ROWS]
        shape = (rows.shape[0], n_blocks, block_size)
        mean_phase = unwrap_finite(np.angle(rows)).reshape(shape).mean(axis=2)
        mean_mag = np.abs(rows).reshape(shape).mean(axis=2)
        averaged[first : first + _AVERAGE_ROWS] = mean_mag * np.exp(1j * mean_phase)
    block_times = trace.times_s[: n_blocks * block_size].reshape(n_blocks, block_size)
    return CsiTrace(
        averaged,
        block_times.mean(axis=1),
        trace.sample_rate_hz / block_size,
        trace.grid,
    )


# ----------------------------------------------------------------------------
# Moebius decomposition of the ratio
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class MobiusDecomposition:
    """Static/dynamic split of a ratio (a z + b) / (c z + d) on |z| = 1.

    In the low-noise regime the split is exact:
        static  = a / c
        dynamic = (b c - a d) / c^2 * 1 / (z + d / c)
    and static + dynamic reconstructs the ratio identically. In the
    high-noise regime the denominator is dominated by its static term, so
        static  = b / d
        dynamic = (a / d) z
    which is a pure circle of radius |a / d|.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    z: np.ndarray
    regime: str
    static_term: complex
    dynamic_term: np.ndarray

    def reconstructed(self) -> np.ndarray:
        return self.static_term + self.dynamic_term


def mobius_decompose(
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    z: np.ndarray,
    regime: str = "low_noise",
    pole_rel_tol: float = 1e-9,
) -> MobiusDecomposition:
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(np.abs(z) - 1.0) > 1e-9):
        raise ConfigurationError("z must lie on the unit circle")
    if regime == "low_noise":
        if c == 0:
            raise SingularRatioError("c = 0: low-noise split undefined")
        pole_distance = np.abs(c * z + d)
        bad = pole_distance < pole_rel_tol * (abs(c) + abs(d))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise SingularRatioError(f"ratio pole at sample k={k}: |c z + d| ~ 0")
        static = a / c
        dynamic = (b * c - a * d) / c**2 / (z + d / c)
    elif regime == "high_noise":
        if d == 0:
            raise SingularRatioError("d = 0: high-noise split undefined")
        static = b / d
        dynamic = (a / d) * z
    else:
        raise ConfigurationError(f"unknown regime {regime!r}")
    return MobiusDecomposition(
        a=a, b=b, c=c, d=d, z=z, regime=regime,
        static_term=static, dynamic_term=dynamic,
    )


def ratio_phase_split(decomposition: MobiusDecomposition) -> np.ndarray:
    """angle(static) - angle(dynamic) per sample for a decomposed ratio."""
    if np.any(decomposition.dynamic_term == 0):
        raise SingularRatioError("dynamic term vanishes; phase split undefined")
    return np.angle(decomposition.static_term) - np.angle(decomposition.dynamic_term)


def dynamic_amplitude_low_noise(
    static_amp_1: float,
    dynamic_amp_1: float,
    static_amp_2: float,
    dynamic_amp_2: float,
    path_offset_m: float,
    wavelength_1_m: float,
    wavelength_2_m: float,
) -> float:
    """Closed-form dynamic-circle radius of a low-noise two-subcarrier ratio.

    ``path_offset_m`` is the base dynamic path length minus the static path
    length. The radius grows with the wavelength (frequency) separation of
    the pair, which is why distant subcarrier pairs carry a stronger motion
    signal.
    """
    den = abs(static_amp_2**2 - dynamic_amp_2**2)
    if den == 0:
        raise SingularRatioError("equal static and dynamic amplitudes: radius undefined")
    beat = (wavelength_1_m - wavelength_2_m) / (wavelength_1_m * wavelength_2_m)
    num = abs(
        static_amp_1 * dynamic_amp_2 * np.exp(-2j * np.pi * path_offset_m * beat)
        - dynamic_amp_1 * static_amp_2
    )
    return num / den


# ----------------------------------------------------------------------------
# Band-ratio quality metric
# ----------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _band_bins(n: int, sample_rate_hz: float) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """nfft, the Hann window, the bins with |f| <= ``BAND_HIGH_HZ`` in
    ascending order, and which of those bins lie in the respiration band."""
    nfft = 1 << int(np.ceil(np.log2(4 * n)))
    freq = np.abs(np.fft.fftfreq(nfft, d=1.0 / sample_rate_hz))
    low = np.flatnonzero(freq <= BAND_HIGH_HZ)
    in_band = freq[low] >= BAND_LOW_HZ
    window = np.hanning(n)
    for array in (window, low, in_band):
        array.setflags(write=False)
    return nfft, window, low, in_band


def band_spectrum(
    series: np.ndarray, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Windowed rows of ``series`` and their spectrum up to the band's top.

    Rows are mean-removed, Hann-windowed, and zero-padded to ``nfft``, the
    next power of two at least 4x the row length. Band membership is decided
    by |f|: the respiration band is [0.167, 0.5] Hz, out-of-band is
    everything above 0.5 Hz up to Nyquist, and the DC bin is excluded from
    both. Only the low bins (|f| <= 0.5 Hz) of the FFT are kept; by Parseval
    the energy above them is ``nfft`` times the windowed rows' energy minus
    the low bins' energy. Returns the (rows, n) windowed rows, their
    (rows, low bins) spectrum, the in-band mask over the low bins, and nfft.
    """
    x = np.ascontiguousarray(np.atleast_2d(series))
    n = x.shape[1]
    if n < 2:
        raise ConfigurationError("series too short for a spectrum")
    nfft, window, low, in_band = _band_bins(n, float(sample_rate_hz))
    windowed = (x - x.mean(axis=1, keepdims=True)) * window
    spectrum = np.fft.fft(windowed, n=nfft, axis=1)
    # a column gather comes back column-major, and summing that along rows
    # adds in a different order than the pairwise sum of one row
    return windowed, np.ascontiguousarray(spectrum[:, low]), in_band, nfft


def band_energies(
    series: np.ndarray, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """In-band and out-of-band spectral energy for each row of ``series``,
    over the bins of ``band_spectrum``.

    The out-of-band energy is the total (Parseval, in the time domain) minus
    the low bins, floored at 0 against rounding. Its rounding error
    therefore scales with the row's total windowed energy, not with the
    out-of-band energy itself: a few ulps of the total, which is a large
    share of a tiny out-of-band energy on a row the low bins dominate. Each
    row's energies are bit-identical to those of the row scored alone, so a
    score does not depend on the batch it is computed in.
    """
    windowed, low, in_band, nfft = band_spectrum(series, sample_rate_hz)
    power = np.abs(low) ** 2
    total = nfft * (np.abs(windowed) ** 2).sum(axis=1)
    return (
        np.ascontiguousarray(power[:, in_band]).sum(axis=1),  # as in band_spectrum
        np.maximum(total - power.sum(axis=1), 0.0),
    )


def band_grams(
    series: np.ndarray, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """In-band and out-of-band Gram matrices of the spectra of the rows of
    ``series``, over the bins of ``band_spectrum``.

    Entry (i, j) is the real part of sum X_i conj(X_j) over the band's bins;
    the diagonal holds the energies ``band_energies`` reports, up to
    rounding and its floor at 0. The out-of-band Gram is the whole spectrum's (Parseval: nfft
    times the windowed rows' Gram) minus that of the low bins.
    """
    windowed, low, in_band, nfft = band_spectrum(series, sample_rate_hz)
    return _gram(low[:, in_band]), nfft * _gram(windowed) - _gram(low)


def _gram(rows: np.ndarray) -> np.ndarray:
    """Real part of the Gram matrix of the rows of ``rows``."""
    return np.sum(rows[:, None, :] * rows[None, :, :].conj(), axis=2).real


def ssnr_values(
    series: np.ndarray,
    sample_rate_hz: float,
    leakage_floor: float = LEAKAGE_FLOOR_FRACTION,
) -> np.ndarray:
    """Vectorized band ratios for each row; inf at the leakage floor, 0 for
    all-zero rows."""
    return _band_ratios(*band_energies(series, sample_rate_hz), leakage_floor)


def _band_ratios(band: np.ndarray, out: np.ndarray, leakage_floor: float) -> np.ndarray:
    total = band + out
    values = np.divide(band, out, out=np.full_like(band, np.inf), where=out > 0)
    values[out < leakage_floor * total] = np.inf
    values[total == 0.0] = 0.0
    return values
