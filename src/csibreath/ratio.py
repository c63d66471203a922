"""Cross-subcarrier CSI ratios and the band-ratio quality metric.

Dividing the CSI at one subcarrier by the CSI at another cancels every
impairment that is common to both: the carrier phase walk drops out exactly,
sampling-clock slope reduces to a constant offset (it scales with the
physical index difference), and perfectly correlated impulse amplitudes
cancel sample-by-sample. What survives is a ratio of two circles in the
complex plane that still carries the respiration motion.

Ratios are formed from the rows of a ``trace.CsiTrace`` matrix, usually
after ``average_phase_blocks`` has averaged the packets of a trace in
blocks, each block a function of its own packets alone (its phase unwraps
within it). Every ratio of the package guards its denominator the same way,
through ``GuardTable.divide``: a near-zero denominator sample is flagged and
its quotient interpolated from its neighbours, and a row with too many
flagged samples is rejected. It divides whole batches at once, one numerator
over many rows or many numerators over one row.

The quality metric is the band ratio: spectral energy in the respiration
band over the energy above it. A product with a cached DFT matrix gives each
row's zero-padded spectrum at the bins up to the band's top edge alone (51
of 512 for 100 samples at 10 Hz), and Parseval's theorem gives the energy
above them from the time-domain energy of the windowed row, so the bins
above the band are never computed. Every matrix product here, of the DFT
matrix and of the Gram matrices, is a ``blas_product``: BLAS calls small
enough to run on one thread, whose bits depend neither on the BLAS thread
count nor on the rows beside a row. So a row's spectrum has the same bits in
any batch. The phase block averaging runs over blocks of
``trace.BLOCK_ROWS`` rows, so it holds only a few rows' temporaries.

The weights of the sum of rows with the best band ratio are the top
generalized eigenvector of the rows' ``band_grams``; ``max_snr`` finds it for
both the subcarrier search (``gass``) and the projection angle (``waveform``).

``median`` is the package's one median: ``np.median`` bit for bit, for the
guard table, the Hampel filter and the blind-spot sweep's per-position
rate, without importing ``numpy.ma``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.fft import fftfreq

from .errors import (
    ConfigurationError,
    SingularRatioError,
    StreamGuardError,
)
from .trace import BLOCK_ROWS, CsiTrace

# Respiration band: 10.02 to 30 breaths per minute.
BAND_LOW_HZ = 0.167
BAND_HIGH_HZ = 0.5

# A denominator sample is flagged when its magnitude is at most GUARD_REL
# times its row's median magnitude; a row with more than
# MAX_GUARDED_FRACTION of its samples flagged is rejected.
GUARD_REL = 1e-9
MAX_GUARDED_FRACTION = 0.10

# Out-of-band energy below this fraction of total is indistinguishable from
# windowing leakage; the band ratio is then reported as infinite.
LEAKAGE_FLOOR_FRACTION = 1e-6

# The block of one BLAS call in ``blas_product``: rows x terms x columns,
# 57344 multiply-adds. OpenBLAS 0.3.31 ran complex products of up to 61200
# on one thread. It split those of 65536 over its threads, which changed
# their bits and, beside a second busy pool worker, made them up to 10x
# slower. Blocks of 2 to 8 rows gave a row the same bits.
_PRODUCT_ROWS = 8
_PRODUCT_TERMS = 128
_PRODUCT_COLUMNS = 56


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

    A sample is flagged when its magnitude is at most ``GUARD_REL`` times
    the median magnitude of its row. A row is rejected when it is flagged
    throughout or when more than ``MAX_GUARDED_FRACTION`` of it is flagged.
    Built once per matrix with ``guard_table``, so many ratios over the same
    rows share one median per row. ``divide`` is the one guarded division of
    the package; ``guarded_ratio`` is its one-row case.
    """

    flagged: np.ndarray    # bool, (rows, samples)
    rejected: np.ndarray   # bool, one per row

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
                f"(limit {MAX_GUARDED_FRACTION:.0%})"
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


def median(values: np.ndarray, axis: int = -1) -> np.ndarray | np.floating:
    """``np.median(values, axis=axis)``, bit for bit, for values with at
    least one entry along ``axis``.

    It is the same computation: one ``np.partition`` at the middle one or
    two positions and the last, the ``np.mean`` of the middle values, and
    NaN where the last partitioned value (the largest, or a NaN) is NaN.
    ``np.median`` makes that NaN check through ``numpy.ma``, whose first
    import costs each process over a megabyte and several milliseconds.
    """
    values = np.asarray(values)
    size = values.shape[axis]
    half = size // 2
    kth = [half - 1, half] if size % 2 == 0 else [half]
    part = np.partition(values, [*kth, -1], axis=axis)
    if axis % values.ndim != values.ndim - 1:
        part = np.moveaxis(part, axis, -1)
    result = np.mean(part[..., kth[0] : half + 1], axis=-1)
    last = part[..., -1]
    nan = np.isnan(last)
    if not nan.any():
        return result
    if isinstance(result, np.generic):
        return last[()]
    np.copyto(result, last, where=nan)
    return result


def guard_table(matrix: np.ndarray) -> GuardTable:
    """Guard status of each row of ``matrix`` as a ratio denominator.

    A row whose smallest magnitude is above ``GUARD_REL`` times its largest
    flags nothing, as its median is at most its largest, so only the other
    rows take a median; so do rows with a NaN, or whose largest magnitude
    doubled overflows (the mean of the two middle ones may then exceed it).
    """
    mag = np.abs(np.atleast_2d(matrix))
    high = mag.max(axis=1)
    suspect = np.flatnonzero(~(mag.min(axis=1) > GUARD_REL * high) | ~np.isfinite(high + high))
    flagged = np.zeros(mag.shape, dtype=bool)
    if suspect.size:
        rows = mag[suspect]
        flagged[suspect] = rows <= GUARD_REL * median(rows, axis=1)[:, None]
    rejected = flagged.all(axis=1) | (flagged.mean(axis=1) > MAX_GUARDED_FRACTION)
    return GuardTable(flagged, rejected)


def guarded_ratio(
    numerator: np.ndarray, denominator: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ratio with near-zero denominators interpolated over.

    Samples where |denominator| is at most ``GUARD_REL`` times the median
    denominator magnitude are flagged and replaced by linear interpolation of
    the surrounding valid ratio samples (edges clamp to the nearest valid
    sample). Raises StreamGuardError when more than ``MAX_GUARDED_FRACTION``
    of the stream is flagged. Returns the ratio and the mask of its
    interpolated samples.
    """
    guards = guard_table(denominator)
    return guards.divide(numerator, denominator, 0), guards.flagged[0].copy()


def cscr(trace: CsiTrace, numerator_index: int, denominator_index: int) -> CscrStream:
    """Ratio of the CSI at two grid positions, one sample per packet."""
    if numerator_index == denominator_index:
        raise ConfigurationError("numerator and denominator subcarriers must differ")
    h = trace.values
    values, bad = guarded_ratio(h[numerator_index], h[denominator_index])
    return CscrStream(
        values=values,
        sample_rate_hz=trace.sample_rate_hz,
        numerator=((1 + 0j, numerator_index),),
        denominator=denominator_index,
        interpolated=bad,
    )


def average_phase_blocks(trace: CsiTrace, block_size: int) -> CsiTrace:
    """Average unwrapped phase (and magnitude) over blocks of ``block_size``.

    Packet-boundary jitter is zero-mean per packet, so block-averaging the
    phase suppresses it by ~1/sqrt(block_size) before ratios are formed.
    Each packet k of a block is first rotated onto the block's first packet
    k0, by the phase of sum_m H_m(k) conj(H_m(k0)) over its finite cells: a
    phase common to every cell of a packet (a carrier phase, however large)
    then cancels before the unwrap, as it does in every ratio, while the
    channel's own rotation across the band cancels inside the sum. The
    rotation is common to every row, so no ratio sees it. Each block unwraps
    its phase within itself, so it is bit for bit the same averaged alone or
    in any longer trace, and a non-finite packet spoils its own block only;
    a whole-trace unwrap would differ from it by 2 pi k per block, which
    ``exp(1j * mean)`` does not see. The result has floor(K / block_size)
    packets at ``sample_rate_hz / block_size``, each timed at the mean of
    its block; a trailing partial block is dropped. ``block_size`` = 1
    returns the input unchanged.
    """
    if block_size < 1:
        raise ConfigurationError("block_size must be >= 1")
    if block_size == 1:
        return trace
    n_blocks = len(trace) // block_size
    if n_blocks == 0:
        raise ConfigurationError("fewer packets than one block")
    h = trace.values[:, : n_blocks * block_size]
    # rows unwrap and average independently, so a few at a time give the
    # same bits with temporaries of a few rows instead of the whole matrix;
    # the rotation's sum over rows is taken first, row by row, so its bits
    # do not depend on the row blocks either
    common = np.zeros((n_blocks, block_size), dtype=complex)
    for first in range(0, h.shape[0], BLOCK_ROWS):
        blocks = h[first : first + BLOCK_ROWS].reshape(-1, n_blocks, block_size)
        products = blocks * blocks[:, :, :1].conj()
        products[~np.isfinite(products)] = 0.0
        for row in products:
            common += row
    turn = np.angle(common)
    averaged = np.empty((h.shape[0], n_blocks), dtype=complex)
    for first in range(0, h.shape[0], BLOCK_ROWS):
        blocks = h[first : first + BLOCK_ROWS].reshape(-1, n_blocks, block_size)
        phase = _unwrap(np.angle(blocks) - turn).mean(axis=2)
        averaged[first : first + BLOCK_ROWS] = np.abs(blocks).mean(axis=2) * np.exp(1j * phase)
    block_times = trace.times_s[: n_blocks * block_size].reshape(n_blocks, block_size)
    return CsiTrace(
        averaged,
        block_times.mean(axis=1),
        trace.sample_rate_hz / block_size,
        trace.grid,
    )


def _unwrap(phase: np.ndarray) -> np.ndarray:
    """``np.unwrap(phase)`` along the last axis, bit for bit. It takes the
    modulo only of the steps that are not inside (-pi, pi), the only ones
    whose correction ``np.unwrap`` keeps."""
    steps = np.diff(phase)
    wrapped = ~(np.abs(steps) < np.pi)
    correction = np.zeros_like(steps)
    if wrapped.any():
        step = steps[wrapped]
        turned = np.mod(step + np.pi, 2 * np.pi) - np.pi
        turned[(turned == -np.pi) & (step > 0)] = np.pi
        correction[wrapped] = turned - step
    unwrapped = phase.copy()
    unwrapped[..., 1:] = phase[..., 1:] + correction.cumsum(axis=-1)
    return unwrapped


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
    """nfft, the Hann window, the (n, low bins) DFT matrix of the bins with
    |f| <= ``BAND_HIGH_HZ`` in ascending order, and which of those bins lie
    in the respiration band. Entry (m, j) of the DFT matrix is exp(-2 pi i
    t / nfft), with t = (m * bin j) mod nfft reduced exactly in integers."""
    nfft = 1 << int(np.ceil(np.log2(4 * n)))
    freq = np.abs(fftfreq(nfft, d=1.0 / sample_rate_hz))
    low = np.flatnonzero(freq <= BAND_HIGH_HZ)
    in_band = freq[low] >= BAND_LOW_HZ
    window = np.hanning(n)
    kernel = np.exp(-2j * np.pi / nfft * (np.outer(np.arange(n), low) % nfft))
    for array in (window, kernel, in_band):
        array.setflags(write=False)
    return nfft, window, kernel, in_band


def band_spectrum(
    series: np.ndarray, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Windowed rows of ``series`` and their spectrum up to the band's top.

    Rows are mean-removed, Hann-windowed, and zero-padded to ``nfft``, the
    next power of two at least 4x the row length. Band membership is decided
    by |f|: the respiration band is [0.167, 0.5] Hz, out-of-band is
    everything above 0.5 Hz up to Nyquist, and the DC bin is excluded from
    both. Only the low bins (|f| <= 0.5 Hz) of the nfft-point DFT are
    computed, as one product with their cached DFT matrix; by Parseval the
    energy above them is ``nfft`` times the windowed rows' energy minus the
    low bins' energy. Returns the (rows, n) windowed rows, their (rows, low
    bins) spectrum, the in-band mask over the low bins, and nfft.

    The product is a ``blas_product``, so a row's spectrum has the same bits
    in any batch and at any BLAS thread count (a fresh-process test pins
    both).
    """
    x = np.ascontiguousarray(np.atleast_2d(series))
    n = x.shape[1]
    if n < 2:
        raise ConfigurationError("series too short for a spectrum")
    nfft, window, kernel, in_band = _band_bins(n, float(sample_rate_hz))
    windowed = (x - x.mean(axis=1, keepdims=True)) * window
    return windowed, blas_product(windowed, kernel), in_band, nfft


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
    # a column gather comes back column-major, and summing that along rows
    # adds in a different order than the pairwise sum of one row; gathered
    # into a row-major array, each row sums as it would alone
    return (
        np.ascontiguousarray(power[:, in_band]).sum(axis=1),
        np.maximum(total - power.sum(axis=1), 0.0),
    )


def band_grams(
    series: np.ndarray, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """In-band and out-of-band Gram matrices of the spectra of the rows of
    ``series``, over the bins of ``band_spectrum``.

    Entry (t, s) is sum conj(X_t) X_s over the band's bins, so the energy
    of sum_t c_t X_t is c^H G c; the diagonal holds the energies
    ``band_energies`` reports, up to rounding and its floor at 0. The
    out-of-band Gram is the whole spectrum's (Parseval: nfft times the
    windowed rows' Gram) minus that of the low bins.
    """
    windowed, low, in_band, nfft = band_spectrum(series, sample_rate_hz)
    return _gram(low[:, in_band]), nfft * _gram(windowed) - _gram(low)


def _gram(rows: np.ndarray) -> np.ndarray:
    """G[t, s] = sum_k conj(rows[t, k]) rows[s, k]."""
    return blas_product(rows.conj(), rows.T)


def blas_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D arrays, in BLAS calls small enough to run on one
    thread: at most ``_PRODUCT_ROWS`` rows of ``a`` by at most
    ``_PRODUCT_COLUMNS`` columns of ``b``, over at most ``_PRODUCT_TERMS``
    terms, the partial sums over the terms added in order. A row of the
    product has the same bits at any BLAS thread count and beside any other
    rows, and a pool worker starts no BLAS thread. A lone row is zero-padded
    to two: numpy multiplies a one-row matrix as a vector, in other bits."""
    rows, terms = a.shape
    product = np.empty((rows, b.shape[1]), dtype=np.result_type(a, b))
    for first in range(0, rows, _PRODUCT_ROWS):
        block = a[first : first + _PRODUCT_ROWS]
        if len(block) == 1:
            block = np.concatenate([block, np.zeros_like(block)])
        for column in range(0, b.shape[1], _PRODUCT_COLUMNS):
            part = b[:, column : column + _PRODUCT_COLUMNS]
            total = block[:, :_PRODUCT_TERMS] @ part[:_PRODUCT_TERMS]
            for term in range(_PRODUCT_TERMS, terms, _PRODUCT_TERMS):
                total += block[:, term : term + _PRODUCT_TERMS] @ part[term : term + _PRODUCT_TERMS]
            out = product[first : first + _PRODUCT_ROWS, column : column + _PRODUCT_COLUMNS]
            out[...] = total[: len(out)]
    return product


def max_snr(band: np.ndarray, out_of_band: np.ndarray) -> np.ndarray | None:
    """The c maximizing c^H A c / c^H B c for the Hermitian ``band`` A and
    ``out_of_band`` B, or None when B is not positive definite.

    This is the max-SNR beamformer (Warsitz and Haeb-Umbach, IEEE TASLP
    2007): the top generalized eigenvector of (A, B), found as the top
    eigenvector of A whitened by the inverse Cholesky factor of B and
    mapped back. Its scale and phase are arbitrary.
    """
    try:
        inverse = np.linalg.inv(np.linalg.cholesky(out_of_band))
        _, vectors = np.linalg.eigh(inverse @ band @ inverse.conj().T)
    except np.linalg.LinAlgError:
        return None
    return inverse.conj().T @ vectors[:, -1]


def ssnr_values(series: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Vectorized band ratios for each row; inf at the leakage floor, 0 for
    all-zero rows."""
    band, out = band_energies(series, sample_rate_hz)
    total = band + out
    values = np.divide(band, out, out=np.full_like(band, np.inf), where=out > 0)
    values[out < LEAKAGE_FLOOR_FRACTION * total] = np.inf
    values[total == 0.0] = 0.0
    return values
