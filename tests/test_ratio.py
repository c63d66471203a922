import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csibreath.errors import (
    ConfigurationError,
    SingularRatioError,
    StreamGuardError,
)
from csibreath.grid import custom_grid, ht_ltf_grid
from csibreath.ratio import (
    average_phase_blocks,
    band_energies,
    band_grams,
    cscr,
    dynamic_amplitude_low_noise,
    guard_table,
    guarded_ratio,
    max_snr,
    median,
    mobius_decompose,
    ssnr_values,
)
from csibreath.simulate import (
    ChannelScenario,
    ImpairmentConfig,
    SinusoidMotion,
    StaticPath,
    apply_impairments,
    generate_ideal_csi,
)
from csibreath.trace import CsiTrace

# ----------------------------------------------------------------------------
# Guarded division
# ----------------------------------------------------------------------------


def test_guarded_ratio_plain_division(rng):
    num = rng.normal(size=20) + 1j * rng.normal(size=20)
    den = rng.normal(size=20) + 1j * rng.normal(size=20) + 3.0
    values, bad = guarded_ratio(num, den)
    np.testing.assert_allclose(values, num / den, rtol=1e-15)
    assert not bad.any()


def test_guarded_ratio_interpolates_flagged_samples():
    num = np.ones(10, dtype=complex)
    den = np.ones(10, dtype=complex)
    den[4] = 1e-15
    num[4] = 123.0  # would explode without the guard
    values, bad = guarded_ratio(num, den)
    assert bad[4] and bad.sum() == 1
    assert np.isclose(values[4], 1.0)  # linear fill between neighbors


def test_guarded_ratio_rejects_gappy_streams():
    num = np.ones(20, dtype=complex)
    den = np.ones(20, dtype=complex)
    den[:5] = 0.0  # 25% > 10% limit
    with pytest.raises(StreamGuardError):
        guarded_ratio(num, den)
    with pytest.raises(StreamGuardError):
        guarded_ratio(num, np.zeros(20, dtype=complex))


def test_guard_table_matches_guarded_ratio_per_row(rng):
    matrix = rng.normal(size=(4, 40)) + 1j * rng.normal(size=(4, 40)) + 2.0
    matrix[1] = 0.0           # zero throughout
    matrix[2, :8] = 1e-15     # 20% flagged
    matrix[3, [0, 17]] = 0.0  # 5% flagged, interpolated
    num = rng.normal(size=40) + 1j * rng.normal(size=40)
    guards = guard_table(matrix)
    assert guards.rejected.tolist() == [False, True, True, False]
    for row in range(4):
        try:
            expected = guarded_ratio(num, matrix[row])
        except StreamGuardError as exc:
            with pytest.raises(StreamGuardError, match=re.escape(str(exc))):
                guards.divide(num, matrix[row], row)
            continue
        values = guards.divide(num, matrix[row], row)
        assert values.tobytes() == expected[0].tobytes()
        np.testing.assert_array_equal(guards.flagged[row], expected[1])
    with pytest.raises(StreamGuardError, match="zero throughout"):
        guards.divide(num, matrix, np.arange(4))


def _loop_ratio(numerator, denominator, bad):
    """The guarded ratio the long way: only the valid samples divided, the
    flagged ones interpolated."""
    values = np.empty(numerator.shape, dtype=complex)
    good = ~bad
    values[good] = numerator[good] / denominator[good]
    idx = np.arange(values.size)
    values[bad] = np.interp(idx[bad], idx[good], values[good].real) + 1j * np.interp(
        idx[bad], idx[good], values[good].imag
    )
    return values


@settings(max_examples=50, deadline=None)
@given(
    n_rows=st.integers(1, 5),
    n_samples=st.integers(10, 60),
    flags=st.lists(st.integers(0, 3), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_divide_equals_per_row_ratio(n_rows, n_samples, flags, seed):
    rng = np.random.default_rng(seed)
    shape = (n_rows, n_samples)
    matrix = rng.normal(size=shape) + 1j * rng.normal(size=shape) + 2.0
    for row in range(n_rows):  # at most 10% flagged, so no row is rejected
        flagged = rng.choice(n_samples, min(flags[row], n_samples // 10), replace=False)
        matrix[row, flagged] = 0.0
    guards = guard_table(matrix)
    rows = np.arange(n_rows)
    numerators = rng.normal(size=(3, n_samples)) + 1j * rng.normal(size=(3, n_samples))
    # one numerator over many rows
    batch = guards.divide(numerators[0], matrix, rows)
    for row in rows:
        values, bad = guarded_ratio(numerators[0], matrix[row])
        assert batch[row].tobytes() == values.tobytes()
        assert values.tobytes() == _loop_ratio(numerators[0], matrix[row], bad).tobytes()
    # many numerators over one row
    for row in rows:
        batch = guards.divide(numerators, matrix[row], row)
        for numerator, quotient in zip(numerators, batch):
            assert quotient.tobytes() == guarded_ratio(numerator, matrix[row])[0].tobytes()


# repeated values, signed zeros, infinities and NaN, among plain numbers
_median_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
    st.floats(-1e6, 1e6),
)


@settings(max_examples=300, deadline=None)
@given(rows=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 60)),
                   elements=_median_values))
def test_median_equals_numpy_median(rows):
    # the middle values of a row with both infinities average to NaN
    with np.errstate(invalid="ignore"):
        assert median(rows, axis=1).tobytes() == np.median(rows, axis=1).tobytes()
        for row in rows:
            assert median(row).tobytes() == np.median(row).tobytes()
            assert type(median(row)) is type(np.median(row))


def test_cscr_rejects_equal_indices(breathing_trace):
    with pytest.raises(ConfigurationError):
        cscr(breathing_trace, 3, 3)


def test_cscr_carries_stream_metadata(breathing_trace):
    stream = cscr(breathing_trace, 5, 100)
    assert stream.numerator == ((1 + 0j, 5),)
    assert stream.denominator == 100
    assert stream.values.shape == (len(breathing_trace),)
    assert not stream.interpolated.any()


# ----------------------------------------------------------------------------
# Offset cancellation in the ratio
# ----------------------------------------------------------------------------


def test_carrier_walk_cancels_exactly(breathing_trace):
    clean = cscr(breathing_trace, 5, 100).values
    corrupted = apply_impairments(
        breathing_trace, ImpairmentConfig(cfo_walk_std=0.5, seed=3)
    )
    values = cscr(corrupted, 5, 100).values
    assert np.max(np.abs(values - clean)) < 1e-12


def test_clock_slope_becomes_constant_offset(breathing_trace, grid):
    slope = 1e-3
    clean = cscr(breathing_trace, 5, 100).values
    corrupted = apply_impairments(
        breathing_trace, ImpairmentConfig(sfo_slope=slope, seed=0)
    )
    values = cscr(corrupted, 5, 100).values
    diff = np.angle(values / clean)
    delta_n = grid.physical_index[5] - grid.physical_index[100]
    assert np.std(diff) < 1e-12
    assert np.isclose(diff[0], -delta_n * slope, atol=1e-12)


def test_correlated_impulses_cancel_in_magnitude(breathing_trace):
    clean = cscr(breathing_trace, 5, 100).values
    corrupted = apply_impairments(
        breathing_trace,
        ImpairmentConfig(impulse_rate_hz=2.0, impulse_log_std=0.8, seed=4),
    )
    values = cscr(corrupted, 5, 100).values
    np.testing.assert_allclose(np.abs(values), np.abs(clean), rtol=1e-12)


def test_uncorrelated_impulses_do_not_cancel(breathing_trace):
    clean = cscr(breathing_trace, 5, 100).values
    corrupted = apply_impairments(
        breathing_trace,
        ImpairmentConfig(
            impulse_rate_hz=2.0, impulse_log_std=0.8, impulse_correlation=0.0, seed=4
        ),
    )
    values = cscr(corrupted, 5, 100).values
    assert np.max(np.abs(np.abs(values) - np.abs(clean))) > 0.01


# ----------------------------------------------------------------------------
# Phase block averaging
# ----------------------------------------------------------------------------


def test_block_averaging_suppresses_frame_jitter(grid):
    # static-only channel: the ratio phase should be constant, so any spread
    # is jitter. Averaging blocks of K1 shrinks it by ~1/sqrt(K1). Tone pair
    # and std chosen so the jitter stays well inside one phase branch.
    scenario = ChannelScenario(
        sample_rate_hz=50.0,
        duration_s=80.0,
        static_paths=(StaticPath(amplitude=1.0, length_m=6.0),),
        dynamic_amplitude=1e-6,
        base_dynamic_length_m=10.0,
        motion=SinusoidMotion(rate_hz=0.25, amplitude_m=0.0),
    )
    trace = generate_ideal_csi(scenario, grid)
    sigma = 0.005
    corrupted = apply_impairments(
        trace, ImpairmentConfig(pbd_noise_std=sigma, seed=8)
    )
    delta_n = abs(grid.physical_index[5] - grid.physical_index[20])
    clean = cscr(trace, 5, 20).values

    raw_jitter = np.angle(cscr(corrupted, 5, 20).values / clean)
    assert np.isclose(np.std(raw_jitter), delta_n * sigma, rtol=0.2)

    k1 = 10
    averaged = average_phase_blocks(corrupted, k1)
    avg_jitter = np.angle(cscr(averaged, 5, 20).values / clean[0])
    assert np.isclose(np.std(avg_jitter), delta_n * sigma / np.sqrt(k1), rtol=0.2)


def test_block_averaging_identity_and_shapes(breathing_trace):
    assert average_phase_blocks(breathing_trace, 1) is breathing_trace
    averaged = average_phase_blocks(breathing_trace, 7)
    assert len(averaged) == len(breathing_trace) // 7
    assert averaged.sample_rate_hz == 50.0 / 7
    np.testing.assert_allclose(
        averaged.times_s, breathing_trace.times_s[3 : 7 * len(averaged) : 7], rtol=1e-12
    )
    with pytest.raises(ConfigurationError):
        average_phase_blocks(breathing_trace, 0)
    with pytest.raises(ConfigurationError):
        average_phase_blocks(breathing_trace[:3], 5)


def _whole_matrix_average(trace, block_size):
    """``average_phase_blocks`` on the whole (M, K) matrix at once: each
    packet rotated onto its block's first packet by the phase of the sum,
    row by row, of H_m(k) conj(H_m(k0)) over its finite cells, then each
    block unwrapped within itself and averaged."""
    n_blocks = len(trace) // block_size
    h = trace.values[:, : n_blocks * block_size]
    shape = (h.shape[0], n_blocks, block_size)
    blocks = h.reshape(shape)
    products = blocks * blocks[:, :, :1].conj()
    products[~np.isfinite(products)] = 0.0
    common = np.zeros(shape[1:], dtype=complex)
    for row in products:
        common += row
    mean_phase = np.unwrap(np.angle(blocks) - np.angle(common), axis=2).mean(axis=2)
    mean_mag = np.abs(h).reshape(shape).mean(axis=2)
    block_times = trace.times_s[: n_blocks * block_size].reshape(n_blocks, block_size)
    return mean_mag * np.exp(1j * mean_phase), block_times.mean(axis=1)


def _grid(rows):
    return custom_grid(2.44e9 + 1e5 * np.arange(rows))


@pytest.mark.parametrize("rows", [1, 6, 32, 33, 70, 218])
@pytest.mark.parametrize("block_size", [2, 5, 7])
def test_row_blocked_averaging_equals_whole_matrix(rows, block_size):
    rng = np.random.default_rng([rows, block_size])
    packets = 203  # not a whole number of blocks: a trailing partial block
    # phase walks far enough to wrap many times, so unwrap has work to do
    phase = np.cumsum(rng.normal(scale=1.5, size=(rows, packets)), axis=1)
    values = rng.uniform(0.1, 2.0, size=(rows, packets)) * np.exp(1j * phase)
    trace = CsiTrace.uniform(values, 50.0, _grid(rows))
    expected_values, expected_times = _whole_matrix_average(trace, block_size)
    averaged = average_phase_blocks(trace, block_size)
    assert averaged.values.tobytes() == expected_values.tobytes()
    assert averaged.times_s.tobytes() == expected_times.tobytes()


def test_block_averaging_preserves_constant_streams():
    values = np.full((2, 12), 2.0 * np.exp(1j * 0.3), dtype=complex)
    averaged = average_phase_blocks(CsiTrace.uniform(values, 10.0, _grid(2)), 4)
    assert averaged.values.shape == (2, 3)
    np.testing.assert_allclose(averaged.values, values[:, :3], rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    block_size=st.integers(2, 7),
    n_blocks=st.integers(1, 30),
    holes=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4),
    data=st.data(),
)
def test_a_block_average_depends_on_its_own_packets_alone(
    seed, rows, block_size, n_blocks, holes, data
):
    rng = np.random.default_rng(seed)
    packets = n_blocks * block_size + int(rng.integers(block_size))
    # phase walks far enough to wrap many times, so unwrap has work to do
    phase = np.cumsum(rng.normal(scale=2.0, size=(rows, packets)), axis=1)
    values = rng.uniform(0.1, 2.0, size=(rows, packets)) * np.exp(1j * phase)
    bad = [int(h * packets) for h in holes]
    values[:, bad] = np.nan  # non-finite packets
    trace = CsiTrace.uniform(values, 50.0, _grid(rows))
    a = data.draw(st.integers(0, n_blocks - 1), label="first block")
    whole = average_phase_blocks(trace, block_size)
    tail = average_phase_blocks(trace[a * block_size :], block_size)
    assert tail.values.tobytes() == whole.values[:, a:].tobytes()
    assert tail.times_s.tobytes() == whole.times_s[a:].tobytes()
    # a non-finite packet spoils its own block and no other
    spoiled = np.zeros(n_blocks, dtype=bool)
    spoiled[[k // block_size for k in bad if k < n_blocks * block_size]] = True
    assert np.array_equal(~np.isfinite(whole.values).all(axis=0), spoiled)


# ----------------------------------------------------------------------------
# Fractional-linear decomposition of the ratio
# ----------------------------------------------------------------------------

_complex = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=80, deadline=None)
@given(a=_complex, b=_complex, c=_complex, d=_complex, seed=st.integers(0, 2**31))
def test_low_noise_split_reconstructs_exactly(a, b, c, d, seed):
    assume(abs(d / c) > 1.05)  # keep the pole off the unit circle
    z = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, 16))
    dec = mobius_decompose(a, b, c, d, z)
    truth = (a * z + b) / (c * z + d)
    np.testing.assert_allclose(dec.reconstructed(), truth, rtol=1e-9)
    assert dec.regime == "low_noise"
    assert np.isclose(dec.static_term, a / c)


def test_low_noise_split_detects_pole():
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    with pytest.raises(SingularRatioError, match="k="):
        mobius_decompose(1.0, 2.0, 1.0, -1.0, z)  # pole at z = 1
    with pytest.raises(SingularRatioError):
        mobius_decompose(1.0, 2.0, 0.0, 1.0, z)


def test_high_noise_split_is_centered_circle(rng):
    a, b, d = 0.5 + 0.2j, 2.0 - 1.0j, 3.0 + 0.5j
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 400))
    dec = mobius_decompose(a, b, 0.0, d, z, regime="high_noise")
    radii = np.abs(dec.dynamic_term)
    np.testing.assert_allclose(radii, abs(a / d), rtol=1e-12)
    # algebraic circle fit as an independent check: center ~ 0
    pts = dec.dynamic_term
    A = np.column_stack([2 * pts.real, 2 * pts.imag, np.ones(pts.size)])
    sol, *_ = np.linalg.lstsq(A, np.abs(pts) ** 2, rcond=None)
    assert np.hypot(sol[0], sol[1]) < 1e-9
    assert np.isclose(np.sqrt(sol[2] + sol[0] ** 2 + sol[1] ** 2), abs(a / d))


def test_split_rejects_off_circle_samples():
    with pytest.raises(ConfigurationError):
        mobius_decompose(1.0, 1.0, 1.0, 3.0, np.array([0.5 + 0j]))
    with pytest.raises(ConfigurationError):
        mobius_decompose(1.0, 1.0, 1.0, 3.0, np.array([1.0 + 0j]), regime="bogus")


# ----------------------------------------------------------------------------
# Closed-form dynamic amplitude (low noise)
# ----------------------------------------------------------------------------


def test_dynamic_amplitude_worked_example():
    # |A_S| = 1, |A_D| = 0.1, dynamic path 4 m past the static path. The
    # adjacent pair barely responds; the band-spanning pair responds ~76x
    # more. Values cross-checked against a scalar reimplementation and
    # frozen at full precision.
    grid = ht_ltf_grid()
    lam = grid.wavelength_m

    adjacent = dynamic_amplitude_low_noise(1.0, 0.1, 1.0, 0.1, 4.0, lam[0], lam[1])
    spanning = dynamic_amplitude_low_noise(1.0, 0.1, 1.0, 0.1, 4.0, lam[0], lam[113])
    assert np.isclose(adjacent, 0.0026461932912493244, rtol=1e-12)
    assert np.isclose(spanning, 0.2017543430548415, rtol=1e-12)
    assert np.isclose(adjacent, 0.00265, rtol=0.02)
    assert np.isclose(spanning, 0.2017, rtol=0.02)
    assert spanning / adjacent > 70


def test_dynamic_amplitude_scalar_oracle(rng):
    # independent route: evaluate the defining expression literally
    for _ in range(20):
        s1, d1, s2, d2 = rng.uniform(0.2, 2.0, 4)
        offset = rng.uniform(0.5, 8.0)
        lam1, lam2 = rng.uniform(0.11, 0.13, 2)
        if abs(s2 - d2) < 1e-3:
            continue
        beat = (lam1 - lam2) / (lam1 * lam2)
        expected = abs(
            s1 * d2 * np.exp(-2j * np.pi * offset * beat) - d1 * s2
        ) / abs(s2**2 - d2**2)
        got = dynamic_amplitude_low_noise(s1, d1, s2, d2, offset, lam1, lam2)
        assert np.isclose(got, expected, rtol=1e-12)


def test_dynamic_amplitude_degenerate_pair():
    with pytest.raises(SingularRatioError):
        dynamic_amplitude_low_noise(1.0, 0.5, 0.3, 0.3, 4.0, 0.12, 0.13)


# ----------------------------------------------------------------------------
# Band-ratio metric
# ----------------------------------------------------------------------------


def _direct_band_energies(x, fs):
    """O(n^2) DFT reimplementation of the band split for cross-checking."""
    x = np.asarray(x)
    x = x - x.mean()
    n = x.size
    nfft = 1 << int(np.ceil(np.log2(4 * n)))
    padded = np.zeros(nfft, dtype=complex)
    padded[:n] = x * np.hanning(n)
    k = np.arange(nfft)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / nfft) @ padded
    freq = np.abs(np.fft.fftfreq(nfft, d=1.0 / fs))
    power = np.abs(dft) ** 2
    return (
        power[(freq >= 0.167) & (freq <= 0.5)].sum(),
        power[freq > 0.5].sum(),
    )


def test_band_energies_match_direct_dft(rng):
    fs = 10.0
    x = rng.normal(size=100) + 0.5 * np.sin(2 * np.pi * 0.3 * np.arange(100) / fs)
    band, out = band_energies(x[None, :], fs)
    oracle_band, oracle_out = _direct_band_energies(x, fs)
    assert np.isclose(band[0], oracle_band, rtol=1e-9)
    assert np.isclose(out[0], oracle_out, rtol=1e-9)


def test_band_grams_give_the_band_energies_of_any_weighted_sum(rng):
    fs = 10.0
    rows = rng.normal(size=(3, 100)) + 1j * rng.normal(size=(3, 100))
    weights = rng.normal(size=3) + 1j * rng.normal(size=3)
    band_gram, out_gram = band_grams(rows, fs)
    band, out = band_energies((weights @ rows)[None, :], fs)
    for gram, energy in ((band_gram, band[0]), (out_gram, out[0])):
        assert np.allclose(gram, gram.conj().T, rtol=1e-12, atol=0)
        assert np.isclose(weights.conj() @ gram @ weights, energy, rtol=1e-9)



def _positive_definite(rng, n, is_complex):
    rows = rng.normal(size=(n, n + 2))
    if is_complex:
        rows = rows + 1j * rng.normal(size=(n, n + 2))
    return rows @ rows.conj().T


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_max_snr_is_the_top_generalized_eigenvector(rng, n, is_complex):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    band = _positive_definite(rng, n, is_complex)
    out_of_band = _positive_definite(rng, n, is_complex)
    vector = max_snr(band, out_of_band)
    assert vector.dtype == (complex if is_complex else float)
    values, vectors = scipy_linalg.eigh(band, out_of_band)
    top = vectors[:, -1]
    scale = (top.conj() @ vector) / (top.conj() @ top)  # arbitrary scale and phase
    assert np.linalg.norm(vector - scale * top) <= 1e-8 * np.linalg.norm(vector)
    quotient = (vector.conj() @ band @ vector) / (vector.conj() @ out_of_band @ vector)
    assert quotient.real == pytest.approx(values[-1], rel=1e-10)
    assert abs(quotient.imag) <= 1e-10 * values[-1]


@pytest.mark.parametrize(
    "out_of_band", [np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1.0, 2.0])],
    ids=["singular", "indefinite"],
)
def test_max_snr_is_none_unless_the_out_of_band_gram_is_positive_definite(out_of_band):
    assert max_snr(np.eye(3), out_of_band) is None

def test_pure_in_band_tone_reports_infinite():
    fs = 10.0
    t = np.arange(300) / fs
    tone = np.sin(2 * np.pi * 0.3 * t)[None, :]
    assert np.isinf(ssnr_values(tone, fs)[0])
    # windowing leakage exists but sits far below the flagging floor
    band, out = band_energies(tone, fs)
    assert 0 < out[0] < 1e-6 * band[0]


def test_out_of_band_tone_scores_low():
    fs = 10.0
    t = np.arange(300) / fs
    assert ssnr_values(np.sin(2 * np.pi * 2.0 * t)[None, :], fs)[0] < 1e-3


def test_white_noise_matches_bandwidth_ratio():
    # flat spectrum: expected ratio = band width / out-of-band width
    fs = 10.0
    expected = (0.5 - 0.167) / (fs / 2 - 0.5)
    rows = np.stack([np.random.default_rng(seed).normal(size=3000) for seed in range(5)])
    assert np.isclose(np.mean(ssnr_values(rows, fs)), expected, rtol=0.3)


def test_ssnr_zero_signal_flag():
    band, out = band_energies(np.zeros((1, 100)), 10.0)
    assert band[0] == out[0] == 0.0
    assert ssnr_values(np.zeros((1, 100)), 10.0)[0] == 0.0


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**31))
def test_ssnr_scale_invariance(scale, seed):
    fs = 10.0
    rng = np.random.default_rng(seed)
    t = np.arange(200) / fs
    x = np.sin(2 * np.pi * 0.25 * t) + 0.3 * rng.normal(size=t.size)
    a = ssnr_values(x[None, :], fs)[0]
    b = ssnr_values(scale * x[None, :], fs)[0]
    assert np.isclose(a, b, rtol=1e-9)


def test_ssnr_rotation_invariance_complex(rng):
    fs = 10.0
    t = np.arange(200) / fs
    x = np.exp(1j * 0.4 * np.sin(2 * np.pi * 0.25 * t)) + 0.1 * (
        rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
    )
    a = ssnr_values(x[None, :], fs)[0]
    b = ssnr_values(x[None, :] * np.exp(1j * 1.234), fs)[0]
    assert np.isclose(a, b, rtol=1e-9)


def _full_spectrum_band_energies(rows, fs):
    """The band split over every bin of the FFT, selected by boolean masks,
    and the energy over all bins."""
    x = np.atleast_2d(rows)
    x = x - x.mean(axis=1, keepdims=True)
    n = x.shape[1]
    nfft = 1 << int(np.ceil(np.log2(4 * n)))
    power = np.abs(np.fft.fft(x * np.hanning(n), n=nfft, axis=1)) ** 2
    freq = np.abs(np.fft.fftfreq(nfft, d=1.0 / fs))
    return (
        power[:, (freq >= 0.167) & (freq <= 0.5)].sum(axis=1),
        power[:, freq > 0.5].sum(axis=1),
        power.sum(axis=1),
    )


@st.composite
def _band_rows(draw):
    """Rows of one batch: noise, in-band tones at or near the leakage floor,
    out-of-band tones, zeros and constants; real or complex."""
    n = draw(st.integers(20, 300))
    fs = draw(st.sampled_from([2.5, 5.0, 7.3, 10.0, 20.0, 50.0]))
    is_complex = draw(st.booleans())
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) / fs
    n_rows = draw(st.integers(1, 70))  # past the row blocks of band_spectrum
    kinds = draw(st.lists(
        st.sampled_from(["noise", "tone", "near-floor", "high-tone", "zero", "constant"]),
        min_size=n_rows, max_size=n_rows,
    ))
    rows = []
    for kind in kinds:
        noise = local.normal(size=n) + (1j * local.normal(size=n) if is_complex else 0)
        f = local.uniform(0.2, 0.45) if kind != "high-tone" else local.uniform(0.6, fs / 2)
        tone = np.exp(2j * np.pi * f * t) if is_complex else np.cos(2 * np.pi * f * t)
        tone = tone * local.uniform(0.1, 1e3)
        rows.append({
            "noise": noise,
            "tone": tone,
            "near-floor": tone + 10.0 ** local.uniform(-6, -2) * np.abs(tone).max() * noise,
            "high-tone": tone,
            "zero": 0 * noise,
            "constant": np.full(n, local.normal() + (1j * local.normal() if is_complex else 0)),
        }[kind])
    return np.array(rows), fs


@settings(max_examples=150, deadline=None)
@given(case=_band_rows())
def test_band_energies_match_full_spectrum_reference(case):
    rows, fs = case
    band, out = band_energies(rows, fs)
    ref_band, ref_out, energy = _full_spectrum_band_energies(rows, fs)
    assert np.all(band >= 0) and np.all(out >= 0)
    # the band energy is a sum of the same non-negative terms: relative to itself
    assert np.all(np.abs(band - ref_band) <= 1e-12 * ref_band)
    # the out-of-band energy is a difference of sums over all bins, DC and
    # below the band too, so its rounding scales with the energy over all
    # bins; relative to itself wherever it holds a fair share of that energy
    assert np.all(np.abs(out - ref_out) <= 1e-12 * energy)
    fair = ref_out > 1e-3 * energy
    assert np.all(np.abs(out - ref_out)[fair] <= 1e-12 * ref_out[fair])
    # inf and 0 classification of the ratio, away from a rounding-thin band
    # around the leakage floor itself
    values = ssnr_values(rows, fs)
    total = ref_band + ref_out
    floor = 1e-6 * total
    clear = np.abs(ref_out - floor) > 1e-9 * energy
    ref_inf = (ref_out < floor) & (total > 0)
    assert np.array_equal(np.isinf(values)[clear], ref_inf[clear])
    assert np.array_equal(values == 0, ref_band == 0)
    # each row scores the same bits alone as in the batch
    alone = np.concatenate([ssnr_values(row[None, :], fs) for row in rows])
    assert values.tobytes() == alone.tobytes()
