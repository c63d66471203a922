import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csibreath.errors import ConfigurationError
from csibreath.waveform import clean, hampel, project, savitzky_golay

FS = 10.0


def _modulated(alpha, n=300, noise=0.0, seed=0):
    """Complex series whose motion lives along the direction alpha."""
    t = np.arange(n) / FS
    motion = 0.4 * np.sin(2 * np.pi * 0.25 * t)
    values = motion * np.exp(1j * alpha)
    if noise:
        rng = np.random.default_rng(seed)
        values = values + noise * (
            rng.normal(size=n) + 1j * rng.normal(size=n)
        ) / np.sqrt(2)
    return values


def _angle_gap(a, b):
    """Distance between projection axes (they repeat every pi)."""
    d = (a - b) % np.pi
    return min(d, np.pi - d)


# ----------------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------------


def test_project_recovers_modulation_axis():
    # the noise realization pulls the optimum a few degrees off the true axis
    for alpha in (0.0, 0.4, 1.2, 2.0, 3.0, 4.5):
        result = project(_modulated(alpha, noise=0.05, seed=3), FS)
        assert _angle_gap(result.angle_rad, alpha) < np.radians(8.0)
        assert result.band_ratio > 10


def test_project_noise_free_reports_infinite():
    result = project(_modulated(0.8), FS)
    assert result.infinite and np.isinf(result.band_ratio)
    assert _angle_gap(result.angle_rad, 0.8) < np.radians(1.0)
    # the returned series is the projection at the returned angle
    values = _modulated(0.8)
    expected = np.cos(result.angle_rad) * values.real + np.sin(
        result.angle_rad
    ) * values.imag
    np.testing.assert_allclose(result.series, expected, rtol=1e-12)


def test_project_refinement_never_below_grid():
    values = _modulated(1.0, noise=0.3, seed=7)
    result = project(values, FS)
    grid = np.arange(360) * (2 * np.pi / 360)
    from csibreath.ratio import ssnr_values

    projections = np.outer(np.cos(grid), values.real) + np.outer(
        np.sin(grid), values.imag
    )
    coarse_best = ssnr_values(projections, FS).max()
    assert result.band_ratio >= coarse_best - 1e-12


def test_project_orthogonal_axis_scores_worse():
    values = _modulated(0.6, noise=0.05, seed=1)
    result = project(values, FS)
    from csibreath.ratio import ssnr

    orthogonal = np.cos(result.angle_rad + np.pi / 2) * values.real + np.sin(
        result.angle_rad + np.pi / 2
    ) * values.imag
    assert ssnr(orthogonal, FS).value < result.band_ratio


def _projections(values, angles):
    return np.outer(np.cos(angles), values.real) + np.outer(np.sin(angles), values.imag)


_FINE = np.arange(3600) * (np.pi / 3600)   # one axis every 0.05 degrees


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.0, 2 * np.pi),
    noise=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**16),
    n=st.integers(100, 256),
)
def test_project_matches_fine_angle_grid(alpha, noise, seed, n):
    from csibreath.ratio import ssnr_values

    values = _modulated(alpha, n=n, noise=noise, seed=seed)
    result = project(values, FS)
    ratios = ssnr_values(_projections(values, _FINE), FS)
    best = ratios.max()
    assert 0.0 <= result.angle_rad < np.pi
    assert _angle_gap(result.angle_rad, _FINE[np.argmax(ratios)]) <= np.pi / 3600
    assert result.band_ratio >= best - 1e-12 * best
    assert result.band_ratio == ssnr_values(result.series[None, :], FS)[0]
    assert not result.infinite
    expected = np.cos(result.angle_rad) * values.real + np.sin(result.angle_rad) * values.imag
    np.testing.assert_array_equal(result.series, expected)


def test_project_real_input_keeps_the_real_axis():
    from csibreath.ratio import ssnr_values

    values = _modulated(0.0, noise=0.1, seed=4).real + 0j
    result = project(values, FS)
    assert result.angle_rad == 0.0
    np.testing.assert_array_equal(result.series, values.real)
    best = ssnr_values(_projections(values, _FINE), FS).max()
    assert result.band_ratio >= best - 1e-12 * best


def test_project_leakage_floor_arc_takes_most_in_band_energy():
    from csibreath.ratio import band_energies, ssnr_values

    # a clean tone on Re sits at the leakage floor; loud broadband noise on
    # Im has more in-band energy, so only a narrow arc of axes near Re is at
    # the floor and its best axis is the arc's end towards Im
    noise = 3.0 * np.random.default_rng(5).normal(size=300)
    values = _modulated(0.0).real + 1j * noise
    result = project(values, FS)
    assert result.infinite and np.isinf(result.band_ratio)
    assert 0.0 < _angle_gap(result.angle_rad, 0.0) < np.radians(0.1)
    grid = np.concatenate([_FINE, [result.angle_rad]])
    projections = _projections(values, grid)
    at_floor = np.isinf(ssnr_values(projections, FS))
    band, _ = band_energies(projections, FS)
    assert at_floor[-1] and at_floor[:-1].any()
    assert band[-1] >= band[:-1][at_floor[:-1]].max()
    np.testing.assert_array_equal(result.series, projections[-1])


def test_project_input_validation():
    with pytest.raises(ConfigurationError):
        project(np.ones((2, 10), dtype=complex), FS)
    with pytest.raises(ConfigurationError):
        project(np.ones(3, dtype=complex), FS)


# ----------------------------------------------------------------------------
# Outlier rejection
# ----------------------------------------------------------------------------


def test_hampel_removes_single_spike():
    t = np.arange(100) / FS
    x = np.sin(2 * np.pi * 0.25 * t)
    x[40] += 25.0
    filtered, replaced = hampel(x, half_width=5)
    assert replaced >= 1
    assert abs(filtered[40] - np.sin(2 * np.pi * 0.25 * t[40])) < 0.2
    assert np.max(np.abs(filtered)) < 1.5


def test_hampel_leaves_clean_series_untouched():
    t = np.arange(100) / FS
    x = np.sin(2 * np.pi * 0.25 * t)
    filtered, replaced = hampel(x, half_width=5)
    # slowly varying signal: deviations stay within 3 sigma of the local MAD
    assert replaced == 0
    np.testing.assert_array_equal(filtered, x)


def test_hampel_constant_window_strictness():
    # MAD = 0 in a constant window: any deviation is an outlier, equality is not
    x = np.zeros(20)
    x[10] = 1e-9
    filtered, replaced = hampel(x, half_width=4)
    assert replaced == 1 and filtered[10] == 0.0
    flat, replaced = hampel(np.zeros(20), half_width=4)
    assert replaced == 0


def test_hampel_edge_windows_truncate():
    x = np.zeros(12)
    x[0] = 5.0  # edge window is [x0..x3]: median 0, so the spike still goes
    filtered, replaced = hampel(x, half_width=3)
    assert filtered[0] == 0.0 and replaced == 1


def _hampel_loop(series, half_width, threshold=3.0):
    """The per-sample Hampel rule, kept here as the reference."""
    x = np.asarray(series, dtype=float)
    out = x.copy()
    replaced = 0
    for k in range(x.size):
        window = x[max(0, k - half_width) : k + half_width + 1]
        med = np.median(window)
        mad = np.median(np.abs(window - med))
        if np.abs(x[k] - med) > threshold * 1.4826 * mad:
            out[k] = med
            replaced += 1
    return out, replaced


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(-10.0, 10.0), min_size=0, max_size=80),
    decimals=st.sampled_from([None, 0]),
    half_width=st.integers(1, 12),
    threshold=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
)
def test_hampel_equals_per_sample_loop(values, decimals, half_width, threshold):
    x = np.array(values, dtype=float)
    if decimals is not None:  # rounding makes constant windows (MAD = 0)
        x = np.round(x, decimals)
    filtered, replaced = hampel(x, half_width, threshold)
    expected, expected_replaced = _hampel_loop(x, half_width, threshold)
    assert replaced == expected_replaced
    assert filtered.tobytes() == expected.tobytes()


def test_hampel_validation():
    with pytest.raises(ConfigurationError):
        hampel(np.zeros(10), half_width=0)
    with pytest.raises(ConfigurationError):
        hampel(np.zeros(10), half_width=2, threshold=-1.0)


# ----------------------------------------------------------------------------
# Polynomial smoothing
# ----------------------------------------------------------------------------


def test_savitzky_golay_preserves_low_order_polynomials():
    t = np.linspace(-1, 1, 41)
    for coeffs in ([2.0, -1.0], [0.5, 1.0, -3.0], [1.0, 0.0, 2.0, -1.0]):
        x = np.polyval(coeffs, t)
        out = savitzky_golay(x, window_length=9, polyorder=3)
        np.testing.assert_allclose(out, x, atol=1e-10)  # edges included


def test_savitzky_golay_attenuates_noise(rng):
    t = np.arange(200) / FS
    signal = np.sin(2 * np.pi * 0.25 * t)
    noisy = signal + 0.3 * rng.normal(size=t.size)
    out = savitzky_golay(noisy, window_length=11, polyorder=3)
    assert np.std(out - signal) < np.std(noisy - signal)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    half=st.integers(1, 15),
    scale=st.floats(1e-3, 1e3),
)
def test_savitzky_golay_matches_scipy(data, half, scale):
    signal = pytest.importorskip("scipy.signal")
    window = 2 * half + 1
    polyorder = data.draw(st.integers(0, window - 1), label="polyorder")
    values = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=window, max_size=window + 80),
        label="values",
    )
    x = scale * np.array(values)
    with warnings.catch_warnings():  # scipy warns on its ill-conditioned fits
        warnings.filterwarnings("ignore", "Polyfit may be poorly conditioned")
        expected = signal.savgol_filter(x, window, polyorder, mode="interp")
    np.testing.assert_allclose(
        savitzky_golay(x, window, polyorder), expected,
        rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(x))),
    )


def test_savitzky_golay_pipeline_orders_equal_scipy_exactly():
    # the low orders the pipeline uses give scipy's bytes, not just its values
    signal = pytest.importorskip("scipy.signal")
    x = np.random.default_rng(5).normal(size=200)
    for window in range(5, 62, 2):
        for polyorder in (2, 3):
            expected = signal.savgol_filter(x, window, polyorder, mode="interp")
            ours = savitzky_golay(x, window, polyorder)
            assert ours.tobytes() == expected.tobytes(), (window, polyorder)


def test_savitzky_golay_validation():
    x = np.zeros(30)
    with pytest.raises(ConfigurationError):
        savitzky_golay(x, window_length=8, polyorder=3)  # even window
    with pytest.raises(ConfigurationError):
        savitzky_golay(x, window_length=1, polyorder=0)
    with pytest.raises(ConfigurationError):
        savitzky_golay(x, window_length=9, polyorder=9)
    with pytest.raises(ConfigurationError):
        savitzky_golay(np.zeros(5), window_length=7, polyorder=2)
    with pytest.raises(ConfigurationError):
        savitzky_golay(x, window_length=9, polyorder=-1)


# ----------------------------------------------------------------------------
# Combined pass
# ----------------------------------------------------------------------------


def test_clean_despikes_and_smooths(rng):
    t = np.arange(300) / FS
    signal = np.sin(2 * np.pi * 0.25 * t)
    dirty = signal + 0.1 * rng.normal(size=t.size)
    dirty[50] += 30.0
    dirty[200] -= 30.0
    cleaned, replaced = clean(dirty, FS)
    assert replaced >= 2
    assert np.max(np.abs(cleaned)) < 2.0
    assert np.std(cleaned - signal) < np.std(dirty - signal)


def test_clean_default_windows_follow_sample_rate():
    # fs = 10: hampel half-width 5, smoothing window 11 (next odd >= 10).
    # A single interior sample survives only if the explicit equivalents agree.
    rng = np.random.default_rng(4)
    x = np.sin(2 * np.pi * 0.25 * np.arange(200) / FS) + 0.05 * rng.normal(size=200)
    auto, _ = clean(x, FS)
    despiked, _ = hampel(x, 5)
    manual = savitzky_golay(despiked, 11, 3)
    np.testing.assert_allclose(auto, manual, rtol=1e-12)


def test_clean_window_floor_for_tiny_rates():
    x = np.sin(np.linspace(0, 6, 60))
    cleaned, _ = clean(x, sample_rate_hz=2.0)  # sg window must expand to fit order 3
    assert cleaned.size == x.size
