import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csibreath import rate
from csibreath.errors import ConfigurationError, ZeroVarianceError
from csibreath.rate import (
    BAND_HIGH_BPM,
    BAND_LOW_BPM,
    _find_peaks,
    acf,
    estimate_rate,
)

# ----------------------------------------------------------------------------
# Autocorrelation
# ----------------------------------------------------------------------------


def _acf_brute(x):
    """Direct O(K^2) biased autocorrelation, the definition in the open."""
    x = x - x.mean()
    energy = np.dot(x, x)
    return np.array(
        [np.dot(x[: x.size - k], x[k:]) / energy for k in range(x.size)]
    )


def test_acf_matches_brute_force(rng):
    x = rng.normal(size=64) + np.sin(2 * np.pi * 0.1 * np.arange(64))
    np.testing.assert_allclose(acf(x), _acf_brute(x), atol=1e-12)


def test_acf_normalization_and_bias(rng):
    x = rng.normal(size=128)
    r = acf(x)
    assert r[0] == pytest.approx(1.0)
    # white noise: away from lag 0 the biased estimate stays near zero
    assert np.max(np.abs(r[5:])) < 3.0 / np.sqrt(x.size)


def test_acf_periodic_signal_peaks_at_period():
    fs, f0 = 50.0, 0.25
    t = np.arange(int(30 * fs)) / fs
    r = acf(np.sin(2 * np.pi * f0 * t))
    period = int(fs / f0)
    interior = r[period - 20 : period + 21]
    assert np.argmax(interior) == 20  # integer peak right at one period


def test_acf_rejects_degenerate_input():
    with pytest.raises(ZeroVarianceError):
        acf(np.full(100, 3.7))
    with pytest.raises(ConfigurationError):
        acf(np.ones(1))
    with pytest.raises(ConfigurationError):
        acf(np.ones((4, 4)))


# ----------------------------------------------------------------------------
# Rate readout
# ----------------------------------------------------------------------------


def test_rate_from_clean_sinusoid():
    fs, f0 = 120.0, 0.25
    t = np.arange(int(30 * fs)) / fs
    estimate = estimate_rate(np.sin(2 * np.pi * f0 * t), fs)
    assert estimate.f_bpm == pytest.approx(15.0, abs=0.25)
    assert estimate.k_p1 == 1
    assert estimate.k_p2 == int(round(fs / f0)) + 1
    assert estimate.flags == ()
    assert 0.0 <= estimate.confidence <= 1.0


def test_rate_exact_period_measures_to_hundredths():
    # 60 s of a rate whose period is a whole number of samples: the taper
    # correction brings the readout within a few hundredths of a breath
    fs = 50.0
    f0 = fs / 210.0  # 14.2857.. bpm, period exactly 210 samples
    t = np.arange(int(60 * fs)) / fs
    estimate = estimate_rate(np.cos(2 * np.pi * f0 * t), fs)
    assert estimate.k_p2 == 211
    assert estimate.f_bpm == pytest.approx(60.0 * f0, abs=0.05)


def test_rate_fast_breathing_rejected():
    fs = 50.0
    t = np.arange(int(30 * fs)) / fs
    estimate = estimate_rate(np.sin(2 * np.pi * 0.6 * t), fs)  # 36 bpm
    assert estimate.f_bpm is None
    assert estimate.flags == ("out-of-band",)
    assert estimate.rejected_bpm == pytest.approx(36.0, abs=0.5)
    assert estimate.k_p2 is not None


def test_rate_slow_breathing_rejected():
    fs = 10.0
    t = np.arange(int(20 * fs)) / fs
    estimate = estimate_rate(np.sin(2 * np.pi * 0.1 * t), fs)  # 6 bpm
    assert estimate.f_bpm is None
    assert estimate.flags == ("out-of-band",)
    assert estimate.rejected_bpm == pytest.approx(6.0, abs=0.5)


def test_rate_no_peak_on_noise_like_input(rng, monkeypatch):
    # peak prominence is bounded by the autocorrelation range, so a huge
    # floor guarantees the no-peak path on broadband noise
    monkeypatch.setattr(rate, "MIN_PROMINENCE_FRAC", 1000.0)
    x = rng.normal(size=600)
    estimate = estimate_rate(x, 10.0)
    assert estimate.f_bpm is None
    assert "no-peak" in estimate.flags
    assert estimate.confidence == 0.0


def test_rate_window_length_enforced():
    with pytest.raises(ConfigurationError):
        estimate_rate(np.sin(np.arange(50)), 10.0)  # 5 s < 10 s minimum


def test_rate_refine_toggle():
    fs = 50.0
    t = np.arange(int(30 * fs)) / fs
    x = np.sin(2 * np.pi * 0.26 * t)
    refined = estimate_rate(x, fs)
    lag = refined.k_p2 - 1   # the integer lag of the peak, zero-based
    assert abs(refined.lag_samples - lag) <= 0.5
    assert abs(refined.f_bpm - 15.6) <= abs(60.0 * fs / lag - 15.6) + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(1e-3, 1e3),
    offset=st.floats(-5.0, 5.0),
    f_bpm=st.floats(BAND_LOW_BPM + 1.0, BAND_HIGH_BPM - 1.0),
)
def test_rate_scale_and_offset_invariance(scale, offset, f_bpm):
    fs = 25.0
    t = np.arange(int(30 * fs)) / fs
    x = np.sin(2 * np.pi * (f_bpm / 60.0) * t)
    a = estimate_rate(x, fs)
    b = estimate_rate(scale * x + offset, fs)
    assert a.f_bpm is not None and b.f_bpm is not None
    assert np.isclose(a.f_bpm, b.f_bpm, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(f_bpm=st.floats(BAND_LOW_BPM + 1.0, BAND_HIGH_BPM - 1.0))
def test_rate_accuracy_across_band(f_bpm):
    fs = 50.0
    t = np.arange(int(40 * fs)) / fs
    estimate = estimate_rate(np.sin(2 * np.pi * (f_bpm / 60.0) * t), fs)
    assert estimate.f_bpm is not None
    assert abs(estimate.f_bpm - f_bpm) < 0.5


# ----------------------------------------------------------------------------
# Peak finding (scipy as the oracle)
# ----------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=200),
    decimals=st.sampled_from([None, 0, 1]),
    walk=st.booleans(),
    distance=st.integers(1, 40),
    prominence=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
)
def test_find_peaks_equals_scipy(values, decimals, walk, distance, prominence):
    signal = pytest.importorskip("scipy.signal")
    x = np.array(values, dtype=float)
    if walk:
        x = np.cumsum(x)
    if decimals is not None:  # rounding makes plateaus
        x = np.round(x, decimals)
    peaks, props = signal.find_peaks(x, distance=distance, prominence=prominence)
    ours, prominences = _find_peaks(x, distance, prominence)
    np.testing.assert_array_equal(ours, peaks)
    assert prominences.tobytes() == props["prominences"].tobytes()


def test_find_peaks_plateaus_and_ends():
    x = np.array([5.0, 1.0, 3.0, 3.0, 3.0, 1.0, 2.0, 2.0, 0.0, 4.0, 4.0])
    peaks, prominences = _find_peaks(x, distance=1, prominence=0.0)
    # the first sample and the trailing plateau are never peaks; a plateau
    # sits at its midpoint (2 + 4) // 2 = 3, and (6 + 7) // 2 = 6
    np.testing.assert_array_equal(peaks, [3, 6])
    np.testing.assert_array_equal(prominences, [2.0, 1.0])
    # distance: the lower peak within 4 samples of the higher one goes
    peaks, _ = _find_peaks(x, distance=4, prominence=0.0)
    np.testing.assert_array_equal(peaks, [3])
