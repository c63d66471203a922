import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csibreath.errors import ConfigurationError, DegenerateScenarioError
from csibreath.grid import custom_grid, default_grid
from csibreath.simulate import (
    MAX_PATH_CHANGE_M,
    ChannelScenario,
    ChirpMotion,
    ImpairmentConfig,
    MotionEvent,
    RateStepMotion,
    SinusoidMotion,
    StaticPath,
    apply_impairments,
    cfo_phase_series,
    generate_ideal_csi,
    impulse_level_series,
)
from csibreath.trace import CsiTrace


def _scenario(**overrides):
    base = dict(
        sample_rate_hz=20.0,
        duration_s=10.0,
        static_paths=(StaticPath(amplitude=1.0, length_m=6.0),),
        dynamic_amplitude=0.1,
        base_dynamic_length_m=10.0,
        motion=SinusoidMotion(rate_hz=0.25, amplitude_m=0.003),
    )
    base.update(overrides)
    return ChannelScenario(**base)


def test_trace_construction_and_slicing():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
    grid = custom_grid(2.44e9 + 1e6 * np.arange(4))
    trace = CsiTrace.uniform(matrix, 10.0, grid)
    np.testing.assert_array_equal(trace.values, matrix)
    assert len(trace) == 9
    assert trace.times_s[3] == 0.3
    window = trace[2:5]
    np.testing.assert_array_equal(window.values, matrix[:, 2:5])
    np.testing.assert_array_equal(window.times_s, trace.times_s[2:5])
    assert window.values.flags.c_contiguous
    assert window.sample_rate_hz == 10.0
    assert window.grid is grid
    with pytest.raises(ConfigurationError):
        CsiTrace.uniform(np.zeros((4, 0), dtype=complex), 10.0, grid)
    with pytest.raises(ConfigurationError):
        CsiTrace(matrix, np.arange(8) / 10.0, 10.0, grid)
    with pytest.raises(ConfigurationError):
        CsiTrace.uniform(matrix, 10.0, grid=default_grid())


def test_sinusoid_motion_is_exact():
    m = SinusoidMotion(rate_hz=0.3, amplitude_m=0.004, phase_rad=0.5)
    t = np.linspace(0.0, 8.0, 101)
    np.testing.assert_allclose(
        m.displacement(t, 8.0), 0.004 * np.sin(2 * np.pi * 0.3 * t + 0.5), rtol=1e-15
    )


def test_chirp_motion_bounded_and_sweeping():
    m = ChirpMotion(start_rate_hz=0.2, end_rate_hz=0.4, amplitude_m=0.003)
    t = np.arange(0, 60, 0.02)
    d = m.displacement(t, 60.0)
    assert np.max(np.abs(d)) <= 0.003 + 1e-15
    # instantaneous rate sweeps up: zero crossings get denser in the 2nd half
    crossings = np.nonzero(np.diff(np.signbit(d)))[0]
    first = np.sum(crossings < t.size // 2)
    assert np.sum(crossings >= t.size // 2) > first


def test_rate_step_motion_is_continuous():
    m = RateStepMotion(segments=((5.0, 0.2), (5.0, 0.45)), amplitude_m=0.005)
    t = np.arange(0, 12, 0.01)
    d = m.displacement(t, 12.0)
    # no jumps at the segment boundary: the biggest step is bounded by the
    # steepest slope of the faster segment
    assert np.max(np.abs(np.diff(d))) <= 0.005 * 2 * np.pi * 0.45 * 0.01 * 1.05
    with pytest.raises(ConfigurationError):
        RateStepMotion(segments=(), amplitude_m=0.005).displacement(t, 12.0)


def test_ideal_csi_matches_direct_formula():
    # independent oracle: per-sample scalar loop over paths and tones
    grid = custom_grid(np.array([2.43e9, 2.45e9, 2.47e9]))
    scenario = _scenario(
        static_paths=(
            StaticPath(amplitude=1.0, length_m=6.0),
            StaticPath(amplitude=0.4, length_m=9.5),
        ),
        duration_s=2.0,
    )
    h = generate_ideal_csi(scenario, grid).values
    chest = scenario.chest_displacement()
    for m in range(grid.count):
        lam = grid.wavelength_m[m]
        for k in (0, 7, 39):
            expected = sum(
                p.amplitude * np.exp(-2j * np.pi * p.length_m / lam)
                for p in scenario.static_paths
            )
            d_dyn = 10.0 + 2.0 * chest[k]
            expected += 0.1 * np.exp(-2j * np.pi * d_dyn / lam)
            assert np.isclose(h[m, k], expected, rtol=1e-12)


def test_static_field_constant_without_events():
    grid = custom_grid(np.array([2.44e9, 2.46e9]))
    scenario = _scenario(duration_s=3.0)
    static = scenario.static_field(grid)
    assert np.all(static == static[:, :1])


def test_motion_event_steps_static_field_at_the_right_sample():
    grid = custom_grid(np.array([2.44e9]))
    scenario = _scenario(
        duration_s=4.0,
        motion_events=(MotionEvent(time_s=2.0, static_shift_m=0.01),),
    )
    static = scenario.static_field(grid)[0]
    k_event = int(2.0 * scenario.sample_rate_hz)
    assert np.all(static[:k_event] == static[0])
    assert np.all(static[k_event:] == static[k_event])
    assert static[k_event] != static[0]


def test_path_change_bound_enforced():
    too_big = _scenario(motion=SinusoidMotion(rate_hz=0.25, amplitude_m=0.0062))
    with pytest.raises(DegenerateScenarioError):
        too_big.dynamic_path_length()
    # events are exempt from the physiological bound
    stepped = _scenario(
        motion_events=(MotionEvent(time_s=5.0, dynamic_shift_m=0.5),)
    )
    d = stepped.dynamic_path_length()
    assert d.max() - d.min() > 0.4


def test_dynamic_path_must_stay_positive():
    scenario = _scenario(
        base_dynamic_length_m=0.3,
        motion_events=(MotionEvent(time_s=1.0, dynamic_shift_m=-0.5),),
    )
    with pytest.raises(DegenerateScenarioError):
        scenario.dynamic_path_length()


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        _scenario(duration_s=0.0)
    with pytest.raises(ConfigurationError):
        _scenario(static_paths=())
    with pytest.raises(ConfigurationError):
        _scenario(static_paths=(StaticPath(amplitude=1.0, length_m=-1.0),))
    with pytest.raises(ConfigurationError):
        _scenario(base_dynamic_length_m=0.0)


def test_scenario_accepts_lists():
    s = _scenario(static_paths=[StaticPath(amplitude=1.0, length_m=6.0)])
    assert isinstance(s.static_paths, tuple)


# ----------------------------------------------------------------------------
# Phase split between static and dynamic components
# ----------------------------------------------------------------------------


def test_phase_split_excursion_matches_path_sweep():
    # the split angle is linear in the dynamic path length, so its
    # peak-to-peak equals 2 pi * (path travel) / lambda per tone
    grid = default_grid()
    scenario = _scenario(duration_s=8.0)
    split = np.angle(scenario.static_field(grid)) - np.angle(scenario.dynamic_field(grid))
    chest = scenario.chest_displacement()
    travel = 2.0 * (chest.max() - chest.min())
    for m in (0, 109, 217):
        unwrapped = np.unwrap(split[m])
        expected = 2 * np.pi * travel / grid.wavelength_m[m]
        assert np.isclose(unwrapped.max() - unwrapped.min(), expected, rtol=1e-9)


def test_amplitude_and_phase_responses_are_complementary():
    # quadrature rule: where |H| barely responds to chest motion, angle(H)
    # responds strongly, and vice versa. Position the dynamic path so the
    # split angle sits at 0 (amplitude-blind) or pi/2 (phase-blind).
    grid = custom_grid(np.array([2.452e9]))
    lam = grid.wavelength_m[0]
    d_s = 6.0

    def responses(delta_d):
        scenario = _scenario(
            duration_s=8.0, base_dynamic_length_m=d_s + delta_d,
            motion=SinusoidMotion(rate_hz=0.25, amplitude_m=0.001),
        )
        h = generate_ideal_csi(scenario, grid).values[0]
        return np.ptp(np.abs(h)), np.ptp(np.unwrap(np.angle(h)))

    amp_at_null, phase_at_null = responses(40 * lam)          # split angle 0
    amp_off_null, phase_off_null = responses(40.25 * lam)     # split angle pi/2
    assert phase_at_null > 10 * amp_at_null
    assert amp_off_null > 10 * phase_off_null


# ----------------------------------------------------------------------------
# Impairments
# ----------------------------------------------------------------------------


def test_zero_impairments_is_identity(breathing_trace):
    out = apply_impairments(breathing_trace, ImpairmentConfig())
    np.testing.assert_array_equal(out.values, breathing_trace.values)
    np.testing.assert_array_equal(out.times_s, breathing_trace.times_s)
    assert out.sample_rate_hz == breathing_trace.sample_rate_hz


def test_impairments_reproducible_per_seed(breathing_trace):
    config = ImpairmentConfig(
        pbd_noise_std=0.01, cfo_walk_std=0.1, gaussian_noise_std=0.05,
        impulse_rate_hz=0.5, impulse_log_std=0.3, seed=3,
    )
    a = apply_impairments(breathing_trace, config).values
    b = apply_impairments(breathing_trace, config).values
    np.testing.assert_array_equal(a, b)
    c = apply_impairments(breathing_trace, ImpairmentConfig(
        pbd_noise_std=0.01, cfo_walk_std=0.1, gaussian_noise_std=0.05,
        impulse_rate_hz=0.5, impulse_log_std=0.3, seed=4,
    )).values
    assert not np.array_equal(a, c)


def test_pbd_phase_is_linear_in_physical_index():
    grid = default_grid()
    ones = CsiTrace.uniform(np.ones((grid.count, 40), complex), 20.0, grid)
    # std kept small enough that n * eta stays within one phase branch
    out = apply_impairments(ones, ImpairmentConfig(pbd_noise_std=0.004, seed=1)).values
    theta = -np.angle(out)
    n = grid.physical_index
    # per sample, theta(m) = n(m) * eta_b: slope identical across tone pairs
    eta_from_edges = (theta[-1] - theta[0]) / (n[-1] - n[0])
    eta_from_mid = (theta[100] - theta[10]) / (n[100] - n[10])
    np.testing.assert_allclose(eta_from_edges, eta_from_mid, atol=1e-12)
    assert np.std(eta_from_edges) > 0


@settings(max_examples=25, deadline=None)
@given(
    walk_std=st.floats(0.01, 1.0),
    bound=st.floats(0.5, 4.0),
    n=st.integers(10, 400),
)
def test_cfo_walk_respects_bound(walk_std, bound, n):
    config = ImpairmentConfig(cfo_walk_std=walk_std, cfo_bound_rad=bound)
    phi = cfo_phase_series(config, n, np.random.default_rng(0))
    assert phi.shape == (n,)
    assert np.all(np.abs(phi) <= bound + 1e-12)


def test_cfo_walk_inactive_when_disabled():
    phi = cfo_phase_series(ImpairmentConfig(), 50, np.random.default_rng(0))
    assert np.all(phi == 0)


def test_impulse_levels_fully_correlated_by_default():
    config = ImpairmentConfig(impulse_rate_hz=2.0, impulse_log_std=0.5, seed=9)
    levels, segment = impulse_level_series(config, 8, 300, 20.0, np.random.default_rng(9))
    levels = levels[:, segment]
    assert np.all(levels == levels[0:1, :])
    assert np.unique(levels[0]).size > 1  # the level actually jumps


def test_impulse_levels_decorrelate_at_rho_zero():
    config = ImpairmentConfig(
        impulse_rate_hz=2.0, impulse_log_std=0.5, impulse_correlation=0.0, seed=9
    )
    levels, _ = impulse_level_series(config, 8, 300, 20.0, np.random.default_rng(9))
    assert np.std(levels[:, 0]) > 0


def test_impulse_config_validation():
    with pytest.raises(ConfigurationError):
        ImpairmentConfig(impulse_correlation=1.5)
    with pytest.raises(ConfigurationError):
        ImpairmentConfig(cfo_bound_rad=0.0)
    for seed in (-5, 2.5, True):
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            ImpairmentConfig(seed=seed)


def test_gaussian_noise_level(breathing_trace):
    config = ImpairmentConfig(gaussian_noise_std=0.05, seed=2)
    noisy = apply_impairments(breathing_trace, config).values
    clean = breathing_trace.values
    residual = noisy - clean
    assert np.isclose(np.std(residual), 0.05, rtol=0.05)
    # real and imaginary parts share the load
    assert np.isclose(np.std(residual.real), 0.05 / np.sqrt(2), rtol=0.1)


def test_max_path_change_constant_matches_physiology():
    assert MAX_PATH_CHANGE_M == pytest.approx(0.012)


# ----------------------------------------------------------------------------
# Row-blocked synthesis against the whole-matrix code it replaced
# ----------------------------------------------------------------------------


def _whole_matrix_static_field(scenario, grid):
    """``ChannelScenario.static_field`` as it was before it computed one
    column per distinct shift: every sample of every path."""
    wavelength = grid.wavelength_m[:, None]
    shifts = scenario._event_steps("static_shift_m")[None, :]
    total = np.zeros((grid.count, scenario.n_samples), dtype=complex)
    for p in scenario.static_paths:
        amp = np.broadcast_to(np.asarray(p.amplitude, dtype=float), (grid.count,))
        total += amp[:, None] * np.exp(-2j * np.pi * (p.length_m + shifts) / wavelength)
    return total


def _whole_matrix_dynamic_field(scenario, grid):
    wavelength = grid.wavelength_m[:, None]
    amp = np.broadcast_to(np.asarray(scenario.dynamic_amplitude, dtype=float), (grid.count,))
    return amp[:, None] * np.exp(
        -2j * np.pi * scenario.dynamic_path_length()[None, :] / wavelength
    )


def _whole_matrix_levels(config, n_subcarriers, n_samples, sample_rate_hz, rng):
    """``impulse_level_series`` as it was, with ``exp`` after the gather."""
    if config.impulse_log_std == 0.0:
        return np.ones((n_subcarriers, n_samples))
    p_jump = min(config.impulse_rate_hz / sample_rate_hz, 1.0)
    jumps = rng.random(n_samples) < p_jump
    jumps[0] = True
    segment = np.cumsum(jumps) - 1
    n_segments = segment[-1] + 1
    common = rng.normal(size=n_segments)
    individual = rng.normal(size=(n_subcarriers, n_segments))
    rho = config.impulse_correlation
    log_level = config.impulse_log_std * (
        math.sqrt(rho) * common[None, :] + math.sqrt(1.0 - rho) * individual
    )
    return np.exp(log_level[:, segment])


def _whole_matrix_impairments(trace, config):
    """``apply_impairments`` as it was before it worked in row blocks."""
    h = trace.values
    n_sub, n_samples = h.shape
    rng = np.random.default_rng(config.seed)
    eta_b = (
        rng.normal(0.0, config.pbd_noise_std, n_samples)
        if config.pbd_noise_std > 0
        else np.zeros(n_samples)
    )
    phi = cfo_phase_series(config, n_samples, rng)
    levels = _whole_matrix_levels(config, n_sub, n_samples, trace.sample_rate_hz, rng)
    theta = (
        trace.grid.physical_index[:, None] * (eta_b + config.sfo_slope)[None, :]
        + phi[None, :]
    )
    corrupted = levels * np.exp(-1j * theta) * h
    if config.gaussian_noise_std > 0:
        sigma = config.gaussian_noise_std / math.sqrt(2.0)
        corrupted = corrupted + (
            rng.normal(0.0, sigma, h.shape) + 1j * rng.normal(0.0, sigma, h.shape)
        )
    return corrupted


def _tone_grid(tones):
    """``tones`` consecutive 312.5 kHz tones of a 20 MHz channel at 2.452 GHz,
    indexed from the band's centre so the phase slope has signs of both."""
    return custom_grid(
        2.452e9 + 312.5e3 * np.arange(tones), np.arange(tones) - tones // 2
    )


_TWO_EVENTS = (
    MotionEvent(time_s=3.0, static_shift_m=0.01, dynamic_shift_m=0.002),
    MotionEvent(time_s=6.5, static_shift_m=-0.004),
)


@pytest.mark.parametrize("tones", [1, 31, 32, 33, 218])
@pytest.mark.parametrize("events", [(), _TWO_EVENTS], ids=["no-event", "two-events"])
def test_ideal_synthesis_equals_whole_matrix(tones, events):
    grid = _tone_grid(tones)
    scenario = _scenario(
        static_paths=(
            StaticPath(amplitude=np.linspace(0.5, 1.5, tones), length_m=6.0),
            StaticPath(amplitude=0.4, length_m=9.5),
        ),
        motion_events=events,
    )
    static = _whole_matrix_static_field(scenario, grid)
    dynamic = _whole_matrix_dynamic_field(scenario, grid)
    # one column per distinct static shift: three with the events
    assert np.unique(static, axis=1).shape[1] == (3 if events else 1)
    assert scenario.static_field(grid).tobytes() == static.tobytes()
    assert scenario.dynamic_field(grid).tobytes() == dynamic.tobytes()
    ideal = generate_ideal_csi(scenario, grid).values
    assert ideal.tobytes() == (static + dynamic).tobytes()


@pytest.mark.parametrize("tones", [1, 31, 32, 33, 218])
@pytest.mark.parametrize("log_std", [0.0, 0.4])
@pytest.mark.parametrize("correlation", [0.5, 1.0])
@pytest.mark.parametrize("noise_std", [0.0, 0.03])
def test_row_blocked_impairments_equal_whole_matrix(tones, log_std, correlation, noise_std):
    grid = _tone_grid(tones)
    trace = generate_ideal_csi(_scenario(), grid)
    config = ImpairmentConfig(
        pbd_noise_std=0.002, sfo_slope=1e-4, cfo_walk_std=0.05, impulse_rate_hz=0.5,
        impulse_log_std=log_std, impulse_correlation=correlation,
        gaussian_noise_std=noise_std, seed=tones,
    )
    levels, segment = impulse_level_series(
        config, tones, len(trace), 20.0, np.random.default_rng(4)
    )
    expected = _whole_matrix_levels(config, tones, len(trace), 20.0, np.random.default_rng(4))
    assert levels[:, segment].tobytes() == expected.tobytes()
    corrupted = apply_impairments(trace, config).values
    assert corrupted.tobytes() == _whole_matrix_impairments(trace, config).tobytes()
