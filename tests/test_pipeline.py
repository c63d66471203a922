import dataclasses

import numpy as np
import pytest

from csibreath.errors import ConfigurationError, NoWindowError
from csibreath.gass import GaParams
from csibreath.grid import default_grid
from csibreath.pipeline import (
    DETECTION_TOLERANCE_BPM,
    PipelineConfig,
    blind_spot_sweep,
    replay_window,
    run_pipeline,
    segment,
    single_component_estimates,
    snr_sweep,
)
from csibreath.ratio import average_phase_blocks
from csibreath.simulate import (
    ChannelScenario,
    ImpairmentConfig,
    MotionEvent,
    SinusoidMotion,
    StaticPath,
    apply_impairments,
    generate_ideal_csi,
)

_FAST = PipelineConfig(
    n_numerators=2,
    ga=GaParams(population=8, generations=3, stagnation_limit=3,
                seed_pool=16, seed_top=4),
)


def _quick_scenario(duration_s=12.0, events=(), fs=20.0):
    return ChannelScenario(
        sample_rate_hz=fs,
        duration_s=duration_s,
        static_paths=(StaticPath(amplitude=1.0, length_m=6.0),),
        dynamic_amplitude=0.1,
        base_dynamic_length_m=10.0,
        motion=SinusoidMotion(rate_hz=0.25, amplitude_m=0.003),
        motion_events=tuple(events),
    )


# ----------------------------------------------------------------------------
# Motion screening
# ----------------------------------------------------------------------------


def test_segment_accepts_quiet_breathing(breathing_trace):
    plan = segment(breathing_trace)
    assert plan.accepted.all()
    assert plan.accepted.size == 15          # 15 s of 1 s frames
    np.testing.assert_array_equal(plan.window_starts, np.arange(6))
    assert plan.reference_pair == (0, 217)
    assert plan.frame_samples == 50
    assert np.all(plan.motion_metric < 2.0)


def test_segment_rejects_event_frame(grid):
    # step sized for a ~2.5 rad ratio-phase jump on the reference pair:
    # large enough to trip the 2 rad gate, small enough to survive unwrap
    span_hz = 2.470125e9 - 2.433875e9
    shift = 2.5 * 299792458.0 / (2 * np.pi * span_hz)
    scenario = _quick_scenario(
        duration_s=25.0, events=[MotionEvent(time_s=15.2, static_shift_m=shift)]
    )
    plan = segment(generate_ideal_csi(scenario, grid))
    assert not plan.accepted[15]
    assert plan.accepted.sum() == plan.accepted.size - 1
    # windows must not straddle the rejected frame
    for start in plan.window_starts:
        assert not (start <= 15 < start + plan.window_frames)


@pytest.mark.parametrize("k1", [5, 7])
def test_plan_windows_are_slices_of_the_averaged_trace(impaired_trace, k1):
    plan = segment(impaired_trace, dataclasses.replace(_FAST, phase_block=k1))
    assert plan.block_size == k1
    window_samples = plan.window_frames * plan.frame_samples
    shifts = []
    for start_frame in plan.window_starts:
        window = plan.window(int(start_frame))
        assert len(window) == window_samples // k1
        assert window.sample_rate_hz == 50.0 / k1
        # the first block holds the window's first packet a, and starts up
        # to k1 - 1 packets before it when k1 does not divide the frame
        a = start_frame * plan.frame_samples
        shifts.append(a % k1)
        first = a - shifts[-1]
        alone = average_phase_blocks(impaired_trace[first : first + window_samples], k1)
        np.testing.assert_allclose(window.values, alone.values, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(window.times_s, alone.times_s)
    assert any(shifts) == (50 % k1 != 0)


@pytest.mark.parametrize(
    "fields",
    [
        {"frame_s": 0.0},
        {"frame_s": -1.0},
        {"frame_s": float("nan")},
        {"window_s": 0.0},
        {"window_s": float("inf")},
        {"frame_s": 0.3},                   # round(33.3) = 33 frames = 9.9 s
        {"window_s": 9.4},                  # 9 frames of 1 s
        {"frame_s": 4.0, "window_s": 9.0},  # round(2.25) = 2 frames = 8 s
        {"frame_s": 1e-320},                # window_s / frame_s overflows
        {"sg_polyorder": -1},
        {"sg_polyorder": 2.5},
    ],
)
def test_pipeline_config_rejects_bad_geometry(fields):
    with pytest.raises(ConfigurationError):
        PipelineConfig(**fields)


def test_pipeline_config_window_is_whole_frames():
    # round(2.75) = 3 frames of 4 s = 12 s, although window_s is 11 s
    PipelineConfig(frame_s=4.0, window_s=11.0)
    PipelineConfig(frame_s=0.5, window_s=10.0)


def test_segment_rejects_frames_shorter_than_a_packet(breathing_trace):
    config = dataclasses.replace(_FAST, frame_s=0.001, window_s=10.0)
    with pytest.raises(ConfigurationError, match="one packet"):
        segment(breathing_trace, config)


def test_segment_threshold_can_reject_everything(breathing_trace):
    config = dataclasses.replace(_FAST, motion_threshold_rad=-1.0)
    plan = segment(breathing_trace, config)
    assert not plan.accepted.any()
    with pytest.raises(NoWindowError):
        run_pipeline(breathing_trace, config)
    with pytest.raises(NoWindowError):
        single_component_estimates(breathing_trace, "phase", config)


# ----------------------------------------------------------------------------
# Full pipeline
# ----------------------------------------------------------------------------


def test_run_pipeline_estimates_breathing(impaired_trace):
    results = run_pipeline(impaired_trace, _FAST, seed=0)
    assert len(results) == 6
    for i, r in enumerate(results):
        assert r.window_id == i
        assert r.start_frame == i
        assert r.start_time_s == pytest.approx(float(i), abs=1e-9)
        assert r.estimate is not None and r.estimate.f_bpm is not None
        assert abs(r.estimate.f_bpm - 15.0) < DETECTION_TOLERANCE_BPM
        assert set(r.stage_band_ratios) == {
            "gass", "combined", "smoothed", "projected", "filtered",
        }
        assert r.solution is not None


def test_run_pipeline_deterministic(impaired_trace):
    a = run_pipeline(impaired_trace, _FAST, seed=5)
    b = run_pipeline(impaired_trace, _FAST, seed=5)
    for ra, rb in zip(a, b):
        assert ra.estimate.f_bpm == rb.estimate.f_bpm
        assert ra.solution.genome.key() == rb.solution.genome.key()
        assert ra.stage_band_ratios == rb.stage_band_ratios


def test_replay_window_reproduces_estimates(impaired_trace):
    results = run_pipeline(impaired_trace, _FAST, seed=2)
    for r in results:
        replayed = replay_window(impaired_trace, r, _FAST)
        assert replayed.f_bpm == r.estimate.f_bpm
        assert replayed.flags == r.estimate.flags
        np.testing.assert_array_equal(replayed.acf, r.estimate.acf)


def test_replay_requires_solution(impaired_trace):
    results = run_pipeline(impaired_trace, _FAST, seed=2)
    broken = dataclasses.replace(results[0], solution=None)
    with pytest.raises(ConfigurationError):
        replay_window(impaired_trace, broken, _FAST)


def test_reuse_skips_search_when_quality_stable(impaired_trace):
    eager = dataclasses.replace(_FAST, reuse_tolerance=10.0)
    results = run_pipeline(impaired_trace, eager, seed=0)
    assert not results[0].gass_reused          # nothing to reuse yet
    assert all(r.gass_reused for r in results[1:])
    fresh = run_pipeline(impaired_trace, _FAST, seed=0)  # tolerance 0
    assert not any(r.gass_reused for r in fresh)
    # reused windows keep the genome but re-score it on their own data
    reused = results[1]
    assert reused.solution.genome.key() == results[0].solution.genome.key()


# ----------------------------------------------------------------------------
# Single-quantity baselines
# ----------------------------------------------------------------------------


def test_single_component_estimates_track_breathing(breathing_trace):
    for component in ("amplitude", "phase"):
        estimates = single_component_estimates(
            breathing_trace, component, _FAST
        )
        assert len(estimates) == 6
        values = [e.f_bpm for e in estimates if e is not None and e.f_bpm]
        assert values, component
        assert abs(np.median(values) - 15.0) < DETECTION_TOLERANCE_BPM


def test_single_component_rejects_unknown_name(breathing_trace):
    with pytest.raises(ConfigurationError):
        single_component_estimates(breathing_trace, "quadrature", _FAST)


# ----------------------------------------------------------------------------
# Evaluation sweeps (small structural runs; accuracy is scored elsewhere)
# ----------------------------------------------------------------------------


def test_blind_spot_sweep_structure(grid):
    scenario = _quick_scenario()
    impairments = ImpairmentConfig(gaussian_noise_std=0.01, seed=3)
    report = blind_spot_sweep(
        scenario, impairments, grid, offsets_m=np.array([0.0, 0.03]),
        config=_FAST, seed=0,
    )
    assert len(report.rows) == 2 * 3
    methods = {r["method"] for r in report.rows}
    assert methods == {"full", "amplitude", "phase"}
    for row in report.rows:
        assert set(row) == {
            "offset_m", "method", "windows", "median_bpm", "truth_bpm", "detected",
        }
        assert row["truth_bpm"] == 15.0
        assert isinstance(row["detected"], bool)
    assert set(report.summary) == {
        "full_detectability_pct", "amplitude_detectability_pct",
        "phase_detectability_pct",
    }
    for value in report.summary.values():
        assert 0.0 <= value <= 100.0
    assert report.meta["positions"] == 2
    assert report.meta["base_dynamic_length_m"] == 10.0


def test_snr_sweep_structure(grid):
    scenario = _quick_scenario()
    impairments = ImpairmentConfig(seed=1)
    report = snr_sweep(
        scenario, impairments, grid, noise_stds=np.array([0.02]),
        config=_FAST, seed=0, runs_per_level=1,
    )
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["noise_std"] == 0.02
        assert row["windows"] == 3
        assert 0.0 <= row["detection_rate_pct"] <= 100.0
        assert row["detected"] <= row["windows"]
    assert set(report.summary) == {"full", "amplitude"}
    assert len(report.summary["full"]) == 1
    assert report.meta == {"truth_bpm": 15.0, "levels": 1, "runs_per_level": 1}


def test_sweep_requires_sinusoid_truth(grid):
    from csibreath.simulate import ChirpMotion

    scenario = dataclasses.replace(
        _quick_scenario(), motion=ChirpMotion(
            start_rate_hz=0.2, end_rate_hz=0.4, amplitude_m=0.003
        )
    )
    with pytest.raises(ConfigurationError):
        blind_spot_sweep(
            scenario, ImpairmentConfig(seed=0), grid,
            offsets_m=np.array([0.0]), config=_FAST,
        )
