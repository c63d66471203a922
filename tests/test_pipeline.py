import dataclasses
import functools
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from csibreath import parallel
from csibreath.errors import ConfigurationError, NoWindowError
from csibreath.grid import custom_grid
from csibreath.pipeline import (
    DETECTION_TOLERANCE_BPM,
    PipelineConfig,
    blind_spot_sweep,
    run_pipeline,
    segment,
    single_component_estimates,
    snr_sweep,
)
from csibreath.ratio import average_phase_blocks, guard_table
from csibreath.simulate import (
    ChannelScenario,
    ImpairmentConfig,
    MotionEvent,
    SinusoidMotion,
    StaticPath,
    apply_impairments,
    generate_ideal_csi,
)
from csibreath.trace import CsiTrace

_CONFIG = PipelineConfig()


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
    assert plan.frame_samples == 50
    assert plan.block_size == 5              # K1 = F_s / 10
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
def test_plan_windows_are_slices_of_the_averaged_trace(breathing_scenario, grid, k1):
    # K1 = F_s / 10: 5 packets divide a 50-packet frame, 7 straddle a
    # 75-packet one. 11 s windows: at 75 Hz, 10 s of packets hold only
    # 9.99 s of whole blocks
    fs = {5: 50.0, 7: 75.0}[k1]
    trace = apply_impairments(
        generate_ideal_csi(dataclasses.replace(breathing_scenario, sample_rate_hz=fs), grid),
        ImpairmentConfig(pbd_noise_std=0.002, sfo_slope=1e-4, cfo_walk_std=0.05,
                         gaussian_noise_std=0.02, seed=7),
    )
    plan = segment(trace, dataclasses.replace(_CONFIG, window_s=11.0))
    assert plan.block_size == k1
    window_samples = plan.window_frames * plan.frame_samples
    shifts = []
    for start_frame in plan.window_starts:
        window = plan.window(int(start_frame))
        assert len(window) == window_samples // k1
        assert window.sample_rate_hz == fs / k1
        # the first block holds the window's first packet a, and starts up
        # to k1 - 1 packets before it when k1 does not divide the frame
        a = start_frame * plan.frame_samples
        shifts.append(a % k1)
        first = a - shifts[-1]
        alone = average_phase_blocks(trace[first : first + window_samples], k1)
        assert window.values.tobytes() == alone.values.tobytes()
        assert window.times_s.tobytes() == alone.times_s.tobytes()
    assert any(shifts) == (plan.frame_samples % k1 != 0)


# explicit ids, the ones each case always ran under, so that removing a
# case renames no other
@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"window_s": -1.0}, id="fields0"),
        pytest.param({"window_s": float("-inf")}, id="fields1"),
        pytest.param({"window_s": float("nan")}, id="fields2"),
        pytest.param({"window_s": 0.0}, id="fields3"),
        pytest.param({"window_s": float("inf")}, id="fields4"),
        pytest.param({"window_s": 9.49}, id="fields5"),  # round(9.49) = 9 frames of 1 s
        pytest.param({"window_s": 9.4}, id="fields6"),  # 9 frames of 1 s
        pytest.param({"window_s": 5.0}, id="fields7"),
        pytest.param({"window_s": 1e-320}, id="fields8"),  # positive, but no whole frame
        pytest.param({"window_s": True}, id="fields17"),
        pytest.param({"window_s": False}, id="fields18"),
        pytest.param({"window_s": "10"}, id="fields19"),
        pytest.param({"window_s": None}, id="fields20"),
        pytest.param({"window_s": [10.0]}, id="fields21"),
        pytest.param({"motion_threshold_rad": "abc"}, id="fields23"),
        pytest.param({"motion_threshold_rad": float("nan")}, id="fields24"),
        pytest.param({"motion_threshold_rad": True}, id="fields25"),
        pytest.param({"motion_threshold_rad": None}, id="fields26"),
    ],
)
def test_pipeline_config_rejects_bad_geometry(fields):
    with pytest.raises(ConfigurationError):
        PipelineConfig(**fields)


def test_pipeline_config_window_is_whole_frames(breathing_trace):
    # round(10.4) = 10 frames of 1 s: accepted, although window_s is under
    # 10.5 s, and segmented as 10 whole frames
    config = dataclasses.replace(_CONFIG, window_s=10.4)
    assert segment(breathing_trace, config).window_frames == 10
    longer = dataclasses.replace(_CONFIG, window_s=10.6)
    assert segment(breathing_trace, longer).window_frames == 11


def _loop_metric(trace, config):
    """The motion metric as a frame-by-frame loop: the peak-to-peak of the
    phase of the reference pair, the grid's first and last subcarrier, over
    each frame's blocks, unwrapped within the frame."""
    plan = segment(trace, config)
    averaged = average_phase_blocks(trace, plan.block_size).values
    phase = np.angle(averaged[0] / averaged[-1])
    block_frame = np.arange(phase.size) * plan.block_size // plan.frame_samples
    metric = np.zeros(plan.accepted.size)
    for f in range(metric.size):
        in_frame = np.unwrap(phase[block_frame == f])
        if in_frame.size:
            metric[f] = in_frame.max() - in_frame.min()
    return plan, metric


@pytest.mark.parametrize(
    "fs, fields",
    [
        (20.0, {}),                     # the event trips the gate
        (50.0, {}),                     # the README's rate: blocks of 5
        (10.0, {}),                     # blocks of one packet: no averaging
        (75.0, {"window_s": 11.0}),     # blocks of 7 straddle 75-packet frames
    ],
)
def test_segment_metric_equals_the_frame_loop(grid, fs, fields):
    span_hz = 2.470125e9 - 2.433875e9
    shift = 2.5 * 299792458.0 / (2 * np.pi * span_hz)
    scenario = _quick_scenario(
        duration_s=41.5, fs=fs, events=[MotionEvent(time_s=22.2, static_shift_m=shift)]
    )
    trace = apply_impairments(
        generate_ideal_csi(scenario, grid), ImpairmentConfig(gaussian_noise_std=0.02, seed=5)
    )
    plan, metric = _loop_metric(trace, dataclasses.replace(_CONFIG, **fields))
    assert plan.motion_metric.tobytes() == metric.tobytes()


@pytest.mark.parametrize("fs, fields", [(50.0, {}), (75.0, {"window_s": 11.0})])
def test_a_frame_metric_depends_on_its_own_blocks_alone(grid, fs, fields):
    # the reference ratio turns 1.3 rad a second: under the 2 rad gate in
    # every frame, and through several whole turns over the trace
    trace = apply_impairments(
        generate_ideal_csi(_quick_scenario(duration_s=30.0, fs=fs), grid),
        ImpairmentConfig(gaussian_noise_std=0.02, seed=5),
    )
    values = trace.values.copy()
    values[0] *= np.exp(1.3j * trace.times_s)
    trace = dataclasses.replace(trace, values=values)
    config = dataclasses.replace(_CONFIG, **fields)
    plan = segment(trace, config)
    assert plan.accepted.all()
    # the trace cut at a frame that starts on a block boundary of the whole
    starts = [f for f in range(1, 25) if f * plan.frame_samples % plan.block_size == 0]
    assert starts
    for first in starts:
        tail = segment(trace[first * plan.frame_samples :], config)
        assert tail.motion_metric.tobytes() == plan.motion_metric[first:].tobytes()


def _check_nan_in_frame_14(grid, rows):
    """Set packet 707 (frame 14) of a 30 s, 50 Hz trace to NaN in ``rows``;
    check that only frame 14 fails the gate, and that every window left
    reads the rate with finite stage band ratios. Returns the plan."""
    scenario = _quick_scenario(duration_s=30.0, fs=50.0)
    trace = apply_impairments(
        generate_ideal_csi(scenario, grid), ImpairmentConfig(gaussian_noise_std=0.02, seed=3)
    )
    values = trace.values.copy()
    values[rows, 14 * 50 + 7] = np.nan
    bad = CsiTrace(values, trace.times_s, trace.sample_rate_hz, grid)
    plan = segment(bad, _CONFIG)
    assert np.flatnonzero(~plan.accepted).tolist() == [14]
    assert plan.window_starts.tolist() == [0, 1, 2, 3, 4, *range(15, 21)]
    results = run_pipeline(bad, _CONFIG, plan=plan)
    assert all(abs(r.estimate.f_bpm - 15.0) < 1.0 for r in results)
    assert all(np.isfinite(list(r.stage_band_ratios.values())).all() for r in results)
    return plan


def test_a_non_finite_packet_rejects_only_its_frame(grid, recwarn):
    plan = _check_nan_in_frame_14(grid, slice(None))
    # the NaN stays in its own block of the averaged trace
    assert np.isnan(plan.averaged.values).any(axis=0).sum() == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_non_finite_cell_in_any_row_rejects_its_frame(grid, recwarn):
    # one NaN off the reference pair: the gate's own ratio stays finite
    _check_nan_in_frame_14(grid, 5)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_segment_rejects_frames_shorter_than_a_packet(grid):
    # 1 s frames need a packet rate of at least 0.5 Hz
    trace = generate_ideal_csi(_quick_scenario(duration_s=15.0), grid)
    slow = CsiTrace(trace.values, trace.times_s, 0.4, grid)
    with pytest.raises(ConfigurationError, match="one packet"):
        segment(slow, _CONFIG)


@pytest.mark.parametrize(
    "fs, fields",
    [
        (75.0, {}),                     # 107 blocks of 7 = 9.99 s
        (35.0, {}),                     # 116 blocks of 3 = 9.94 s
        (10.4, {}),                     # 10 frames of 10 = 9.6 s
    ],
)
def test_segment_rejects_windows_short_of_whole_blocks(grid, fs, fields):
    trace = generate_ideal_csi(_quick_scenario(duration_s=15.0, fs=fs), grid)
    config = dataclasses.replace(_CONFIG, **fields)  # passes the check in seconds
    with pytest.raises(ConfigurationError, match="under the 10 s minimum"):
        segment(trace, config)
    with pytest.raises(ConfigurationError, match="under the 10 s minimum"):
        run_pipeline(trace, config)


def test_a_trace_shorter_than_one_frame_gives_an_empty_plan(grid):
    # 30 packets at 50 Hz: six blocks of 5, but no whole 1 s frame
    trace = generate_ideal_csi(_quick_scenario(duration_s=0.6, fs=50.0), grid)
    plan = segment(trace, _CONFIG)
    assert len(trace) == 30 and len(plan.averaged) == 6
    assert plan.accepted.size == plan.motion_metric.size == plan.window_starts.size == 0
    with pytest.raises(NoWindowError, match="no complete window"):
        run_pipeline(trace, _CONFIG, plan=plan)


def test_segment_threshold_can_reject_everything(breathing_trace):
    config = dataclasses.replace(_CONFIG, motion_threshold_rad=-1.0)
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
    results = run_pipeline(impaired_trace, _CONFIG)
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


def test_run_pipeline_searches_in_closed_form(impaired_trace):
    results = run_pipeline(impaired_trace, _CONFIG)
    for r in results:
        assert not r.solution.fallback and r.solution.coefficients.size == 8
        genome = r.solution.genome(impaired_trace.grid.center_frequency_hz)
        assert genome.weights.size == 217       # every row but the denominator
        assert r.solution.fitness >= r.solution.pair_fitness
        assert r.stage_band_ratios["gass"] == r.solution.fitness


def test_a_trace_without_a_grid_is_rejected(impaired_trace):
    trace = impaired_trace
    with pytest.raises(ConfigurationError, match="grid"):
        CsiTrace(trace.values, trace.times_s, trace.sample_rate_hz, None)
    with pytest.raises(ConfigurationError, match="grid"):
        dataclasses.replace(trace, grid=None)


def _same_solution(a, b):
    return (
        a.denominator_index == b.denominator_index
        and a.pair_numerator == b.pair_numerator
        and a.coefficients.tobytes() == b.coefficients.tobytes()
    )


def test_run_pipeline_deterministic(impaired_trace):
    a = run_pipeline(impaired_trace, _CONFIG)
    b = run_pipeline(impaired_trace, _CONFIG)
    for ra, rb in zip(a, b):
        assert ra.estimate.f_bpm == rb.estimate.f_bpm
        assert _same_solution(ra.solution, rb.solution)
        assert ra.stage_band_ratios == rb.stage_band_ratios


def _outcomes(trace):
    """Each window's start frame, rate (None when withheld), flags and
    reason."""
    return [
        (r.start_frame, r.estimate and r.estimate.f_bpm, r.estimate and r.estimate.flags, r.reason)
        for r in run_pipeline(trace, _CONFIG)
    ]


def _assert_same_outcomes(moved, base):
    """The same windows, withheld estimates, flags and reasons, and every
    rate within 1e-9 bpm."""
    assert [(s, f is None, flags, reason) for s, f, flags, reason in moved] == [
        (s, f is None, flags, reason) for s, f, flags, reason in base
    ]
    assert all(abs(a[1] - b[1]) <= 1e-9 for a, b in zip(moved, base) if a[1] is not None)


def _readme_trace(scenario, grid, seed):
    """``scenario`` for 20 s on ``grid``, under the README's impairments."""
    scenario = dataclasses.replace(scenario, duration_s=20.0)
    impairments = ImpairmentConfig(
        pbd_noise_std=0.002, sfo_slope=1e-4, cfo_walk_std=0.05, impulse_rate_hz=0.2,
        impulse_log_std=0.4, impulse_correlation=1.0, gaussian_noise_std=0.03, seed=seed,
    )
    return apply_impairments(generate_ideal_csi(scenario, grid), impairments)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("tones", [218, 6])
def test_rates_ignore_a_global_complex_gain_and_conjugation(
    breathing_scenario, grid, tones, seed
):
    # every ratio cancels a gain common to all cells, and conjugating the
    # CSI conjugates every ratio, whose band ratios and rate do not change
    if tones == 6:
        grid = custom_grid(2.452e9 + 2.5e6 * np.arange(6))
    trace = _readme_trace(breathing_scenario, grid, seed)
    base = _outcomes(trace)
    assert len(base) == 11 and any(f is not None for _, f, _, _ in base)
    h = trace.values
    for values in (
        h * 1e3, h * 1e-6, h.conj(), h * np.exp(0.7j), h * np.exp(2.0j), h * np.exp(-3.0j)
    ):
        _assert_same_outcomes(_outcomes(dataclasses.replace(trace, values=values)), base)


def test_rates_ignore_a_common_phase_per_packet(breathing_scenario, grid):
    # every ratio cancels a phase common to all cells of a packet, as a
    # commodity receiver's carrier phase is
    trace = _readme_trace(breathing_scenario, grid, 0)
    base = _outcomes(trace)
    common = np.exp(1j * np.random.default_rng(0).uniform(-np.pi, np.pi, len(trace)))
    moved = _outcomes(dataclasses.replace(trace, values=trace.values * common))
    _assert_same_outcomes(moved, base)


# ----------------------------------------------------------------------------
# Single-quantity baselines
# ----------------------------------------------------------------------------


def test_single_component_estimates_track_breathing(breathing_trace):
    for component in ("amplitude", "phase"):
        estimates = single_component_estimates(
            breathing_trace, component, _CONFIG
        )
        assert len(estimates) == 6
        values = [e.f_bpm for e in estimates if e is not None and e.f_bpm]
        assert values, component
        assert abs(np.median(values) - 15.0) < DETECTION_TOLERANCE_BPM


def test_single_component_rejects_unknown_name(breathing_trace):
    with pytest.raises(ConfigurationError):
        single_component_estimates(breathing_trace, "quadrature", _CONFIG)


# ----------------------------------------------------------------------------
# Evaluation sweeps (small structural runs; accuracy is scored elsewhere)
# ----------------------------------------------------------------------------


def test_blind_spot_sweep_structure(grid):
    scenario = _quick_scenario()
    impairments = ImpairmentConfig(gaussian_noise_std=0.01, seed=3)
    report = blind_spot_sweep(
        scenario, impairments, grid, offsets_m=np.array([0.0, 0.03]),
        config=_CONFIG,
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
        config=_CONFIG, runs_per_level=1,
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


def test_snr_sweep_sums_each_level_over_its_runs(grid):
    import csibreath.pipeline as pipeline

    scenario, impairments, levels = _quick_scenario(), ImpairmentConfig(seed=1), [0.02, 0.5, 1.0]
    report = snr_sweep(scenario, impairments, grid, levels, _CONFIG, runs_per_level=2)
    rows = iter(report.rows)
    for level, noise_std in enumerate(levels):
        runs = [
            pipeline._condition_rates(
                scenario,
                dataclasses.replace(
                    impairments, gaussian_noise_std=noise_std, seed=1 + 1009 * level + run
                ),
                grid, _CONFIG, ("full", "amplitude"),
            )
            for run in range(2)
        ]
        for method in ("full", "amplitude"):
            row = next(rows)
            assert (row["noise_std"], row["method"]) == (noise_std, method)
            rates = [f for rates in runs for f in rates[method]]
            assert row["windows"] == len(rates)
            assert row["detected"] == sum(
                f is not None and abs(f - 15.0) < DETECTION_TOLERANCE_BPM for f in rates
            )
    assert len({r["detected"] for r in report.rows}) > 1


def test_condition_rates_are_the_methods_window_rates(grid):
    import csibreath.pipeline as pipeline

    scenario = _quick_scenario(duration_s=15.0)
    impairments = ImpairmentConfig(gaussian_noise_std=0.02, seed=6)
    methods = ("full", "amplitude", "phase")
    rates = pipeline._condition_rates(scenario, impairments, grid, _CONFIG, methods)
    assert tuple(rates) == methods
    trace = apply_impairments(generate_ideal_csi(scenario, grid), impairments)
    full = [r.estimate for r in run_pipeline(trace, _CONFIG)]
    assert len(full) == 6
    assert rates["full"] == [None if e is None else e.f_bpm for e in full]
    for component in ("amplitude", "phase"):
        estimates = single_component_estimates(trace, component, _CONFIG)
        assert rates[component] == [None if e is None else e.f_bpm for e in estimates]


def test_a_condition_without_a_complete_window_has_no_rates(grid):
    import csibreath.pipeline as pipeline

    gated = dataclasses.replace(_CONFIG, motion_threshold_rad=-1.0)  # rejects every frame
    scenario, impairments = _quick_scenario(), ImpairmentConfig(gaussian_noise_std=0.01, seed=3)
    rates = pipeline._condition_rates(
        scenario, impairments, grid, gated, ("full", "amplitude", "phase")
    )
    assert rates == {"full": [], "amplitude": [], "phase": []}
    blind = blind_spot_sweep(scenario, impairments, grid, [0.0, 0.03], gated)
    assert [(r["windows"], r["median_bpm"], r["detected"]) for r in blind.rows] == [
        (0, None, False)
    ] * 6
    assert set(blind.summary.values()) == {0.0}
    snr = snr_sweep(scenario, impairments, grid, [0.02], gated, runs_per_level=2)
    assert [(r["windows"], r["detected"], r["detection_rate_pct"]) for r in snr.rows] == [
        (0, 0, 0.0)
    ] * 2
    assert snr.summary == {"full": (0.0,), "amplitude": (0.0,)}


def test_sweeps_segment_each_trace_once(grid, monkeypatch, set_cpus):
    import csibreath.pipeline as pipeline

    set_cpus(1)  # the counter below sees only calls made in this process
    calls = []

    def counted(trace, block_size):
        calls.append(block_size)
        return average_phase_blocks(trace, block_size)

    monkeypatch.setattr(pipeline, "average_phase_blocks", counted)
    blind_spot_sweep(
        _quick_scenario(), ImpairmentConfig(gaussian_noise_std=0.01, seed=3), grid,
        offsets_m=np.array([0.0, 0.03]), config=_CONFIG,
    )
    assert len(calls) == 2
    snr_sweep(
        _quick_scenario(), ImpairmentConfig(seed=1), grid,
        noise_stds=np.array([0.02]), config=_CONFIG, runs_per_level=2,
    )
    assert len(calls) == 4


def test_shared_plan_gives_the_same_results(impaired_trace):
    plan = segment(impaired_trace, _CONFIG)
    shared = run_pipeline(impaired_trace, _CONFIG, plan=plan)
    alone = run_pipeline(impaired_trace, _CONFIG)
    assert [r.estimate.f_bpm for r in shared] == [r.estimate.f_bpm for r in alone]
    assert [r.stage_band_ratios for r in shared] == [r.stage_band_ratios for r in alone]
    for component in ("amplitude", "phase"):
        a = single_component_estimates(impaired_trace, component, _CONFIG, plan=plan)
        b = single_component_estimates(impaired_trace, component, _CONFIG)
        assert [e and e.f_bpm for e in a] == [e and e.f_bpm for e in b]


def test_baselines_do_not_depend_on_the_cpu_count(impaired_trace, monkeypatch, set_cpus):
    import csibreath.pipeline as pipeline

    def fields(estimate):
        return None if estimate is None else dataclasses.astuple(estimate)

    outputs = []
    for cpus, chunks in ((1, 1), (2, 2), (2, 3)):
        set_cpus(cpus)
        # the windows in this many chunks; three share a pool of two
        monkeypatch.setattr(pipeline, "workers", lambda: chunks)
        outputs.append([
            [fields(e) for e in single_component_estimates(impaired_trace, component, _CONFIG)]
            for component in ("amplitude", "phase")
        ])
    assert len(outputs[0][0]) == 6
    assert outputs[0] == outputs[1] == outputs[2]


def test_each_window_builds_one_guard_table(impaired_trace, monkeypatch, set_cpus):
    import csibreath.gass as gass
    import csibreath.pipeline as pipeline

    set_cpus(1)  # the counter below sees only calls made in this process
    built = []

    def counted(matrix, *args):
        built.append(matrix.shape)
        return guard_table(matrix, *args)

    monkeypatch.setattr(pipeline, "guard_table", counted)
    monkeypatch.setattr(gass, "guard_table", counted)
    results = run_pipeline(impaired_trace, _CONFIG)
    assert len(built) == len(results) > 0
    monkeypatch.undo()
    alone = run_pipeline(impaired_trace, _CONFIG)
    assert [r.estimate.f_bpm for r in results] == [r.estimate.f_bpm for r in alone]


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
            offsets_m=np.array([0.0]), config=_CONFIG,
        )


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _fail_at_two_and_four(i):
    if i in (2, 4):
        raise ConfigurationError(f"condition {i} failed")
    return i


@pytest.mark.parametrize("cpus", [1, 2])
def test_conditions_map_in_order_on_one_worker_per_cpu(set_cpus, cpus):
    set_cpus(cpus)
    assert parallel.pool_map(_square, range(7)) == [x * x for x in range(7)]
    assert parallel.pool_map(pow, [2, 3, 5], [3, 2, 1]) == [8, 9, 5]
    pids = set(parallel.pool_map(_pid, range(4)))
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and 1 <= len(pids) <= cpus


def _locked_square(lock, x):
    with lock:
        return x * x


def test_what_a_task_binds_is_not_pickled_per_task(set_cpus):
    if get_context().get_start_method() != "fork":
        pytest.skip("a bound lock reaches a worker unpickled only under fork")
    set_cpus(2)
    # a lock cannot be pickled: the map works only if the bound function is
    # handed to each worker when it starts, not sent with every item
    run = functools.partial(_locked_square, threading.Lock())
    assert parallel.pool_map(run, [1, 2, 3]) == [1, 4, 9]


def _pids_inside(_):
    return os.getpid(), parallel.pool_map(_pid, range(4))


def test_a_map_inside_a_pool_worker_runs_in_the_worker(set_cpus):
    set_cpus(2)
    assert parallel.workers() == 2
    for outer, inner in parallel.pool_map(_pids_inside, range(2)):
        assert outer != os.getpid() and inner == [outer] * 4


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_condition_raises(set_cpus, cpus):
    set_cpus(cpus)
    with pytest.raises(ConfigurationError, match="^condition 2 failed$"):
        parallel.pool_map(_fail_at_two_and_four, range(6))


def test_failing_sweep_position_raises_the_serial_exception(grid, set_cpus):
    def failure():
        with pytest.raises(ConfigurationError) as info:
            blind_spot_sweep(
                _quick_scenario(), ImpairmentConfig(seed=3), grid,
                offsets_m=np.array([0.0, -20.0]), config=_CONFIG,
            )
        return str(info.value)

    set_cpus(1)
    serial = failure()
    assert "dynamic path length must be positive" in serial
    set_cpus(2)
    assert failure() == serial


def test_sweep_conditions_run_in_a_spawned_worker(grid):
    import csibreath.pipeline as pipeline

    args = (_quick_scenario(), ImpairmentConfig(gaussian_noise_std=0.01, seed=4), grid,
            _CONFIG, ("full", "amplitude", "phase"))
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        spawned = pool.submit(pipeline._condition_rates, *args).result(timeout=120)
    assert spawned == pipeline._condition_rates(*args)
    assert len(spawned["full"]) == 3


@pytest.mark.parametrize(
    "sweep, kwargs",
    [
        (blind_spot_sweep, {"offsets_m": []}),
        (blind_spot_sweep, {"offsets_m": [0.0, np.nan]}),
        (blind_spot_sweep, {"offsets_m": 0.03}),
        (blind_spot_sweep, {"offsets_m": ["near", "far"]}),
        (snr_sweep, {"noise_stds": []}),
        (snr_sweep, {"noise_stds": [0.02, np.inf]}),
        (snr_sweep, {"noise_stds": [-0.1]}),
        (snr_sweep, {"noise_stds": [0.02], "runs_per_level": 0}),
        (snr_sweep, {"noise_stds": [0.02], "runs_per_level": 1.5}),
        (snr_sweep, {"noise_stds": [0.02], "runs_per_level": True}),
    ],
)
def test_sweeps_reject_empty_or_invalid_conditions(grid, sweep, kwargs):
    with pytest.raises(ConfigurationError):
        sweep(_quick_scenario(), ImpairmentConfig(seed=1), grid, config=_CONFIG, **kwargs)
