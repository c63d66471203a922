"""End-to-end respiration sensing: segmentation, per-window search, stream
combination, projection, filtering, and rate estimation.

The per-window search is ``gass.solve_delay_basis``, the closed-form
delay-basis solve over a denominator the window's own CSI picks (its
steadiest kept row), and the stream fan-out divides its numerator by the
16 steadiest kept rows (``gass.FANOUT_ROWS``). The search draws nothing at
random, so a window's solution depends only on its CSI, in ``run`` and
``gass-audit`` alike.

A ``CsiTrace`` is block-averaged once, in ``segment``, the one stage that
reads a ``PipelineConfig``: after it, a window reads only the plan and the
modules' constants. The packets are screened in one-second frames by a
motion gate on the phase of a reference ratio pair (ratios are offset-free,
so a gross-motion artifact shows up as a large in-frame phase excursion).
Ten-second analysis windows are assembled only from consecutive accepted
frames, sliding by one frame, and every window is a slice of the averaged
trace (``WindowPlan.window``), for the live run, the single-component
baselines and the search audit alike. Both evaluation sweeps run each
condition through one runner (``_condition_rates``): it synthesizes and
impairs the condition's trace (``simulate``, which this module imports for
the sweeps alone), segments it once, hands the plan to both the pipeline and
the baselines, and returns each method's per-window rates; a sweep keeps
only its own aggregation. Each window runs the full stack, or a baseline's,
and yields an estimate with provenance; a stage failure yields a
reason-coded empty result instead of aborting.

Work that splits into independent pieces runs in a process pool of one
worker per CPU in the process's affinity mask (``parallel.pool_map``), and
its results are put back in order, so no output depends on the CPU count.
The evaluation sweeps map the runner over their conditions (positions, or
noise level and run), at most ``MAX_CONDITIONS`` of them. The pipeline
and the baselines each map their windows once, in contiguous ranges
(``RANGES_PER_WORKER`` per pool worker, so a faster CPU takes more of
them), through one window runner (``_run_windows``): a range takes its
windows in order, from guard table
through the search to the readout, or through a baseline's ratio to the
readout. ``gass-audit`` takes window 0's search from the same runner. A
window depends on no other; each range's task is its bounds, and its
windows are cut from the whole plan by ``WindowPlan.window``. Inside a pool
worker, such as a sweep condition, everything runs in-process, and so does
everything with one usable CPU (``taskset -c 0``).
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import gass as gass_mod
from .combine import GAIN_WINDOW_S, SMOOTHING_S, align_streams, combine
from .errors import (
    ConfigurationError,
    NoWindowError,
    StreamGuardError,
    ZeroVarianceError,
    check_integer,
    check_real,
)
from .gass import GassSolution
from .grid import SubcarrierGrid
from .parallel import pool_map, workers
from .rate import MIN_WINDOW_S, RespirationEstimate, estimate_rate
from .ratio import (
    GuardTable,
    average_phase_blocks,
    guard_table,
    guarded_ratio,
    median,
    ssnr_values,
)
from .simulate import (
    ChannelScenario,
    ImpairmentConfig,
    SinusoidMotion,
    apply_impairments,
    generate_ideal_csi,
)
from .trace import CsiTrace
from .waveform import clean, project

logger = logging.getLogger(__name__)

DETECTION_TOLERANCE_BPM = 1.0
FRAME_S = 1.0  # motion-gate frame; windows are whole frames and slide by one
# Window ranges a run maps per pool worker: a worker that finishes its
# ranges early takes the next, so a faster CPU takes more windows
RANGES_PER_WORKER = 8

# Conditions one sweep may run: each is a synthesis and a full run, so a
# larger count is a typo, and its condition list would not fit in memory
MAX_CONDITIONS = 100_000

_STAGE_ERRORS = (ConfigurationError, StreamGuardError, ZeroVarianceError)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of ``segment``, the one stage that reads them. The settings the
    method fixes are module constants, or follow from the trace: ``FRAME_S``,
    the block length and the reference pair here, the gain and smoothing
    windows and the stream cut in ``combine``, the cleanup filters in
    ``waveform`` and the readout's peak prominence in ``rate``."""

    window_s: float = 10.0            # rounded to whole frames of FRAME_S
    motion_threshold_rad: float = 2.0

    def __post_init__(self) -> None:
        check_real("window_s", self.window_s)
        if round(self.window_s / FRAME_S) * FRAME_S < MIN_WINDOW_S:
            raise ConfigurationError(
                f"window_s must round to whole {FRAME_S:g} s frames spanning at least "
                f"{MIN_WINDOW_S:g} s, the minimum for rate estimation "
                f"(window_s={self.window_s!r})"
            )
        # a negative threshold is allowed: it rejects every frame
        check_real("motion_threshold_rad", self.motion_threshold_rad, finite=False)


@dataclass(frozen=True)
class WindowPlan:
    """Per-frame motion screening, the complete-window start indices, and
    the block-averaged trace every window is sliced from."""

    frame_samples: int
    window_frames: int
    block_size: int            # packets per averaged block (K1)
    accepted: np.ndarray       # bool, one per complete frame
    motion_metric: np.ndarray  # peak-to-peak ratio phase per frame, rad
    window_starts: np.ndarray  # frame index of each complete window
    averaged: CsiTrace         # the whole trace, block-averaged

    def window(self, start_frame: int) -> CsiTrace:
        """Block-averaged CSI of the window that starts at ``start_frame``.

        It starts at averaged block ``start_frame * frame_samples //
        block_size`` and holds ``window_samples // block_size`` blocks, bit
        for bit those of ``average_phase_blocks`` over the packets from that
        block's first; when ``block_size`` divides ``frame_samples`` these
        are exactly the window's own packets.
        """
        first = start_frame * self.frame_samples // self.block_size
        blocks = self.window_frames * self.frame_samples // self.block_size
        return self.averaged[first : first + blocks]


def segment(trace: CsiTrace, config: PipelineConfig | None = None) -> WindowPlan:
    """Screen one-second frames via the reference ratio pair's phase.

    The trace is averaged in blocks of K1 = F_s / 10 packets (at least one),
    ten blocks a second, and the reference pair is the grid's first and
    last subcarrier. The metric is the in-frame peak-to-peak of the
    block-averaged ratio phase, unwrapped within the frame (block averaging
    keeps packet-boundary jitter from tripping the gate). A frame's metric
    depends only on the blocks that start in it, and is NaN, so the frame
    fails, when any of them holds a non-finite value. Frames above the
    threshold are rejected; windows require ``window_s`` consecutive
    accepted frames and slide by one frame. Raises ConfigurationError when
    a window's whole blocks hold less than the rate readout's 10 s minimum,
    or when the grid has fewer than two subcarriers; after these checks no
    window's search can fail.
    """
    config = config or PipelineConfig()
    frame_samples = int(round(FRAME_S * trace.sample_rate_hz))
    if frame_samples < 1:
        raise ConfigurationError(f"a {FRAME_S:g} s frame is shorter than one packet")
    window_frames = int(round(config.window_s / FRAME_S))
    n_frames = len(trace) // frame_samples
    n_rows = trace.values.shape[0]
    if n_rows < 2:
        raise ConfigurationError(f"a ratio needs at least two subcarriers; the grid has {n_rows}")

    k1 = max(1, int(trace.sample_rate_hz // 10))
    # frames are whole packets and windows whole blocks, so a geometry that
    # passed PipelineConfig in seconds can still come up short here
    window_blocks = window_frames * frame_samples // k1
    block_rate = trace.sample_rate_hz / k1
    if window_blocks < MIN_WINDOW_S * block_rate:
        raise ConfigurationError(
            f"windows of {window_blocks} blocks at {block_rate:g} Hz hold "
            f"{window_blocks / block_rate:g} s, under the {MIN_WINDOW_S:g} s minimum "
            f"for rate estimation (a frame is {frame_samples} packets, a block {k1})"
        )
    averaged = average_phase_blocks(trace, k1)
    ratio_values, _ = guarded_ratio(averaged.values[0], averaged.values[-1])
    phase = np.angle(ratio_values)
    phase[~np.isfinite(averaged.values).all(axis=0)] = np.nan  # fails the block's frame
    # frame f holds the blocks that start in it, bounds[f] to bounds[f + 1] - 1:
    # at least one, since K1 = max(1, F_s // 10) packets is at most a frame's.
    # Each frame unwraps its own blocks, so its metric depends on them alone
    bounds = np.searchsorted(np.arange(phase.size) * k1 // frame_samples, np.arange(n_frames + 1))
    metric = np.array([np.ptp(np.unwrap(phase[a:b])) for a, b in zip(bounds[:-1], bounds[1:])])
    accepted = metric <= config.motion_threshold_rad  # NaN (a non-finite block) fails

    starts = [
        s
        for s in range(0, n_frames - window_frames + 1)
        if accepted[s : s + window_frames].all()
    ]
    return WindowPlan(
        frame_samples=frame_samples,
        window_frames=window_frames,
        block_size=k1,
        accepted=accepted,
        motion_metric=metric,
        window_starts=np.array(starts, dtype=int),
        averaged=averaged,
    )


@dataclass
class WindowResult:
    """Estimate plus everything needed to reproduce it."""

    window_id: int
    start_frame: int
    start_time_s: float
    estimate: RespirationEstimate | None
    solution: GassSolution | None
    stage_band_ratios: dict[str, float]
    reason: str | None = None
    gass_reused = False  # not a field: bench/tracer.py reads it; delete with ROADMAP item 19


def _run_stages(
    window: CsiTrace,
    solution: GassSolution,
    window_id: int,
    guards: GuardTable,
    ranking: np.ndarray,
) -> tuple[RespirationEstimate, dict[str, float]]:
    """Stream fan-out through rate estimation for one window, given its
    block-averaged CSI, its solution, and its matrix's ``guard_table`` and
    ``gass.steadiness_ranking``. The numerator is rebuilt on its grid."""
    averaged, eff_rate = window.values, window.sample_rate_hz
    genome = solution.genome(window.grid.center_frequency_hz)
    streams = gass_mod.build_streams(genome, averaged, eff_rate, guards=guards, ranking=ranking)
    aligned = align_streams(streams, gain_window=max(1, int(GAIN_WINDOW_S * eff_rate)))
    combined = combine(aligned, smoothing_window=max(1, int(SMOOTHING_S * eff_rate)))
    projected = project(combined.smoothed, eff_rate)
    filtered, _ = clean(projected.series, eff_rate)
    estimate = estimate_rate(filtered, eff_rate, window_id=window_id)
    stage_ratios = {
        "gass": solution.fitness,
        "combined": float(ssnr_values(combined.values[None, :], eff_rate)[0]),
        "smoothed": float(ssnr_values(combined.smoothed[None, :], eff_rate)[0]),
        "projected": projected.band_ratio,
        "filtered": float(ssnr_values(filtered[None, :], eff_rate)[0]),
    }
    return estimate, stage_ratios


def run_pipeline(
    trace: CsiTrace,
    config: PipelineConfig | None = None,
    *,
    plan: WindowPlan | None = None,
) -> list[WindowResult]:
    """Estimate the respiration rate on every complete window.

    Deterministic for a fixed (trace, config), with no random draw. The
    search (``gass.solve_delay_basis``) needs the trace's grid for its
    subcarrier frequencies. ``plan`` is ``segment(trace, config)`` when the
    caller already has it. Each window builds one ``guard_table`` and one
    ``gass.steadiness_ranking`` for its search and stream fan-out. The
    windows run through ``_window_results``.
    """
    plan = plan if plan is not None else segment(trace, config)
    return _window_results(trace, plan, "full")


def _window_results(trace: CsiTrace, plan: WindowPlan, method: str) -> list[WindowResult]:
    """One ``WindowResult`` per window of ``plan`` under ``method``.

    The windows run in one ``parallel.pool_map`` over contiguous ranges of
    them, each in window order (``_run_windows``): one range in-process, or
    ``RANGES_PER_WORKER`` per worker of a pool. The plan is bound once for
    every range. A stage error is carried as a value, so a failed window is
    logged and reported in window order, keeping the solution its search
    found, and the results depend neither on the CPU count nor on the
    ranges.
    """
    if plan.window_starts.size == 0:
        raise NoWindowError("no complete window of accepted frames")
    count = plan.window_starts.size
    pool = workers()
    parts = min(1 if pool == 1 else RANGES_PER_WORKER * pool, count)
    bounds = [count * i // parts for i in range(parts + 1)]
    run = functools.partial(_run_windows, plan, method=method)
    outcomes = [item for items in pool_map(run, bounds[:-1], bounds[1:]) for item in items]
    label = "window" if method == "full" else f"{method}-only window"
    results: list[WindowResult] = []
    for window_id, (start_frame, (solution, outcome)) in enumerate(
        zip(plan.window_starts, outcomes)
    ):
        failed = isinstance(outcome, Exception)
        if failed:
            logger.warning("%s %d failed: %s", label, window_id, outcome)
        estimate, stage_ratios = (None, {}) if failed else outcome
        results.append(
            WindowResult(
                window_id=window_id,
                start_frame=int(start_frame),
                start_time_s=float(trace.times_s[start_frame * plan.frame_samples]),
                estimate=estimate,
                solution=solution,
                stage_band_ratios=stage_ratios,
                reason=f"{type(outcome).__name__}: {outcome}" if failed else None,
            )
        )
    return results


def _run_windows(
    plan: WindowPlan, first: int, stop: int, method: str
) -> list[tuple[GassSolution | None, tuple[RespirationEstimate, dict[str, float]] | Exception]]:
    """(solution, stage outcome) of windows ``first`` to ``stop - 1`` of
    ``plan``, in window order. The outcome is the estimate and stage band
    ratios, or the stage error that stopped them.

    ``method`` "full" runs the window's guard table and steadiness ranking,
    then its ``gass.solve_delay_basis`` solution and ``_run_stages``, which
    share them. "amplitude" and "phase" are the single-component
    baselines: |ratio| or the unwrapped angle of the reference pair's ratio
    (the grid's first and last subcarrier), cleaned and read out, with no
    solution and no stage band ratios.
    """
    outcomes: list = []
    for window_id in range(first, stop):
        window = plan.window(int(plan.window_starts[window_id]))
        rate = window.sample_rate_hz
        solution = None
        try:
            if method == "full":
                guards = guard_table(window.values)
                ranking = gass_mod.steadiness_ranking(window.values, guards)
                solution = gass_mod.solve_delay_basis(
                    window.values, window.grid.center_frequency_hz, rate, guards, ranking
                )
                outcome = _run_stages(window, solution, window_id, guards, ranking)
            else:
                values, _ = guarded_ratio(window.values[0], window.values[-1])
                series = np.abs(values) if method == "amplitude" else np.unwrap(np.angle(values))
                outcome = estimate_rate(clean(series, rate)[0], rate, window_id=window_id), {}
        except _STAGE_ERRORS as exc:
            outcome = exc
        outcomes.append((solution, outcome))
    return outcomes


# ----------------------------------------------------------------------------
# Reference single-component estimators and evaluation sweeps
# ----------------------------------------------------------------------------


def single_component_estimates(
    trace: CsiTrace,
    component: str,
    config: PipelineConfig | None = None,
    *,
    plan: WindowPlan | None = None,
) -> list[RespirationEstimate | None]:
    """Amplitude-only or phase-only rate estimates on the reference pair.

    The classic single-quantity baselines: the same windowing, filtering,
    and rate stages as the full pipeline, but the waveform is |ratio| or
    unwrapped angle(ratio) of the fixed reference pair, with no subcarrier
    search, combination, or projection. These are the estimators that
    exhibit position blind spots. Their windows run through
    ``_window_results``, as the pipeline's do. ``plan`` is
    ``segment(trace, config)`` when the caller already has it.
    """
    if component not in ("amplitude", "phase"):
        raise ConfigurationError("component must be 'amplitude' or 'phase'")
    plan = plan if plan is not None else segment(trace, config)
    return [r.estimate for r in _window_results(trace, plan, component)]


@dataclass(frozen=True)
class EvaluationReport:
    """Sweep output: one row per (condition, method) plus aggregates."""

    rows: tuple[dict, ...]
    summary: dict
    meta: dict


def _detected(f_bpm: float | None, truth_bpm: float) -> bool:
    """Whether a rate counts as a detection: within 1 bpm of the truth."""
    return f_bpm is not None and abs(f_bpm - truth_bpm) < DETECTION_TOLERANCE_BPM


def _scenario_truth_bpm(scenario: ChannelScenario) -> float:
    if not isinstance(scenario.motion, SinusoidMotion):
        raise ConfigurationError("sweeps need a sinusoid motion for ground truth")
    return 60.0 * scenario.motion.rate_hz


def check_condition_count(count: int, source: str) -> None:
    """Raise ConfigurationError when ``source`` gives a sweep more than
    ``MAX_CONDITIONS`` conditions, before any list of them is built."""
    if count > MAX_CONDITIONS:
        raise ConfigurationError(
            f"{source} gives {count} sweep conditions, more than the "
            f"{MAX_CONDITIONS} a sweep may run"
        )


def _conditions(values, name: str, minimum: float = -math.inf) -> np.ndarray:
    """A sweep's condition values as a non-empty 1-D float array of finite
    numbers, none a boolean and none below ``minimum`` (``check_real``)."""
    items = np.asarray(values, dtype=object)
    if items.ndim != 1 or items.size == 0:
        raise ConfigurationError(f"{name} must be a non-empty list of numbers, got {values!r}")
    for item in items:
        check_real(name, item, minimum)
    return items.astype(float)


def _condition_rates(
    scenario: ChannelScenario,
    impairments: ImpairmentConfig,
    grid: SubcarrierGrid,
    config: PipelineConfig,
    methods: tuple[str, ...],
) -> dict[str, list[float | None]]:
    """One sweep condition: the per-window rates of each method on a fresh
    synthesis of ``scenario`` under ``impairments``, segmented once.

    "full" is ``run_pipeline``, and "amplitude" and "phase" are the
    single-component baselines. A window whose estimate was withheld reads
    None, and a method without a complete window gets no rates.
    """
    trace = apply_impairments(generate_ideal_csi(scenario, grid), impairments)
    plan = segment(trace, config)
    rates: dict[str, list[float | None]] = {}
    for method in methods:
        try:
            if method == "full":
                estimates = [r.estimate for r in run_pipeline(trace, plan=plan)]
            else:
                estimates = single_component_estimates(trace, method, plan=plan)
        except NoWindowError:
            estimates = []
        rates[method] = [None if e is None else e.f_bpm for e in estimates]
    return rates


def blind_spot_sweep(
    scenario: ChannelScenario,
    impairments: ImpairmentConfig,
    grid: SubcarrierGrid,
    offsets_m: np.ndarray,
    config: PipelineConfig | None = None,
) -> EvaluationReport:
    """Detectability of three estimators across dynamic-path positions.

    Position ``i`` shifts the base dynamic path length by ``offsets_m[i]``
    and draws fresh impairments (seed + i); the full pipeline and both
    single-component baselines are scored on it, and detected means the
    median window estimate is within 1 bpm of the scenario's rate. Each
    position is one condition of ``_condition_rates``, the runner
    ``snr_sweep`` shares, mapped on every CPU in the process's affinity mask
    (``parallel.pool_map``); the rows come back in offset order, so the
    report does not depend on the CPU count. ``offsets_m`` must be a
    non-empty list of at most ``MAX_CONDITIONS`` finite numbers.
    """
    truth = _scenario_truth_bpm(scenario)
    offsets = _conditions(offsets_m, "offsets_m")
    check_condition_count(offsets.size, "offsets_m")
    methods = ("full", "amplitude", "phase")
    scenarios = [
        dataclasses.replace(
            scenario, base_dynamic_length_m=scenario.base_dynamic_length_m + offset
        )
        for offset in offsets
    ]
    draws = [
        dataclasses.replace(impairments, seed=impairments.seed + i)
        for i in range(offsets.size)
    ]
    run = functools.partial(_condition_rates, grid=grid, config=config, methods=methods)
    rows = []
    for offset, rates in zip(offsets, pool_map(run, scenarios, draws)):
        for method in methods:
            values = [f for f in rates[method] if f is not None]
            median_bpm = float(median(values)) if values else None
            rows.append(
                {
                    "offset_m": float(offset),
                    "method": method,
                    "windows": len(rates[method]),
                    "median_bpm": median_bpm,
                    "truth_bpm": truth,
                    "detected": _detected(median_bpm, truth),
                }
            )
    summary = {
        f"{method}_detectability_pct": 100.0
        * np.mean([r["detected"] for r in rows if r["method"] == method])
        for method in methods
    }
    meta = {
        "positions": offsets.size,
        "truth_bpm": truth,
        "base_dynamic_length_m": scenario.base_dynamic_length_m,
    }
    return EvaluationReport(rows=tuple(rows), summary=summary, meta=meta)


def snr_sweep(
    scenario: ChannelScenario,
    impairments: ImpairmentConfig,
    grid: SubcarrierGrid,
    noise_stds: np.ndarray,
    config: PipelineConfig | None = None,
    runs_per_level: int = 1,
) -> EvaluationReport:
    """Per-window detection rate versus additive noise level.

    Compares the full pipeline against the amplitude-only baseline at each
    noise standard deviation; detection is a per-window |error| < 1 bpm.
    Run ``run`` of level ``level`` is one condition of ``_condition_rates``,
    the runner ``blind_spot_sweep`` shares, with that noise level and
    impairment seed + 1009 * level + run; a level's counts are summed in run
    order. ``noise_stds`` must be a non-empty list of finite numbers >= 0,
    and ``runs_per_level`` an int64 >= 1, with at most ``MAX_CONDITIONS``
    runs in all.
    """
    truth = _scenario_truth_bpm(scenario)
    levels = _conditions(noise_stds, "noise_stds", 0.0)
    check_integer("runs_per_level", runs_per_level, 1, np.iinfo(np.int64).max)
    check_condition_count(levels.size * int(runs_per_level), "noise_stds x runs_per_level")
    methods = ("full", "amplitude")
    draws = [
        dataclasses.replace(
            impairments,
            gaussian_noise_std=float(noise_std),
            seed=impairments.seed + 1009 * level + run,
        )
        for level, noise_std in enumerate(levels)
        for run in range(runs_per_level)
    ]
    run = functools.partial(_condition_rates, grid=grid, config=config, methods=methods)
    per_run = pool_map(run, [scenario] * len(draws), draws)
    rows: list[dict] = []
    for level, noise_std in enumerate(levels):
        runs = per_run[level * runs_per_level : (level + 1) * runs_per_level]
        for method in methods:
            detected = sum(_detected(f, truth) for rates in runs for f in rates[method])
            total = sum(len(rates[method]) for rates in runs)
            rows.append(
                {
                    "noise_std": float(noise_std),
                    "method": method,
                    "windows": total,
                    "detected": detected,
                    "detection_rate_pct": 100.0 * detected / total if total else 0.0,
                }
            )
    summary = {
        method: tuple(r["detection_rate_pct"] for r in rows if r["method"] == method)
        for method in methods
    }
    meta = {"truth_bpm": truth, "levels": levels.size, "runs_per_level": runs_per_level}
    return EvaluationReport(rows=tuple(rows), summary=summary, meta=meta)
