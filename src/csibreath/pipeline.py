"""End-to-end respiration sensing: segmentation, per-window search, stream
combination, projection, filtering, and rate estimation.

The per-window search is ``gass.solve_delay_basis``, the closed-form
delay-basis solve over a denominator the window's own CSI picks (its
steadiest kept row), and the stream fan-out divides its numerator by every
row the guard keeps. The search draws nothing at random, so a window's
solution depends only on its CSI, in ``run`` and ``gass-audit`` alike.

A ``CsiTrace`` is block-averaged once, in ``segment``. The packets are
screened in one-second frames by a motion gate on the phase of a reference
ratio pair (ratios are offset-free, so a gross-motion artifact shows up as a
large in-frame phase excursion). Ten-second analysis windows are assembled
only from consecutive accepted frames, sliding by one frame, and every
window is a slice of the averaged trace (``WindowPlan.window``), for the
live run, its replay, the single-component baselines and the search audit
alike. Both evaluation sweeps run each condition through one runner
(``_condition_rates``): it synthesizes and impairs the condition's trace,
segments it once, hands the plan to both the pipeline and the baselines,
and returns each method's per-window rates; a sweep keeps only its own
aggregation. Each window runs the full stack and yields an estimate with
provenance; a stage failure yields a reason-coded empty result instead of
aborting.

Work that splits into independent pieces runs in a process pool of one
worker per CPU in the process's affinity mask (``parallel.pool_map``), and
its results are put back in order, so no output depends on the CPU count.
The evaluation sweeps map the runner over their conditions (positions, or
noise level and run). A run maps its windows once, in contiguous chunks,
and each chunk takes its windows in order from guard table through the
search to the readout. A window depends on no other, so a chunk is the plan
cut down to its own windows and their blocks (``WindowPlan.chunk``), and
its windows are cut by the same ``WindowPlan.window`` as the whole plan's.
Inside a pool worker, such as a sweep condition, everything runs
in-process, and so does everything with one usable CPU (``taskset -c 0``).
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
    ssnr_values,
    unwrap_finite,
)
from .simulate import (
    ChannelScenario,
    CsiTrace,
    ImpairmentConfig,
    SinusoidMotion,
    apply_impairments,
    generate_ideal_csi,
)
from .waveform import clean, project

logger = logging.getLogger(__name__)

DETECTION_TOLERANCE_BPM = 1.0
FRAME_S = 1.0  # motion-gate frame; windows are whole frames and slide by one

_STAGE_ERRORS = (ConfigurationError, StreamGuardError, ZeroVarianceError)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full pipeline. The stage settings the method fixes are
    constants of the modules that use them: ``FRAME_S`` here, the gain and
    smoothing windows in ``combine``, the cleanup filters in ``waveform``
    and the readout's peak prominence in ``rate.estimate_rate``."""

    phase_block: int = 0              # K1 packets averaged; 0 = F_s / 10
    mu: float = 0.5                   # stream survival threshold fraction
    window_s: float = 10.0            # rounded to whole frames of FRAME_S
    motion_threshold_rad: float = 2.0
    reference_pair: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not (0 < self.window_s < math.inf) or (
            round(self.window_s / FRAME_S) * FRAME_S < MIN_WINDOW_S
        ):
            raise ConfigurationError(
                f"window_s must be finite and round to whole {FRAME_S:g} s frames "
                f"spanning at least {MIN_WINDOW_S:g} s, the minimum for rate "
                f"estimation (window_s={self.window_s!r})"
            )
        check_integer("phase_block", self.phase_block, 0)
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigurationError(f"mu must lie in [0, 1], got {self.mu!r}")
        # a negative threshold is allowed: it rejects every frame
        check_real("motion_threshold_rad", self.motion_threshold_rad, finite=False)
        pair = self.reference_pair
        if pair is not None:
            if not isinstance(pair, tuple) or len(pair) != 2 or pair[0] == pair[1]:
                raise ConfigurationError(
                    f"reference_pair must be two distinct subcarrier indices, got {pair!r}"
                )
            for index in pair:
                check_integer("reference_pair index", index, 0)

    def block_size(self, sample_rate_hz: float) -> int:
        return self.phase_block if self.phase_block > 0 else max(
            1, int(sample_rate_hz // 10)
        )

    def resolve_reference_pair(self, n_subcarriers: int) -> tuple[int, int]:
        """The motion gate's and the baselines' ratio pair on a grid of
        ``n_subcarriers``; by default its first and last subcarrier."""
        if n_subcarriers < 2:
            raise ConfigurationError(
                f"a ratio needs at least two subcarriers; the grid has {n_subcarriers}"
            )
        if self.reference_pair is None:
            return (0, n_subcarriers - 1)
        if max(self.reference_pair) >= n_subcarriers:
            raise ConfigurationError(
                f"reference_pair {list(self.reference_pair)} needs indices below "
                f"{n_subcarriers}, the grid's subcarrier count"
            )
        return self.reference_pair


@dataclass(frozen=True)
class WindowPlan:
    """Per-frame motion screening, the complete-window start indices, and
    the block-averaged trace every window is sliced from."""

    frame_samples: int
    window_frames: int
    block_size: int            # packets per averaged block (K1)
    motion_threshold_rad: float
    reference_pair: tuple[int, int]
    accepted: np.ndarray       # bool, one per complete frame
    motion_metric: np.ndarray  # peak-to-peak ratio phase per frame, rad
    window_starts: np.ndarray  # frame index of each complete window
    averaged: CsiTrace         # the trace's blocks from ``first_block`` on
    first_block: int = 0       # the trace's block that ``averaged`` starts with

    def _blocks(self, start_frame: int) -> tuple[int, int]:
        """The trace's blocks [first, stop) of the window at ``start_frame``."""
        first = start_frame * self.frame_samples // self.block_size
        return first, first + self.window_frames * self.frame_samples // self.block_size

    def window(self, start_frame: int) -> CsiTrace:
        """Block-averaged CSI of the window that starts at ``start_frame``.

        It starts at averaged block ``start_frame * frame_samples //
        block_size`` and holds ``window_samples // block_size`` blocks; when
        ``block_size`` divides ``frame_samples`` these are exactly the blocks
        of the window's own packets.
        """
        first, stop = self._blocks(start_frame)
        return self.averaged[first - self.first_block : stop - self.first_block]

    def chunk(self, first: int, stop: int) -> WindowPlan:
        """The plan cut down to windows ``first`` to ``stop - 1``: their
        starts, and only the averaged blocks they span, so that a pool
        worker receives each of those blocks once. Its ``window`` cuts them
        as this plan's does."""
        starts = self.window_starts[first:stop]
        lo = self._blocks(int(starts[0]))[0]
        hi = self._blocks(int(starts[-1]))[1]
        return dataclasses.replace(
            self,
            window_starts=starts,
            averaged=self.averaged[lo - self.first_block : hi - self.first_block],
            first_block=lo,
        )


def segment(trace: CsiTrace, config: PipelineConfig | None = None) -> WindowPlan:
    """Screen one-second frames via the reference ratio pair's phase.

    The metric is the in-frame peak-to-peak of the unwrapped, block-averaged
    ratio phase (block averaging keeps packet-boundary jitter from tripping
    the gate). Frames above the threshold are rejected; windows require
    ``window_s`` consecutive accepted frames and slide by one frame. Raises
    ConfigurationError when a window's whole blocks hold less than the rate
    readout's 10 s minimum or fewer than two blocks, or when the grid has
    fewer than two subcarriers or lacks the reference pair; after these
    checks no window's search can fail.
    """
    config = config or PipelineConfig()
    frame_samples = int(round(FRAME_S * trace.sample_rate_hz))
    if frame_samples < 1:
        raise ConfigurationError(f"a {FRAME_S:g} s frame is shorter than one packet")
    window_frames = int(round(config.window_s / FRAME_S))
    n_frames = len(trace) // frame_samples
    pair = config.resolve_reference_pair(trace.values.shape[0])

    k1 = config.block_size(trace.sample_rate_hz)
    # frames are whole packets and windows whole blocks, so a geometry that
    # passed PipelineConfig in seconds can still come up short here
    window_blocks = window_frames * frame_samples // k1
    if window_blocks < 2:
        raise ConfigurationError(
            f"a window holds {window_blocks} block of {k1} packets; its spectrum "
            f"needs at least 2 (lower phase_block)"
        )
    block_rate = trace.sample_rate_hz / k1
    if window_blocks < MIN_WINDOW_S * block_rate:
        raise ConfigurationError(
            f"windows of {window_blocks} blocks at {block_rate:g} Hz hold "
            f"{window_blocks / block_rate:g} s, under the {MIN_WINDOW_S:g} s minimum "
            f"for rate estimation (a frame is {frame_samples} packets, phase_block {k1})"
        )
    averaged = average_phase_blocks(trace, k1)
    ratio_values, _ = guarded_ratio(averaged.values[pair[0]], averaged.values[pair[1]])
    phase = unwrap_finite(np.angle(ratio_values))
    phase[~np.isfinite(averaged.values).all(axis=0)] = np.nan  # fails the block's frame
    # the blocks of frame f are those from first[f] up to the next frame's
    block_frame = (np.arange(phase.size) * k1) // frame_samples
    phase = phase[block_frame < n_frames]
    first = np.searchsorted(block_frame, np.arange(n_frames))
    filled = np.flatnonzero(np.diff(first, append=phase.size) > 0)
    metric = np.zeros(n_frames)
    if filled.size:
        metric[filled] = np.maximum.reduceat(phase, first[filled]) - np.minimum.reduceat(
            phase, first[filled]
        )
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
        motion_threshold_rad=config.motion_threshold_rad,
        reference_pair=pair,
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
    gass_reused = False  # not a field: bench/tracer.py reads it; delete with ROADMAP item 2


def _run_stages(
    averaged: np.ndarray,
    solution: GassSolution,
    eff_rate: float,
    config: PipelineConfig,
    window_id: int,
    guards: GuardTable | None = None,
) -> tuple[RespirationEstimate, dict[str, float]]:
    """Stream fan-out through rate estimation for one window, given its
    block-averaged CSI matrix (at ``eff_rate``), a solved numerator and, if
    the caller has it, the matrix's ``guard_table``. Shared by the live
    pipeline and provenance replay."""
    streams = gass_mod.build_streams(solution, averaged, eff_rate, guards=guards)
    aligned = align_streams(streams, gain_window=max(1, int(GAIN_WINDOW_S * eff_rate)))
    combined = combine(
        aligned, smoothing_window=max(1, int(SMOOTHING_S * eff_rate)), mu=config.mu
    )
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
    caller already has it. Each window builds one ``guard_table`` for its
    search and stream fan-out.

    The windows run in one ``parallel.pool_map`` over contiguous chunks of
    them, each chunk in window order from guard table to readout
    (``_run_windows``). A stage error is carried as a value, so a failed
    window is logged and reported in window order, and the results do not
    depend on the CPU count.
    """
    config = config or PipelineConfig()
    if trace.grid is None:
        raise ConfigurationError("the subcarrier search needs the trace's grid frequencies")
    plan = plan if plan is not None else segment(trace, config)
    if plan.window_starts.size == 0:
        raise NoWindowError("no complete window of accepted frames")
    count = plan.window_starts.size
    splits = np.array_split(np.arange(count), min(workers(), count))
    firsts = [int(ids[0]) for ids in splits]
    chunks = [plan.chunk(int(ids[0]), int(ids[-1]) + 1) for ids in splits]
    run = functools.partial(_run_windows, config=config)
    outcomes = [item for items in pool_map(run, chunks, firsts) for item in items]
    results: list[WindowResult] = []
    for window_id, (start_frame, (solution, outcome)) in enumerate(
        zip(plan.window_starts, outcomes)
    ):
        start_time = float(trace.times_s[start_frame * plan.frame_samples])
        if isinstance(outcome, Exception):
            logger.warning("window %d failed: %s", window_id, outcome)
            results.append(
                WindowResult(
                    window_id=window_id,
                    start_frame=int(start_frame),
                    start_time_s=start_time,
                    estimate=None,
                    solution=None,
                    stage_band_ratios={},
                    reason=f"{type(outcome).__name__}: {outcome}",
                )
            )
            continue
        estimate, stage_ratios = outcome
        results.append(
            WindowResult(
                window_id=window_id,
                start_frame=int(start_frame),
                start_time_s=start_time,
                estimate=estimate,
                solution=solution,
                stage_band_ratios=stage_ratios,
            )
        )
    return results


def _run_windows(
    chunk: WindowPlan, first: int, config: PipelineConfig
) -> list[tuple[GassSolution, tuple[RespirationEstimate, dict[str, float]] | Exception]]:
    """(solution, stage outcome) of each window of ``chunk``, a plan cut
    down by ``WindowPlan.chunk`` whose first window is window ``first`` of
    the run, in window order: its guard table, its
    ``gass.solve_delay_basis`` solution, then ``_run_stages``, whose outcome
    is the estimate and stage band ratios or the stage error that stopped
    them."""
    outcomes: list = []
    for window_id, start_frame in enumerate(chunk.window_starts, first):
        window = chunk.window(int(start_frame))
        guards = guard_table(window.values)
        solution = gass_mod.solve_delay_basis(
            window.values, window.grid.center_frequency_hz, window.sample_rate_hz, guards
        )
        try:
            outcome = _run_stages(
                window.values, solution, window.sample_rate_hz, config, window_id, guards
            )
        except _STAGE_ERRORS as exc:
            outcome = exc
        outcomes.append((solution, outcome))
    return outcomes


def replay_window(
    trace: CsiTrace,
    result: WindowResult,
    config: PipelineConfig | None = None,
) -> RespirationEstimate:
    """Recompute a window's estimate from its stored provenance.

    Uses the recorded start frame and genome; the window is cut from the
    averaged trace exactly as in ``run_pipeline``, and every downstream stage
    is deterministic, so the replay reproduces the original estimate exactly.
    """
    if result.solution is None:
        raise ConfigurationError("result carries no solution to replay")
    config = config or PipelineConfig()
    window = segment(trace, config).window(result.start_frame)
    estimate, _ = _run_stages(
        window.values, result.solution, window.sample_rate_hz, config, result.window_id
    )
    return estimate


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
    exhibit position blind spots. ``plan`` is ``segment(trace, config)``
    when the caller already has it.
    """
    if component not in ("amplitude", "phase"):
        raise ConfigurationError("component must be 'amplitude' or 'phase'")
    config = config or PipelineConfig()
    plan = plan if plan is not None else segment(trace, config)
    if plan.window_starts.size == 0:
        raise NoWindowError("no complete window of accepted frames")
    eff_rate = plan.averaged.sample_rate_hz
    m1, m2 = plan.reference_pair

    estimates: list[RespirationEstimate | None] = []
    for window_id, start_frame in enumerate(plan.window_starts):
        averaged = plan.window(int(start_frame)).values
        try:
            values, _ = guarded_ratio(averaged[m1], averaged[m2])
            if component == "amplitude":
                series = np.abs(values)
            else:
                series = np.unwrap(np.angle(values))
            estimates.append(
                estimate_rate(clean(series, eff_rate)[0], eff_rate, window_id=window_id)
            )
        except _STAGE_ERRORS as exc:
            logger.warning("%s-only window %d failed: %s", component, window_id, exc)
            estimates.append(None)
    return estimates


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


def _conditions(values, name: str, minimum: float = -math.inf) -> np.ndarray:
    """A sweep's condition values as a non-empty 1-D float array of finite
    numbers, none below ``minimum``."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a list of numbers: {exc}") from exc
    if array.ndim != 1 or array.size == 0:
        raise ConfigurationError(f"{name} must be a non-empty list of numbers, got {values!r}")
    if not (np.isfinite(array) & (array >= minimum)).all():
        raise ConfigurationError(
            f"{name} must be finite and >= {minimum:g}, got {array.tolist()!r}"
        )
    return array


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
                estimates = [r.estimate for r in run_pipeline(trace, config, plan=plan)]
            else:
                estimates = single_component_estimates(trace, method, config, plan=plan)
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
    non-empty list of finite numbers.
    """
    config = config or PipelineConfig()
    truth = _scenario_truth_bpm(scenario)
    offsets = _conditions(offsets_m, "offsets_m")
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
            median = float(np.median(values)) if values else None
            rows.append(
                {
                    "offset_m": float(offset),
                    "method": method,
                    "windows": len(rates[method]),
                    "median_bpm": median,
                    "truth_bpm": truth,
                    "detected": _detected(median, truth),
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
    and ``runs_per_level`` an integer >= 1.
    """
    config = config or PipelineConfig()
    truth = _scenario_truth_bpm(scenario)
    levels = _conditions(noise_stds, "noise_stds", 0.0)
    check_integer("runs_per_level", runs_per_level, 1)
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
