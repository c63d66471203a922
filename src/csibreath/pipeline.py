"""End-to-end respiration sensing: segmentation, per-window search, stream
combination, projection, filtering, and rate estimation.

A ``CsiTrace`` is block-averaged once, in ``segment``. The packets are
screened in one-second frames by a motion gate on the phase of a reference
ratio pair (ratios are offset-free, so a gross-motion artifact shows up as a
large in-frame phase excursion). Ten-second analysis windows are assembled
only from consecutive accepted frames, sliding by one frame, and every
window is a slice of the averaged trace (``WindowPlan.window``), for the
live run, its replay, the single-component baselines and the search audit
alike. Each window runs the full stack and yields an estimate with
provenance; a stage failure yields a reason-coded empty result instead of
aborting.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import gass as gass_mod
from .combine import align_streams, combine
from .errors import (
    AlignmentError,
    ConfigurationError,
    NoWindowError,
    SingularRatioError,
    StreamGuardError,
    ZeroVarianceError,
)
from .gass import GaParams, GassSolution, optimize
from .grid import SubcarrierGrid
from .rate import MIN_WINDOW_S, RespirationEstimate, estimate_rate
from .ratio import average_phase_blocks, guarded_ratio, ssnr_values
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

_STAGE_ERRORS = (
    ConfigurationError,
    StreamGuardError,
    AlignmentError,
    SingularRatioError,
    ZeroVarianceError,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full pipeline. Time-valued fields are converted to
    sample counts against the effective (block-averaged) rate at run time."""

    n_numerators: int = 8
    ga: GaParams = field(default_factory=GaParams)
    phase_block: int = 0              # K1 packets averaged; 0 = F_s / 10
    mu: float = 0.5                   # stream survival threshold fraction
    gain_window_s: float = 0.5
    smoothing_s: float = 0.33
    smoothing_mode: str = "sliding"   # or "block" (decimating)
    gain_normalization: str = "divide"
    hampel_half_width_s: float = 0.5
    hampel_threshold: float = 3.0
    sg_window_s: float = 1.0
    sg_polyorder: int = 3
    frame_s: float = 1.0
    window_s: float = 10.0
    motion_threshold_rad: float = 2.0
    reference_pair: tuple[int, int] | None = None
    min_prominence: float = 0.2
    include_numerators: bool = False
    reuse_tolerance: float = 0.0      # 0 disables solution reuse
    refine_peak: bool = True

    def __post_init__(self) -> None:
        if not (0 < self.frame_s < math.inf and 0 < self.window_s < math.inf):
            raise ConfigurationError("frame_s and window_s must be positive and finite")
        frames = self.window_s / self.frame_s
        if not frames < math.inf or round(frames) * self.frame_s < MIN_WINDOW_S:
            raise ConfigurationError(
                "window_s / frame_s must round to a whole number of frames "
                f"spanning at least {MIN_WINDOW_S:g} s, the minimum for rate "
                f"estimation (frame_s={self.frame_s!r}, window_s={self.window_s!r})"
            )
        order = self.sg_polyorder
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
            raise ConfigurationError(f"sg_polyorder must be an integer >= 0, got {order!r}")

    def block_size(self, sample_rate_hz: float) -> int:
        return self.phase_block if self.phase_block > 0 else max(
            1, int(sample_rate_hz // 10)
        )

    def resolve_reference_pair(self, n_subcarriers: int) -> tuple[int, int]:
        if self.reference_pair is not None:
            return self.reference_pair
        return (0, n_subcarriers - 1)


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
    averaged: CsiTrace         # the whole trace, block-averaged once

    def window(self, start_frame: int) -> CsiTrace:
        """Block-averaged CSI of the window that starts at ``start_frame``.

        It starts at averaged block ``start_frame * frame_samples //
        block_size`` and holds ``window_samples // block_size`` blocks; when
        ``block_size`` divides ``frame_samples`` these are exactly the blocks
        of the window's own packets.
        """
        first = start_frame * self.frame_samples // self.block_size
        count = self.window_frames * self.frame_samples // self.block_size
        return self.averaged[first : first + count]


def segment(trace: CsiTrace, config: PipelineConfig | None = None) -> WindowPlan:
    """Screen one-second frames via the reference ratio pair's phase.

    The metric is the in-frame peak-to-peak of the unwrapped, block-averaged
    ratio phase (block averaging keeps packet-boundary jitter from tripping
    the gate). Frames above the threshold are rejected; windows require
    ``window_s`` consecutive accepted frames and slide by one frame.
    """
    config = config or PipelineConfig()
    frame_samples = int(round(config.frame_s * trace.sample_rate_hz))
    if frame_samples < 1:
        raise ConfigurationError("frame_s is shorter than one packet")
    window_frames = int(round(config.window_s / config.frame_s))
    n_frames = len(trace) // frame_samples
    pair = config.resolve_reference_pair(trace.values.shape[0])

    k1 = config.block_size(trace.sample_rate_hz)
    averaged = average_phase_blocks(trace, k1)
    ratio_values, _ = guarded_ratio(averaged.values[pair[0]], averaged.values[pair[1]])
    phase = np.unwrap(np.angle(ratio_values))
    block_frame = (np.arange(phase.size) * k1) // frame_samples

    metric = np.zeros(n_frames)
    for f in range(n_frames):
        in_frame = phase[block_frame == f]
        if in_frame.size:
            metric[f] = float(in_frame.max() - in_frame.min())
    accepted = metric <= config.motion_threshold_rad

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
    gass_reused: bool
    stage_band_ratios: dict[str, float]
    reason: str | None = None


def _run_stages(
    averaged: np.ndarray,
    solution: GassSolution,
    eff_rate: float,
    config: PipelineConfig,
    window_id: int,
) -> tuple[RespirationEstimate, dict[str, float]]:
    """Stream fan-out through rate estimation for one window, given its
    block-averaged CSI matrix (at ``eff_rate``) and a solved numerator.
    Shared by the live pipeline and provenance replay."""
    streams = gass_mod.build_streams(
        solution,
        averaged,
        eff_rate,
        include_numerators=config.include_numerators,
    )
    aligned = align_streams(
        streams,
        gain_window=max(1, int(config.gain_window_s * eff_rate)),
        gain_normalization=config.gain_normalization,
    )
    combined = combine(
        aligned,
        smoothing_window=max(1, int(config.smoothing_s * eff_rate)),
        mu=config.mu,
        smoothing_mode=config.smoothing_mode,
    )
    projected = project(combined.smoothed, combined.smoothed_rate_hz)
    filtered, _ = clean(
        projected.series,
        combined.smoothed_rate_hz,
        hampel_half_width=max(1, int(config.hampel_half_width_s * combined.smoothed_rate_hz)),
        hampel_threshold=config.hampel_threshold,
        sg_window=_odd_at_least(config.sg_window_s * combined.smoothed_rate_hz),
        sg_polyorder=config.sg_polyorder,
    )
    estimate = estimate_rate(
        filtered,
        combined.smoothed_rate_hz,
        min_prominence_frac=config.min_prominence,
        window_id=window_id,
        refine=config.refine_peak,
    )
    stage_ratios = {
        "gass": solution.fitness,
        "combined": float(ssnr_values(combined.values[None, :], combined.sample_rate_hz)[0]),
        "smoothed": float(
            ssnr_values(combined.smoothed[None, :], combined.smoothed_rate_hz)[0]
        ),
        "projected": projected.band_ratio,
        "filtered": float(ssnr_values(filtered[None, :], combined.smoothed_rate_hz)[0]),
    }
    return estimate, stage_ratios


def _odd_at_least(value: float) -> int:
    n = int(math.ceil(value))
    return n + 1 if n % 2 == 0 else n


def run_pipeline(
    trace: CsiTrace,
    config: PipelineConfig | None = None,
    seed: int = 0,
) -> list[WindowResult]:
    """Estimate the respiration rate on every complete window.

    Deterministic for fixed (trace, config, seed): each window derives its
    own generator from (seed, window_id). With ``reuse_tolerance`` > 0 the
    previous window's numerator is kept while the best single-pair band
    ratio moves by less than that fraction, skipping the search.
    """
    config = config or PipelineConfig()
    plan = segment(trace, config)
    if plan.window_starts.size == 0:
        raise NoWindowError("no complete window of accepted frames")

    results: list[WindowResult] = []
    previous: tuple[GassSolution, float] | None = None  # (solution, pair ssnr)
    for window_id, start_frame in enumerate(plan.window_starts):
        start_time = float(trace.times_s[start_frame * plan.frame_samples])
        window = plan.window(int(start_frame))
        matrix, eff_rate = window.values, window.sample_rate_hz

        rng = np.random.default_rng([seed, window_id])
        try:
            ranked = gass_mod.rank_seed_pairs(matrix, eff_rate, config.ga, rng)
            best_pair = ranked[0][2] if ranked else 0.0
            reused = False
            if previous is not None and config.reuse_tolerance > 0:
                prev_solution, prev_pair = previous
                if _relative_change(best_pair, prev_pair) < config.reuse_tolerance:
                    refreshed = gass_mod.fitness(prev_solution.genome, matrix, eff_rate)
                    solution = dataclasses.replace(
                        prev_solution, fitness=float(refreshed)
                    )
                    reused = True
            if not reused:
                solution = optimize(
                    matrix,
                    config.n_numerators,
                    eff_rate,
                    params=config.ga,
                    seed=rng,
                    ranked_pairs=ranked,
                )
            previous = (solution, best_pair)
            estimate, stage_ratios = _run_stages(
                matrix, solution, eff_rate, config, window_id
            )
            results.append(
                WindowResult(
                    window_id=window_id,
                    start_frame=int(start_frame),
                    start_time_s=start_time,
                    estimate=estimate,
                    solution=solution,
                    gass_reused=reused,
                    stage_band_ratios=stage_ratios,
                )
            )
        except _STAGE_ERRORS as exc:
            logger.warning("window %d failed: %s", window_id, exc)
            results.append(
                WindowResult(
                    window_id=window_id,
                    start_frame=int(start_frame),
                    start_time_s=start_time,
                    estimate=None,
                    solution=None,
                    gass_reused=False,
                    stage_band_ratios={},
                    reason=f"{type(exc).__name__}: {exc}",
                )
            )
    return results


def _relative_change(new: float, old: float) -> float:
    if math.isinf(new) and math.isinf(old):
        return 0.0
    if old == 0.0:
        return math.inf if new != 0.0 else 0.0
    if math.isinf(new) or math.isinf(old):
        return math.inf
    return abs(new - old) / abs(old)


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
) -> list[RespirationEstimate | None]:
    """Amplitude-only or phase-only rate estimates on the reference pair.

    The classic single-quantity baselines: the same windowing, filtering,
    and rate stages as the full pipeline, but the waveform is |ratio| or
    unwrapped angle(ratio) of the fixed reference pair, with no subcarrier
    search, combination, or projection. These are the estimators that
    exhibit position blind spots.
    """
    if component not in ("amplitude", "phase"):
        raise ConfigurationError("component must be 'amplitude' or 'phase'")
    config = config or PipelineConfig()
    plan = segment(trace, config)
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
            filtered, _ = clean(
                series,
                eff_rate,
                hampel_half_width=max(1, int(config.hampel_half_width_s * eff_rate)),
                hampel_threshold=config.hampel_threshold,
                sg_window=_odd_at_least(config.sg_window_s * eff_rate),
                sg_polyorder=config.sg_polyorder,
            )
            estimates.append(
                estimate_rate(
                    filtered,
                    eff_rate,
                    min_prominence_frac=config.min_prominence,
                    window_id=window_id,
                    refine=config.refine_peak,
                )
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


def _median_detection(
    estimates: list[RespirationEstimate | None], truth_bpm: float
) -> tuple[float | None, bool]:
    values = [
        e.f_bpm for e in estimates if e is not None and e.f_bpm is not None
    ]
    if not values:
        return None, False
    median = float(np.median(values))
    return median, abs(median - truth_bpm) < DETECTION_TOLERANCE_BPM


def _scenario_truth_bpm(scenario: ChannelScenario) -> float:
    if not isinstance(scenario.motion, SinusoidMotion):
        raise ConfigurationError("sweeps need a sinusoid motion for ground truth")
    return 60.0 * scenario.motion.rate_hz


def blind_spot_sweep(
    scenario: ChannelScenario,
    impairments: ImpairmentConfig,
    grid: SubcarrierGrid,
    offsets_m: np.ndarray,
    config: PipelineConfig | None = None,
    seed: int = 0,
) -> EvaluationReport:
    """Detectability of three estimators across dynamic-path positions.

    For each offset the base dynamic path length is shifted, fresh
    impairments are drawn, and the full pipeline plus both single-component
    baselines are scored: detected means the median window estimate is
    within 1 bpm of the scenario's rate.
    """
    config = config or PipelineConfig()
    truth = _scenario_truth_bpm(scenario)
    rows: list[dict] = []
    for i, offset in enumerate(np.asarray(offsets_m, dtype=float)):
        shifted = dataclasses.replace(
            scenario, base_dynamic_length_m=scenario.base_dynamic_length_m + offset
        )
        trace = apply_impairments(
            generate_ideal_csi(shifted, grid),
            dataclasses.replace(impairments, seed=impairments.seed + i),
        )
        estimates: dict[str, list[RespirationEstimate | None]] = {}
        try:
            results = run_pipeline(trace, config, seed=seed + i)
            estimates["full"] = [r.estimate for r in results]
        except NoWindowError:
            estimates["full"] = []
        for component in ("amplitude", "phase"):
            try:
                estimates[component] = single_component_estimates(
                    trace, component, config
                )
            except NoWindowError:
                estimates[component] = []
        for method in ("full", "amplitude", "phase"):
            median, detected = _median_detection(estimates[method], truth)
            rows.append(
                {
                    "offset_m": float(offset),
                    "method": method,
                    "windows": len(estimates[method]),
                    "median_bpm": median,
                    "truth_bpm": truth,
                    "detected": detected,
                }
            )
    summary = {
        f"{method}_detectability_pct": 100.0
        * np.mean([r["detected"] for r in rows if r["method"] == method])
        for method in ("full", "amplitude", "phase")
    }
    meta = {
        "positions": len(offsets_m),
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
    seed: int = 0,
    runs_per_level: int = 1,
) -> EvaluationReport:
    """Per-window detection rate versus additive noise level.

    Compares the full pipeline against the amplitude-only baseline at each
    noise standard deviation; detection is a per-window |error| < 1 bpm.
    """
    config = config or PipelineConfig()
    truth = _scenario_truth_bpm(scenario)
    clean = generate_ideal_csi(scenario, grid)
    rows: list[dict] = []
    for level, noise_std in enumerate(np.asarray(noise_stds, dtype=float)):
        counts = {"full": [0, 0], "amplitude": [0, 0]}  # detected, total
        for run in range(runs_per_level):
            impaired = apply_impairments(
                clean,
                dataclasses.replace(
                    impairments,
                    gaussian_noise_std=float(noise_std),
                    seed=impairments.seed + 1009 * level + run,
                ),
            )
            try:
                results = run_pipeline(impaired, config, seed=seed + run)
                full = [r.estimate for r in results]
            except NoWindowError:
                full = []
            try:
                amplitude = single_component_estimates(impaired, "amplitude", config)
            except NoWindowError:
                amplitude = []
            for method, estimates in (("full", full), ("amplitude", amplitude)):
                for e in estimates:
                    counts[method][1] += 1
                    if (
                        e is not None
                        and e.f_bpm is not None
                        and abs(e.f_bpm - truth) < DETECTION_TOLERANCE_BPM
                    ):
                        counts[method][0] += 1
        for method, (detected, total) in counts.items():
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
        method: tuple(
            r["detection_rate_pct"] for r in rows if r["method"] == method
        )
        for method in ("full", "amplitude")
    }
    meta = {"truth_bpm": truth, "levels": len(noise_stds), "runs_per_level": runs_per_level}
    return EvaluationReport(rows=tuple(rows), summary=summary, meta=meta)
