"""End-to-end respiration sensing: segmentation, per-window search, stream
combination, projection, filtering, and rate estimation.

The per-window search is ``gass.solve_delay_basis``, the closed-form
delay-basis solve over the top-ranked pair's denominator, and the stream
fan-out divides its numerator by every row the guard keeps. A window's
guard table, pair ranking and solve (``WindowSearch``) are the same for the
run and for ``gass-audit``.

A ``CsiTrace`` is block-averaged once, in ``segment``. The packets are
screened in one-second frames by a motion gate on the phase of a reference
ratio pair (ratios are offset-free, so a gross-motion artifact shows up as a
large in-frame phase excursion). Ten-second analysis windows are assembled
only from consecutive accepted frames, sliding by one frame, and every
window is a slice of the averaged trace (``WindowPlan.window``), for the
live run, its replay, the single-component baselines and the search audit
alike; the sweeps segment each trace once and hand the plan to both the
pipeline and the baselines. Each window runs the full stack and yields an
estimate with provenance; a stage failure yields a reason-coded empty
result instead of aborting.

Work that splits into independent pieces runs in a process pool of one
worker per CPU in the process's affinity mask (``parallel.pool_map``), and
its results are put back in order, so no output depends on the CPU count.
The evaluation sweeps map their conditions (positions, or noise level and
run). A run maps its windows once, in contiguous chunks, and each chunk
takes its windows in order from guard table and pair ranking through the
search to the readout. The solution-reuse chain links each window to the
one before, so a chunk that starts inside a chain retraces it from the
chain's root. Inside a pool worker, such as a sweep condition, everything
runs in-process, and so does everything with one usable CPU (``taskset -c
0``).
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import gass as gass_mod
from .combine import GAIN_WINDOW_S, SMOOTHING_S, align_streams, combine
from .errors import (
    AlignmentError,
    ConfigurationError,
    NoWindowError,
    SingularRatioError,
    StreamGuardError,
    ZeroVarianceError,
    check_integer,
)
from .gass import GaParams, GassSolution
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

_STAGE_ERRORS = (
    ConfigurationError,
    StreamGuardError,
    AlignmentError,
    SingularRatioError,
    ZeroVarianceError,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full pipeline. The stage settings the method fixes are
    constants of the modules that use them: ``FRAME_S`` here, the gain and
    smoothing windows in ``combine``, the cleanup filters in ``waveform``
    and the readout's peak prominence in ``rate.estimate_rate``."""

    ga: GaParams = field(default_factory=GaParams)  # the pair ranking
    phase_block: int = 0              # K1 packets averaged; 0 = F_s / 10
    mu: float = 0.5                   # stream survival threshold fraction
    window_s: float = 10.0            # rounded to whole frames of FRAME_S
    motion_threshold_rad: float = 2.0
    reference_pair: tuple[int, int] | None = None
    reuse_tolerance: float = 0.0      # 0 disables solution reuse

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
    ``window_s`` consecutive accepted frames and slide by one frame. Raises
    ConfigurationError when a window's whole blocks hold less than the rate
    readout's 10 s minimum or fewer than two blocks, or when the grid has
    fewer than two subcarriers or lacks the reference pair; after these
    checks no window's pair ranking or search can fail.
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
    with np.errstate(invalid="ignore"):  # a non-finite block fails its frame below
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
    gass_reused: bool
    stage_band_ratios: dict[str, float]
    reason: str | None = None


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
    seed: int = 0,
    *,
    plan: WindowPlan | None = None,
) -> list[WindowResult]:
    """Estimate the respiration rate on every complete window.

    Deterministic for fixed (trace, config, seed): each window derives its
    own generator from (seed, window_id) for its pair ranking. The search
    (``gass.solve_delay_basis``) needs the trace's grid for its subcarrier
    frequencies. With ``reuse_tolerance`` > 0 the previous window's numerator
    is kept while the best single-pair band ratio moves by less than that
    fraction, skipping the search. ``plan`` is ``segment(trace, config)``
    when the caller already has it. Each window builds one ``guard_table``
    for its pair ranking, search and stream fan-out.

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
    chunks = _window_chunks(plan, workers(), walk_back=config.reuse_tolerance > 0)
    run = functools.partial(_run_windows, config=config, seed=seed)
    results: list[WindowResult] = []
    for window_id, (start_frame, (solution, reused, outcome)) in enumerate(
        zip(plan.window_starts, _flatten(pool_map(run, chunks)))
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
                    gass_reused=False,
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
                gass_reused=reused,
                stage_band_ratios=stage_ratios,
            )
        )
    return results


@dataclass(frozen=True)
class _WindowChunk:
    """Windows ``first`` to ``stop - 1`` of a plan, and the block-averaged
    trace from window ``base`` on, the earliest window the chunk may cut, so
    that a pool worker receives each block once."""

    averaged: CsiTrace
    base: int
    first: int
    stop: int
    offsets: tuple[int, ...]   # first block in ``averaged`` of each window from ``base``
    blocks: int                # blocks per window

    def window(self, window_id: int) -> CsiTrace:
        """Window ``window_id``, cut as ``WindowPlan.window`` cuts it."""
        offset = self.offsets[window_id - self.base]
        return self.averaged[offset : offset + self.blocks]


def _window_chunks(plan: WindowPlan, count: int, walk_back: bool) -> list[_WindowChunk]:
    """The plan's windows in at most ``count`` contiguous chunks of nearly
    equal size. With ``walk_back`` every chunk may cut any window before its
    own, to retrace the reuse chain into it."""
    firsts = plan.window_starts * plan.frame_samples // plan.block_size
    blocks = plan.window_frames * plan.frame_samples // plan.block_size
    chunks = []
    for ids in np.array_split(np.arange(firsts.size), min(count, firsts.size)):
        first, stop = int(ids[0]), int(ids[-1]) + 1
        base = 0 if walk_back else first
        lo, hi = int(firsts[base]), int(firsts[stop - 1]) + blocks
        offsets = tuple((firsts[base:stop] - lo).tolist())
        chunks.append(_WindowChunk(plan.averaged[lo:hi], base, first, stop, offsets, blocks))
    return chunks


def _flatten(per_chunk: list[list]) -> list:
    return [item for items in per_chunk for item in items]


@dataclass(frozen=True)
class WindowSearch:
    """A window's guard table and pair ranking, the inputs of its search.
    ``run_pipeline`` and ``gass-audit`` both build it with ``rank``."""

    window: CsiTrace
    guards: GuardTable
    ranked: list[tuple[int, int, float]]  # (numerator, denominator, band ratio), best first

    @classmethod
    def rank(cls, window: CsiTrace, params: GaParams, seed: int, window_id: int) -> WindowSearch:
        """Window ``window_id``'s guard table and ``params``' pair ranking,
        drawn from the generator of ``[seed, window_id]``."""
        guards = guard_table(window.values)
        rng = np.random.default_rng([seed, window_id])
        ranked = gass_mod.rank_seed_pairs(
            window.values, window.sample_rate_hz, params, rng, guards=guards
        )
        return cls(window, guards, ranked)

    def solve(self, params: GaParams) -> GassSolution:
        """``gass.solve_delay_basis`` from the ``params.seed_top`` best pairs."""
        window = self.window
        return gass_mod.solve_delay_basis(
            window.values, window.grid.center_frequency_hz, window.sample_rate_hz,
            self.ranked[: params.seed_top], self.guards,
        )


def _run_windows(
    chunk: _WindowChunk, config: PipelineConfig, seed: int
) -> list[tuple[GassSolution, bool, tuple[RespirationEstimate, dict[str, float]] | Exception]]:
    """(solution, reused, stage outcome) of each window of ``chunk``, in
    window order: its ``WindowSearch``, its solution (solved, or the window
    before's kept and re-scored), then ``_run_stages``, whose outcome is the
    estimate and stage band ratios or the stage error that stopped them.

    A chunk that starts inside a run of reused solutions retraces it: it
    ranks back from the window before its first to that window's root, the
    nearest window that did not keep its predecessor's solution, and solves
    the root. Whether a window keeps it depends only on the best-pair band
    ratios, so the chain is the one a single chunk would build.
    """
    tolerance = config.reuse_tolerance

    def ranked(window_id: int) -> WindowSearch:
        return WindowSearch.rank(chunk.window(window_id), config.ga, seed, window_id)

    def best(search: WindowSearch) -> float:
        return search.ranked[0][2]  # the band ratio of the best ranked pair

    previous: tuple[GassSolution, float] | None = None  # (solution, best pair ratio)
    if tolerance > 0 and chunk.first > 0:
        root = last = ranked(chunk.first - 1)
        for window_id in range(chunk.first - 1, 0, -1):
            before = ranked(window_id - 1)
            if not _keeps_solution(best(root), best(before), tolerance):
                break
            root = before
        previous = (root.solve(config.ga), best(last))
    outcomes: list = []
    for window_id in range(chunk.first, chunk.stop):
        search = ranked(window_id)
        window = search.window
        reused = previous is not None and _keeps_solution(best(search), previous[1], tolerance)
        if reused:
            refreshed = gass_mod.fitness(previous[0].genome, window.values, window.sample_rate_hz)
            solution = dataclasses.replace(previous[0], fitness=float(refreshed))
        else:
            solution = search.solve(config.ga)
        previous = (solution, best(search))
        try:
            outcome = _run_stages(
                window.values, solution, window.sample_rate_hz, config, window_id, search.guards
            )
        except _STAGE_ERRORS as exc:
            outcome = exc
        outcomes.append((solution, reused, outcome))
    return outcomes


def _keeps_solution(new: float, old: float, tolerance: float) -> bool:
    """Whether a window whose best pair scores ``new`` keeps the solution of
    the window before, whose best pair scored ``old``: the relative change
    is under ``tolerance``, and 0 turns reuse off."""
    if tolerance <= 0:
        return False
    if math.isinf(new) and math.isinf(old):
        change = 0.0
    elif old == 0.0:
        change = math.inf if new != 0.0 else 0.0
    elif math.isinf(new) or math.isinf(old):
        change = math.inf
    else:
        change = abs(new - old) / abs(old)
    return change < tolerance


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
    within 1 bpm of the scenario's rate. Positions are independent and run
    on every CPU in the process's affinity mask (``parallel.pool_map``); the
    rows come back in offset order, so the report does not depend on the
    CPU count. ``offsets_m`` must be a non-empty list of finite numbers.
    """
    config = config or PipelineConfig()
    truth = _scenario_truth_bpm(scenario)
    offsets = _conditions(offsets_m, "offsets_m")
    n = offsets.size
    position = functools.partial(
        _blind_spot_position, scenario=scenario, impairments=impairments, grid=grid,
        config=config, seed=seed, truth=truth,
    )
    per_position = pool_map(position, range(n), offsets)
    rows = [row for rows in per_position for row in rows]
    summary = {
        f"{method}_detectability_pct": 100.0
        * np.mean([r["detected"] for r in rows if r["method"] == method])
        for method in ("full", "amplitude", "phase")
    }
    meta = {
        "positions": n,
        "truth_bpm": truth,
        "base_dynamic_length_m": scenario.base_dynamic_length_m,
    }
    return EvaluationReport(rows=tuple(rows), summary=summary, meta=meta)


def _method_estimates(
    trace: CsiTrace, methods: tuple[str, ...], config: PipelineConfig, seed: int
) -> dict[str, list[RespirationEstimate | None]]:
    """The window estimates of each method on ``trace``, segmented once:
    "full" is ``run_pipeline`` at ``seed``, and "amplitude" and "phase" are
    the single-component baselines. A method without a complete window gets
    no estimates."""
    plan = segment(trace, config)
    estimates: dict[str, list[RespirationEstimate | None]] = {}
    for method in methods:
        try:
            if method == "full":
                results = run_pipeline(trace, config, seed=seed, plan=plan)
                estimates[method] = [r.estimate for r in results]
            else:
                estimates[method] = single_component_estimates(
                    trace, method, config, plan=plan
                )
        except NoWindowError:
            estimates[method] = []
    return estimates


def _blind_spot_position(
    i: int,
    offset: float,
    scenario: ChannelScenario,
    impairments: ImpairmentConfig,
    grid: SubcarrierGrid,
    config: PipelineConfig,
    seed: int,
    truth: float,
) -> list[dict]:
    """The three rows (full, amplitude, phase) of ``blind_spot_sweep``'s
    ``i``-th position, ``offset`` metres along the dynamic path."""
    shifted = dataclasses.replace(
        scenario, base_dynamic_length_m=scenario.base_dynamic_length_m + offset
    )
    trace = apply_impairments(
        generate_ideal_csi(shifted, grid),
        dataclasses.replace(impairments, seed=impairments.seed + i),
    )
    methods = ("full", "amplitude", "phase")
    rows = []
    for method, estimates in _method_estimates(trace, methods, config, seed + i).items():
        median, detected = _median_detection(estimates, truth)
        rows.append(
            {
                "offset_m": float(offset),
                "method": method,
                "windows": len(estimates),
                "median_bpm": median,
                "truth_bpm": truth,
                "detected": detected,
            }
        )
    return rows


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
    Each (level, run) pair is one condition, run like ``blind_spot_sweep``'s
    positions, and a level's counts are summed in run order. ``noise_stds``
    must be a non-empty list of finite numbers >= 0, and ``runs_per_level``
    an integer >= 1.
    """
    config = config or PipelineConfig()
    truth = _scenario_truth_bpm(scenario)
    levels = _conditions(noise_stds, "noise_stds", 0.0)
    check_integer("runs_per_level", runs_per_level, 1)
    ideal = generate_ideal_csi(scenario, grid)
    snr_run = functools.partial(
        _snr_run, ideal=ideal, impairments=impairments, config=config, seed=seed,
        truth=truth,
    )
    level_of = [level for level in range(levels.size) for _ in range(runs_per_level)]
    run_of = list(range(runs_per_level)) * levels.size
    per_run = pool_map(snr_run, levels[level_of], level_of, run_of)
    rows: list[dict] = []
    for level, noise_std in enumerate(levels):
        runs = per_run[level * runs_per_level : (level + 1) * runs_per_level]
        for method in ("full", "amplitude"):
            detected = sum(counts[method][0] for counts in runs)
            total = sum(counts[method][1] for counts in runs)
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
    meta = {"truth_bpm": truth, "levels": levels.size, "runs_per_level": runs_per_level}
    return EvaluationReport(rows=tuple(rows), summary=summary, meta=meta)


def _snr_run(
    noise_std: float,
    level: int,
    run: int,
    ideal: CsiTrace,
    impairments: ImpairmentConfig,
    config: PipelineConfig,
    seed: int,
    truth: float,
) -> dict[str, tuple[int, int]]:
    """(detected, total) windows per method for run ``run`` of
    ``snr_sweep``'s noise level ``level``."""
    impaired = apply_impairments(
        ideal,
        dataclasses.replace(
            impairments,
            gaussian_noise_std=float(noise_std),
            seed=impairments.seed + 1009 * level + run,
        ),
    )
    counts = {}
    for method, estimates in _method_estimates(
        impaired, ("full", "amplitude"), config, seed + run
    ).items():
        detected = sum(
            e is not None
            and e.f_bpm is not None
            and abs(e.f_bpm - truth) < DETECTION_TOLERANCE_BPM
            for e in estimates
        )
        counts[method] = (detected, len(estimates))
    return counts
