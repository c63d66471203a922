"""Synthetic CSI generation: ideal two-component channel plus RF impairments.

The channel model is a static multipath sum plus a single dynamic path whose
length is modulated by chest motion:

    H(m, k) = sum_p A_S,p(m) exp(-j 2 pi d_S,p / lambda_m)
            + A_D(m) exp(-j 2 pi d_D(k) / lambda_m)

with d_D(k) = d_0 + g * chest(k), where g is a geometric factor mapping chest
displacement to path-length change (2.0 for normal incidence on the direct
reflection). Impairments multiply each sample by a random amplitude and a
phase offset that is linear in the physical subcarrier index, then add
complex Gaussian noise:

    H~(m, k) = A_n(m, k) exp(-j [n(m) (eta_b(k) + eta_o) + phi(k)]) H(m, k)
             + eps(m, k)

eta_b is packet-boundary jitter (fresh Gaussian per packet), eta_o a constant
sampling-clock slope, phi(k) a bounded random-walk carrier offset.

Every CSI sequence in the package is one ``CsiTrace``: the (M, K) matrix
H(m, k) with its packet times, sample rate and grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateScenarioError,
    UndefinedPhaseError,
    check_integer,
    check_real,
)
from .grid import SubcarrierGrid

# Physiological bound on respiration-induced path-length change (meters).
MAX_PATH_CHANGE_M = 0.012


@dataclass(frozen=True, eq=False)
class CsiTrace:
    """A CSI sequence: one complex channel estimate per grid position (row)
    and packet (column), with the packet times and the nominal sample rate.

    ``values`` is stored as a C-contiguous (M, K) complex matrix. Slicing
    with ``trace[a:b]`` selects packets ``a`` to ``b - 1``.
    """

    values: np.ndarray
    times_s: np.ndarray
    sample_rate_hz: float
    grid: SubcarrierGrid | None = None

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=complex)
        times = np.ascontiguousarray(self.times_s, dtype=float)
        if values.ndim != 2 or values.shape[1] == 0:
            raise ConfigurationError("CSI values must be a non-empty (M, K) matrix")
        if times.shape != values.shape[1:]:
            raise ConfigurationError("need one timestamp per packet")
        if not self.sample_rate_hz > 0:
            raise ConfigurationError("sample rate must be positive")
        if self.grid is not None and self.grid.count != values.shape[0]:
            raise ConfigurationError("CSI rows do not match the grid")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "times_s", times)

    @classmethod
    def uniform(
        cls, values: np.ndarray, sample_rate_hz: float, grid: SubcarrierGrid | None = None
    ) -> CsiTrace:
        """A trace whose packet k was taken at k / sample_rate_hz."""
        n_samples = np.shape(values)[-1]
        return cls(values, np.arange(n_samples) / sample_rate_hz, sample_rate_hz, grid)

    def __len__(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, packets: slice) -> CsiTrace:
        return CsiTrace(
            self.values[:, packets], self.times_s[packets], self.sample_rate_hz, self.grid
        )


# ----------------------------------------------------------------------------
# Chest motion waveforms
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SinusoidMotion:
    """Steady breathing: chest(t) = amplitude * sin(2 pi rate t + phase)."""

    rate_hz: float
    amplitude_m: float
    phase_rad: float = 0.0

    def displacement(self, t: np.ndarray, duration_s: float) -> np.ndarray:
        return self.amplitude_m * np.sin(2.0 * np.pi * self.rate_hz * t + self.phase_rad)


@dataclass(frozen=True)
class ChirpMotion:
    """Breathing rate sweeping linearly from start to end over the run."""

    start_rate_hz: float
    end_rate_hz: float
    amplitude_m: float

    def displacement(self, t: np.ndarray, duration_s: float) -> np.ndarray:
        sweep = (self.end_rate_hz - self.start_rate_hz) / max(duration_s, 1e-12)
        phase = 2.0 * np.pi * (self.start_rate_hz * t + 0.5 * sweep * t * t)
        return self.amplitude_m * np.sin(phase)


@dataclass(frozen=True)
class RateStepMotion:
    """Piecewise-constant breathing rate with a phase-continuous waveform.

    ``segments`` is a sequence of (duration_s, rate_hz) pairs; the last
    segment is extended if the scenario outlasts the schedule.
    """

    segments: tuple[tuple[float, float], ...]
    amplitude_m: float

    def displacement(self, t: np.ndarray, duration_s: float) -> np.ndarray:
        if not self.segments:
            raise ConfigurationError("RateStepMotion requires at least one segment")
        rate = np.full_like(t, self.segments[-1][1], dtype=float)
        start = 0.0
        for seg_duration, seg_rate in self.segments:
            rate[(t >= start) & (t < start + seg_duration)] = seg_rate
            start += seg_duration
        dt = np.diff(t, prepend=t[:1])
        phase = 2.0 * np.pi * np.cumsum(rate * dt)
        return self.amplitude_m * np.sin(phase)


Motion = SinusoidMotion | ChirpMotion | RateStepMotion


@dataclass(frozen=True)
class StaticPath:
    """One static propagation path. Amplitude may be per-subcarrier."""

    amplitude: float | np.ndarray
    length_m: float


@dataclass(frozen=True)
class MotionEvent:
    """Gross body movement artifact: step change in path lengths at time_s.

    Static and dynamic lengths shift for every sample at or after the event.
    These steps are exempt from the physiological path-change bound; they
    exist to exercise the motion-rejection stage.
    """

    time_s: float
    static_shift_m: float = 0.0
    dynamic_shift_m: float = 0.0


@dataclass(frozen=True)
class ChannelScenario:
    """Everything needed to synthesize an ideal CSI sequence."""

    sample_rate_hz: float
    duration_s: float
    static_paths: tuple[StaticPath, ...]
    dynamic_amplitude: float | np.ndarray
    base_dynamic_length_m: float
    motion: Motion
    geometric_factor: float = 2.0
    motion_events: tuple[MotionEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "static_paths", tuple(self.static_paths))
        object.__setattr__(self, "motion_events", tuple(self.motion_events))
        if self.sample_rate_hz <= 0 or self.duration_s <= 0:
            raise ConfigurationError("sample rate and duration must be positive")
        if not self.static_paths:
            raise ConfigurationError("at least one static path is required")
        for p in self.static_paths:
            if p.length_m <= 0:
                raise ConfigurationError("static path lengths must be positive")
        if self.base_dynamic_length_m <= 0:
            raise ConfigurationError("base dynamic path length must be positive")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate_hz

    def chest_displacement(self) -> np.ndarray:
        return self.motion.displacement(self.times(), self.duration_s)

    def _event_steps(self, attr: str) -> np.ndarray:
        t = self.times()
        steps = np.zeros_like(t)
        for ev in self.motion_events:
            steps[t >= ev.time_s] += getattr(ev, attr)
        return steps

    def dynamic_path_length(self) -> np.ndarray:
        """d_D(k) including chest motion and any event steps. Validates bounds."""
        path_change = self.geometric_factor * self.chest_displacement()
        if np.max(np.abs(path_change)) > MAX_PATH_CHANGE_M + 1e-12:
            raise DegenerateScenarioError(
                "respiration-induced path change exceeds the physiological "
                f"bound of {MAX_PATH_CHANGE_M * 1e3:.0f} mm"
            )
        d = self.base_dynamic_length_m + path_change + self._event_steps("dynamic_shift_m")
        if np.any(d <= 0):
            raise DegenerateScenarioError("dynamic path length must stay positive")
        return d

    def static_field(self, grid: SubcarrierGrid) -> np.ndarray:
        """Aggregate static channel, shape (M, K). Constant in k unless an
        event shifts the static paths."""
        wavelength = grid.wavelength_m[:, None]
        shifts = self._event_steps("static_shift_m")[None, :]
        total = np.zeros((grid.count, self.n_samples), dtype=complex)
        for p in self.static_paths:
            amp = np.broadcast_to(np.asarray(p.amplitude, dtype=float), (grid.count,))
            total += amp[:, None] * np.exp(
                -2j * np.pi * (p.length_m + shifts) / wavelength
            )
        return total

    def dynamic_field(self, grid: SubcarrierGrid) -> np.ndarray:
        wavelength = grid.wavelength_m[:, None]
        amp = np.broadcast_to(
            np.asarray(self.dynamic_amplitude, dtype=float), (grid.count,)
        )
        return amp[:, None] * np.exp(
            -2j * np.pi * self.dynamic_path_length()[None, :] / wavelength
        )


def generate_ideal_csi(scenario: ChannelScenario, grid: SubcarrierGrid) -> CsiTrace:
    """Noise-free CSI trace for a scenario on a grid."""
    matrix = scenario.static_field(grid) + scenario.dynamic_field(grid)
    return CsiTrace.uniform(matrix, scenario.sample_rate_hz, grid)


def fresnel_phase(
    trace: CsiTrace, scenario: ChannelScenario, grid: SubcarrierGrid
) -> np.ndarray:
    """Phase split between static and dynamic components, shape (M, K).

    Simulator-side diagnostic: decomposes an ideal trace using the known
    scenario and returns angle(static) - angle(dynamic) per sample.
    """
    h = trace.values
    h_static = scenario.static_field(grid)
    h_dynamic = h - h_static
    if np.any(h_dynamic == 0):
        raise UndefinedPhaseError("dynamic component is zero; phase undefined")
    return np.angle(h_static) - np.angle(h_dynamic)


# ----------------------------------------------------------------------------
# Impairments
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpairmentConfig:
    """RF impairment parameters. All-zero defaults leave the CSI untouched.

    gaussian_noise_std is the standard deviation of the full complex noise
    sample (real and imaginary parts each get std/sqrt(2)).
    """

    pbd_noise_std: float = 0.0      # rad, packet-boundary jitter per frame
    sfo_slope: float = 0.0          # rad per physical subcarrier index
    cfo_walk_std: float = 0.0       # rad per-sample random-walk step
    cfo_bound_rad: float = math.pi  # reflecting bound on the walk
    impulse_rate_hz: float = 0.0    # Poisson rate of amplitude level jumps
    impulse_log_std: float = 0.0    # std of log amplitude levels
    impulse_correlation: float = 1.0  # cross-subcarrier correlation of levels
    gaussian_noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "pbd_noise_std", "cfo_walk_std", "impulse_rate_hz", "impulse_log_std",
            "gaussian_noise_std",
        ):
            check_real(name, getattr(self, name), 0.0)
        for name in ("sfo_slope", "cfo_bound_rad", "impulse_correlation"):
            check_real(name, getattr(self, name))
        if not 0.0 <= self.impulse_correlation <= 1.0:
            raise ConfigurationError("impulse_correlation must lie in [0, 1]")
        if self.cfo_bound_rad <= 0:
            raise ConfigurationError("cfo_bound_rad must be positive")
        check_integer("seed", self.seed, 0)


def cfo_phase_series(
    config: ImpairmentConfig, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Bounded random-walk carrier phase offset phi(k)."""
    if config.cfo_walk_std == 0.0:
        return np.zeros(n_samples)
    walk = np.cumsum(rng.normal(0.0, config.cfo_walk_std, n_samples))
    b = config.cfo_bound_rad
    folded = np.mod(walk + b, 4.0 * b)
    return np.where(folded < 2.0 * b, folded - b, 3.0 * b - folded)


def impulse_level_series(
    config: ImpairmentConfig,
    n_subcarriers: int,
    n_samples: int,
    sample_rate_hz: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Piecewise-constant multiplicative amplitude A_n, shape (M, K).

    Jump times are shared across subcarriers; at each jump the log-level is
    rho-correlated between subcarriers (rho = 1 reproduces the common-impulse
    assumption exactly, so ratios cancel the levels sample-by-sample).
    """
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


def apply_impairments(trace: CsiTrace, config: ImpairmentConfig) -> CsiTrace:
    """Corrupt an ideal CSI trace per the impairment model.

    Draw order is fixed (jitter, carrier walk, impulse levels, additive noise)
    so a given (config, seed) always produces the same corruption.
    """
    grid = trace.grid
    if grid is None:
        raise ConfigurationError("a trace must carry a grid to be impaired")
    h = trace.values
    n_sub, n_samples = h.shape
    rng = np.random.default_rng(config.seed)

    eta_b = (
        rng.normal(0.0, config.pbd_noise_std, n_samples)
        if config.pbd_noise_std > 0
        else np.zeros(n_samples)
    )
    phi = cfo_phase_series(config, n_samples, rng)
    levels = impulse_level_series(config, n_sub, n_samples, trace.sample_rate_hz, rng)

    theta = grid.physical_index[:, None] * (eta_b + config.sfo_slope)[None, :] + phi[None, :]
    corrupted = levels * np.exp(-1j * theta) * h
    if config.gaussian_noise_std > 0:
        sigma = config.gaussian_noise_std / math.sqrt(2.0)
        corrupted = corrupted + (
            rng.normal(0.0, sigma, h.shape) + 1j * rng.normal(0.0, sigma, h.shape)
        )
    return CsiTrace(corrupted, trace.times_s, trace.sample_rate_hz, grid)
