"""End-to-end acceptance checks for the whole package.

Each test prints one numbered PASS/FAIL line (run with ``pytest -s`` to see
them on success) and enforces a runtime budget. The checks pin the library's
headline guarantees: closed-form worked examples, exact cancellation
properties, the projection's immunity to position blind spots, search and
combination guarantees, end-to-end accuracy, and CLI determinism.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from csibreath import cli
from csibreath.combine import align_streams, combine
from csibreath.gass import Genome, fitness, solve_delay_basis
from csibreath.grid import custom_grid, default_grid, ht_ltf_grid
from csibreath.pipeline import PipelineConfig, blind_spot_sweep, run_pipeline
from csibreath.rate import estimate_rate
from csibreath.ratio import (
    StreamStack,
    cscr,
    dynamic_amplitude_low_noise,
    mobius_decompose,
)
from csibreath.simulate import (
    ChannelScenario,
    ImpairmentConfig,
    SinusoidMotion,
    StaticPath,
    apply_impairments,
    generate_ideal_csi,
)
from csibreath.waveform import project

SPEED_OF_LIGHT = 299792458.0


def _report(number: int, ok: bool, detail: str, elapsed: float, budget_s: float):
    within = elapsed <= budget_s
    status = "PASS" if (ok and within) else "FAIL"
    print(f"[{number:2d}/10] {status} {detail} ({elapsed:.2f} s / budget {budget_s:.0f} s)")
    assert ok, f"check {number}: {detail}"
    assert within, f"check {number} exceeded budget: {elapsed:.2f} s > {budget_s:.0f} s"


def _breathing_scenario(duration_s: float, base_length_m: float = 10.0):
    return ChannelScenario(
        sample_rate_hz=50.0,
        duration_s=duration_s,
        static_paths=(StaticPath(amplitude=1.0, length_m=6.0),),
        dynamic_amplitude=0.1,
        base_dynamic_length_m=base_length_m,
        motion=SinusoidMotion(rate_hz=0.25, amplitude_m=0.003),
    )


def test_01_closed_form_dynamic_amplitude():
    t0 = time.perf_counter()
    lam = ht_ltf_grid().wavelength_m
    adjacent = dynamic_amplitude_low_noise(1.0, 0.1, 1.0, 0.1, 4.0, lam[0], lam[1])
    spanning = dynamic_amplitude_low_noise(1.0, 0.1, 1.0, 0.1, 4.0, lam[0], lam[113])
    ok = (
        np.isclose(adjacent, 0.00265, rtol=0.02)
        and np.isclose(spanning, 0.2017, rtol=0.02)
        and spanning / adjacent >= 70.0
    )
    _report(
        1, ok,
        f"closed-form dynamic amplitude: {adjacent:.5f} / {spanning:.4f}, "
        f"ratio {spanning / adjacent:.1f}x",
        time.perf_counter() - t0, 1.0,
    )


def test_02_rate_readout_at_engineered_peak_spacing():
    t0 = time.perf_counter()
    fs = 50.0
    f0 = fs / 210.0  # autocorrelation peaks at one-based indices 1 and 211
    t = np.arange(int(60 * fs)) / fs
    estimate = estimate_rate(np.cos(2 * np.pi * f0 * t), fs)
    ok = (
        estimate.k_p1 == 1
        and estimate.k_p2 == 211
        and estimate.f_bpm is not None
        and abs(estimate.f_bpm - 14.29) <= 0.01
    )
    _report(
        2, ok,
        f"rate from peak spacing 1->211 at 50 Hz: {estimate.f_bpm:.4f} bpm",
        time.perf_counter() - t0, 1.0,
    )


def test_03_phase_corruption_cancels_in_ratio():
    t0 = time.perf_counter()
    scenario = _breathing_scenario(12.0)
    scenario = dataclasses.replace(scenario, sample_rate_hz=20.0)
    trace = generate_ideal_csi(scenario, default_grid())
    clean = cscr(trace, 5, 100).values
    worst = 0.0
    for seed in range(100):
        corrupted = apply_impairments(
            trace, ImpairmentConfig(sfo_slope=1e-3, cfo_walk_std=0.3, seed=seed)
        )
        values = cscr(corrupted, 5, 100).values
        diff = np.unwrap(np.angle(values / clean))
        worst = max(worst, float(np.std(diff)))
    _report(
        3, worst < 1e-9,
        f"clock/carrier phase corruption leaves a constant ratio offset: "
        f"worst std {worst:.2e} rad over 100 seeds",
        time.perf_counter() - t0, 10.0,
    )


def test_04_correlated_impulses_cancel_in_magnitude():
    t0 = time.perf_counter()
    scenario = _breathing_scenario(12.0)
    scenario = dataclasses.replace(scenario, sample_rate_hz=20.0)
    trace = generate_ideal_csi(scenario, default_grid())
    clean = np.abs(cscr(trace, 5, 100).values)
    worst = 0.0
    for seed in range(100):
        corrupted = apply_impairments(
            trace,
            ImpairmentConfig(impulse_rate_hz=1.0, impulse_log_std=0.8, seed=seed),
        )
        ratio = np.abs(cscr(corrupted, 5, 100).values) / clean
        worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
    _report(
        4, worst < 1e-12,
        f"fully correlated impulse gain cancels in the ratio magnitude: "
        f"worst |ratio-1| {worst:.2e} over 100 seeds",
        time.perf_counter() - t0, 10.0,
    )


def test_05_fractional_linear_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 10_000
    worst = 0.0
    for _ in range(n):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        # keep the pole and the zero off the unit circle
        if abs(d / c) < 1.05:
            d *= 1.06 / abs(d / c)
        if abs(b / a) < 1.05:
            b *= 1.06 / abs(b / a)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 8))
        dec = mobius_decompose(a, b, c, d, z)
        truth = (a * z + b) / (c * z + d)
        err = float(np.max(np.abs(dec.reconstructed() - truth) / np.abs(truth)))
        worst = max(worst, err)
    _report(
        5, worst < 1e-12,
        f"static/dynamic split reconstructs the ratio: worst relative error "
        f"{worst:.2e} over {n} draws",
        time.perf_counter() - t0, 5.0,
    )


def test_06_projection_removes_position_blind_spots():
    t0 = time.perf_counter()
    grid = default_grid()
    center_wavelength = SPEED_OF_LIGHT / 2.452e9
    # base length placed so the swept positions land exactly on the
    # amplitude and phase sensitivity nulls of the reference pair
    scenario = _breathing_scenario(
        15.0, base_length_m=6.0 + 33.25 * center_wavelength
    )
    impairments = ImpairmentConfig(
        pbd_noise_std=1e-5, sfo_slope=1e-4, cfo_walk_std=0.05,
        gaussian_noise_std=0.03, seed=7,
    )
    offsets = np.arange(32) * (center_wavelength / 32.0)
    report = blind_spot_sweep(scenario, impairments, grid, offsets, PipelineConfig())

    def failures(method):
        return {
            i for i, row in enumerate(r for r in report.rows if r["method"] == method)
            if not row["detected"]
        }

    full_pct = report.summary["full_detectability_pct"]
    amp_fail, phase_fail = failures("amplitude"), failures("phase")
    ok = (
        full_pct == 100.0
        and len(amp_fail) > 0
        and len(phase_fail) > 0
        and not (amp_fail & phase_fail)
    )
    _report(
        6, ok,
        f"32-position sweep: full {full_pct:.0f}%, amplitude misses "
        f"{sorted(amp_fail)}, phase misses {sorted(phase_fail)} (disjoint)",
        time.perf_counter() - t0, 300.0,
    )


def test_07_search_guarantees():
    t0 = time.perf_counter()
    # toy two-subcarrier grid: exhaustive search is the global optimum
    toy_frequencies = np.array([2.452e9, 2.462e9])
    scenario = dataclasses.replace(
        _breathing_scenario(20.0), sample_rate_hz=10.0
    )
    toy = apply_impairments(
        generate_ideal_csi(scenario, custom_grid(toy_frequencies)),
        ImpairmentConfig(gaussian_noise_std=0.05, seed=2),
    )
    toy_matrix = toy.values
    exhaustive = max(
        fitness(Genome(np.array([1.0 + 0j]), np.array([m1]), m2), toy_matrix, 10.0)
        for m1, m2 in ((0, 1), (1, 0))
    )
    toy_solution = solve_delay_basis(toy_matrix, toy_frequencies, 10.0)

    # full grid: never below the fallback, the best single pair over d
    trace = apply_impairments(
        generate_ideal_csi(_breathing_scenario(15.0), default_grid()),
        ImpairmentConfig(pbd_noise_std=0.002, sfo_slope=1e-4, cfo_walk_std=0.05,
                         gaussian_noise_std=0.02, seed=7),
    )
    matrix, frequencies = trace.values, trace.grid.center_frequency_hz
    solution = solve_delay_basis(matrix, frequencies, 50.0)
    d = solution.genome.denominator_index
    fallback = max(
        fitness(Genome(np.array([1.0 + 0j]), np.array([m]), d), matrix, 50.0)
        for m in range(matrix.shape[0])
        if m != d
    )
    ok = (
        np.isclose(toy_solution.fitness, exhaustive, rtol=1e-12)
        and solution.pair_fitness == fallback
        and solution.fitness >= solution.pair_fitness
        and solution.fitness == fitness(solution.genome, matrix, 50.0)
    )
    _report(
        7, ok,
        f"search matches exhaustive on the toy grid ({toy_solution.fitness:.4g}); "
        f"full-grid fitness {solution.fitness:.3g} >= fallback pair "
        f"{solution.pair_fitness:.3g}",
        time.perf_counter() - t0, 120.0,
    )


def test_08_combination_gain():
    t0 = time.perf_counter()
    fs, n, n_streams = 10.0, 300, 10
    t = np.arange(n) / fs
    breath = np.exp(1j * 0.3 * np.sin(2 * np.pi * 0.25 * t))
    gains_db = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n_streams):
            g = rng.uniform(0.5, 2.0)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            noise = 0.25 * (
                rng.normal(size=n) + 1j * rng.normal(size=n)
            ) / np.sqrt(2.0)
            rows.append(g * np.exp(1j * theta) * breath + noise)
        streams = StreamStack(
            values=np.array(rows), sample_rate_hz=fs,
            denominators=np.arange(n_streams),
            interpolated=np.zeros((n_streams, n), dtype=bool),
        )
        singles = [project(v - v.mean(), fs).band_ratio for v in streams.values]
        aligned = align_streams(streams, gain_window=5)
        combined = combine(aligned, smoothing_window=3, mu=0.5)
        total = project(combined.smoothed, fs).band_ratio
        gains_db.append(10.0 * np.log10(total / np.median(singles)))
    mean_gain = float(np.mean(gains_db))
    _report(
        8, mean_gain >= 6.0,
        f"10-stream combination gains {mean_gain:.1f} dB over the median "
        f"single stream (20 seeds)",
        time.perf_counter() - t0, 60.0,
    )


def test_09_end_to_end_accuracy():
    t0 = time.perf_counter()
    scenario = _breathing_scenario(60.0)
    trace = generate_ideal_csi(scenario, default_grid())
    config = PipelineConfig()
    clean_results = run_pipeline(trace, config)
    clean_errors = [
        abs(r.estimate.f_bpm - 15.0)
        for r in clean_results
        if r.estimate is not None and r.estimate.f_bpm is not None
    ]
    clean_ok = (
        len(clean_errors) == len(clean_results) >= 50
        and max(clean_errors) < 0.5
    )

    impaired = apply_impairments(
        trace,
        ImpairmentConfig(
            pbd_noise_std=0.002, sfo_slope=1e-4, cfo_walk_std=0.05,
            impulse_rate_hz=0.2, impulse_log_std=0.4,
            gaussian_noise_std=0.03, seed=11,
        ),
    )
    impaired_results = run_pipeline(impaired, config)
    detected = sum(
        1
        for r in impaired_results
        if r.estimate is not None
        and r.estimate.f_bpm is not None
        and abs(r.estimate.f_bpm - 15.0) < 1.0
    )
    rate = 100.0 * detected / len(impaired_results)
    impaired_ok = len(impaired_results) >= 50 and rate >= 90.0
    _report(
        9, clean_ok and impaired_ok,
        f"noise-free worst error {max(clean_errors):.3f} bpm over "
        f"{len(clean_results)} windows; impaired detection "
        f"{detected}/{len(impaired_results)} = {rate:.0f}%",
        time.perf_counter() - t0, 300.0,
    )


_CLI_CONFIG = """\
grid:
  center_frequencies_hz: [2.452e9, 2.4545e9, 2.457e9, 2.4595e9, 2.462e9, 2.4645e9]
scenario:
  sample_rate_hz: 20.0
  duration_s: 12.0
  static_paths:
    - {amplitude: 1.0, length_m: 6.0}
  dynamic_amplitude: 0.1
  base_dynamic_length_m: 10.0
  motion: {kind: sinusoid, rate_hz: 0.25, amplitude_m: 0.003}
impairments:
  gaussian_noise_std: 0.02
  seed: 3
pipeline:
  mu: 0.5
"""


def test_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "run.yaml"
    config.write_text(_CLI_CONFIG)
    sweep_bs = tmp_path / "bs.yaml"
    sweep_bs.write_text(_CLI_CONFIG + "sweep: {offsets_m: [0.0, 0.03]}\n")
    sweep_snr = tmp_path / "snr.yaml"
    sweep_snr.write_text(_CLI_CONFIG + "sweep: {noise_stds: [0.02], runs_per_level: 1}\n")
    jobs = [
        ("simulate", config),
        ("run", config),
        ("sweep-blindspot", sweep_bs),
        ("sweep-snr", sweep_snr),
        ("gass-audit", config),
    ]
    mismatches = []
    for name, cfg in jobs:
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            code = cli.main(
                [name, "--config", str(cfg), "--seed", "4", "--out", str(out)]
            )
            assert code == 0, f"{name} exited {code}"
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        if files_a != files_b:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files_a:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    _report(
        10, not mismatches,
        "every CLI subcommand is byte-identical across repeated seeded runs"
        + (f" (mismatches: {mismatches})" if mismatches else ""),
        time.perf_counter() - t0, 120.0,
    )
