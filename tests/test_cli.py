import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from csibreath import cli, config, traceio
from csibreath.pipeline import PipelineConfig
from csibreath.traceio import read_trace, write_trace

_BASE = """\
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
_MU = "  mu: 0.5"  # the last line of _BASE, inside pipeline


@pytest.fixture
def base_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(_BASE)
    return path


def test_simulate_writes_readable_trace(base_config, tmp_path):
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(base_config), "--out", str(out)]) == 0
    trace = read_trace(out / "trace.csv")
    assert trace.sample_rate_hz == 20.0
    assert trace.grid.count == 6
    assert len(trace) == 240


def test_run_produces_estimates(base_config, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(base_config), "--out", str(out)]) == 0
    lines = (out / "estimates.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3  # 12 s -> three 10 s windows
    record = json.loads(lines[0])
    assert {"window_id", "f_bpm", "solution", "stage_band_ratios"} <= set(record)
    assert abs(record["f_bpm"] - 15.0) < 1.0
    header = (out / "windows.csv").read_text().splitlines()[0]
    assert header == "window_id,start_time_s,f_bpm,confidence,flags,reason"


def test_run_from_trace_round_trip(base_config, tmp_path):
    sim_out = tmp_path / "sim"
    cli.main(["simulate", "--config", str(base_config), "--out", str(sim_out)])
    config = tmp_path / "fromtrace.yaml"
    config.write_text(
        f"input: {{trace: {sim_out / 'trace.csv'}}}\n"
        f"pipeline:\n{_MU}\n"
    )
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "estimates.jsonl").exists()


def test_empty_sections_mean_the_defaults(tmp_path):
    settings = yaml.safe_load(_BASE)
    del settings["impairments"]
    settings["pipeline"] = {"mu": 0.5}
    text = yaml.safe_dump(settings)
    empty = text.replace("  mu: 0.5\n", "  mu: 0.5\n  reference_pair: null\n")
    assert empty != text
    outputs = []
    for name, config_text in (
        ("omitted", text),
        ("empty", empty + "impairments:\nsweep:\n"),
        ("bare", text.replace("pipeline:\n  mu: 0.5\n", "pipeline:\n")),
    ):
        config = tmp_path / f"{name}.yaml"
        config.write_text(config_text)
        out = tmp_path / name
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        outputs.append((out / "estimates.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[2].count(b"\n") == 3


def test_sweep_blindspot_outputs(base_config, tmp_path):
    config = tmp_path / "sweep.yaml"
    config.write_text(_BASE + "sweep: {offsets_m: [0.0, 0.03]}\n")
    out = tmp_path / "bs"
    assert cli.main(["sweep-blindspot", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "blindspot.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 3  # header + offsets x methods
    summary = json.loads((out / "blindspot_summary.json").read_text())
    assert set(summary) == {"summary", "meta"}
    assert summary["meta"]["positions"] == 2


def test_sweep_snr_outputs(base_config, tmp_path):
    config = tmp_path / "sweep.yaml"
    config.write_text(_BASE + "sweep: {noise_stds: [0.02], runs_per_level: 1}\n")
    out = tmp_path / "snr"
    assert cli.main(["sweep-snr", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "snr.csv").exists()
    summary = json.loads((out / "snr_summary.json").read_text())
    assert len(summary["summary"]["full"]) == 1


def test_sweep_snr_prints_plain_rates(tmp_path, capsys):
    config = tmp_path / "sweep.yaml"
    config.write_text(_BASE + "sweep: {noise_stds: [0.02, 2.0], runs_per_level: 1}\n")
    out = tmp_path / "snr"
    assert cli.main(["sweep-snr", "--config", str(config), "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert "np." not in line
    assert re.fullmatch(r"full-pipeline detection rates: \d+\.\d%, \d+\.\d%", line), line


def test_sweep_snr_on_an_over_bound_scenario_exits_2(tmp_path, capsys):
    config = tmp_path / "sweep.yaml"
    config.write_text(
        _BASE.replace("amplitude_m: 0.003", "amplitude_m: 0.01")
        + "sweep: {noise_stds: [0.02, 0.2], runs_per_level: 2}\n"
    )
    out = tmp_path / "snr"
    assert cli.main(["sweep-snr", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "exceeds the physiological bound" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_sweep_snr_requires_noise_levels(base_config, tmp_path):
    out = tmp_path / "snr"
    code = cli.main(["sweep-snr", "--config", str(base_config), "--out", str(out)])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "command, sweep",
    [
        ("sweep-blindspot", "{positions: 0}"),
        ("sweep-blindspot", "{positions: -3}"),
        ("sweep-blindspot", "{positions: 2.7}"),
        ("sweep-blindspot", "{positions: true}"),
        ("sweep-blindspot", "{offsets_m: []}"),
        ("sweep-blindspot", "{offsets_m: [0.0, .nan]}"),
        ("sweep-blindspot", "{offsets_m: [near]}"),
        ("sweep-blindspot", "{span_wavelengths: abc}"),
        ("sweep-blindspot", "{offsets_m: [0.0], positions: 5, span_wavelengths: 2.0}"),
        ("sweep-blindspot", "{offsets_m: [0.0], positions: 1}"),
        ("sweep-blindspot", "{offsets_m: [0.0], span_wavelengths: 1.0}"),
        ("sweep-snr", "{noise_stds: []}"),
        ("sweep-snr", "{noise_stds: [0.02, .inf]}"),
        ("sweep-snr", "{noise_stds: [-0.1]}"),
        ("sweep-snr", "{noise_stds: [0.02], runs_per_level: 0}"),
        ("sweep-snr", "{noise_stds: [0.02], runs_per_level: 1.5}"),
        ("sweep-snr", "{noise_stds: [0.02], runs_per_levl: 3}"),
        ("sweep-blindspot", "{positons: 4}"),
    ],
)
def test_empty_or_invalid_sweep_sizes_exit_2(tmp_path, capsys, command, sweep):
    config = tmp_path / "sweep.yaml"
    config.write_text(_BASE + f"sweep: {sweep}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_sweeps_are_byte_identical_on_one_cpu_and_on_all(tmp_path, set_cpus):
    jobs = [
        ("sweep-blindspot", "sweep: {offsets_m: [0.0, 0.03, 0.06]}\n"),
        ("sweep-snr", "sweep: {noise_stds: [0.02, 0.2], runs_per_level: 2}\n"),
    ]
    all_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    set_cpus(max(2, all_cpus))  # skips unless the pool can have two workers
    for command, sweep in jobs:
        config = tmp_path / f"{command}.yaml"
        config.write_text(_BASE + sweep)
        outputs = []
        for cpus in (1, all_cpus):
            set_cpus(cpus)
            out = tmp_path / f"{command}-{cpus}"
            assert cli.main([command, "--config", str(config), "--seed", "4",
                             "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1], command


def test_run_is_byte_identical_on_one_cpu_and_on_two(tmp_path, set_cpus, caplog, monkeypatch):
    from csibreath import pipeline
    from csibreath.simulate import CsiTrace, apply_impairments, generate_ideal_csi

    settings = yaml.safe_load(_BASE)
    settings["scenario"]["duration_s"] = 40.0
    settings["impairments"]["seed"] = 4
    trace = apply_impairments(
        generate_ideal_csi(config.scenario_from_config(settings),
                           config.grid_from_config(settings)),
        config.impairments_from_config(settings),
    )
    values = trace.values.copy()
    values[:, 100:125] = 0  # a dropout: windows 0-5 keep no stream
    trace = CsiTrace(values, trace.times_s, trace.sample_rate_hz, trace.grid)
    write_trace(tmp_path / "trace.csv", trace)
    run = {"input": {"trace": str(tmp_path / "trace.csv")}, "pipeline": settings["pipeline"]}
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(run))
    outputs, logged = [], []
    for cpus, chunks in ((1, 1), (2, 2), (2, 3)):
        set_cpus(cpus)
        # the run's windows in this many chunks; three share a pool of two
        monkeypatch.setattr(pipeline, "workers", lambda: chunks)
        caplog.clear()
        out = tmp_path / f"run-{chunks}"
        assert cli.main(["run", "--config", str(tmp_path / "run.yaml"), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        logged.append([r.getMessage() for r in caplog.records])
    assert sorted(outputs[0]) == ["estimates.jsonl", "windows.csv"]
    assert outputs[0] == outputs[1] == outputs[2]
    assert logged[0] == logged[1] == logged[2]
    assert logged[0] == [f"window {i} failed: no streams to align" for i in range(6)]


def test_simulate_is_byte_identical_on_one_worker_and_on_two(base_config, tmp_path, monkeypatch):
    monkeypatch.setattr(traceio, "_MIN_RANGE_CELLS", 1)  # split even this small trace
    outputs = []
    for count in (1, 2):
        monkeypatch.setattr(traceio, "workers", lambda: count)
        out = tmp_path / f"sim-{count}"
        assert cli.main(["simulate", "--config", str(base_config), "--seed", "3",
                         "--out", str(out)]) == 0
        outputs.append((out / "trace.csv").read_bytes())
    assert outputs[0] == outputs[1]
    rows = outputs[0].decode().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == [str(k) for k in range(240)]


def test_one_non_finite_cell_fails_only_its_windows(tmp_path):
    settings = yaml.safe_load(_BASE)
    settings["scenario"]["duration_s"] = 30.0
    (tmp_path / "sim.yaml").write_text(yaml.safe_dump(settings))
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                     "--out", str(tmp_path / "sim")]) == 0
    clean, corrupt = tmp_path / "sim" / "trace.csv", tmp_path / "corrupt.csv"
    lines = clean.read_text().splitlines()
    row = lines[2 + 280].split(",")  # packet 280: 14 s, in frame 14
    lines[2 + 280] = ",".join([*row[:5], "nan", *row[6:]])  # im001
    corrupt.write_text("\n".join(lines) + "\n")
    starts = []
    for trace in (clean, corrupt):
        run = {"input": {"trace": str(trace)}, "pipeline": settings["pipeline"]}
        (tmp_path / "run.yaml").write_text(yaml.safe_dump(run))
        out = tmp_path / f"run-{trace.stem}"
        assert cli.main(["run", "--config", str(tmp_path / "run.yaml"), "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "estimates.jsonl").read_text().splitlines()]
        starts.append([r["start_frame"] for r in records])
    assert starts[0] == list(range(21))
    # the 10 windows over frame 14 are never formed; the other 11 are kept
    assert starts[1] == [*range(5), *range(15, 21)]


def test_gass_audit_solution_dump(base_config, tmp_path, capsys):
    out = tmp_path / "audit"
    assert cli.main(["gass-audit", "--config", str(base_config), "--out", str(out)]) == 0
    record = json.loads((out / "gass_solution.json").read_text())
    assert set(record) == {"weights_re", "weights_im", "numerator_indices", "denominator_index",
                           "fitness", "pair_fitness", "best_pair", "best_pair_fitness"}
    # the closed form's numerator is every row but the denominator
    assert len(record["weights_re"]) == 5
    assert sorted(record["numerator_indices"] + [record["denominator_index"]]) == list(range(6))
    assert record["fitness"] >= record["pair_fitness"]
    # the fallback pair is one of the 30 ordered pairs the reference scores
    assert record["best_pair_fitness"] >= record["pair_fitness"]
    assert record["best_pair"][0] != record["best_pair"][1]
    printed = capsys.readouterr().out
    assert f"fitness {record['fitness']:.4g}" in printed
    assert f"best single pair {record['best_pair_fitness']:.4g}" in printed
    assert f"fallback pair {record['pair_fitness']:.4g}" in printed
    # it is the search run_pipeline ran on window 0
    run = tmp_path / "run"
    assert cli.main(["run", "--config", str(base_config), "--out", str(run)]) == 0
    first = json.loads((run / "estimates.jsonl").read_text().splitlines()[0])
    del record["best_pair"], record["best_pair_fitness"]
    assert first["solution"] == record


# bench/run.py's capture-replay pipeline section, written for retired searches
_RETIRED_PIPELINE = """\
pipeline:
  n_numerators: 8
  mu: 0.5
  reuse_tolerance: 0.1
  motion_threshold_rad: 2.0
  window_s: 10.0
  ga: {population: 64, generations: 1, seed_pool: 200, seed_top: 20}
"""


def test_retired_ga_keys_are_dropped_with_one_warning(base_config, tmp_path):
    assert cli.main(["simulate", "--config", str(base_config), "--out", str(tmp_path)]) == 0
    source = f"input: {{trace: {tmp_path / 'trace.csv'}}}\n"
    retired = tmp_path / "retired.yaml"
    retired.write_text(source + _RETIRED_PIPELINE)
    plain = tmp_path / "plain.yaml"
    plain.write_text(source + "pipeline:\n  mu: 0.5\n  motion_threshold_rad: 2.0\n"
                     "  window_s: 10.0\n")
    assert cli.main(["run", "--config", str(plain), "--out", str(tmp_path / "plain")]) == 0
    # a fresh process, so the warning reaches stderr as a user sees it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    completed = subprocess.run(
        [sys.executable, "-m", "csibreath.cli", "run", "--config", str(retired),
         "--out", str(tmp_path / "retired")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr.splitlines() == [
        "ignoring retired search keys: pipeline.n_numerators, pipeline.reuse_tolerance, "
        "pipeline.ga.population, pipeline.ga.generations, pipeline.ga.seed_pool, "
        "pipeline.ga.seed_top (the search is closed-form and deterministic)"
    ]
    for name in ("estimates.jsonl", "windows.csv"):
        assert (tmp_path / "retired" / name).read_bytes() == (
            tmp_path / "plain" / name).read_bytes()


def test_missing_config_exits_2(tmp_path):
    code = cli.main(
        ["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")]
    )
    assert code == cli.EXIT_CONFIG


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text(_BASE + "telemetry: true\n")
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_bad_ga_params_exit_2(tmp_path, capsys):
    # every key of the retired ga section is dropped; anything else in it exits 2
    for ga, message in (
        ("{seed_pool: 200, populaton: 64}", "unknown pipeline.ga keys: ['populaton']"),
        ("{mu: 0.5}", "unknown pipeline.ga keys: ['mu']"),
        ("{reuse_tolerance: 0.1}", "unknown pipeline.ga keys: ['reuse_tolerance']"),
        ("64", "pipeline.ga must be a mapping"),
    ):
        config = tmp_path / "ga.yaml"
        config.write_text(f"{_BASE}  ga: {ga}\n")
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG, ga
        assert message in capsys.readouterr().err


def test_short_window_geometry_exits_2(tmp_path, capsys):
    # 9.4 s rounds to 9 frames of 1 s, under the 10 s rate minimum
    config = tmp_path / "geometry.yaml"
    config.write_text(_BASE.replace(_MU, f"{_MU}\n  window_s: 9.4"))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "window_s" in capsys.readouterr().err


def test_windows_short_of_whole_blocks_exit_2(tmp_path, capsys):
    # 7-packet blocks at 20 Hz: a 10 s window holds 28 blocks = 9.8 s
    config = tmp_path / "blocks.yaml"
    config.write_text(_BASE.replace(_MU, f"{_MU}\n  phase_block: 7"))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "under the 10 s minimum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        # one tone: no window can form a ratio
        ("  center_frequencies_hz: [2.452e9, 2.4545e9, 2.457e9, 2.4595e9, 2.462e9, 2.4645e9]",
         "  center_frequencies_hz: [2.452e9]", "at least two subcarriers"),
        # 200-packet blocks at 20 Hz: one block per 10 s window, no spectrum
        (_MU, f"{_MU}\n  phase_block: 200", "at least 2"),
    ],
)
def test_a_config_no_window_can_search_exits_2(tmp_path, capsys, old, new, message):
    config = tmp_path / "unsearchable.yaml"
    config.write_text(_BASE.replace(old, new))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_removed_pipeline_keys_exit_2(tmp_path, capsys):
    for line in ("smoothing_mode: block", "gain_normalization: multiply", "refine_peak: false",
                 "include_numerators: true", "gain_window_s: 0.5", "smoothing_s: 0.33",
                 "hampel_half_width_s: 0.5", "hampel_threshold: 3.0", "sg_window_s: 1.0",
                 "sg_polyorder: 3", "min_prominence: 0.2", "frame_s: 1.0"):
        config = tmp_path / "removed.yaml"
        config.write_text(_BASE.replace(_MU, f"{_MU}\n  {line}"))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG, line
        assert "unknown pipeline keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, seed, section, key, value",
    [
        ("run", 0, "pipeline", "reference_pair", [0, 99]),   # index off the 6-tone grid
        ("run", 0, "pipeline", "reference_pair", [2, 2]),
        ("run", 0, "pipeline", "ga", {"populaton": 64}),     # a misspelt retired key
        ("run", 0, "pipeline", "ga", {"seed_pol": 200}),
        ("run", 0, "pipeline", "mu", 1.5),
        ("run", 0, "pipeline", "window_s", -10),
        ("run", 0, "pipeline", "phase_block", -3),
        ("run", 0, "impairments", "seed", -5),
        ("run", 0, "pipeline", "ga", {"mu": 0.5}),           # not a key of the section
        ("run", 0, "pipeline", "ga", {"reuse_tolerance": 0.1}),
        ("run", 0, "pipeline", "ga", [8, 3]),
        ("run", 0, None, "impairments", 0.02),
        ("run", 0, None, "pipeline", ["n_numerators"]),
        ("run", 0, None, "scenario", "breathing"),
        ("run", 0, "scenario", "static_paths", None),
        ("run", 0, "scenario", "static_paths", [6.0]),
        ("run", 0, "scenario", "motion_events", {"time_s": 5.0}),
        ("run", 0, "grid", "center_frequencies_hz", ["abc", 2.4545e9, 2.457e9,
                                                     2.4595e9, 2.462e9, 2.4645e9]),
        ("run", 0, "grid", "physical_indices", ["a", "b", "c", "d", "e", "f"]),
        ("sweep-blindspot", 0, None, "sweep", [0.0, 0.03]),
        ("run", -1, None, None, None),
        ("sweep-blindspot", -1, None, None, None),
        ("sweep-snr", -1, None, None, None),
        ("run", 0, "pipeline", "motion_threshold_rad", "abc"),
        ("run", 0, "pipeline", "motion_threshold_rad", float("nan")),
        ("run", 0, "pipeline", "motion_threshold_rad", True),
        ("simulate", 0, "impairments", "cfo_walk_std", -0.05),
        ("simulate", 0, "impairments", "impulse_rate_hz", "abc"),
        ("simulate", 0, "impairments", "pbd_noise_std", "abc"),
        ("simulate", 0, "impairments", "gaussian_noise_std", -0.1),
        ("simulate", 0, "impairments", "impulse_log_std", float("inf")),
        ("run", 0, "impairments", "cfo_bound_rad", float("nan")),
    ],
)
def test_bad_values_and_seeds_exit_2(tmp_path, capsys, command, seed, section, key, value):
    settings = yaml.safe_load(_BASE)
    if section is not None:
        settings[section][key] = value
    elif key is not None:
        settings[key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(settings))
    out = tmp_path / "out"
    args = [command, "--config", str(path), "--seed", str(seed), "--out", str(out)]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_readme_config_schema_is_accepted(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    schema = readme.split("### Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "schema.yaml"
    path.write_text(schema)
    settings = config.load_config(path)
    config.grid_from_config(settings)
    config.scenario_from_config(settings)
    config.impairments_from_config(settings)
    config.pipeline_from_config(settings)
    assert set(settings["sweep"]) <= config.SWEEP_KEYS
    # every pipeline key is documented in the section
    section = readme.split("### Config schema", 1)[1].split("\n### ", 1)[0]
    for name in (f.name for f in dataclasses.fields(PipelineConfig)):
        assert re.search(rf"\b{name}\b", section), name


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; a fresh process must not pay its import,
    # nor that of multiprocessing, which only a sweep's process pool needs
    probe = (
        "import sys, csibreath.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "[]"


def test_malformed_trace_exits_3(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("this is not a trace\n")
    config = tmp_path / "c.yaml"
    config.write_text(f"input: {{trace: {trace}}}\n")
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_TRACE


def test_null_trace_path_exits_2(tmp_path, capsys):
    config = tmp_path / "c.yaml"
    config.write_text("input: {trace: null}\n")
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "input.trace" in capsys.readouterr().err


def test_impossible_gate_exits_4(base_config, tmp_path):
    config = tmp_path / "gate.yaml"
    config.write_text(_BASE.replace(_MU, f"{_MU}\n  motion_threshold_rad: -1.0"))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NO_WINDOW


def test_run_on_a_trace_file_does_not_depend_on_the_seed(base_config, tmp_path):
    # --seed only offsets the simulator's impairments; the search draws nothing
    assert cli.main(["simulate", "--config", str(base_config), "--out", str(tmp_path)]) == 0
    config = tmp_path / "replay.yaml"
    config.write_text(f"input: {{trace: {tmp_path / 'trace.csv'}}}\npipeline:\n{_MU}\n")
    outputs = []
    for seed in ("0", "5"):
        out = tmp_path / f"seed{seed}"
        assert cli.main(["run", "--config", str(config), "--seed", seed, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["estimates.jsonl", "windows.csv"]
    assert outputs[0] == outputs[1]
    assert b"gass_reused" not in outputs[0]["estimates.jsonl"]


def test_runs_are_reproducible(base_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(
            ["run", "--config", str(base_config), "--seed", "4", "--out", str(out)]
        ) == 0
    assert (out1 / "estimates.jsonl").read_bytes() == (out2 / "estimates.jsonl").read_bytes()
    assert (out1 / "windows.csv").read_bytes() == (out2 / "windows.csv").read_bytes()


def _outputs_across_blas_threads(config, tmp_path):
    """The run's outputs for 1, 1 and 2 BLAS threads, each in a fresh process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for run, threads in enumerate(("1", "1", "2")):
        out = tmp_path / f"run{run}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-m", "csibreath.cli", "run", "--config", str(config),
             "--seed", "2", "--out", str(out)],
            env=env, capture_output=True, timeout=120, check=True,
        )
        outputs.append([(out / name).read_bytes() for name in ("estimates.jsonl", "windows.csv")])
    return outputs


def test_run_is_byte_identical_across_runs_and_blas_threads(base_config, tmp_path):
    outputs = _outputs_across_blas_threads(base_config, tmp_path)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0].count(b"\n") == 3


def test_default_grid_run_is_byte_identical_across_blas_threads(tmp_path):
    # 218 tones: products over the full band are large enough for BLAS to
    # split across threads, which a 6-tone grid never shows
    settings = yaml.safe_load(_BASE)
    settings["grid"] = "default"
    config = tmp_path / "default-grid.yaml"
    config.write_text(yaml.safe_dump(settings))
    outputs = _outputs_across_blas_threads(config, tmp_path)
    assert outputs[0] == outputs[1] == outputs[2]
    record = json.loads(outputs[0][0].splitlines()[0])
    assert len(record["solution"]["weights_re"]) == 217
