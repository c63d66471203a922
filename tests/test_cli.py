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

from csibreath import cli, config, gass, pipeline, traceio
from csibreath.errors import ConfigurationError, check_real
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
  motion_threshold_rad: 2.0
"""
_GATE = "  motion_threshold_rad: 2.0"  # the last line of _BASE, inside pipeline
_SINUSOID = {"kind": "sinusoid", "rate_hz": 0.25, "amplitude_m": 0.003}
_STEPS = {"kind": "steps", "segments": [[6, 0.25], [6, 0.3]], "amplitude_m": 0.003}


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
        f"pipeline:\n{_GATE}\n"
    )
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "estimates.jsonl").exists()


def test_empty_sections_mean_the_defaults(tmp_path):
    settings = yaml.safe_load(_BASE)
    del settings["impairments"]
    settings["pipeline"] = {"motion_threshold_rad": 2.0}
    text = yaml.safe_dump(settings)
    outputs = []
    for name, config_text in (
        ("omitted", text),
        ("empty", text + "impairments:\nsweep:\n"),
        ("bare", text.replace("pipeline:\n  motion_threshold_rad: 2.0\n", "pipeline:\n")),
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
        ("sweep-blindspot", "{span_wavelengths: true}"),
        ("sweep-blindspot", "{span_wavelengths: '1.0'}"),
    ],
)
def test_empty_or_invalid_sweep_sizes_exit_2(tmp_path, capsys, command, sweep):
    config = tmp_path / "sweep.yaml"
    config.write_text(_BASE + f"sweep: {sweep}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "command, sweep, message",
    [
        ("sweep-blindspot", "{offsets_m: [true, 0.03]}", "offsets_m must be a finite number"),
        ("sweep-snr", "{noise_stds: [true]}", "noise_stds must be a finite number >= 0"),
    ],
    ids=["boolean offset", "boolean noise level"],
)
def test_a_boolean_sweep_condition_exits_2(tmp_path, capsys, command, sweep, message):
    config = tmp_path / "sweep.yaml"
    config.write_text(_BASE + f"sweep: {sweep}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}, got True\n"
    assert list(out.iterdir()) == []


_BEYOND_FLOAT = 10**400  # an integer no float can hold


@pytest.mark.parametrize(
    "value, finite",
    [(_BEYOND_FLOAT, True), (-_BEYOND_FLOAT, True), (_BEYOND_FLOAT, False)],
    ids=["positive", "negative", "positive where infinity is allowed"],
)
def test_check_real_rejects_an_integer_beyond_the_float_range(value, finite):
    kind = "a finite number" if finite else "a number"
    with pytest.raises(ConfigurationError, match=f"^x must be {kind}, got {value}$"):
        check_real("x", value, finite=finite)


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("simulate", _BASE.replace("sample_rate_hz: 20.0", f"sample_rate_hz: {_BEYOND_FLOAT}"),
         "sample_rate_hz must be a finite number"),
        ("sweep-blindspot", _BASE + f"sweep: {{offsets_m: [{_BEYOND_FLOAT}]}}\n",
         "offsets_m must be a finite number"),
    ],
    ids=["simulate sample rate", "sweep-blindspot offset"],
)
def test_an_integer_beyond_the_float_range_exits_2(tmp_path, capsys, command, text, message):
    config = tmp_path / "big.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}, got {_BEYOND_FLOAT}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, sweep, name",
    [
        ("sweep-blindspot", f"positions: {_BEYOND_FLOAT}", "sweep.positions"),
        ("sweep-blindspot", f"positions: {2**63}", "sweep.positions"),
        ("sweep-snr", f"noise_stds: [0.02], runs_per_level: {2**63}", "runs_per_level"),
    ],
    ids=["positions 10**400", "positions 2**63", "runs_per_level 2**63"],
)
def test_a_count_beyond_int64_exits_2(tmp_path, capsys, command, sweep, name):
    # a count is an index of numpy arrays, so it must be an int64
    config = tmp_path / "count.yaml"
    config.write_text(_BASE + f"sweep: {{{sweep}}}\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    value = sweep.rsplit(" ", 1)[1]
    assert capsys.readouterr().err == (
        f"configuration error: {name} must be an integer from 1 to {2**63 - 1}, got {value}\n"
    )
    assert not out.exists() or not any(out.iterdir())


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


def test_run_is_byte_identical_on_one_cpu_and_on_two(
    base_config, tmp_path, set_cpus, caplog, monkeypatch
):
    from csibreath.simulate import apply_impairments, generate_ideal_csi
    from csibreath.trace import CsiTrace

    settings = config.load_config(base_config)  # reads _BASE's 2.452e9 as a number
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
        for companion in traceio._companions(tmp_path / "trace.csv"):
            (tmp_path / companion).unlink()  # the text is parsed on every run
        out = tmp_path / f"run-{chunks}"
        assert cli.main(["run", "--config", str(tmp_path / "run.yaml"), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        logged.append([r.getMessage() for r in caplog.records])
    assert sorted(outputs[0]) == ["estimates.jsonl", "windows.csv"]
    assert outputs[0] == outputs[1] == outputs[2]
    assert logged[0] == logged[1] == logged[2]
    assert logged[0] == [f"window {i} failed: no streams to align" for i in range(6)]
    # a failed window keeps the search that ran on it, and the audit reads it
    first = json.loads(outputs[0]["estimates.jsonl"].splitlines()[0])
    assert first["f_bpm"] is None and first["reason"].endswith("no streams to align")
    assert first["solution"] is not None
    audit = tmp_path / "audit"
    assert cli.main(["gass-audit", "--config", str(tmp_path / "run.yaml"),
                     "--out", str(audit)]) == 0
    record = json.loads((audit / "gass_solution.json").read_text())
    del record["best_pair"], record["best_pair_fitness"]
    assert record == first["solution"]


def test_simulate_is_byte_identical_on_one_worker_and_on_two(base_config, tmp_path, monkeypatch):
    monkeypatch.setattr(traceio, "_MIN_RANGE_CELLS", 1)  # split even this small trace
    outputs = []
    for count in (1, 2):
        monkeypatch.setattr(traceio, "workers", lambda: count)
        out = tmp_path / f"sim-{count}"
        assert cli.main(["simulate", "--config", str(base_config), "--seed", "3",
                         "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    (companion,) = traceio._companions(tmp_path / "sim-1" / "trace.csv")
    assert sorted(outputs[0]) == ["trace.csv", companion]
    rows = outputs[0]["trace.csv"].decode().splitlines()[2:]
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
    assert set(record) == {"denominator_index", "fitness", "pair_numerator", "pair_fitness",
                           "fallback", "coefficients_re", "coefficients_im",
                           "best_pair", "best_pair_fitness"}
    # the solve was taken: one coefficient per delay, at most one per distinct tone
    assert record["fallback"] is False
    assert len(record["coefficients_re"]) == len(record["coefficients_im"]) == 5
    assert record["pair_numerator"] != record["denominator_index"]
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


def _solution_from_record(record):
    """The ``GassSolution`` a written solution record holds."""
    coefficients = None
    if not record["fallback"]:
        coefficients = np.array(record["coefficients_re"]) + 1j * np.array(
            record["coefficients_im"]
        )
    return gass.GassSolution(
        record["denominator_index"], record["fitness"], record["pair_numerator"],
        record["pair_fitness"], coefficients,
    )


@pytest.mark.parametrize("noise, fallback", [(True, False), (False, True)])
def test_written_solutions_rebuild_the_fan_out_weights(tmp_path, monkeypatch, noise, fallback):
    # noise-free CSI spans too few dimensions for the solve: the pair is taken
    settings = yaml.safe_load(_BASE)
    if not noise:
        del settings["impairments"]
    (tmp_path / "sim.yaml").write_text(yaml.safe_dump(settings))
    assert cli.main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                     "--out", str(tmp_path / "sim")]) == 0
    trace = tmp_path / "sim" / "trace.csv"
    run = {"input": {"trace": str(trace)}, "pipeline": settings["pipeline"]}
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(run))
    used, build_streams = [], gass.build_streams

    def recording(genome, *args, **kwargs):
        used.append(genome)
        return build_streams(genome, *args, **kwargs)

    monkeypatch.setattr(gass, "build_streams", recording)
    monkeypatch.setattr(pipeline, "workers", lambda: 1)  # every window in this process
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(tmp_path / "run.yaml"), "--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "estimates.jsonl").read_text().splitlines()]
    frequencies = read_trace(trace).grid.center_frequency_hz
    assert len(used) == len(records) == 3
    for record, genome in zip(records, used):
        assert record["solution"]["fallback"] is fallback
        rebuilt = _solution_from_record(record["solution"]).genome(frequencies)
        assert rebuilt.weights.tobytes() == genome.weights.tobytes()
        assert rebuilt.numerator_indices.tolist() == genome.numerator_indices.tolist()
        assert rebuilt.denominator_index == genome.denominator_index
        assert rebuilt.weights.size == (1 if fallback else 5)


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
    plain.write_text(source + "pipeline:\n  motion_threshold_rad: 2.0\n  window_s: 10.0\n")
    assert cli.main(["run", "--config", str(plain), "--out", str(tmp_path / "plain")]) == 0
    # the stream cut is a constant: another mu changes no byte
    cut = tmp_path / "cut.yaml"
    cut.write_text(source + "pipeline:\n  mu: 0.3\n  motion_threshold_rad: 2.0\n  window_s: 10.0\n")
    assert cli.main(["run", "--config", str(cut), "--out", str(tmp_path / "cut")]) == 0
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
        "ignoring retired pipeline keys: pipeline.n_numerators, pipeline.mu, "
        "pipeline.reuse_tolerance, pipeline.ga.population, pipeline.ga.generations, "
        "pipeline.ga.seed_pool, pipeline.ga.seed_top (the search is closed-form, the "
        "stream cut 0.5)"
    ]
    for name in ("estimates.jsonl", "windows.csv"):
        expected = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "retired" / name).read_bytes() == expected
        assert (tmp_path / "cut" / name).read_bytes() == expected


def test_missing_config_exits_2(tmp_path):
    code = cli.main(
        ["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")]
    )
    assert code == cli.EXIT_CONFIG


def test_unknown_config_key_exits_2(tmp_path):
    for line in ("telemetry: true", "outputs: {foo: 1}"):
        config = tmp_path / "bad.yaml"
        config.write_text(f"{_BASE}{line}\n")
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG, line


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
    config.write_text(_BASE.replace(_GATE, f"{_GATE}\n  window_s: 9.4"))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "window_s" in capsys.readouterr().err


def test_windows_short_of_whole_blocks_exit_2(tmp_path, capsys):
    # 7-packet blocks at 75 Hz: a 10 s window holds 107 blocks = 9.99 s
    config = tmp_path / "blocks.yaml"
    config.write_text(_BASE.replace("sample_rate_hz: 20.0", "sample_rate_hz: 75.0"))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "under the 10 s minimum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        # one tone: no window can form a ratio
        ("  center_frequencies_hz: [2.452e9, 2.4545e9, 2.457e9, 2.4595e9, 2.462e9, 2.4645e9]",
         "  center_frequencies_hz: [2.452e9]", "at least two subcarriers"),
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
                 "sg_polyorder: 3", "min_prominence: 0.2", "frame_s: 1.0",
                 "phase_block: 5", "reference_pair: [0, 5]"):
        config = tmp_path / "removed.yaml"
        config.write_text(_BASE.replace(_GATE, f"{_GATE}\n  {line}"))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG, line
        assert "unknown pipeline keys" in capsys.readouterr().err


# explicit ids, the ones each case always ran under, so that removing a
# case renames no other
@pytest.mark.parametrize(
    "command, seed, section, key, value",
    [
        pytest.param("run", 0, "pipeline", "reference_pair", [0, 99], id="run-0-pipeline-reference_pair-value0"),  # a removed key
        pytest.param("run", 0, "pipeline", "reference_pair", [2, 2], id="run-0-pipeline-reference_pair-value1"),
        pytest.param("run", 0, "pipeline", "ga", {"populaton": 64}, id="run-0-pipeline-ga-value2"),  # a misspelt retired key
        pytest.param("run", 0, "pipeline", "ga", {"seed_pol": 200}, id="run-0-pipeline-ga-value3"),
        pytest.param("run", 0, "pipeline", "window_s", -10, id="run-0-pipeline-window_s--10"),
        pytest.param("run", 0, "pipeline", "phase_block", -3, id="run-0-pipeline-phase_block--3"),  # a removed key
        pytest.param("run", 0, "impairments", "seed", -5, id="run-0-impairments-seed--5"),
        pytest.param("run", 0, "pipeline", "ga", {"mu": 0.5}, id="run-0-pipeline-ga-value8"),  # not a key of the section
        pytest.param("run", 0, "pipeline", "ga", {"reuse_tolerance": 0.1}, id="run-0-pipeline-ga-value9"),
        pytest.param("run", 0, "pipeline", "ga", [8, 3], id="run-0-pipeline-ga-value10"),
        pytest.param("run", 0, None, "impairments", 0.02, id="run-0-None-impairments-0.02"),
        pytest.param("run", 0, None, "pipeline", ["n_numerators"], id="run-0-None-pipeline-value12"),
        pytest.param("run", 0, None, "scenario", "breathing", id="run-0-None-scenario-breathing"),
        pytest.param("run", 0, "scenario", "static_paths", None, id="run-0-scenario-static_paths-None"),
        pytest.param("run", 0, "scenario", "static_paths", [6.0], id="run-0-scenario-static_paths-value15"),
        pytest.param("run", 0, "scenario", "motion_events", {"time_s": 5.0}, id="run-0-scenario-motion_events-value16"),
        pytest.param("run", 0, "grid", "center_frequencies_hz", ["abc", 2.4545e9, 2.457e9,
                                                                  2.4595e9, 2.462e9, 2.4645e9], id="run-0-grid-center_frequencies_hz-value17"),
        pytest.param("run", 0, "grid", "physical_indices", ["a", "b", "c", "d", "e", "f"], id="run-0-grid-physical_indices-value18"),
        pytest.param("sweep-blindspot", 0, None, "sweep", [0.0, 0.03], id="sweep-blindspot-0-None-sweep-value19"),
        pytest.param("run", -1, None, None, None, id="run--1-None-None-None"),
        pytest.param("sweep-blindspot", -1, None, None, None, id="sweep-blindspot--1-None-None-None"),
        pytest.param("sweep-snr", -1, None, None, None, id="sweep-snr--1-None-None-None"),
        pytest.param("run", 0, "pipeline", "motion_threshold_rad", "abc", id="run-0-pipeline-motion_threshold_rad-abc"),
        pytest.param("run", 0, "pipeline", "motion_threshold_rad", float("nan"), id="run-0-pipeline-motion_threshold_rad-nan"),
        pytest.param("run", 0, "pipeline", "motion_threshold_rad", True, id="run-0-pipeline-motion_threshold_rad-True"),
        pytest.param("simulate", 0, "impairments", "cfo_walk_std", -0.05, id="simulate-0-impairments-cfo_walk_std--0.05"),
        pytest.param("simulate", 0, "impairments", "impulse_rate_hz", "abc", id="simulate-0-impairments-impulse_rate_hz-abc"),
        pytest.param("simulate", 0, "impairments", "pbd_noise_std", "abc", id="simulate-0-impairments-pbd_noise_std-abc"),
        pytest.param("simulate", 0, "impairments", "gaussian_noise_std", -0.1, id="simulate-0-impairments-gaussian_noise_std--0.1"),
        pytest.param("simulate", 0, "impairments", "impulse_log_std", float("inf"), id="simulate-0-impairments-impulse_log_std-inf"),
        pytest.param("run", 0, "impairments", "cfo_bound_rad", float("nan"), id="run-0-impairments-cfo_bound_rad-nan"),
        pytest.param("simulate", 0, "scenario", "sample_rate_hz", float("inf"), id="simulate-0-scenario-sample_rate_hz-inf"),
        pytest.param("run", 0, "scenario", "sample_rate_hz", float("nan"), id="run-0-scenario-sample_rate_hz-nan"),
        pytest.param("run", 0, "scenario", "duration_s", float("inf"), id="run-0-scenario-duration_s-inf"),
        pytest.param("simulate", 0, "scenario", "duration_s", float("nan"), id="simulate-0-scenario-duration_s-nan"),
        pytest.param("run", 0, "scenario", "base_dynamic_length_m", float("nan"), id="run-0-scenario-base_dynamic_length_m-nan"),
        pytest.param("run", 0, "scenario", "dynamic_amplitude", float("nan"), id="run-0-scenario-dynamic_amplitude-nan"),
        pytest.param("run", 0, "scenario", "dynamic_amplitude", [0.1] * 5 + [float("nan")], id="run-0-scenario-dynamic_amplitude-value38"),
        pytest.param("run", 0, "scenario", "geometric_factor", float("nan"), id="run-0-scenario-geometric_factor-nan"),
        pytest.param("run", 0, "scenario", "static_paths", [{"amplitude": float("nan"), "length_m": 6.0}], id="run-0-scenario-static_paths-value40"),
        pytest.param("run", 0, "scenario", "static_paths", [{"amplitude": 1.0, "length_m": float("inf")}], id="run-0-scenario-static_paths-value41"),
        pytest.param("run", 0, "scenario", "static_paths", [{"amplitude": "abc", "length_m": 6.0}], id="run-0-scenario-static_paths-value42"),
        pytest.param("run", 0, "scenario", "motion", _SINUSOID | {"rate_hz": float("nan")}, id="run-0-scenario-motion-value43"),
        pytest.param("run", 0, "scenario", "motion", _SINUSOID | {"rate_hz": "abc"}, id="run-0-scenario-motion-value44"),
        pytest.param("run", 0, "scenario", "motion", _SINUSOID | {"amplitude_m": float("nan")}, id="run-0-scenario-motion-value45"),
        pytest.param("simulate", 0, "scenario", "motion", _SINUSOID | {"phase_rad": float("inf")}, id="simulate-0-scenario-motion-value46"),
        pytest.param("run", 0, "scenario", "motion", {"kind": "chirp", "start_rate_hz": "abc",
                                                       "end_rate_hz": 0.3, "amplitude_m": 0.003}, id="run-0-scenario-motion-value47"),
        pytest.param("run", 0, "scenario", "motion", {"kind": "chirp", "start_rate_hz": 0.2,
                                                       "end_rate_hz": float("nan"), "amplitude_m": 0.003}, id="run-0-scenario-motion-value48"),
        pytest.param("run", 0, "scenario", "motion", _STEPS | {"segments": [[10, 0.25, 3]]}, id="run-0-scenario-motion-value49"),
        pytest.param("run", 0, "scenario", "motion", _STEPS | {"segments": 5}, id="run-0-scenario-motion-value50"),
        pytest.param("run", 0, "scenario", "motion", _STEPS | {"segments": []}, id="run-0-scenario-motion-value51"),
        pytest.param("run", 0, "scenario", "motion", _STEPS | {"segments": [[-1.0, 0.25], [20, 0.3]]}, id="run-0-scenario-motion-value52"),
        pytest.param("run", 0, "scenario", "motion", _STEPS | {"segments": [[10, "abc"]]}, id="run-0-scenario-motion-value53"),
        pytest.param("run", 0, "scenario", "motion", _STEPS | {"amplitude_m": float("nan")}, id="run-0-scenario-motion-value54"),
        pytest.param("run", 0, "scenario", "motion_events", [{"time_s": float("nan")}], id="run-0-scenario-motion_events-value55"),
        pytest.param("run", 0, "scenario", "motion_events", [{"time_s": 5.0, "static_shift_m": float("inf")}], id="run-0-scenario-motion_events-value56"),
        pytest.param("run", 0, "scenario", "motion_events", [{"time_s": 5.0, "dynamic_shift_m": "abc"}], id="run-0-scenario-motion_events-value57"),
        pytest.param("run", 0, "scenario", "dynamic_amplitude", [0.1] * 5, id="run-0-scenario-dynamic_amplitude-value58"),  # 6 tones
        pytest.param("sweep-blindspot", 0, "scenario", "dynamic_amplitude", [0.1] * 7, id="sweep-blindspot-0-scenario-dynamic_amplitude-value59"),
        pytest.param("simulate", 0, "scenario", "static_paths", [{"amplitude": [1.0] * 5, "length_m": 6.0}], id="simulate-0-scenario-static_paths-value60"),
        pytest.param("run", 0, "pipeline", "window_s", "10", id="run-0-pipeline-window_s-10"),
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


def _fresh_python(probe: str) -> str:
    """The stdout of ``probe`` run in a new interpreter that imports the
    package from this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; a fresh process must not pay its import,
    # nor that of multiprocessing, which only a sweep's process pool needs
    probe = (
        "import sys, csibreath.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    assert _fresh_python(probe) == "[]"


def test_pipeline_and_baselines_load_no_numpy_ma():
    # np.median imports numpy.ma for its NaN check; ratio.median does not
    probe = """
import os
import sys
import numpy as np
if hasattr(os, "sched_setaffinity"):  # one CPU: every window in this process
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from csibreath.grid import custom_grid
from csibreath.pipeline import run_pipeline, single_component_estimates
from csibreath.simulate import (
    ChannelScenario, ImpairmentConfig, SinusoidMotion, StaticPath,
    apply_impairments, generate_ideal_csi,
)
grid = custom_grid(2.452e9 + 2.5e6 * np.arange(6))
scenario = ChannelScenario(
    20.0, 12.0, (StaticPath(1.0, 6.0),), 0.1, 10.0, SinusoidMotion(0.25, 0.003)
)
trace = apply_impairments(
    generate_ideal_csi(scenario, grid), ImpairmentConfig(gaussian_noise_std=0.02, seed=3)
)
estimates = [r.estimate for r in run_pipeline(trace)]
estimates += single_component_estimates(trace, "amplitude")
estimates += single_component_estimates(trace, "phase")
print(sum(e is not None for e in estimates), "numpy.ma" in sys.modules)
"""
    assert _fresh_python(probe) == "9 False"


def test_commands_import_no_package_or_numpy_module_after_the_cli(tmp_path):
    # a module first imported inside a pool task is imported again by every
    # worker, into pages of its own; so the CLI loads all it needs up front
    config = tmp_path / "run.yaml"
    config.write_text(_BASE + "sweep: {offsets_m: [0.0], noise_stds: [0.02], runs_per_level: 1}\n")
    replay = tmp_path / "replay.yaml"
    replay.write_text(f"input: {{trace: {tmp_path / 'sim' / 'trace.csv'}}}\npipeline:\n{_GATE}\n")
    commands = [
        ["simulate", "--config", str(config), "--out", str(tmp_path / "sim")],
        ["run", "--config", str(config), "--out", str(tmp_path / "run")],
        ["run", "--config", str(replay), "--out", str(tmp_path / "replay")],
        ["sweep-blindspot", "--config", str(config), "--out", str(tmp_path / "bs")],
        ["sweep-snr", "--config", str(config), "--out", str(tmp_path / "snr")],
        ["gass-audit", "--config", str(config), "--out", str(tmp_path / "audit")],
    ]
    probe = f"""
import os
import sys
if hasattr(os, "sched_setaffinity"):  # one CPU: every task in this process
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
import csibreath.cli
loaded = set(sys.modules)
codes = [csibreath.cli.main(args) for args in {commands!r}]
print(codes, sorted(m for m in set(sys.modules) - loaded
                    if m.split(".")[0] in ("numpy", "csibreath")))
"""
    assert _fresh_python(probe).splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"


def test_malformed_trace_exits_3(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("this is not a trace\n")
    config = tmp_path / "c.yaml"
    config.write_text(f"input: {{trace: {trace}}}\n")
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_TRACE
    assert list((tmp_path / "o").iterdir()) == []


def test_a_nan_timestamp_exits_3_with_its_companion(base_config, tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(base_config), "--out", str(tmp_path)]) == 0
    trace = read_trace(tmp_path / "trace.csv")
    times = trace.times_s.copy()
    times[7] = np.nan
    write_trace(tmp_path / "trace.csv", dataclasses.replace(trace, times_s=times))
    assert len(traceio._companions(tmp_path / "trace.csv")) == 1
    config = tmp_path / "c.yaml"
    config.write_text(f"input: {{trace: {tmp_path / 'trace.csv'}}}\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_TRACE
    err = capsys.readouterr().err
    assert err == "input format error: trace contains a non-finite row number or timestamp\n"
    assert list(out.iterdir()) == []


def test_null_trace_path_exits_2(tmp_path, capsys):
    config = tmp_path / "c.yaml"
    config.write_text("input: {trace: null}\n")
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "input.trace" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gass-audit"], ids=["run", "gass-audit"])
@pytest.mark.parametrize("value", ["5", "true", "foo.csv"], ids=["integer", "boolean", "path"])
def test_an_input_section_that_is_not_a_mapping_exits_2(tmp_path, capsys, command, value):
    config = tmp_path / "c.yaml"
    config.write_text(f"input: {value}\n")
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: input must be a mapping, got ")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


_TONES = "[2.452e9, 2.4545e9, 2.457e9, 2.4595e9, 2.462e9, 2.4645e9]"


@pytest.mark.parametrize(
    "grid",
    [
        "  center_frequencies_hz: [[2.452e9, 2.4545e9, 2.457e9], [2.4595e9, 2.462e9, 2.4645e9]]",
        f"  center_frequencies_hz: {_TONES}\n  field: [a, b]",
        f"  center_frequencies_hz: {_TONES}\n  physical_indices: [[0, 1, 2], [3, 4, 5]]",
        f"  center_frequencies_hz: {_TONES}\n  physical_indices: [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]",
        f"  center_frequencies_hz: {_TONES}\n  physical_indices: [true, 1, 2, 3, 4, 5]",
        "  center_frequencies_hz: [true, 2.4545e9, 2.457e9, 2.4595e9, 2.462e9, 2.4645e9]",
        f"  center_frequencies_hz: {_TONES}\n"
        "  physical_indices: [99999999999999999999999, 1, 2, 3, 4, 5]",
    ],
    ids=[
        "2-D frequencies",
        "list field",
        "2-D indices",
        "fractional indices",
        "boolean index",
        "boolean frequency",
        "index beyond int64",
    ],
)
def test_a_custom_grid_of_bad_values_exits_2(tmp_path, capsys, grid):
    config = tmp_path / "grid.yaml"
    config.write_text(_BASE.replace(f"  center_frequencies_hz: {_TONES}", grid))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: grid ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("physical_index", lambda m: m + 0.5),
        ("center_frequency_hz", lambda m: [2.44e9 + 1e6 * m]),
        ("field", lambda m: ["HT-LTF"]),
        ("physical_index", lambda m: 10**23 + m),
    ],
    ids=[
        "fractional physical_index",
        "list center_frequency_hz",
        "list field",
        "physical_index beyond int64",
    ],
)
def test_a_trace_header_grid_of_bad_values_exits_3(tmp_path, capsys, key, value):
    subcarriers = [
        {"field": "HT-LTF", "physical_index": m, "center_frequency_hz": 2.44e9 + 1e6 * m}
        | {key: value(m)}
        for m in range(2)
    ]
    header = {"format": "csi-trace", "version": 1, "sample_rate_hz": 20.0,
              "subcarriers": subcarriers}
    trace = tmp_path / "trace.csv"
    trace.write_text(
        f"# {json.dumps(header)}\nk,t_s,re000,im000,re001,im001\n0,0.0,1.0,0.0,1.0,0.0\n"
    )
    config = tmp_path / "c.yaml"
    config.write_text(f"input: {{trace: {trace}}}\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_TRACE
    err = capsys.readouterr().err
    assert err.startswith("input format error: bad grid definition: grid ")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran before the output paths were checked")


@pytest.mark.parametrize(
    "command, output",
    [
        ("run", "estimates.jsonl"),
        ("simulate", "trace.csv"),
        ("run", "windows.csv"),
        ("gass-audit", "gass_solution.json"),
    ],
)
@pytest.mark.parametrize("case", ["out is a file", "out is under a file", "output is a directory"])
def test_an_unusable_output_path_exits_2(
    base_config, tmp_path, capsys, monkeypatch, command, output, case
):
    # synthesis or analysis would raise: the check comes first
    monkeypatch.setattr(cli, "generate_ideal_csi", _must_not_run)
    monkeypatch.setattr(cli, "run_pipeline", _must_not_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    if case == "output is a directory":
        out = tmp_path / "o"
        named = out / output
        named.mkdir(parents=True)
    else:
        out = named = blocker if case == "out is a file" else blocker / "sub"
    code = cli.main([command, "--config", str(base_config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "Traceback" not in err
    assert err.startswith(f"output error: {named}: ") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"
    if case == "output is a directory":  # nothing else written, no temporary left
        assert [p.name for p in out.iterdir()] == [output]


def test_impossible_gate_exits_4(base_config, tmp_path):
    config = tmp_path / "gate.yaml"
    config.write_text(_BASE.replace(_GATE, "  motion_threshold_rad: -1.0"))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NO_WINDOW
    assert list((tmp_path / "o").iterdir()) == []  # the output check left no file


def test_a_trace_shorter_than_one_frame_exits_4(tmp_path, capsys):
    # 30 packets at 50 Hz: six whole blocks, but no whole 1 s frame
    config = tmp_path / "short.yaml"
    config.write_text(
        _BASE.replace("sample_rate_hz: 20.0", "sample_rate_hz: 50.0")
        .replace("duration_s: 12.0", "duration_s: 0.6")
    )
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NO_WINDOW
    assert "no complete window" in capsys.readouterr().err


def test_run_on_a_trace_file_does_not_depend_on_the_seed(base_config, tmp_path):
    # --seed only offsets the simulator's impairments; the search draws nothing
    assert cli.main(["simulate", "--config", str(base_config), "--out", str(tmp_path)]) == 0
    config = tmp_path / "replay.yaml"
    config.write_text(f"input: {{trace: {tmp_path / 'trace.csv'}}}\npipeline:\n{_GATE}\n")
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
    assert not record["solution"]["fallback"]
    assert len(record["solution"]["coefficients_re"]) == 8
