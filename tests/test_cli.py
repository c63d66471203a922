import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csibreath import cli
from csibreath.traceio import read_trace

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
  n_numerators: 2
  ga: {population: 8, generations: 3, stagnation_limit: 3, seed_pool: 16, seed_top: 4}
"""


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
        "pipeline:\n"
        "  n_numerators: 2\n"
        "  ga: {population: 8, generations: 3, stagnation_limit: 3, "
        "seed_pool: 16, seed_top: 4}\n"
    )
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "estimates.jsonl").exists()


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


def test_sweep_snr_requires_noise_levels(base_config, tmp_path):
    out = tmp_path / "snr"
    code = cli.main(["sweep-snr", "--config", str(base_config), "--out", str(out)])
    assert code == cli.EXIT_CONFIG


def test_gass_audit_solution_dump(base_config, tmp_path):
    out = tmp_path / "audit"
    assert cli.main(["gass-audit", "--config", str(base_config), "--out", str(out)]) == 0
    record = json.loads((out / "gass_solution.json").read_text())
    assert {"weights_re", "weights_im", "numerator_indices",
            "denominator_index", "fitness", "history"} <= set(record)
    assert len(record["weights_re"]) == 2


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
    for bad in ("tournament: 0", "elites: -1", "weight_sigma: -0.5", "tournament: 2.5"):
        config = tmp_path / "ga.yaml"
        config.write_text(_BASE.replace("seed_top: 4}", f"seed_top: 4, {bad}}}"))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG, bad
        assert "configuration error" in capsys.readouterr().err


def test_short_window_geometry_exits_2(tmp_path, capsys):
    # 33 frames of 0.3 s make 9.9 s windows, under the 10 s rate minimum
    config = tmp_path / "geometry.yaml"
    config.write_text(_BASE.replace("  n_numerators: 2", "  n_numerators: 2\n  frame_s: 0.3"))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "frame_s" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; a fresh process must not pay its import
    probe = (
        "import sys, csibreath.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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
    config.write_text(_BASE.replace(
        "  n_numerators: 2", "  n_numerators: 2\n  motion_threshold_rad: -1.0"
    ))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NO_WINDOW


def test_runs_are_reproducible(base_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(
            ["run", "--config", str(base_config), "--seed", "4", "--out", str(out)]
        ) == 0
    assert (out1 / "estimates.jsonl").read_bytes() == (out2 / "estimates.jsonl").read_bytes()
    assert (out1 / "windows.csv").read_bytes() == (out2 / "windows.csv").read_bytes()
