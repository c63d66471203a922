"""Benchmark harness for csibreath: drives the public CLI from outside.

    python3 bench/run.py --workload capture-replay --seed 0 --seconds 30 --trace 0

Each timed body is one CLI command in a fresh process, one at a time (a
closed loop with one client). With ``--trace 0`` the run sets the inputs up
several times, times bodies until ``--seconds`` have passed (at least
MIN_BODIES), and reports the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` it sets up once, runs one untraced and one traced body
(bench/tracer.py) and reports the per-layer metrics. Every body's output
files are hashed: a non-zero exit or a hash that differs from the other
bodies of the run fails the run. Accuracy is recomputed from those files
against the scenario's truth. The last line of stdout is the JSON result;
the line before it records the environment, and the full record goes to
.bench_work/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import yaml

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

MIN_BODIES = 3
SETUP_ROUND_S = 0.3    # a cheap set-up repeats before each body for this long
THREADS = "1"          # BLAS/OpenMP threads per child, at most nproc
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The README "Config schema" example without its motion event and its `input`
# section (an alternative to `scenario`). Its sinusoid breathes at 0.25 Hz.
README_EXAMPLE = """
grid: default
scenario:
  sample_rate_hz: 50.0
  duration_s: 60.0
  static_paths:
    - {amplitude: 1.0, length_m: 6.0}
  dynamic_amplitude: 0.1
  base_dynamic_length_m: 10.0
  motion: {kind: sinusoid, rate_hz: 0.25, amplitude_m: 0.003}
impairments:
  pbd_noise_std: 0.002
  sfo_slope: 1.0e-4
  cfo_walk_std: 0.05
  impulse_rate_hz: 0.2
  impulse_log_std: 0.4
  impulse_correlation: 1.0
  cfo_bound_rad: 3.141592653589793
  gaussian_noise_std: 0.03
  seed: 11
pipeline:
  n_numerators: 8
  mu: 0.5
  reuse_tolerance: 0.1
  motion_threshold_rad: 2.0
  window_s: 10.0
  ga: {population: 64, generations: 100, seed_pool: 200, seed_top: 20}
"""
TRUTH_BPM = 15.0
READOUT_BPM = (10.02, 30.0)   # rate.estimate_rate withholds rates outside
CAPTURE_S = 120.0             # capture-replay: length of the simulated capture
SWEEP_S = 10.0                # blindspot-slice: one 10 s window per position
SWEEP_POSITIONS = 8


def _readme_config(duration_s: float) -> dict:
    config = yaml.safe_load(README_EXAMPLE)
    config["scenario"]["duration_s"] = duration_s
    return config


def _write_yaml(path: Path, config: dict) -> Path:
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Score:
    """Accuracy of one body's outputs; units are windows or sweep positions."""

    units: int
    estimated: int
    errors_bpm: list[float]
    extra: dict[str, float]

    @property
    def within_1bpm(self) -> int:
        return sum(e < 1.0 for e in self.errors_bpm)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # CLI subcommand of the timed body
    outputs: tuple[str, ...]     # body files hashed for the correctness gate
    trace_seconds: float         # seconds of CSI one body analyses
    prepare: Callable            # (dir, seed, cli) -> config path of the body
    score: Callable              # body output dir -> Score; raises CheckFailed


class CheckFailed(Exception):
    """A body's outputs are malformed or inconsistent."""


def _prepare_capture(directory: Path, seed: int, cli: Callable) -> Path:
    sim = _write_yaml(directory / "simulate.yaml", _readme_config(CAPTURE_S))
    if cli(["simulate", "--config", str(sim), "--seed", str(seed), "--out", str(directory)]):
        raise CheckFailed("csibreath simulate failed during set-up")
    pipeline = yaml.safe_load(README_EXAMPLE)["pipeline"]
    pipeline["ga"]["generations"] = 1
    replay = {"input": {"trace": str(directory / "trace.csv")}, "pipeline": pipeline}
    return _write_yaml(directory / "replay.yaml", replay)


def _prepare_sweep(directory: Path, seed: int, cli: Callable) -> Path:
    config = _readme_config(SWEEP_S)
    config["sweep"] = {"positions": SWEEP_POSITIONS, "span_wavelengths": 1.0}
    return _write_yaml(directory / "sweep.yaml", config)


def _score_run(out: Path) -> Score:
    lines = (out / "estimates.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    if not records or [r["window_id"] for r in records] != list(range(len(records))):
        raise CheckFailed("estimates.jsonl window ids are not 0..n-1")
    errors = []
    for r in records:
        if r["f_bpm"] is None or r["reason"] is not None:
            continue
        if not READOUT_BPM[0] <= r["f_bpm"] <= READOUT_BPM[1]:
            raise CheckFailed(f"window {r['window_id']} rate {r['f_bpm']} outside the readout band")
        errors.append(abs(r["f_bpm"] - TRUTH_BPM))
    return Score(len(records), len(errors), errors, {})


def _score_sweep(out: Path) -> Score:
    with open(out / "blindspot.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out / "blindspot_summary.json").read_text(encoding="utf-8"))
    detect = {}
    errors = []
    for method in ("full", "amplitude", "phase"):
        method_rows = [r for r in rows if r["method"] == method]
        if len(method_rows) != SWEEP_POSITIONS:
            raise CheckFailed(f"blindspot.csv has {len(method_rows)} {method} rows")
        hits = 0
        for r in method_rows:
            error = abs(float(r["median_bpm"]) - TRUTH_BPM) if r["median_bpm"] else None
            detected = error is not None and error < 1.0
            if (r["detected"] == "True") != detected or float(r["truth_bpm"]) != TRUTH_BPM:
                raise CheckFailed(f"blindspot.csv row disagrees with its median: {r}")
            hits += detected
            if method == "full" and error is not None:
                errors.append(error)
        detect[method] = 100.0 * hits / SWEEP_POSITIONS
        if abs(summary["summary"][f"{method}_detectability_pct"] - detect[method]) > 1e-9:
            raise CheckFailed(f"summary {method} detectability disagrees with the rows")
    extra = {
        "pipeline.detect_amplitude_pct": detect["amplitude"],
        "pipeline.detect_phase_pct": detect["phase"],
    }
    return Score(SWEEP_POSITIONS, len(errors), errors, extra)


WORKLOADS = {
    w.name: w
    for w in (
        # Long replayed capture, 1-generation search: trace reading, block
        # averaging, pair ranking, stream fan-out, alignment, projection,
        # cleanup and the rate readout do the work; largest memory use.
        Workload("capture-replay", "run", ("estimates.jsonl",), CAPTURE_S,
                 _prepare_capture, _score_run),
        # Full 64x100 search plus both single-component baselines on a fresh
        # synthesis per position: the accuracy guard of the paper's claim.
        Workload("blindspot-slice", "sweep-blindspot",
                 ("blindspot.csv", "blindspot_summary.json"),
                 SWEEP_POSITIONS * SWEEP_S, _prepare_sweep, _score_sweep),
    )
}


# --------------------------------------------------------------------------
# Running the CLI
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Body:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    digest: str | None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({name: THREADS for name in THREAD_VARS})
    return env


def _run_cli(args: list[str], log: Path, spans: Path | None = None) -> tuple[float, float, int]:
    """Run one CLI command; returns wall seconds, peak RSS in MB, exit code."""
    if spans is None:
        command = [sys.executable, "-m", "csibreath.cli", *args]
    else:
        command = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--", *args]
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=_child_env(), stdout=fh, stderr=subprocess.STDOUT
        )
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, process.returncode


def _digest(directory: Path, names: tuple[str, ...]) -> str | None:
    sha = hashlib.sha256()
    for name in names:
        path = directory / name
        if not path.is_file():
            return None
        sha.update(name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _setup(workload: Workload, seed: int, directory: Path, spans: Path | None = None):
    """Prepare the body's inputs in ``directory``; returns (config, seconds)."""
    _fresh(directory)

    def cli(args: list[str]) -> int:
        return _run_cli(args, directory / "setup.log", spans)[2]

    start = time.perf_counter()
    config = workload.prepare(directory, seed, cli)
    return config, time.perf_counter() - start


def _body(workload: Workload, config: Path, seed: int, out: Path,
          spans: Path | None = None) -> Body:
    _fresh(out)
    args = [workload.command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    wall, rss, code = _run_cli(args, out / "cli.log", spans)
    digest = _digest(out, workload.outputs) if code == 0 else None
    return Body(wall, rss, code, digest)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _accuracy(score: Score) -> dict[str, float]:
    errors = score.errors_bpm
    if not errors:
        raise CheckFailed("no window or position produced an estimate")
    return {
        "within_1bpm_pct": 100.0 * score.within_1bpm / score.units,
        "estimated_pct": 100.0 * score.estimated / score.units,
        "err_bpm_p50": _percentile(errors, 50),
        "err_bpm_p90": _percentile(errors, 90),
        **score.extra,
    }


def _layer_metrics(trace: dict, setup_trace: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics from the tracer's records of one traced body."""
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    metrics = {f"{name}.ms": 1000.0 * self_s.get(name, 0.0) for name in tracer.NAMES}
    covered_s = sum(self_s.values())
    read_s = self_s.get("traceio.read_trace", 0.0)
    optimize_calls = calls.get("gass.optimize", 0)
    genomes = counts.get("optimize.genomes_scored", 0)
    windows = counts.get("run_pipeline.windows", 0)
    aligned = counts.get("combine.aligned", 0)
    metrics.update({
        "pipeline.detect_amplitude_pct": 0.0,   # sweep workloads only
        "pipeline.detect_phase_pct": 0.0,
        "cli.self_ms": 1000.0 * (traced_s - covered_s),
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.coverage_pct": 100.0 * covered_s / traced_s,
        "traceio.write_trace.ms": 1000.0 * setup_trace.get("self_s", {}).get(
            "traceio.write_trace", 0.0),
        "traceio.read_trace.mb_per_s": (
            counts.get("read_trace.bytes", 0) / 1e6 / read_s if read_s else 0.0),
        "simulate.frames_to_matrix.calls": calls.get("simulate.frames_to_matrix", 0),
        "ratio.average_phase_blocks.calls": calls.get("ratio.average_phase_blocks", 0),
        "pipeline.windows": windows,
        "pipeline.frames_rejected": counts.get("segment.frames_rejected", 0),
        "pipeline.reuse_ratio": counts.get("run_pipeline.reused", 0) / windows if windows else 0.0,
        "gass.fitness.calls": calls.get("gass.fitness", 0),
        "gass.genomes_scored": genomes,
        "gass.cache_hit_ratio": (
            1.0 - counts.get("optimize.fitness_calls", 0) / genomes if genomes else 0.0),
        "gass.generations_run": (
            counts.get("optimize.generations_run", 0) / optimize_calls if optimize_calls else 0.0),
        "gass.stagnation_stops": counts.get("optimize.stagnation_stops", 0),
        "gass.fitness_gain_p50": statistics.median(trace["gains"]) if trace["gains"] else 0.0,
        "gass.streams_built": (
            counts.get("build_streams.streams", 0) / calls["gass.build_streams"]
            if calls.get("gass.build_streams") else 0.0),
        "combine.streams_contributing": (
            counts.get("combine.contributing", 0) / calls["combine.combine"]
            if calls.get("combine.combine") else 0.0),
        "combine.keep_ratio": counts.get("combine.contributing", 0) / aligned if aligned else 0.0,
        "waveform.hampel_replaced": counts.get("clean.replaced", 0),
    })
    return metrics


def _environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: THREADS for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
    }


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def _untraced_run(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Set up, then time a body, until ``seconds`` have passed. Set-ups are
    interleaved with the bodies so that both sample the same stretch of the
    machine's speed."""
    setups = []
    inputs = set()
    bodies = []
    start = time.perf_counter()
    while len(bodies) < MIN_BODIES or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        while not setups or time.perf_counter() - round_start < SETUP_ROUND_S:
            config, elapsed = _setup(workload, seed, work / "setup")
            setups.append(elapsed)
            inputs.add(_digest(config.parent, tuple(sorted(
                p.name for p in config.parent.iterdir() if p.suffix != ".log"))))
        bodies.append(_body(workload, config, seed, work / "body"))
    failed = sum(b.exit_code != 0 or b.digest != bodies[0].digest for b in bodies)
    if bodies[-1].digest is None:
        raise CheckFailed("the last body failed; no outputs to score")
    score = workload.score(work / "body")
    run_s = statistics.median(b.wall_s for b in bodies)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "rtf": workload.trace_seconds / run_s,
        "peak_rss_mb": statistics.median(b.peak_rss_mb for b in bodies),
        **_accuracy(score),
    }
    return {
        "correct": failed == 0 and len(inputs) == 1,
        "attempted": len(bodies),
        "failed": failed,
        "metrics": metrics,
        "bodies": [vars(b) for b in bodies],
        "setups_s": setups,
    }


def _traced_run(workload: Workload, seed: int, work: Path) -> dict:
    setup_spans = work / "setup_spans.json"
    config, _ = _setup(workload, seed, work / "setup", setup_spans)
    plain = _body(workload, config, seed, work / "body")
    body_spans = work / "body_spans.json"
    traced = _body(workload, config, seed, work / "traced", body_spans)
    bodies = [plain, traced]
    failed = sum(b.exit_code != 0 or b.digest != plain.digest for b in bodies)
    if traced.digest is None:
        raise CheckFailed("the traced body failed")
    score = workload.score(work / "traced")
    trace = json.loads(body_spans.read_text(encoding="utf-8"))
    setup_trace = (
        json.loads(setup_spans.read_text(encoding="utf-8")) if setup_spans.exists() else {}
    )
    metrics = _layer_metrics(trace, setup_trace, traced.wall_s, plain.wall_s)
    metrics.update(_accuracy(score))
    return {
        "correct": failed == 0,
        "attempted": len(bodies),
        "failed": failed,
        "metrics": metrics,
        "bodies": [vars(b) for b in bodies],
    }


def _declared_metrics(trace: bool) -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="passed to the CLI's --seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time bodies until this much has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "csibreath" / "cli.py").is_file():
        print(f"no csibreath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    environment = _environment(args.seed)
    try:
        if args.trace:
            record = _traced_run(workload, args.seed, work)
        else:
            record = _untraced_run(workload, args.seed, args.seconds, work)
    except CheckFailed as exc:
        print(f"{workload.name}: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(declared) - set(record["metrics"]))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    record.update(workload=workload.name, trace=args.trace, environment=environment)
    results = work / f"seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"environment": environment, "results": str(results.relative_to(ROOT))}))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
