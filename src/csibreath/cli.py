"""Command-line front end.

Subcommands: simulate, run, sweep-blindspot, sweep-snr, gass-audit. Every
subcommand takes --config, --seed, and --out. --seed offsets the seed of the
simulator's impairments, so it changes only a simulated trace; the search
draws nothing at random. Outputs are deterministic for a fixed config and
seed: floats are serialized with repr, JSON keys are sorted, and no
wall-clock values are written.

Exit codes: 0 success, 2 configuration error or unwritable output,
3 input-format error, 4 no usable analysis window.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import (
    grid_from_config,
    impairments_from_config,
    input_from_config,
    load_config,
    pipeline_from_config,
    scenario_from_config,
    sweep_from_config,
)
from .errors import (
    ConfigurationError,
    CsiBreathError,
    DegenerateScenarioError,
    NoWindowError,
    OutputError,
    TraceFormatError,
    check_integer,
    check_real,
    writing,
)
from .gass import GassSolution, best_single_pair
from .pipeline import (
    EvaluationReport,
    WindowResult,
    blind_spot_sweep,
    check_condition_count,
    run_pipeline,
    segment,
    snr_sweep,
)
from .simulate import apply_impairments, generate_ideal_csi
from .trace import CsiTrace
from .traceio import read_trace, write_trace

EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_NO_WINDOW = 4


def _jsonable(value):
    """Make a value JSON-serializable; non-finite floats become strings."""
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(value)


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, the one way an output file is written:
    an OSError is raised as an ``OutputError`` that names ``path``."""
    with writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _check_writable(path: Path) -> None:
    """Raise the ``OutputError`` that writing ``path`` would raise, before
    any work is done, and leave no new file behind."""
    with writing(path):
        created = not path.exists()
        open(path, "a").close()  # appending to an existing file changes nothing
        if created:
            path.unlink()


def write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_cell(row.get(name)) for name in fieldnames])
    _write_text(path, text.getvalue())


def _solution_record(solution: GassSolution) -> dict:
    """The search's result in its own coordinates: the fallback pair, and
    the solve's coefficients over the grid's delay basis unless the pair
    was taken (``fallback``)."""
    c = solution.coefficients
    return {
        "denominator_index": solution.denominator_index,
        "fitness": _jsonable(solution.fitness),
        "pair_numerator": solution.pair_numerator,
        "pair_fitness": _jsonable(solution.pair_fitness),
        "fallback": solution.fallback,
        "coefficients_re": None if c is None else _jsonable(c.real),
        "coefficients_im": None if c is None else _jsonable(c.imag),
    }


def _result_record(result: WindowResult) -> dict:
    e = result.estimate
    return {
        "window_id": result.window_id,
        "start_frame": result.start_frame,
        "start_time_s": _jsonable(result.start_time_s),
        "f_bpm": _jsonable(e.f_bpm) if e else None,
        "confidence": _jsonable(e.confidence) if e else None,
        "k_p1": e.k_p1 if e else None,
        "k_p2": e.k_p2 if e else None,
        "lag_samples": _jsonable(e.lag_samples) if e else None,
        "flags": list(e.flags) if e else [],
        "rejected_bpm": _jsonable(e.rejected_bpm) if e else None,
        "stage_band_ratios": _jsonable(result.stage_band_ratios),
        "solution": _solution_record(result.solution) if result.solution else None,
        "reason": result.reason,
    }


def _load_trace(config: dict, seed: int) -> CsiTrace:
    """Input resolution shared by run/gass-audit: trace file or scenario."""
    path = input_from_config(config)
    if path is not None:
        return read_trace(path)
    return _simulate(config, seed)


def _simulate(config: dict, seed: int) -> CsiTrace:
    trace = generate_ideal_csi(scenario_from_config(config), grid_from_config(config))
    if "impairments" in config:
        trace = apply_impairments(trace, impairments_from_config(config, seed))
    return trace


def _cmd_simulate(config: dict, seed: int, out: Path) -> int:
    trace = _simulate(config, seed)
    write_trace(out / "trace.csv", trace)
    print(f"wrote {out / 'trace.csv'} ({len(trace)} packets, {trace.grid.count} subcarriers)")
    return 0


def _cmd_run(config: dict, seed: int, out: Path) -> int:
    trace = _load_trace(config, seed)
    results = run_pipeline(trace, pipeline_from_config(config))
    records = [_result_record(result) for result in results]
    _write_text(
        out / "estimates.jsonl",
        "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records),
    )
    write_csv(  # a few fields of each record, its flags joined by ";"
        out / "windows.csv",
        ["window_id", "start_time_s", "f_bpm", "confidence", "flags", "reason"],
        [{**r, "flags": ";".join(r["flags"])} for r in records],
    )
    estimated = sum(r["f_bpm"] is not None for r in records)
    print(f"{estimated}/{len(results)} windows produced an estimate")
    return 0


def _write_report(report: EvaluationReport, out: Path, stem: str) -> None:
    fieldnames = list(report.rows[0].keys()) if report.rows else []
    write_csv(out / f"{stem}.csv", fieldnames, [dict(r) for r in report.rows])
    summary = {"summary": _jsonable(report.summary), "meta": _jsonable(report.meta)}
    _write_text(out / f"{stem}_summary.json", json.dumps(summary, sort_keys=True, indent=1) + "\n")


def _cmd_sweep_blindspot(config: dict, seed: int, out: Path) -> int:
    scenario = scenario_from_config(config)
    grid = grid_from_config(config)
    impairments = impairments_from_config(config, seed)
    sweep = sweep_from_config(config)
    if "offsets_m" in sweep:
        if {"positions", "span_wavelengths"} & set(sweep):
            raise ConfigurationError(
                "sweep.offsets_m replaces sweep.positions and sweep.span_wavelengths; "
                "set one or the other"
            )
        offsets = sweep["offsets_m"]
    else:
        positions = sweep.get("positions", 32)
        check_integer("sweep.positions", positions, 1, np.iinfo(np.int64).max)
        check_condition_count(positions, "sweep.positions")
        span = sweep.get("span_wavelengths", 1.0)
        check_real("sweep.span_wavelengths", span)
        wavelength = float(np.mean(grid.wavelength_m))
        offsets = np.arange(positions) * (span * wavelength / positions)
    report = blind_spot_sweep(scenario, impairments, grid, offsets, pipeline_from_config(config))
    _write_report(report, out, "blindspot")
    for method in ("full", "amplitude", "phase"):
        print(f"{method}: {report.summary[f'{method}_detectability_pct']:.1f}% detectable")
    return 0


def _cmd_sweep_snr(config: dict, seed: int, out: Path) -> int:
    scenario = scenario_from_config(config)
    grid = grid_from_config(config)
    impairments = impairments_from_config(config, seed)
    sweep = sweep_from_config(config)
    if "noise_stds" not in sweep:
        raise ConfigurationError("sweep.noise_stds is required for sweep-snr")
    report = snr_sweep(
        scenario,
        impairments,
        grid,
        sweep["noise_stds"],
        pipeline_from_config(config),
        runs_per_level=sweep.get("runs_per_level", 1),
    )
    _write_report(report, out, "snr")
    rates = ", ".join(f"{rate:.1f}%" for rate in report.summary["full"])
    print(f"full-pipeline detection rates: {rates}")
    return 0


def _cmd_gass_audit(config: dict, seed: int, out: Path) -> int:
    """The pipeline's search on window 0, taken from ``run_pipeline`` on
    the plan cut down to that window, and the best of every ordered single
    pair on the same window, an exact reference."""
    trace = _load_trace(config, seed)
    plan = segment(trace, pipeline_from_config(config))
    if plan.window_starts.size == 0:
        raise NoWindowError("no complete window to audit")
    first_window = dataclasses.replace(plan, window_starts=plan.window_starts[:1])
    solution = run_pipeline(trace, plan=first_window)[0].solution
    window = plan.window(int(plan.window_starts[0]))
    m1, d, best_fitness = best_single_pair(window.values, window.sample_rate_hz)
    record = _solution_record(solution)
    record["best_pair"] = [m1, d]
    record["best_pair_fitness"] = _jsonable(best_fitness)
    _write_text(out / "gass_solution.json", json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(
        f"window 0: fitness {solution.fitness:.4g} "
        f"(best single pair {best_fitness:.4g}, "
        f"fallback pair {solution.pair_fitness:.4g})"
    )
    return 0


# each command and the files it writes under --out
_COMMANDS = {
    "simulate": (_cmd_simulate, ("trace.csv",)),
    "run": (_cmd_run, ("estimates.jsonl", "windows.csv")),
    "sweep-blindspot": (_cmd_sweep_blindspot, ("blindspot.csv", "blindspot_summary.json")),
    "sweep-snr": (_cmd_sweep_snr, ("snr.csv", "snr_summary.json")),
    "gass-audit": (_cmd_gass_audit, ("gass_solution.json",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csibreath",
        description="Respiration sensing from single-antenna Wi-Fi CSI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "synthesize a CSI trace from a scenario config"),
        ("run", "estimate respiration rate from a trace or scenario"),
        ("sweep-blindspot", "detectability of three estimators across positions"),
        ("sweep-snr", "detection rate versus additive noise level"),
        ("gass-audit", "dump the subcarrier-search solution for one window"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument(
            "--seed", type=int, default=0, help="added to impairments.seed (default 0)"
        )
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_integer("--seed", args.seed, 0)
        config = load_config(args.config)
        out = Path(args.out)
        with writing(out):  # an existing file, or a path under one, fails here
            out.mkdir(parents=True, exist_ok=True)
        command, outputs = _COMMANDS[args.command]
        for name in outputs:  # an unwritable output fails before the work
            _check_writable(out / name)
        return command(config, args.seed, out)
    except (ConfigurationError, DegenerateScenarioError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceFormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except NoWindowError as exc:
        print(f"no analysis window: {exc}", file=sys.stderr)
        return EXIT_NO_WINDOW
    except CsiBreathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
