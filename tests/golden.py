"""The output contract: golden CLI outputs under ``tests/data/`` and the one
comparer that checks an output file against its golden copy.

    PYTHONPATH=src python3 tests/golden.py    # rewrite every golden file from this tree

The cases are ``run`` on the README config (its "Config schema" example
without the ``input`` section) cut to 20 s, as written and without its
motion event, at seeds 0 and 1, and ``sweep-blindspot`` over two positions
of the same config without its event. A change that moves outputs on
purpose reruns this script and states the diff and its reason.

The comparer is exact on windows, flags, reasons and search denominators
(and on a sweep's rows, but for their median rate), and allows |delta
``f_bpm``| <= 1e-9 bpm. It reports whether the bytes match too, but does not
fail on bytes alone: another numpy or BLAS build may round differently.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import yaml

from csibreath import cli

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"
F_BPM_TOLERANCE = 1e-9
DURATION_S = 20.0


@dataclass(frozen=True)
class Case:
    command: str
    seed: int
    motion_event: bool
    output: str                 # the file the command writes and the comparer reads
    sweep: dict | None = None

    def golden(self, name: str) -> Path:
        return DATA / f"{name}{Path(self.output).suffix}"


CASES = {
    **{
        f"estimates_{label}_seed{seed}": Case("run", seed, event, "estimates.jsonl")
        for label, event in (("readme", True), ("no_event", False))
        for seed in (0, 1)
    },
    "blindspot_two_positions": Case(
        "sweep-blindspot", 0, False, "blindspot.csv", {"positions": 2, "span_wavelengths": 1.0}
    ),
}


def readme_config() -> dict:
    """The README's config schema example, without its ``input`` section."""
    readme = README.read_text(encoding="utf-8")
    schema = readme.split("### Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    config = yaml.safe_load(schema)
    del config["input"]
    return config


def produce(name: str, directory: Path) -> Path:
    """Run case ``name`` of ``CASES`` with its outputs in ``directory``; the
    path of the file the comparer reads."""
    case = CASES[name]
    config = readme_config()
    config["scenario"]["duration_s"] = DURATION_S
    if not case.motion_event:
        del config["scenario"]["motion_events"]
    if case.sweep is not None:
        config["sweep"] = case.sweep
    path = directory / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    out = directory / name
    args = [case.command, "--config", str(path), "--seed", str(case.seed), "--out", str(out)]
    if cli.main(args) != 0:
        raise RuntimeError(f"csibreath {' '.join(args)} failed")
    return out / case.output


def compare(expected: Path, actual: Path) -> tuple[list[str], bool]:
    """The differences of output file ``actual`` from golden file
    ``expected``, one line each, and whether their bytes match."""
    same_bytes = expected.read_bytes() == actual.read_bytes()
    if expected.suffix == ".jsonl":
        return _compare_records(_estimates(expected), _estimates(actual), "window"), same_bytes
    return _compare_records(_sweep_rows(expected), _sweep_rows(actual), "row"), same_bytes


def _estimates(path: Path) -> list[tuple[dict, float | None]]:
    """Each window's exact fields, and its rate."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [
        (
            {
                "window_id": r["window_id"],
                "start_frame": r["start_frame"],
                "flags": r["flags"],
                "reason": r["reason"],
                "denominator_index": r["solution"] and r["solution"]["denominator_index"],
            },
            r["f_bpm"],
        )
        for r in records
    ]


def _sweep_rows(path: Path) -> list[tuple[dict, float | None]]:
    """Each sweep row's exact fields, and its median rate."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        (
            {k: v for k, v in row.items() if k != "median_bpm"},
            float(row["median_bpm"]) if row["median_bpm"] else None,
        )
        for row in rows
    ]


def _compare_records(
    expected: list[tuple[dict, float | None]], actual: list[tuple[dict, float | None]], unit: str
) -> list[str]:
    if len(expected) != len(actual):
        return [f"{len(actual)} {unit}s, expected {len(expected)}"]
    differences = []
    for i, ((fields, rate), (got_fields, got_rate)) in enumerate(zip(expected, actual)):
        differences += [
            f"{unit} {i}: {key} {got_fields.get(key)!r}, expected {value!r}"
            for key, value in fields.items()
            if got_fields.get(key) != value
        ]
        if (rate is None) != (got_rate is None) or (
            rate is not None and not abs(got_rate - rate) <= F_BPM_TOLERANCE
        ):
            differences.append(f"{unit} {i}: rate {got_rate!r}, expected {rate!r}")
    return differences


def main() -> int:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, case in CASES.items():
            case.golden(name).write_bytes(produce(name, Path(scratch)).read_bytes())
            print(f"wrote {case.golden(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
