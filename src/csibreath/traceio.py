"""CSI trace files: CSV records with a JSON header block in # comments.

Layout:
    # {"format": "csi-trace", "version": 1, "sample_rate_hz": ..., "subcarriers": [...]}
    k,t_s,re000,im000,re001,im001,...
    0,0.0,1.0,-0.25,...

One record per packet: its row number, its timestamp in seconds, then one
(real, imaginary) pair per grid position in grid order. The header carries
the grid definition (preamble field tag, physical subcarrier index, center
frequency for every column pair). Floats are written with repr so traces
round-trip bit-exactly and identical runs produce identical bytes. A file
is read into one ``CsiTrace``; the ``k`` column is not kept.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TraceFormatError
from .grid import SubcarrierGrid
from .simulate import CsiTrace

FORMAT_NAME = "csi-trace"
FORMAT_VERSION = 1


def write_trace(path: str | Path, trace: CsiTrace) -> None:
    grid = trace.grid
    if grid is None:
        raise ConfigurationError("a grid is required to write a trace")
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "sample_rate_hz": trace.sample_rate_hz,
        "subcarriers": [
            {
                "field": grid.field_tag[m],
                "physical_index": int(grid.physical_index[m]),
                "center_frequency_hz": float(grid.center_frequency_hz[m]),
            }
            for m in range(grid.count)
        ],
    }
    columns = ["k", "t_s"]
    for m in range(grid.count):
        columns += [f"re{m:03d}", f"im{m:03d}"]
    # row k holds re, im of every grid position, in grid order
    cells = np.ascontiguousarray(trace.values.T).view(float).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        for k, (time_s, row) in enumerate(zip(trace.times_s.tolist(), cells)):
            fh.write(",".join([str(k), repr(time_s), *map(repr, row)]) + "\n")


def read_trace(path: str | Path) -> CsiTrace:
    """Parse a trace file into a ``CsiTrace`` on the grid of its header.

    The header and column lines are read one at a time and the data rows
    are parsed straight from the open file, so the text body is never held
    in memory.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            comment_lines: list[str] = []
            line = fh.readline()
            while line.startswith("#"):
                comment_lines.append(line[1:].strip())
                line = fh.readline()
            grid, sample_rate = _parse_header(comment_lines)
            if not line:
                raise TraceFormatError("trace has no data rows")
            expected_cols = 2 + 2 * grid.count
            first_fields = line.strip().split(",")
            if first_fields[:2] != ["k", "t_s"] or len(first_fields) != expected_cols:
                raise TraceFormatError("column header does not match the grid")
            try:
                with warnings.catch_warnings():
                    # an empty body is reported below as a format error
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise TraceFormatError(f"malformed data row: {exc}") from exc
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace: {exc}") from exc
    if data.shape[0] == 0:
        raise TraceFormatError("trace has no data rows")
    if data.shape[1] != expected_cols:
        raise TraceFormatError(
            f"rows have {data.shape[1]} columns, expected {expected_cols}"
        )
    if not np.all(np.isfinite(data)):
        raise TraceFormatError("trace contains non-finite values")
    values = data[:, 2::2] + 1j * data[:, 3::2]
    try:
        return CsiTrace(values.T, data[:, 1], sample_rate, grid)
    except ConfigurationError as exc:
        raise TraceFormatError(f"bad trace: {exc}") from exc


def _parse_header(comment_lines: list[str]) -> tuple[SubcarrierGrid, float]:
    """The grid and sample rate of a trace's JSON header block."""
    if not comment_lines:
        raise TraceFormatError("missing JSON header block")
    try:
        header = json.loads("\n".join(comment_lines))
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError("not a csi-trace file")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported trace version {header.get('version')!r}")
    subcarriers = header.get("subcarriers")
    if not subcarriers:
        raise TraceFormatError("header lists no subcarriers")
    try:
        grid = SubcarrierGrid(
            field_tag=tuple(s["field"] for s in subcarriers),
            physical_index=np.array([s["physical_index"] for s in subcarriers]),
            center_frequency_hz=np.array(
                [s["center_frequency_hz"] for s in subcarriers]
            ),
        )
        return grid, float(header["sample_rate_hz"])
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise TraceFormatError(f"bad grid definition: {exc}") from exc
