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

import functools
import itertools
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TraceFormatError
from .grid import SubcarrierGrid
from .parallel import pool_map, workers
from .simulate import CsiTrace

FORMAT_NAME = "csi-trace"
FORMAT_VERSION = 1
_MIN_RANGE_BYTES = 4 << 20  # a body range parsed in a worker holds at least this
_CONVERT_ROWS = 256  # parsed rows turned into complex values at a time


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

    The header and column lines are read one at a time. The data rows are
    split into line-aligned byte ranges, one per worker of
    ``parallel.pool_map`` and none under ``_MIN_RANGE_BYTES`` (a smaller body
    is one range, parsed in-process), and each range runs ``np.loadtxt``
    over its lines, streamed from the file. Every range after the first is
    parsed behind the body's first data row, so its column count is checked
    against the same row as in one pass over the body, and a malformed row
    reports the row number one pass would. The parts fill the trace in file
    order, so its values are those of one ``np.loadtxt`` at any CPU count.
    """
    try:
        with open(path, "rb") as fh:
            comment_lines: list[str] = []
            line = fh.readline().decode("utf-8")
            while line.startswith("#"):
                comment_lines.append(line[1:].strip())
                line = fh.readline().decode("utf-8")
            grid, sample_rate = _parse_header(comment_lines)
            if not line:
                raise TraceFormatError("trace has no data rows")
            expected_cols = 2 + 2 * grid.count
            first_fields = line.strip().split(",")
            if first_fields[:2] != ["k", "t_s"] or len(first_fields) != expected_cols:
                raise TraceFormatError("column header does not match the grid")
            bounds = _body_ranges(fh)
            head = _first_data_row(fh, bounds[0]) if len(bounds) > 2 else ""
        heads = [""] + [head] * (len(bounds) - 2)
        parts = pool_map(functools.partial(_parse_range, path), heads, bounds[:-1], bounds[1:])
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace: {exc}") from exc
    rows = 0
    for part, part_head in zip(parts, heads):
        if isinstance(part, ValueError):
            # the range's row numbers count its head; report the body's
            shift = rows - 1 if part_head else 0
            message = re.sub(
                r"at row (\d+)", lambda m: f"at row {int(m[1]) + shift}", str(part), count=1
            )
            raise TraceFormatError(f"malformed data row: {message}") from part
        rows += part.shape[0]
    parts = [part for part in parts if len(part)]
    if not parts:
        raise TraceFormatError("trace has no data rows")
    if parts[0].shape[1] != expected_cols:
        raise TraceFormatError(
            f"rows have {parts[0].shape[1]} columns, expected {expected_cols}"
        )
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise TraceFormatError("trace contains non-finite values")
    # the packets go into their columns a few rows at a time, so the parts
    # are never joined into one table and the temporaries stay small
    values = np.empty((grid.count, rows), dtype=complex)
    times = np.empty(rows)
    first = 0
    for part in parts:
        for lo in range(0, len(part), _CONVERT_ROWS):
            block = part[lo : lo + _CONVERT_ROWS]
            values[:, first : first + len(block)] = (block[:, 2::2] + 1j * block[:, 3::2]).T
            times[first : first + len(block)] = block[:, 1]
            first += len(block)
    try:
        return CsiTrace(values, times, sample_rate, grid)
    except ConfigurationError as exc:
        raise TraceFormatError(f"bad trace: {exc}") from exc


def _body_ranges(fh) -> list[int]:
    """Byte offsets that split the rest of the binary file ``fh``, from its
    position to its end, into line-aligned ranges: one per ``workers()``,
    each of at least ``_MIN_RANGE_BYTES``, and at least one."""
    start = fh.tell()
    end = os.fstat(fh.fileno()).st_size
    count = max(1, min(workers(), (end - start) // _MIN_RANGE_BYTES))
    bounds = [start]
    for i in range(1, count):
        # a range ends with the line that holds its last target byte
        fh.seek(start + (end - start) * i // count - 1)
        fh.readline()
        if bounds[-1] < fh.tell() < end:
            bounds.append(fh.tell())
    bounds.append(end)
    return bounds


def _first_data_row(fh, start: int) -> str:
    """The first line from byte ``start`` that ``np.loadtxt`` reads as a
    row (not empty once a # comment is cut off), newline-terminated; empty
    when there is none."""
    fh.seek(start)
    for line in fh:
        if line.split(b"#", 1)[0].rstrip(b"\r\n"):
            return line.rstrip(b"\r\n").decode("utf-8") + "\n"
    return ""


def _parse_range(path: str | Path, head: str, start: int, end: int) -> np.ndarray | ValueError:
    """``np.loadtxt`` of the rows in bytes [start, end) of ``path``, parsed
    behind ``head`` (a row or empty), which the result leaves out. A
    malformed row makes the ValueError the result, so the caller can report
    the first one in file order."""
    with open(path, "rb") as fh:
        fh.seek(start)
        lines = _lines_until(fh, end)
        try:
            with warnings.catch_warnings():
                # an empty body is reported by the caller as a format error
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(
                    itertools.chain([head] if head else [], lines), delimiter=",", ndmin=2
                )
        except ValueError as exc:
            return exc
    return data[1:] if head else data


def _lines_until(fh, end: int):
    """The decoded lines of the binary file ``fh`` from its position up to
    byte ``end``."""
    while fh.tell() < end:
        yield fh.readline().decode("utf-8")


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
