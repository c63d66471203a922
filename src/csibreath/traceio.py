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
is read into one ``CsiTrace``; the ``k`` column is not kept. A non-finite
row number or timestamp rejects the file; a non-finite CSI cell is read as
it is, and the pipeline's motion gate fails the frame that holds it.

Both directions use every CPU of ``parallel.pool_map`` on a large trace:
``write_trace`` formats contiguous row ranges and ``read_trace`` parses
line-aligned byte ranges, each in its own worker. A task is only its range's
bounds: the trace being written, or the path being read, is bound once for
every range, and each range takes its own rows or bytes from it. The parts
are joined in file order, so the bytes written and the values read are
those of one serial pass at any CPU count.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TraceFormatError, check_real, writing
from .grid import SubcarrierGrid
from .parallel import pool_map, workers
from .simulate import CsiTrace

FORMAT_NAME = "csi-trace"
FORMAT_VERSION = 1
_MIN_RANGE_BYTES = 4 << 20  # a body range parsed in a worker holds at least this
_MIN_RANGE_CELLS = 1 << 18  # a row range formatted in a worker holds at least this


def write_trace(path: str | Path, trace: CsiTrace) -> None:
    """Write ``trace`` to ``path`` in the layout above.

    The data rows are formatted in contiguous row ranges, one per worker of
    ``parallel.pool_map`` and none under ``_MIN_RANGE_CELLS`` floats (a
    smaller trace is one range, formatted in-process). Each range formats
    rows [first, stop) of the whole table, numbered from ``first``, and the
    parts are written in row order, so the bytes are those of one serial
    loop at any CPU count. The file is written under a temporary name in
    the same directory and renamed onto ``path``, so a failed write leaves
    ``path`` as it was, and an OSError is an ``OutputError`` naming ``path``.
    """
    grid = trace.grid
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
    cells = np.ascontiguousarray(trace.values.T).view(float)
    count = max(1, min(workers(), cells.size // _MIN_RANGE_CELLS))
    bounds = [len(cells) * i // count for i in range(count + 1)]
    parts = pool_map(
        functools.partial(_format_rows, trace.times_s, cells), bounds[:-1], bounds[1:]
    )
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with writing(path):
            with open(temp, "x", encoding="utf-8", newline="\n") as fh:
                fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
                fh.write(",".join(columns) + "\n")
                for part in parts:
                    fh.writelines(part)
            os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _format_rows(times_s: np.ndarray, cells: np.ndarray, first: int, stop: int) -> list[str]:
    """The data lines of packets ``first`` to ``stop - 1``: row number,
    ``repr`` of the timestamp, then ``repr`` of every cell of the row."""
    rows = zip(times_s[first:stop].tolist(), cells[first:stop])
    return [
        ",".join([str(k), repr(time_s), *map(repr, row.tolist())]) + "\n"
        for k, (time_s, row) in enumerate(rows, first)
    ]


def read_trace(path: str | Path) -> CsiTrace:
    """Parse a trace file into a ``CsiTrace`` on the grid of its header.

    The header and column lines are read one at a time. The data rows are
    split into line-aligned byte ranges, one per worker of
    ``parallel.pool_map`` and none under ``_MIN_RANGE_BYTES`` (a smaller body
    is one range, parsed in-process), and each range runs ``np.loadtxt``
    over its lines, streamed from the file. The parts fill the trace in file
    order, so its values are those of one ``np.loadtxt`` at any CPU count.
    When a range holds a malformed row, or rows whose column count is not
    the header's, the whole body is parsed again in one in-process pass, and
    its fault is the one reported: the row number and column count of one
    pass over the body, whatever the ranges.
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
        parts = pool_map(functools.partial(_parse_range, path), bounds[:-1], bounds[1:])
        if len(parts) > 1 and any(
            isinstance(part, ValueError) or (len(part) and part.shape[1] != expected_cols)
            for part in parts
        ):
            parts = [_parse_range(path, bounds[0], bounds[-1])]
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace: {exc}") from exc
    for part in parts:
        if isinstance(part, ValueError):
            raise TraceFormatError(f"malformed data row: {part}") from part
    parts = [part for part in parts if len(part)]
    if not parts:
        raise TraceFormatError("trace has no data rows")
    rows = sum(len(part) for part in parts)
    if parts[0].shape[1] != expected_cols:
        raise TraceFormatError(
            f"rows have {parts[0].shape[1]} columns, expected {expected_cols}"
        )
    # a non-finite CSI cell is the pipeline's to handle: it fails only the
    # motion-gate frame that holds it
    if not all(np.all(np.isfinite(part[:, :2])) for part in parts):
        raise TraceFormatError("trace contains a non-finite row number or timestamp")
    # a row's (re, im) columns are the bytes of its complex values: one copy
    # per part, every bit kept (re + 1j * im would turn -0.0 into 0.0 and
    # inf into nan), and the parts are never joined into one table
    values = np.empty((grid.count, rows), dtype=complex)
    first = 0
    for part in parts:
        values[:, first : first + len(part)] = part[:, 2:].view(complex).T
        first += len(part)
    times = np.concatenate([part[:, 1] for part in parts])
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


def _parse_range(path: str | Path, start: int, end: int) -> np.ndarray | ValueError:
    """``np.loadtxt`` of the rows in bytes [start, end) of ``path``. A
    malformed row makes the ValueError the result, so the caller can decide
    which fault to report."""
    with open(path, "rb") as fh:
        fh.seek(start)
        try:
            with warnings.catch_warnings():
                # an empty body is reported by the caller as a format error
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                return np.loadtxt(_lines_until(fh, end), delimiter=",", ndmin=2)
        except ValueError as exc:
            return exc


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
    subcarriers = header.get("subcarriers") or []  # the grid rejects an empty one
    try:
        grid = SubcarrierGrid(
            field_tag=[s["field"] for s in subcarriers],
            physical_index=[s["physical_index"] for s in subcarriers],
            center_frequency_hz=[s["center_frequency_hz"] for s in subcarriers],
        )
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise TraceFormatError(f"bad grid definition: {exc}") from exc
    rate = header.get("sample_rate_hz")
    try:
        check_real("sample rate", rate)
    except ConfigurationError as exc:
        raise TraceFormatError(f"bad sample rate in header: {exc}") from exc
    return grid, float(rate)
