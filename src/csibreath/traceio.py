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
is read into one ``trace.CsiTrace``; the ``k`` column is not kept. A non-finite
row number or timestamp rejects the file; a non-finite CSI cell is read as
it is, and the pipeline's motion gate fails the frame that holds it.

Beside a trace it writes or parses, the module leaves a companion:
``<name>.t1.<sha256 of the file's bytes, 64 hex digits>.npy``, one 2-D
float64 ``.npy`` table (NEP 1) holding the rows exactly as the text parse
returns them, columns ``k``, ``t_s``, ``re000``, ``im000``, ..., every NaN
as ``np.nan`` (``repr`` writes any NaN as ``nan``); ``t1`` names that
layout. ``read_trace`` takes that table in place of the parse when the
companion named by the file's hash loads as a float64 table of the
header's column count whose ``k`` column counts the rows from 0, as a
checked-hash ``.pyc`` stands in for its source (PEP 552). So a trace
``write_trace`` wrote is never parsed, and a capture written by another
tool is parsed on its first read only. The companion is a cache, not a
second format: everything after the table is shared, a file edited by one
byte or copied without its companion is parsed as before, and a companion
that cannot be written is skipped. Its values are trusted as they load.

Both directions use every CPU of ``parallel.pool_map`` on a large trace:
``write_trace`` formats contiguous row ranges and ``read_trace``, when no
companion matches, parses line-aligned byte ranges, each in its own worker.
A task is only its range's bounds: the trace being written, or the path
being read, is bound once for every range, and each range takes its own
rows or bytes from it. The parts are joined in file order, so the bytes
written and the values read are those of one serial pass at any CPU count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TraceFormatError, check_real, writing
from .grid import SubcarrierGrid
from .parallel import pool_map, workers
from .trace import CsiTrace

FORMAT_NAME = "csi-trace"
FORMAT_VERSION = 1
_MIN_RANGE_BYTES = 4 << 20  # a body range parsed in a worker holds at least this
_MIN_RANGE_CELLS = 1 << 18  # a row range formatted in a worker holds at least this
_TABLE_LAYOUT = 1  # a companion's layout: the float64 table of the text parse


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

    Once the file is in place, its companion is written (``_save_companion``)
    from the trace's own values, so it is never parsed. A failed write leaves
    no temporary file and no new companion; a companion that cannot be
    written is skipped and the trace stays written.
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
    temp = _temporary(path)
    try:
        with writing(path):
            with open(temp, "x", encoding="utf-8", newline="\n") as fh:
                fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
                fh.write(",".join(columns) + "\n")
                for part in parts:
                    fh.writelines(part)
            with open(temp, "rb") as fh:
                digest = _digest(fh)
            os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    _save_companion(path, digest, [_table(trace.times_s, cells)])


def _temporary(path: Path) -> Path:
    """A new hidden name beside ``path`` that no companion pattern matches."""
    return path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")


def _table(times_s: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The rows ``np.loadtxt`` returns for the data lines of ``_format_rows``:
    row number, timestamp and cells, with every NaN the ``np.nan`` that
    parsing ``nan`` gives; ``repr`` keeps every other bit."""
    table = np.empty((len(cells), 2 + cells.shape[1]))
    table[:, 0] = np.arange(len(cells))
    table[:, 1] = times_s
    table[:, 2:] = cells
    table[np.isnan(table)] = np.nan
    return table


def _digest(fh) -> str:
    """The SHA-256, in hex, of the whole binary file ``fh``, read in chunks
    from its start; ``fh`` keeps its position."""
    position = fh.tell()
    fh.seek(0)
    sha = hashlib.sha256()
    while chunk := fh.read(1 << 20):
        sha.update(chunk)
    fh.seek(position)
    return sha.hexdigest()


def _companion_name(path: Path, digest: str) -> str:
    return f"{path.name}.t{_TABLE_LAYOUT}.{digest}.npy"


def _companions(path: Path) -> set[str]:
    """The names of the files beside ``path`` named as its companions, of
    any layout; none when its directory cannot be listed."""
    pattern = re.compile(re.escape(path.name) + r"\.t[0-9]+\.[0-9a-f]{64}\.npy")
    try:
        return {name for name in os.listdir(path.parent) if pattern.fullmatch(name)}
    except OSError:
        return set()


def _save_companion(path: Path, digest: str, parts: list[np.ndarray]) -> None:
    """Write ``parts``, float64 tables joined by rows in order, as the
    companion of ``path`` named by ``digest``, and delete its others. The
    table is written under a temporary name and renamed into place. It is a
    cache: an OSError skips it, and no temporary file is left."""
    temp = _temporary(path)
    header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
        "fortran_order": False,
        "shape": (sum(len(part) for part in parts), parts[0].shape[1]),
    }
    try:
        with open(temp, "xb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for part in parts:
                fh.write(np.ascontiguousarray(part, dtype=np.float64).data)
        companion = _companion_name(path, digest)
        for stale in _companions(path) - {companion}:
            path.with_name(stale).unlink(missing_ok=True)
        os.replace(temp, path.with_name(companion))
    except OSError:
        pass
    finally:
        temp.unlink(missing_ok=True)


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

    The header and column lines are read one at a time, then the whole file
    is hashed, and the table of the companion named by its hash, if it
    loads (``_load_companion``), stands in for the data rows. Otherwise the
    data rows are split into line-aligned byte ranges, one per worker of
    ``parallel.pool_map`` and none under ``_MIN_RANGE_BYTES`` (a smaller
    body is one range, parsed in-process), and each range runs
    ``np.loadtxt`` over its lines, streamed from the file. The parts fill
    the trace in file order, so its values are those of one ``np.loadtxt``
    at any CPU count. When a range holds a malformed row, or rows whose
    column count is not the header's, the whole body is parsed again in one
    in-process pass, and its fault is the one reported: the row number and
    column count of one pass over the body, whatever the ranges. Rows that
    parse with the header's column count are saved as the file's companion
    (``_save_companion``), unless the file changed while it was read.
    """
    path = Path(path)
    stamp = _stamp(path)
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
            digest = _digest(fh)
            table = _load_companion(path, digest, expected_cols)
            bounds = _body_ranges(fh)
        if table is not None:
            parts = [table]
        else:
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
    if table is None and stamp is not None and _stamp(path) == stamp:
        _save_companion(path, digest, parts)
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


def _stamp(path: Path) -> tuple[int, int, int, int] | None:
    """What changes when the file at ``path`` is replaced or written to;
    None when it cannot be found."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _load_companion(path: Path, digest: str, columns: int) -> np.ndarray | None:
    """The table of the companion of ``path`` named by ``digest``, or None
    when no such companion exists or it does not load, without pickles, as
    a 2-D float64 table of ``columns`` columns whose first column numbers
    its rows from 0."""
    try:
        with open(path.with_name(_companion_name(path, digest)), "rb") as companion:
            table = np.load(companion, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if (
        isinstance(table, np.ndarray)
        and table.dtype == np.float64
        and table.ndim == 2
        and table.shape[1] == columns
        and np.array_equal(table[:, 0], np.arange(len(table)))
    ):
        return table
    return None


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
