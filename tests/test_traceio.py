import contextlib
import hashlib
import os
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csibreath.parallel as parallel
import csibreath.traceio as traceio
from csibreath.errors import TraceFormatError
from csibreath.grid import custom_grid
from csibreath.trace import CsiTrace
from csibreath.traceio import read_trace, write_trace


@pytest.fixture()
def small_trace(rng):
    grid = custom_grid(np.array([2.44e9, 2.45e9, 2.46e9]), np.array([-5, 0, 5]))
    matrix = rng.normal(size=(3, 17)) + 1j * rng.normal(size=(3, 17))
    return CsiTrace.uniform(matrix, 25.0, grid)


def test_round_trip_is_bit_exact(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    write_trace(path, small_trace)
    loaded = read_trace(path)
    assert loaded.sample_rate_hz == 25.0
    np.testing.assert_array_equal(loaded.values, small_trace.values)
    grid = small_trace.grid
    np.testing.assert_array_equal(loaded.grid.physical_index, grid.physical_index)
    np.testing.assert_array_equal(
        loaded.grid.center_frequency_hz, grid.center_frequency_hz
    )
    assert loaded.grid.field_tag == grid.field_tag
    assert loaded.times_s.tobytes() == small_trace.times_s.tobytes()
    rows = path.read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == [str(k) for k in range(17)]


def test_writes_are_byte_identical(tmp_path, small_trace):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(a, small_trace)
    write_trace(b, small_trace)
    assert a.read_bytes() == b.read_bytes()
    # a trace read back writes the same bytes again
    c = tmp_path / "c.csv"
    write_trace(c, read_trace(a))
    assert c.read_bytes() == a.read_bytes()


# 2 tones, 3 rows: -0.0, subnormals, +-1e300 and a repr that needs 17 digits
_FIXED_ROWS = [
    [0.0, 1.0, -0.0, 0.1 + 0.2, -2.5e-310],
    [0.1, -1e300, 5e-324, 1.5, 1e16],
    [0.2, 123456789.0, -0.5, 3.0, 2.0**-30],
]
_FIXED_TEXT = (
    '# {"format": "csi-trace", "sample_rate_hz": 10.0, "subcarriers": ['
    '{"center_frequency_hz": 2440000000.0, "field": "HT-LTF", "physical_index": -1}, '
    '{"center_frequency_hz": 2450000000.0, "field": "HT-LTF", "physical_index": 1}], '
    '"version": 1}\n'
    "k,t_s,re000,im000,re001,im001\n"
    "0,0.0,1.0,-0.0,0.30000000000000004,-2.5e-310\n"
    "1,0.1,-1e+300,5e-324,1.5,1e+16\n"
    "2,0.2,123456789.0,-0.5,3.0,9.313225746154785e-10\n"
)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_writes_the_fixed_format(tmp_path, count):
    path = tmp_path / "trace.csv"
    with _ranges(count, serial=True):
        write_trace(path, _two_tone_trace(_FIXED_ROWS))
    assert path.read_bytes() == _FIXED_TEXT.encode("ascii")


@pytest.mark.parametrize("failure", ["while formatting", "while writing"])
def test_failed_write_leaves_the_old_file(tmp_path, small_trace, monkeypatch, failure):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"old trace\n")
    mode = path.stat().st_mode
    path.unlink()
    write_trace(path, small_trace)  # created as a plain open would create it
    assert path.stat().st_mode == mode
    path.write_bytes(b"old trace\n")

    def fail(times_s, cells, first, stop):
        if failure == "while formatting":
            raise RuntimeError("formatter failed")

        def rows():  # the header and one row are written, then the rows fail
            yield "0,0.0,1.0,0.0,1.0,0.0,1.0,0.0\n"
            raise RuntimeError("writer failed")

        return rows()

    listing = sorted(p.name for p in tmp_path.iterdir())  # the stale companion too
    monkeypatch.setattr(traceio, "_format_rows", fail)
    with pytest.raises(RuntimeError, match="formatter failed|writer failed"):
        write_trace(path, small_trace)
    assert path.read_bytes() == b"old trace\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == listing
    with pytest.raises(RuntimeError):
        write_trace(tmp_path / "new.csv", small_trace)
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def test_missing_file(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read"):
        read_trace(tmp_path / "nope.csv")


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_missing_header(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(path, ["k,t_s,re000,im000", "0,0.0,1.0,0.0"])
    with pytest.raises(TraceFormatError, match="header"):
        read_trace(path)


def test_wrong_format_name(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(path, ['# {"format": "other", "version": 1}', "k,t_s"])
    with pytest.raises(TraceFormatError, match="not a csi-trace"):
        read_trace(path)


def test_header_not_an_object(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(path, ["# [1, 2]", "k,t_s"])
    with pytest.raises(TraceFormatError, match="not a csi-trace"):
        read_trace(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(
        path,
        [
            '# {"format": "csi-trace", "version": 99, "sample_rate_hz": 1.0,'
            ' "subcarriers": [{"field": "HT-LTF", "physical_index": 0,'
            ' "center_frequency_hz": 2.4e9}]}',
            "k,t_s,re000,im000",
            "0,0.0,1.0,0.0",
        ],
    )
    with pytest.raises(TraceFormatError, match="version"):
        read_trace(path)


def test_invalid_header_json(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(path, ["# {not json", "k,t_s,re000,im000", "0,0.0,1.0,0.0"])
    with pytest.raises(TraceFormatError, match="JSON"):
        read_trace(path)


def test_bad_grid_in_header(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(
        path,
        [
            '# {"format": "csi-trace", "version": 1, "sample_rate_hz": 1.0,'
            ' "subcarriers": [{"field": "HT-LTF", "physical_index": 0,'
            ' "center_frequency_hz": -5.0}]}',
            "k,t_s,re000,im000",
            "0,0.0,1.0,0.0",
        ],
    )
    with pytest.raises(TraceFormatError, match="grid"):
        read_trace(path)


def _valid_header():
    return (
        '# {"format": "csi-trace", "version": 1, "sample_rate_hz": 10.0,'
        ' "subcarriers": [{"field": "HT-LTF", "physical_index": 0,'
        ' "center_frequency_hz": 2.4e9}]}'
    )


def test_non_positive_sample_rate(tmp_path):
    path = tmp_path / "t.csv"
    header = _valid_header().replace('"sample_rate_hz": 10.0', '"sample_rate_hz": 0.0')
    _write_lines(path, [header, "k,t_s,re000,im000", "0,0.0,1.0,0.0"])
    with pytest.raises(TraceFormatError, match="sample rate"):
        read_trace(path)


# write_trace never writes a boolean or a quoted rate; read_trace rejects both
@pytest.mark.parametrize("rate", ["Infinity", "NaN", '"abc"', "null", "true", '"50"'])
def test_non_finite_or_non_numeric_sample_rate(tmp_path, rate):
    path = tmp_path / "t.csv"
    header = _valid_header().replace('"sample_rate_hz": 10.0', f'"sample_rate_hz": {rate}')
    _write_lines(path, [header, "k,t_s,re000,im000", "0,0.0,1.0,0.0"])
    with pytest.raises(TraceFormatError, match="sample rate"):
        read_trace(path)


def test_column_header_mismatch(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(path, [_valid_header(), "k,t_s,re000,im000,re001,im001", "0,0.0,1,0,1,0"])
    with pytest.raises(TraceFormatError, match="column"):
        read_trace(path)


def test_malformed_data_row(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(path, [_valid_header(), "k,t_s,re000,im000", "0,0.0,oops,0.0"])
    with pytest.raises(TraceFormatError, match="malformed"):
        read_trace(path)


def test_short_data_row(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(path, [_valid_header(), "k,t_s,re000,im000", "0,0.0,1.0"])
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_non_finite_value(tmp_path):
    path = tmp_path / "t.csv"
    for row in ("0,nan,1.0,0.0", "0,inf,1.0,0.0", "nan,0.0,1.0,0.0"):
        _write_lines(path, [_valid_header(), "k,t_s,re000,im000", "0,0.0,1.0,0.0", row])
        with pytest.raises(TraceFormatError, match="non-finite row number or timestamp"):
            read_trace(path)


def test_non_finite_cell_is_read_as_it_is(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(
        path, [_valid_header(), "k,t_s,re000,im000", "0,0.0,nan,0.0", "1,0.1,1.0,-inf"]
    )
    trace = read_trace(path)
    assert np.isnan(trace.values[0, 0].real) and trace.values[0, 0].imag == 0.0
    assert trace.values[0, 1].real == 1.0 and trace.values[0, 1].imag == -np.inf
    assert trace.times_s.tolist() == [0.0, 0.1]


def test_no_data_rows(tmp_path):
    path = tmp_path / "t.csv"
    _write_lines(path, [_valid_header()])
    with pytest.raises(TraceFormatError, match="no data"):
        read_trace(path)


@pytest.mark.parametrize("body", [[], [""]])
def test_column_line_without_data_rows(tmp_path, body):
    path = tmp_path / "t.csv"
    _write_lines(path, [_valid_header(), "k,t_s,re000,im000", *body])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceFormatError, match="trace has no data rows"):
            read_trace(path)


def _one_pass(path):
    """What one ``np.loadtxt`` over the whole body gives: the values and
    times of the trace, or the error text of its first malformed row."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        fh.readline()
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return f"malformed data row: {exc}"
    return np.ascontiguousarray(data[:, 2:]).view(complex).T, data[:, 1]


@contextlib.contextmanager
def _ranges(count, serial=False):
    """``read_trace`` splits any body into up to ``count`` ranges, and
    ``write_trace`` any trace into ``count`` row ranges, mapped in-process
    when ``serial``; yields the item count of each serial map."""
    maps = []

    def serial_map(fn, *items):
        maps.append(len(items[0]))
        return list(map(fn, *items))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_MIN_RANGE_BYTES", 1)
        patch.setattr(traceio, "_MIN_RANGE_CELLS", 1)
        patch.setattr(traceio, "workers", lambda: count)
        if serial:
            patch.setattr(traceio, "pool_map", serial_map)
        yield maps


def _two_tone_trace(rows):
    """Rows of (t_s, re0, im0, re1, im1), every float kept bit for bit."""
    grid = custom_grid(np.array([2.44e9, 2.45e9]), np.array([-1, 1]))
    cells = np.array(rows, dtype=float)
    values = np.ascontiguousarray(cells[:, 1:]).view(complex).T
    return CsiTrace(values, cells[:, 0], 10.0, grid)


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.lists(_EDGE_FLOATS, min_size=5, max_size=5), min_size=1, max_size=30),
    count=st.integers(1, 4),
)
def test_ranged_write_equals_one_range(tmp_path_factory, rows, count):
    directory = tmp_path_factory.mktemp("ranged-write")
    trace = _two_tone_trace(rows)
    write_trace(directory / "one.csv", trace)  # a fixture-sized trace: one range
    with _ranges(count, serial=True) as maps:
        write_trace(directory / "ranged.csv", trace)
    assert maps == [count]
    data = (directory / "ranged.csv").read_bytes()
    assert data == (directory / "one.csv").read_bytes()
    assert [line.split(b",")[0] for line in data.splitlines()[2:]] == [
        str(k).encode() for k in range(len(rows))
    ]
    loaded = read_trace(directory / "ranged.csv")
    assert loaded.values.tobytes() == trace.values.tobytes()
    assert loaded.times_s.tobytes() == trace.times_s.tobytes()


def test_ranged_write_in_a_process_pool(tmp_path, rng, monkeypatch):
    trace = _two_tone_trace(rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-9, 9, (300, 5)))
    write_trace(tmp_path / "one.csv", trace)
    maps = []

    def recording_map(fn, *items):
        maps.append(len(items[0]))
        return parallel.pool_map(fn, *items)

    monkeypatch.setattr(traceio, "_MIN_RANGE_CELLS", 500)  # 1200 cells: two ranges
    monkeypatch.setattr(traceio, "workers", lambda: 2)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    monkeypatch.setattr(traceio, "pool_map", recording_map)
    write_trace(tmp_path / "pooled.csv", trace)
    assert maps == [2]
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_fixture_sized_traces_start_no_pool(tmp_path, small_trace, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(parallel.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(traceio, "workers", lambda: 4)
    monkeypatch.setattr(parallel, "workers", lambda: 4)
    # the largest trace a CLI test writes: 6 tones, 40 s at 20 Hz
    grid = custom_grid(np.linspace(2.452e9, 2.4645e9, 6), np.arange(6))
    larger = CsiTrace.uniform(np.ones((6, 800), dtype=complex), 20.0, grid)
    for trace in (small_trace, larger):
        write_trace(tmp_path / "trace.csv", trace)
        _companion(tmp_path / "trace.csv").unlink()  # the text is parsed
        assert len(read_trace(tmp_path / "trace.csv")) == len(trace)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.lists(_EDGE_FLOATS, min_size=5, max_size=5), min_size=1, max_size=30),
    count=st.integers(1, 4),
)
def test_ranged_parse_equals_one_loadtxt(tmp_path_factory, rows, count):
    path = tmp_path_factory.mktemp("ranged") / "trace.csv"
    write_trace(path, _two_tone_trace(rows))  # repr cells: rows of unequal length
    _companion(path).unlink()  # the text is parsed
    with _ranges(count, serial=True):
        trace = read_trace(path)
    values, times = _one_pass(path)
    assert trace.values.tobytes() == values.tobytes()
    assert trace.times_s.tobytes() == times.tobytes()
    # the parts the read parsed are saved as one table
    table = np.load(_companion(path), allow_pickle=False)
    assert table.view(np.int64).tolist() == _parsed(path).view(np.int64).tolist()


def test_body_ranges_are_whole_lines(tmp_path, rng):
    path = tmp_path / "trace.csv"
    cells = rng.normal(size=(50, 5)) * 10.0 ** rng.integers(-5, 5, (50, 5))
    write_trace(path, _two_tone_trace(cells))  # rows of unequal length
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        body = fh.tell()
        starts = {body}
        for line in fh:
            starts.add(fh.tell())
        for count in (1, 2, 3, 4):
            fh.seek(body)
            with _ranges(count):
                bounds = traceio._body_ranges(fh)
            assert bounds[0] == body and bounds[-1] == path.stat().st_size
            assert len(bounds) == count + 1 and bounds == sorted(set(bounds))
            assert set(bounds) <= starts


def _fault(fields, fault):
    """A copy of a row's fields with ``fault``, padded (with zeros in front
    of its row number) to the row's length, so that no range moves."""
    length = len(",".join(fields))
    if fault == "malformed":
        fields = fields[:2] + ["x" * len(fields[2])] + fields[3:]
    elif fault == "short":
        fields = fields[:-1]
    else:
        fields = fields[:1] + ["nan"] + fields[2:]  # the timestamp
    fields[0] = fields[0].rjust(length - len(",".join(fields[1:])) - 1, "0")
    return fields


@pytest.mark.parametrize("fault", ["malformed", "short", "non-finite"])
@pytest.mark.parametrize("where", ["first range", "range boundary", "last range"])
def test_row_faults_read_as_in_one_pass(tmp_path, rng, fault, where):
    path = tmp_path / "trace.csv"
    write_trace(path, _two_tone_trace(rng.normal(size=(60, 5))))
    lines = path.read_text(encoding="utf-8").splitlines()
    with _ranges(3), open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        bounds = traceio._body_ranges(fh)
    offsets = np.cumsum([len(line) + 1 for line in lines])  # end of each line
    row = {
        "first range": 3,
        "range boundary": int(np.searchsorted(offsets, bounds[2])) + 1,
        "last range": len(lines) - 1,
    }[where]
    lines[row] = ",".join(_fault(lines[row].split(","), fault))
    _write_lines(path, lines)
    with _ranges(3):
        with pytest.raises(TraceFormatError) as info:
            read_trace(path)
    expected = one_pass = _one_pass(path)
    if fault == "non-finite":
        assert not isinstance(one_pass, str)
        expected = "trace contains a non-finite row number or timestamp"
    assert str(info.value) == expected


def _companion(path):
    """The one companion beside ``path``."""
    (name,) = traceio._companions(path)
    return path.with_name(name)


def _parsed(path):
    """``_parse_range`` over the whole body of ``path``."""
    with open(path, "rb") as fh:
        fh.readline()
        fh.readline()
        return traceio._parse_range(path, fh.tell(), path.stat().st_size)


@contextlib.contextmanager
def _counting_parses():
    """Counts the ranges ``read_trace`` parses as text."""
    calls = []

    def parse(*args):
        calls.append(args)
        return parse_range(*args)

    parse_range = traceio._parse_range
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_parse_range", parse)
        yield calls


# a negative-signed NaN, +-inf, -0.0 and the smallest subnormal: repr writes
# any NaN as nan, so parsing gives np.nan for both NaNs
_SPECIAL_ROWS = [
    [0.0, np.copysign(np.nan, -1.0), np.inf, -0.0, 5e-324],
    [0.1, -np.inf, np.nan, -5e-324, -0.0],
]


def test_the_companion_is_the_parsed_table(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, _two_tone_trace(_SPECIAL_ROWS))
    companion = _companion(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert companion.name == f"trace.csv.t1.{digest}.npy"
    table = np.load(companion, allow_pickle=False)
    parsed = _parsed(path)
    assert table.dtype == parsed.dtype and table.shape == parsed.shape == (2, 6)
    assert table.view(np.int64).tolist() == parsed.view(np.int64).tolist()
    with _counting_parses() as calls:
        trace = read_trace(path)
    assert calls == []
    values, times = _one_pass(path)
    assert trace.values.tobytes() == values.tobytes()
    assert trace.times_s.tobytes() == times.tobytes()


def test_a_nan_timestamp_in_the_companion_is_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, _two_tone_trace([*_SPECIAL_ROWS, [np.nan, 1.0, 0.0, 1.0, 0.0]]))
    assert np.isnan(np.load(_companion(path))[2, 1])
    with _counting_parses() as calls:
        with pytest.raises(TraceFormatError, match="non-finite row number or timestamp"):
            read_trace(path)
    assert calls == []


def _edit(path, old, new):
    path.write_bytes(path.read_bytes().replace(old, new, 1))


@pytest.mark.parametrize(
    "change",
    ["a changed digit", "a malformed cell", "a copy elsewhere", "a copy beside it"],
)
def test_a_trace_no_companion_matches_is_parsed(tmp_path, change):
    path = tmp_path / "trace.csv"
    write_trace(path, _two_tone_trace([[0.0, 1.0, 2.0, 3.0, 4.0], [0.1, 5.0, 6.0, 7.0, 8.0]]))
    companion = _companion(path)
    if change == "a changed digit":
        _edit(path, b",6.0,", b",9.0,")
    elif change == "a malformed cell":
        _edit(path, b",6.0,", b",6.x,")
    else:
        copy = tmp_path / "elsewhere" / "trace.csv" if change == "a copy elsewhere" else (
            tmp_path / "copy.csv"
        )
        copy.parent.mkdir(exist_ok=True)
        shutil.copyfile(path, copy)
        path = copy
    with _counting_parses() as calls:
        try:
            result = read_trace(path)
        except TraceFormatError as exc:
            result = str(exc)
    assert len(calls) == 1
    expected = _one_pass(path)
    if isinstance(expected, str):
        assert result == expected
        assert traceio._companions(path) == {companion.name}  # nothing is saved
        return
    assert result.values.tobytes() == expected[0].tobytes()
    assert result.times_s.tobytes() == expected[1].tobytes()
    if change == "a changed digit":
        assert result.values[0, 1] == 5.0 + 9.0j
        assert not companion.exists()  # replaced by the edited file's
    else:
        assert companion.exists()
    # the read left the file its own companion, and the next read loads it
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert traceio._companions(path) == {f"{path.name}.t1.{digest}.npy"}
    with _counting_parses() as calls:
        again = read_trace(path)
    assert calls == []
    assert again.values.tobytes() == result.values.tobytes()


@pytest.mark.parametrize(
    "spoil",
    [
        lambda companion, table: companion.write_bytes(companion.read_bytes()[:-8]),
        lambda companion, table: companion.write_bytes(companion.read_bytes()[:40]),
        lambda companion, table: companion.write_bytes(b""),
        lambda companion, table: companion.write_bytes(b"not an array"),
        lambda companion, table: np.save(companion, table[:, :-1]),
        lambda companion, table: np.save(companion, table.ravel()),
        lambda companion, table: np.save(companion, table.astype(np.float32)),
        lambda companion, table: np.save(companion, table.astype(object), allow_pickle=True),
        lambda companion, table: np.save(companion, table[::-1]),
        lambda companion, table: companion.unlink() or companion.mkdir(),
    ],
    ids=[
        "truncated data",
        "truncated header",
        "empty",
        "not npy",
        "too few columns",
        "1-D",
        "float32",
        "pickled objects",
        "rows renumbered",
        "a directory",
    ],
)
def test_a_companion_that_does_not_load_is_ignored(tmp_path, small_trace, spoil):
    path = tmp_path / "trace.csv"
    write_trace(path, small_trace)
    companion = _companion(path)
    spoil(companion, np.load(companion))
    with _counting_parses() as calls:
        trace = read_trace(path)
    assert len(calls) == 1
    assert trace.values.tobytes() == small_trace.values.tobytes()
    assert trace.times_s.tobytes() == small_trace.times_s.tobytes()
    assert not list(tmp_path.glob(".*.tmp"))
    if companion.is_file():  # the read replaced it; a directory stays
        with _counting_parses() as calls:
            read_trace(path)
        assert calls == []


def test_a_rewrite_leaves_the_trace_and_one_companion(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    write_trace(path, small_trace)
    first = _companion(path).name
    write_trace(path, small_trace)  # the same bytes: the same companion
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv", first]
    write_trace(path, small_trace[1:])
    (second,) = traceio._companions(path)
    assert second != first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv", second]
    with _counting_parses() as calls:
        assert len(read_trace(path)) == len(small_trace) - 1
    assert calls == []


def test_a_trace_written_elsewhere_is_parsed_on_its_first_read_only(tmp_path):
    path = tmp_path / "capture.csv"
    path.write_text(_FIXED_TEXT, encoding="ascii")  # no companion
    with _counting_parses() as calls:
        first = read_trace(path)
    assert len(calls) == 1
    companion = _companion(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["capture.csv", companion.name]
    table = np.load(companion, allow_pickle=False)
    assert table.view(np.int64).tolist() == _parsed(path).view(np.int64).tolist()
    with _counting_parses() as calls:
        second = read_trace(path)
    assert calls == []
    assert second.values.tobytes() == first.values.tobytes()
    assert second.times_s.tobytes() == first.times_s.tobytes()


def test_a_companion_that_cannot_be_written_is_skipped(tmp_path, small_trace, monkeypatch):
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", fail)
    path = tmp_path / "trace.csv"
    write_trace(path, small_trace)  # the trace is written all the same
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]
    with _counting_parses() as calls:
        trace = read_trace(path)
    assert len(calls) == 1
    assert trace.values.tobytes() == small_trace.values.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]


def test_a_trace_that_changes_while_it_is_parsed_gets_no_companion(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    write_trace(path, small_trace)
    _companion(path).unlink()
    parse_range = traceio._parse_range

    def parse_then_touch(*args):
        part = parse_range(*args)
        mtime = path.stat().st_mtime_ns
        os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
        return part

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_parse_range", parse_then_touch)
        assert len(read_trace(path)) == len(small_trace)
    assert traceio._companions(path) == set()
