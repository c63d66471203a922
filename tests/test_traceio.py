import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csibreath.traceio as traceio
from csibreath.errors import TraceFormatError
from csibreath.grid import custom_grid
from csibreath.simulate import CsiTrace
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
    _write_lines(path, [_valid_header(), "k,t_s,re000,im000", "0,0.0,nan,0.0"])
    with pytest.raises(TraceFormatError, match="non-finite"):
        read_trace(path)


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
    return np.ascontiguousarray((data[:, 2::2] + 1j * data[:, 3::2]).T), data[:, 1]


@contextlib.contextmanager
def _ranges(count, serial=False):
    """``read_trace`` splits any body into up to ``count`` ranges, mapped
    in-process when ``serial``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_MIN_RANGE_BYTES", 1)
        patch.setattr(traceio, "workers", lambda: count)
        if serial:
            patch.setattr(traceio, "pool_map", lambda fn, *items: list(map(fn, *items)))
        yield


def _two_tone_trace(rows):
    grid = custom_grid(np.array([2.44e9, 2.45e9]), np.array([-1, 1]))
    cells = np.array(rows, dtype=float)
    return CsiTrace(cells[:, 1::2].T + 1j * cells[:, 2::2].T, cells[:, 0], 10.0, grid)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.lists(_FINITE, min_size=5, max_size=5), min_size=1, max_size=30),
    count=st.integers(1, 4),
)
def test_ranged_parse_equals_one_loadtxt(tmp_path_factory, rows, count):
    path = tmp_path_factory.mktemp("ranged") / "trace.csv"
    write_trace(path, _two_tone_trace(rows))  # repr cells: rows of unequal length
    with _ranges(count, serial=True):
        trace = read_trace(path)
    values, times = _one_pass(path)
    assert trace.values.tobytes() == values.tobytes()
    assert trace.times_s.tobytes() == times.tobytes()


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
        fields = fields[:2] + ["nan"] + fields[3:]
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
        expected = "trace contains non-finite values"
    assert str(info.value) == expected
