import warnings

import numpy as np
import pytest

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
