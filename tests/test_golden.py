"""Every command's outputs against the golden files under ``tests/data/``
(``tests/golden.py`` rewrites them), through the one comparer."""

import json

import pytest

import golden


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_outputs_match_the_golden_files(name, tmp_path):
    expected = golden.CASES[name].golden(name)
    differences, same_bytes = golden.compare(expected, golden.produce(name, tmp_path))
    assert differences == []
    print(f"{name}: bytes {'match' if same_bytes else 'differ within the tolerance'}")


def _jsonl(records):
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


def test_the_comparer_fails_a_rate_moved_by_1e_8_bpm(tmp_path):
    expected = golden.CASES["estimates_readme_seed0"].golden("estimates_readme_seed0")
    records = [json.loads(line) for line in expected.read_text(encoding="utf-8").splitlines()]
    f_bpm = records[2]["f_bpm"]
    solution = {**records[2]["solution"], "denominator_index": -1}
    copy = tmp_path / "copy.jsonl"
    for field, value, found in [
        ("f_bpm", f_bpm, []),
        ("f_bpm", f_bpm + 1e-10, []),  # within the tolerance, though the bytes differ
        ("f_bpm", f_bpm + 1e-8, [f"window 2: rate {f_bpm + 1e-8!r}, expected {f_bpm!r}"]),
        ("f_bpm", None, [f"window 2: rate None, expected {f_bpm!r}"]),
        ("flags", ["no-peak"], ["window 2: flags ['no-peak'], expected []"]),
        ("reason", "x", ["window 2: reason 'x', expected None"]),
        ("solution", solution, [f"window 2: denominator_index -1, expected "
                                f"{records[2]['solution']['denominator_index']}"]),
    ]:
        moved = [*records[:2], {**records[2], field: value}, *records[3:]]
        copy.write_text(_jsonl(moved), encoding="utf-8")
        assert golden.compare(expected, copy) == (found, value == f_bpm), (field, value)
    copy.write_text(_jsonl(records[:-1]), encoding="utf-8")
    assert golden.compare(expected, copy)[0] == [
        f"{len(records) - 1} windows, expected {len(records)}"
    ]
