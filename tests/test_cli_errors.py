"""Malformed documents and flag files end in exit 2 with a one-line
message, never a traceback."""

from __future__ import annotations

import json

import pytest

from pandorabox import dump_instance
from pandorabox.instances import guard_line

from test_cli import run_cli


def guard_doc() -> dict:
    return json.loads(dump_instance(guard_line()))


def assert_clean_exit_2(res) -> None:
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "constraint",
    [
        {"kind": "line", "edges": [[["g1"], "g2"]]},
        {"kind": "line", "edges": [["g1", 2]]},
        {"kind": "line", "edges": [["g1", "g2"]], "roots": [["g1"]]},
    ],
)
def test_non_string_edge_endpoint_or_root_exits_2(tmp_path, constraint):
    doc = guard_doc()
    doc["constraint"] = constraint
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    res = run_cli("solve", "--input", str(path))
    assert_clean_exit_2(res)
    assert "box ids" in res.stderr


@pytest.mark.parametrize(
    "side",
    [
        {"kind": "knapsack", "weights": {"g1": [True], "g2": [1]}, "capacity": [2]},
        {"kind": "knapsack", "weights": {"g1": [1], "g2": [1]}, "capacity": [True]},
        {"kind": "partition", "parts": {"g1": False, "g2": 0}, "capacities": [2]},
        {"kind": "partition", "parts": {"g1": 0, "g2": 0}, "capacities": [True]},
    ],
)
def test_boolean_side_entries_exit_2(tmp_path, side):
    doc = guard_doc()
    doc["side"] = side
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit_2(run_cli("approx", "--input", str(path)))


@pytest.mark.parametrize("content", [["g1", "g2"], 3])
def test_thresholds_file_that_is_not_an_object_exits_2(tmp_path, content):
    inst = tmp_path / "inst.json"
    inst.write_text(dump_instance(guard_line()))
    thresholds = tmp_path / "z.json"
    thresholds.write_text(json.dumps(content))
    res = run_cli("evaluate", "--input", str(inst), "--thresholds", str(thresholds))
    assert_clean_exit_2(res)
    assert str(thresholds) in res.stderr


def test_instance_with_integer_over_the_digit_limit_exits_2(tmp_path):
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    path = tmp_path / "inst.json"
    path.write_text("1" * 5000)
    assert_clean_exit_2(run_cli("solve", "--input", str(path)))


def test_thresholds_with_integer_over_the_digit_limit_exits_2(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(dump_instance(guard_line()))
    thresholds = tmp_path / "z.json"
    thresholds.write_text('{"g1": ' + "1" * 5000 + ', "g2": 0}')
    res = run_cli("evaluate", "--input", str(inst), "--thresholds", str(thresholds))
    assert_clean_exit_2(res)
    assert str(thresholds) in res.stderr


LEARNABLE = {
    "boxes": [
        {"id": "a", "cost": "1/10", "reward": [
            {"value": "0", "prob": "1/2"}, {"value": "1", "prob": "1/2"}]},
        {"id": "b", "cost": "0", "reward": [{"value": "1/2", "prob": "1"}]},
    ],
    "constraint": {"kind": "tree", "edges": [["a", "b"]]},
}


@pytest.mark.parametrize(
    "flag, value, code",
    [
        ("--constant", "nan", 2),
        ("--constant", "inf", 2),
        ("--constant", "1e300", 3),  # a finite bound far above an int64 count
        ("--samples", "100000000000000000000", 3),
    ],
)
def test_learn_sample_count_out_of_range_exits_cleanly(tmp_path, flag, value, code):
    path = tmp_path / "learnable.json"
    path.write_text(json.dumps(LEARNABLE))
    res = run_cli("learn", "--input", str(path), "--epsilon", "1/10", "--delta", "1/10",
                  "--seed", "7", flag, value)
    assert res.returncode == code
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr
