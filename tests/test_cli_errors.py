"""Malformed documents and flag files end in exit 2, and requests over a
size cap in exit 3, each with a one-line message, never a traceback."""

from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from pandorabox import (CapExceededError, DiscreteDistribution, PandoraError, dump_instance, format_rational,
                        load_instance, solve_approx, solve_exact)
from pandorabox.core import MAX_DOCUMENT_BYTES, MAX_SIDE_ENTRIES
from pandorabox.instances import ADAPTIVITY_GAP_BOX_CAP, adaptivity_gap, guard_line
from pandorabox.oracle import BUILT_CELL_CAP, SCANNED_STATE_CAP
from pandorabox.strategy import MAX_TRIALS

from helpers import MALFORMED_INT_FORMS, figure1_tree_matroid, int_distribution_violation
from test_cli import run_cli


def guard_doc() -> dict:
    return json.loads(dump_instance(guard_line()))


def assert_clean_exit_2(res) -> None:
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def assert_clean_exit_3(res) -> None:
    assert res.returncode == 3
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


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


def test_partition_parts_that_are_not_pairs_exit_2(tmp_path):
    # a list has no .items()
    doc = guard_doc()
    doc["side"] = {"kind": "partition", "parts": ["g1"], "capacities": [2]}
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


@pytest.mark.parametrize("command", [["evaluate"], ["simulate", "--trials", "3", "--seed", "1"]])
def test_threshold_that_is_not_a_rational_names_its_box(tmp_path, command):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"boxes": [{"id": "a", "cost": "1", "reward": [{"value": "3", "prob": "1"}]}]}))
    thresholds = tmp_path / "z.json"
    thresholds.write_text('{"a": true}')
    res = run_cli(*command, "--input", str(inst), "--thresholds", str(thresholds))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: threshold of box 'a': expected a rational, got boolean True\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_thresholds_for_unknown_boxes_exit_2(tmp_path, json_flag):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"boxes": [{"id": "a", "cost": "1", "reward": [{"value": "3", "prob": "1"}]},
                                          {"id": "b", "cost": "0", "reward": [{"value": "1", "prob": "1"}]}]}))
    thresholds = tmp_path / "z.json"
    thresholds.write_text('{"a": 1, "b": 2, "zz": 5}')
    res = run_cli("evaluate", "--input", str(inst), "--thresholds", str(thresholds), *json_flag)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: policy has thresholds for unknown boxes ['zz']\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_evaluate_set_with_a_repeated_id_exits_2(tmp_path, json_flag):
    inst = tmp_path / "inst.json"
    inst.write_text(dump_instance(guard_line()))
    res = run_cli("evaluate", "--input", str(inst), "--set", "g1,g1", *json_flag)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: set lists boxes ['g1'] more than once\n"


@pytest.mark.parametrize("exists", [True, False])
def test_evaluate_refuses_set_with_thresholds(tmp_path, exists):
    inst = tmp_path / "inst.json"
    inst.write_text(dump_instance(guard_line()))
    thresholds = tmp_path / "z.json"
    if exists:
        thresholds.write_text('{"g1": "1", "g2": "2"}')
    res = run_cli("evaluate", "--input", str(inst), "--set", "g1", "--thresholds", str(thresholds))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: evaluate takes --set or --thresholds, not both\n"


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


def test_instance_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "inst.json"
    path.write_bytes(b"\xff\xfe{")
    res = run_cli("solve", "--input", str(path))
    assert_clean_exit_2(res)
    assert len(res.stderr.splitlines()) == 1


def test_instance_nested_too_deeply_exits_2(tmp_path):
    # json.loads raises RecursionError here, not a ValueError
    path = tmp_path / "inst.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    res = run_cli("solve", "--input", str(path))
    assert_clean_exit_2(res)
    assert len(res.stderr.splitlines()) == 1


def test_thresholds_nested_too_deeply_exits_2(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(dump_instance(guard_line()))
    thresholds = tmp_path / "z.json"
    thresholds.write_text("[" * 100_000 + "]" * 100_000)
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
        ("--constant", "0", 2),
        ("--constant", "-1", 2),
        ("--samples 5 --constant", "nan", 2),  # refused even where no sample bound is taken
        ("--constant", "1e300", 3),  # a finite bound far above an int64 count
        ("--samples", "100000000000000000000", 3),
    ],
)
def test_learn_sample_count_out_of_range_exits_cleanly(tmp_path, flag, value, code):
    path = tmp_path / "learnable.json"
    path.write_text(json.dumps(LEARNABLE))
    res = run_cli("learn", "--input", str(path), "--epsilon", "1/10", "--delta", "1/10",
                  "--seed", "7", *flag.split(), value)
    assert res.returncode == code
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "epsilon, delta, code",
    [
        ("1e-200", "1/10", 3),  # epsilon**2 underflows to 0.0; the bound is far above the cap
        ("1e-400", "1/10", 3),  # epsilon itself is 0.0 as a float
        ("1/10", "1e-400", 0),  # delta is 0.0 as a float, but log(1/delta) is only ~921
    ],
)
def test_learn_epsilon_or_delta_below_the_float_range(tmp_path, epsilon, delta, code):
    path = tmp_path / "learnable.json"
    path.write_text(json.dumps(LEARNABLE))
    res = run_cli("learn", "--input", str(path), "--epsilon", epsilon, "--delta", delta,
                  "--seed", "7")
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    if code:
        assert res.stderr.startswith("error: ")


def test_adaptivity_gap_with_p_zero_exits_2():
    res = run_cli("example", "adaptivity-gap", "--p", "0")
    assert_clean_exit_2(res)
    assert res.stderr == "error: p must be in (0, 1), got 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["adaptivity-gap", "--p", "1e4300"], "p must be in (0, 1), got about 2^14284"),
        (["figure1", "--epsilon", "1e4300"], "epsilon about 2^14284 outside [5/4, 2)"),
    ],
)
def test_example_parameter_too_long_to_print_exits_2(argv, message):
    res = run_cli("example", *argv)
    assert_clean_exit_2(res)
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


def test_learn_reward_too_long_to_print_exits_2(tmp_path):
    doc = json.loads(json.dumps(LEARNABLE))
    doc["boxes"][1]["reward"] = [{"value": "99e4300", "prob": "1"}]
    path = tmp_path / "learnable.json"
    path.write_text(json.dumps(doc))
    res = run_cli("learn", "--input", str(path), "--epsilon", "1/10", "--delta", "1/10", "--seed", "7")
    assert_clean_exit_2(res)
    assert res.stderr == "error: box 'b' reward about 2^14290 outside [0, 1]\n"


@pytest.mark.parametrize("name", ["figure1", "adaptivity-gap", "guard-line"])
def test_example_out_path_that_cannot_be_written_exits_2(tmp_path, name):
    out = tmp_path / "missing" / "inst.json"
    res = run_cli("example", name, "--out", str(out))
    assert_clean_exit_2(res)
    assert res.stderr.startswith(f"error: cannot write {out}: ")
    assert len(res.stderr.splitlines()) == 1


def run_cli_into(stdout, *args: str):
    """Runs the CLI with its stdout on the given file or descriptor; returns (exit code, stderr)."""
    res = subprocess.run([sys.executable, "-m", "pandorabox.cli", *args],
                         stdout=stdout, stderr=subprocess.PIPE, text=True)
    return res.returncode, res.stderr


def assert_failed_write_exits_2(code, stderr, err):
    assert code == 2
    assert stderr == f"error: cannot write output: [Errno {err}] {os.strerror(err)}\n"
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_output_to_a_full_device_exits_2(tmp_path, json_flag):
    path = tmp_path / "guard.json"
    path.write_text(dump_instance(guard_line()))
    with open("/dev/full", "w") as full:
        code, stderr = run_cli_into(full, "solve", "--input", str(path), *json_flag)
    assert_failed_write_exits_2(code, stderr, errno.ENOSPC)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [[], *([name] for name in ("solve", "evaluate", "simulate", "oracle",
                                                                 "fixed-order", "approx", "learn", "example"))],
                         ids=lambda command: command[0] if command else "bare")
def test_help_to_a_full_device_exits_2(command):
    with open("/dev/full", "w") as full:
        code, stderr = run_cli_into(full, *command, "--help")
    assert_failed_write_exits_2(code, stderr, errno.ENOSPC)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_output_to_a_closed_pipe_exits_2(tmp_path, json_flag):
    path = tmp_path / "guard.json"
    path.write_text(dump_instance(guard_line()))
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left before the child starts, so its first write fails
    try:
        code, stderr = run_cli_into(write_end, "solve", "--input", str(path), *json_flag)
    finally:
        os.close(write_end)
    assert_failed_write_exits_2(code, stderr, errno.EPIPE)


@pytest.mark.parametrize(
    "form, refusal",
    zip(MALFORMED_INT_FORMS, [
        "box 'g1' needs a nonempty 'reward' array",
        None,  # the repeated value's atoms merge
        None,  # the atoms sort
        "box 'g1': reward value -1 is negative",
        None,  # the zero atom drops
        "box 'g1': atom probability -1/2 is not positive",
        "box 'g1': atom probabilities sum to 2/3, not 1",
        "box 'g1' has a malformed reward atom",  # the extra numerator is an atom without a value
    ]),
)
def test_document_boundary_refuses_or_normalizes_malformed_int_forms(tmp_path, form, refusal):
    """Each malformed int form written as a box's reward atoms is refused, or
    normalized into a reward whose int form holds the invariant."""
    keys, probs, den = form
    doc = guard_doc()
    atoms = [{"value": str(k), "prob": f"{p}/{den}"} for k, p in zip(keys, probs)]
    doc["boxes"][0]["reward"] = atoms + [{"prob": f"{p}/{den}"} for p in probs[len(keys):]]
    text = json.dumps(doc)
    if refusal is None:
        reward = load_instance(text).boxes[0].reward
        assert reward == DiscreteDistribution.of(zip(keys, [F(p, den) for p in probs]))
        assert int_distribution_violation(reward.integer) is None
        return
    with pytest.raises(PandoraError, match=re.escape(refusal)):
        load_instance(text)
    path = tmp_path / "malformed.json"
    path.write_text(text)
    res = run_cli("solve", "--input", str(path))
    assert_clean_exit_2(res)
    assert res.stderr == f"error: {refusal}\n"


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["guard-line", "--epsilon", "3", "--p", "7", "--n", "4"], "--epsilon, --p, --n"),
        (["figure1", "--p", "0"], "--p"),
        (["figure1", "--epsilon", "3/2", "--n", "4"], "--n"),
        (["adaptivity-gap", "--epsilon", "3/2", "--p", "1/4"], "--epsilon"),
    ],
)
def test_example_refuses_a_flag_of_another_example(tmp_path, argv, foreign):
    out = tmp_path / "inst.json"
    res = run_cli("example", *argv, "--out", str(out))
    assert_clean_exit_2(res)
    assert res.stderr == f"error: example {argv[0]} does not take {foreign}\n"
    assert res.stdout == ""
    assert not out.exists()  # refused before the instance is built or written


@pytest.mark.parametrize(
    "flags, got",
    [
        (["--p", "1/1000"], "5000000"),  # default n = ceil(5/p^2)
        (["--p", "1/10", "--n", "5001"], "5001"),
        (["--p", "1e-4300"], "about 2^28570"),  # a default n too long to print
    ],
)
def test_adaptivity_gap_over_the_box_cap_exits_3(flags, got):
    res = run_cli("example", "adaptivity-gap", *flags)
    assert res.returncode == 3
    assert res.stderr == f"error: adaptivity-gap handles at most {ADAPTIVITY_GAP_BOX_CAP} boxes, got {got}\n"
    assert res.stdout == ""


def test_adaptivity_gap_bounds_n_times_the_bits_of_p():
    # p = 1/10^6 adds twice the bits of p = 1/1000 per box
    res = run_cli("example", "adaptivity-gap", "--p", "1/1000000", "--n", "5000")
    assert_clean_exit_3(res)
    assert res.stderr.startswith("error: adaptivity-gap handles at most ")
    assert res.stderr.endswith(", got 105000\n")


def test_solve_value_too_long_to_print_exits_3(tmp_path):
    # the p = 1/20 line's value has a denominator of about 17 000 bits
    path = tmp_path / "gap.json"
    assert run_cli("example", "adaptivity-gap", "--p", "1/20", "--out", str(path)).returncode == 0
    res = run_cli("solve", "--input", str(path))
    assert res.returncode == 3
    assert res.stderr == f"error: value has more than {sys.get_int_max_str_digits()} digits to print\n"
    assert res.stdout == ""


def test_adaptivity_gap_cap_is_checked_before_building():
    start = time.perf_counter()
    for p, n in ((F(1, 10**6), None), (F(1, 10), 10**9)):
        with pytest.raises(CapExceededError):
            adaptivity_gap(p, n)
    assert time.perf_counter() - start < 1
    assert adaptivity_gap(F(1, 10), ADAPTIVITY_GAP_BOX_CAP).n == ADAPTIVITY_GAP_BOX_CAP


@pytest.mark.parametrize(
    "trials, got",
    [
        (MAX_TRIALS + 1, str(MAX_TRIALS + 1)),
        (964978137648253952, "about 2^59"),  # a count that would never finish
    ],
)
def test_simulate_over_the_trials_cap_exits_3(tmp_path, trials, got):
    path = tmp_path / "guard.json"
    path.write_text(dump_instance(guard_line()))
    res = run_cli("simulate", "--input", str(path), "--trials", str(trials), "--seed", "1")
    assert_clean_exit_3(res)
    assert res.stderr == f"error: simulate handles at most {MAX_TRIALS} trials, got {got}\n"


@pytest.mark.parametrize(
    "argv, n, message",
    [
        (["oracle"], 21, "oracle handles at most 20 boxes, got 21"),
        (["fixed-order"], 11, "fixed-order enumeration handles at most 10 boxes, got 11"),
        (["approx", "--verify"], 13, "set enumeration handles at most 12 boxes, got 13"),
    ],
    ids=["oracle", "fixed-order", "approx-verify"],
)
def test_exhaustive_commands_over_their_caps_exit_3(tmp_path, argv, n, message):
    doc = {"boxes": [{"id": f"b{k:02d}", "cost": "1", "reward": [{"value": str(k % 4 + 1), "prob": "1"}]}
                     for k in range(n)]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    res = run_cli(argv[0], "--input", str(path), *argv[1:])
    assert_clean_exit_3(res)
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, weights, message",
    [
        # the sweep takes 5 dimensions; the guarantee check refuses them before it sweeps
        (["--verify"], lambda k: [1] * 5, "oracle dimension 5 exceeds 4"),
        # about 250 000 distinct loads reachable: over 2 * 10^6 cells at 21 grid values per load
        ([], lambda k: [k + 1, k * k % 17 + 1, (3 * k + 5) % 19 + 1, (7 * k + 2) % 13 + 1],
         "more than 2000000 table cells to build; instance too large"),
    ],
    ids=["dimension", "cells"],
)
def test_approx_over_its_table_caps_exits_3(tmp_path, flags, weights, message):
    # 20 free boxes of sure rewards 1..20 (a grid of 21 values) under a knapsack side of capacity 200
    ids = [f"b{k:02d}" for k in range(20)]
    doc = {"boxes": [{"id": box_id, "cost": "1", "reward": [{"value": str(k + 1), "prob": "1"}]}
                     for k, box_id in enumerate(ids)],
           "side": {"kind": "knapsack", "weights": {box_id: weights(k) for k, box_id in enumerate(ids)},
                    "capacity": [200] * len(weights(0))}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    res = run_cli("approx", "--input", str(path), *flags)
    assert time.perf_counter() - start < 5
    assert_clean_exit_3(res)
    assert res.stderr == f"error: {message}\n"


def test_approx_solves_a_side_of_five_parts_and_verify_refuses_it(tmp_path):
    # five free boxes, each alone in a part of capacity 1: the side constrains nothing
    ids = [f"b{k}" for k in range(5)]
    doc = {"boxes": [{"id": box_id, "cost": "1", "reward": [{"value": str(2 * k + 3), "prob": "1/2"},
                                                            {"value": "0", "prob": "1/2"}]}
                     for k, box_id in enumerate(ids)],
           "side": {"kind": "partition", "parts": {box_id: k for k, box_id in enumerate(ids)},
                    "capacities": [1] * 5}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path.read_text())
    value = solve_approx(inst).value
    assert value <= solve_exact(inst).value
    res = run_cli("approx", "--input", str(path))
    assert (res.returncode, res.stdout, res.stderr) == (0, f"value={format_rational(value)}\n", "")
    res = run_cli("approx", "--input", str(path), "--verify")
    assert_clean_exit_3(res)
    assert res.stderr == "error: oracle dimension 5 exceeds 4\n"


def test_oracle_refuses_a_side_dimension_over_the_cap_before_building(tmp_path):
    # 12 free coins and 20 000 zero-weight dimensions: every one of the 4 096 sets is expanded, and
    # every opening adds a 20 000-entry load, so the count passes the cap at the 251st set built,
    # before the rest of them (seconds of work if it ran)
    d = 20_000
    boxes = [{"id": f"b{k:02d}", "cost": "0", "reward": [{"value": str(k + 1), "prob": "1/2"},
                                                         {"value": "0", "prob": "1/2"}]}
             for k in range(12)]
    doc = {"boxes": boxes,
           "side": {"kind": "knapsack", "weights": {b["id"]: [0] * d for b in boxes}, "capacity": [1] * d}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    res = run_cli("oracle", "--input", str(path))
    assert time.perf_counter() - start < 2
    assert_clean_exit_3(res)
    assert res.stderr == f"error: more than {BUILT_CELL_CAP} cells to build; instance too large\n"


def test_oracle_refuses_more_row_cells_than_its_cap(tmp_path):
    # a sure 600 and 16 boxes of 0 w.p. 1/2 and 60 values above 1 000, each priced to index 500: only the
    # 2^16 states at best reward 0 are scanned, under SCANNED_STATE_CAP, but every set built holds a row
    # over the 962-value grid (above a GB of rows and tens of seconds if it ran)
    boxes = [{"id": "a00", "cost": "100", "reward": [{"value": "600", "prob": "1"}]}]
    for k in range(1, 17):
        values = [1001 + 60 * k + j for j in range(60)]
        boxes.append({"id": f"b{k:02d}", "cost": str(sum(F(v - 500, 120) for v in values)),
                      "reward": [{"value": "0", "prob": "1/2"}] + [{"value": str(v), "prob": "1/120"} for v in values]})
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"boxes": boxes}))
    start = time.perf_counter()
    res = run_cli("oracle", "--input", str(path))
    assert time.perf_counter() - start < 2
    assert_clean_exit_3(res)
    assert res.stderr == f"error: more than {BUILT_CELL_CAP} cells to build; instance too large\n"


def test_oracle_refuses_more_scanned_states_than_its_cap(tmp_path):
    # 19 free boxes of cost 10^-6 on one 9-point grid build 2^19 * 9 cells, under the cap, but every
    # state below a best reward of 8 is scanned: millions of them, tens of seconds and hundreds of MB
    doc = {"boxes": [{"id": f"b{k:02d}", "cost": "1/1000000",
                      "reward": [{"value": str(v), "prob": "1/8"} for v in range(1, 9)]} for k in range(19)]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    res = run_cli("oracle", "--input", str(path))
    assert time.perf_counter() - start < 5
    assert_clean_exit_3(res)
    assert res.stderr == f"error: more than {SCANNED_STATE_CAP} states to scan; instance too loose\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_simulate_variance_past_the_float_range_exits_3(tmp_path, json_flag):
    doc = {"boxes": [
        {"id": "a", "cost": "1", "reward": [{"value": "1e155", "prob": "1/2"}, {"value": "0", "prob": "1/2"}]},
        {"id": "b", "cost": "1", "reward": [{"value": "3", "prob": "1/2"}, {"value": "0", "prob": "1/2"}]},
    ]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    res = run_cli("simulate", "--input", str(path), "--trials", "50", "--seed", "1", *json_flag)
    assert_clean_exit_3(res)
    assert res.stderr == "error: sample variance about 2^1028 is past the float range\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_result_too_long_to_print_exits_3(tmp_path, json_flag):
    doc = {"boxes": [{"id": "a", "cost": "0", "reward": [{"value": "99e4300", "prob": "1"}]}]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    res = run_cli("solve", "--input", str(path), *json_flag)
    assert_clean_exit_3(res)
    assert "digits to print" in res.stderr


@pytest.fixture
def tree_matroid_file(tmp_path):
    path = tmp_path / "tm.json"
    path.write_text(dump_instance(figure1_tree_matroid()))
    return str(path)


@pytest.mark.parametrize(
    "command, flags",
    [("solve", []), ("evaluate", []), ("simulate", ["--trials", "200", "--seed", "5"])],
)
def test_side_constraint_without_thresholds_exits_3(tree_matroid_file, command, flags):
    res = run_cli(command, "--input", tree_matroid_file, *flags)
    assert_clean_exit_3(res)
    assert "knapsack side constraint" in res.stderr


@pytest.mark.parametrize(
    "command, flags, stdout",
    [
        ("evaluate", [], "value=297/80\n"),
        ("simulate", ["--trials", "200", "--seed", "5"],
         "mean=741/200\nstddev=1.8314944333239134\ntrials=200\nseed=5\n"),
    ],
)
def test_side_constraint_with_thresholds_runs(tmp_path, tree_matroid_file, command, flags, stdout):
    # the cardinality-4 bound stops the executor before its fifth box
    thresholds = tmp_path / "z.json"
    thresholds.write_text(json.dumps({"A": "10", "B": "9", "C": "8", "E": "7", "F": "6"}))
    res = run_cli(command, "--input", tree_matroid_file, "--thresholds", str(thresholds), *flags)
    assert res.returncode == 0
    assert res.stdout == stdout


def test_learn_with_side_constraint_exits_3(tmp_path):
    doc = dict(LEARNABLE, side={"kind": "knapsack", "weights": {"a": [1], "b": [1]}, "capacity": [1]})
    path = tmp_path / "learnable.json"
    path.write_text(json.dumps(doc))
    res = run_cli("learn", "--input", str(path), "--epsilon", "1/10", "--delta", "1/10", "--seed", "7")
    assert_clean_exit_3(res)
    assert "knapsack side constraint" in res.stderr


@pytest.mark.parametrize(
    "cost, prob, message",
    [
        ("-99e4300", "1", "box 'a' has negative cost about -2^14290"),
        ("0", "99e4300", "box 'a': atom probabilities sum to about 2^14290, not 1"),
    ],
)
def test_invalid_value_too_long_to_print_exits_2(tmp_path, cost, prob, message):
    doc = {"boxes": [{"id": "a", "cost": cost, "reward": [{"value": "1", "prob": prob}]}]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    res = run_cli("solve", "--input", str(path))
    assert_clean_exit_2(res)
    assert res.stderr == f"error: {message}\n"


def test_learn_grid_step_too_long_to_print_exits_2(tmp_path):
    path = tmp_path / "learnable.json"
    path.write_text(json.dumps(LEARNABLE))
    res = run_cli("learn", "--input", str(path), "--epsilon", "3e-4300", "--delta", "1/10", "--seed", "7")
    assert_clean_exit_2(res)
    assert res.stderr == "error: grid step about 2^-14283 must divide 1 exactly\n"


def padded(text: str, size: int) -> bytes:
    """``text`` followed by JSON whitespace, ``size`` bytes in all."""
    data = text.encode()
    return data + b" " * (size - len(data))


@pytest.fixture
def documents(tmp_path):
    """Paths of a small instance and a thresholds document for it, and a
    function that writes either one padded to a given size."""
    inst, thresholds = tmp_path / "inst.json", tmp_path / "z.json"
    inst.write_text(dump_instance(guard_line()))
    thresholds.write_text('{"g1": "1", "g2": "2"}')

    def write(which, size: int):
        path = tmp_path / f"padded-{which}.json"
        path.write_bytes(padded((inst if which == "--input" else thresholds).read_text(), size))
        return path

    return inst, thresholds, write


def evaluate_args(flag: str, path, inst, thresholds) -> list[str]:
    if flag == "--input":
        return ["evaluate", "--input", str(path), "--thresholds", str(thresholds)]
    return ["evaluate", "--input", str(inst), "--thresholds", str(path)]


@pytest.mark.parametrize("flag", ["--input", "--thresholds"])
def test_document_one_byte_over_the_cap_exits_3(documents, flag):
    inst, thresholds, write = documents
    big = write(flag, MAX_DOCUMENT_BYTES + 1)
    res = run_cli(*evaluate_args(flag, big, inst, thresholds))
    assert_clean_exit_3(res)
    assert res.stderr == f"error: {big} is larger than {MAX_DOCUMENT_BYTES} bytes\n"


@pytest.mark.parametrize("flag", ["--input", "--thresholds"])
def test_document_at_the_cap_parses(documents, flag):
    inst, thresholds, write = documents
    res = run_cli(*evaluate_args(flag, write(flag, MAX_DOCUMENT_BYTES), inst, thresholds))
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli(*evaluate_args(flag, inst if flag == "--input" else thresholds,
                                                inst, thresholds)).stdout


def test_partition_over_the_side_entry_cap_exits_3_before_building(tmp_path):
    # 400 boxes in one of 100 000 parts: 4·10^7 unit-vector entries from a 332 KB document
    ids = [f"b{i:03d}" for i in range(400)]
    doc = {"boxes": [{"id": i, "cost": "0", "reward": [{"value": "0", "prob": "1"}]} for i in ids],
           "constraint": {"kind": "forest", "edges": []},
           "side": {"kind": "partition", "parts": {i: 0 for i in ids}, "capacities": [0] * 100_000}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    res = run_cli("oracle", "--input", str(path))
    assert time.perf_counter() - start < 2
    assert_clean_exit_3(res)
    assert res.stderr == ("error: partition of 400 boxes into 100000 parts takes more than "
                          f"{MAX_SIDE_ENTRIES} weight entries\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["approx", "--capacity", "x"], "--capacity"),
        (["approx", "--capacity", "1", "2.5"], "--capacity"),
        (["simulate", "--trials", "x", "--seed", "1"], "--trials"),
        (["simulate", "--trials", "3", "--seed", "1/2"], "--seed"),
        (["learn", "--epsilon", "1/4", "--delta", "1/4", "--seed", "1", "--samples", "many"], "--samples"),
        (["learn", "--epsilon", "1/4", "--delta", "1/4", "--seed", "1", "--constant", "big"], "--constant"),
        (["example", "adaptivity-gap", "--n", "ten"], "--n"),
    ],
)
def test_ill_typed_flag_value_exits_2_with_one_line(tmp_path, argv, flag):
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(guard_line()))
    res = run_cli(*argv, *(["--input", str(path)] if argv[0] != "example" else []))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith(f"error: argument {flag}: invalid ") and len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [[], ["solve"], ["bogus"], ["oracle", "--input"], ["solve", "--input", "a", "-x"]])
def test_usage_errors_exit_2_with_one_line(argv):
    res = run_cli(*argv)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


def test_help_still_exits_0():
    res = run_cli("approx", "--help")
    assert res.returncode == 0 and "--capacity" in res.stdout


READING_COMMANDS = {
    "solve": [],
    "evaluate": [],
    "simulate": ["--trials", "3", "--seed", "1"],
    "oracle": [],
    "fixed-order": [],
    "approx": [],
    "learn": ["--epsilon", "1/4", "--delta", "1/4", "--seed", "1"],
}


@pytest.mark.parametrize("command", sorted(READING_COMMANDS))
def test_unreadable_input_exits_2_the_same_way(tmp_path, command):
    path = tmp_path / "missing.json"
    res = run_cli(command, "--input", str(path), *READING_COMMANDS[command])
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith(f"error: cannot read {path}: ") and len(res.stderr.splitlines()) == 1


USAGE = {
    "solve": "usage: pandorabox solve [-h] [--json] --input INPUT",
    "evaluate": "usage: pandorabox evaluate [-h] [--json] --input INPUT [--set SET]\n"
                "                           [--thresholds THRESHOLDS]",
    "simulate": "usage: pandorabox simulate [-h] [--json] --input INPUT --trials TRIALS --seed\n"
                "                           SEED [--thresholds THRESHOLDS]",
    "oracle": "usage: pandorabox oracle [-h] [--json] --input INPUT",
    "fixed-order": "usage: pandorabox fixed-order [-h] [--json] --input INPUT",
    "approx": "usage: pandorabox approx [-h] [--json] --input INPUT [--verify]\n"
              "                         [--capacity CAPACITY [CAPACITY ...]]",
    "learn": "usage: pandorabox learn [-h] [--json] --input INPUT --epsilon EPSILON --delta\n"
             "                        DELTA --seed SEED [--samples SAMPLES]\n"
             "                        [--constant CONSTANT]",
    "example": "usage: pandorabox example [-h] [--json] [--epsilon EPSILON] [--p P] [--n N]\n"
               "                          [--out OUT]\n"
               "                          name",
}


@pytest.mark.parametrize("command", sorted(USAGE))
def test_help_prints_each_commands_usage(command):
    # argparse wraps the usage at the terminal width, read from COLUMNS
    res = subprocess.run([sys.executable, "-m", "pandorabox.cli", command, "--help"],
                         capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"})
    assert res.returncode == 0
    assert res.stdout.split("\n\n")[0] == USAGE[command]
