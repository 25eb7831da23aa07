from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pandorabox import ConstraintKind, dump_instance, load_instance, parse_rational, solve_exact
from pandorabox.instances import figure1, guard_line

from helpers import figure1_tree_matroid, rand_graph_instance

F = Fraction


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "pandorabox.cli", *args],
        capture_output=True,
        text=True,
    )


def kv(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


@pytest.fixture()
def guard_file(tmp_path):
    path = tmp_path / "guard.json"
    path.write_text(dump_instance(guard_line()))
    return str(path)


@pytest.fixture()
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(dump_instance(figure1()))
    return str(path)


class TestSolveCommand:
    def test_guard_line_output(self, guard_file):
        res = run_cli("solve", "--input", guard_file)
        assert res.returncode == 0
        out = kv(res.stdout)
        assert out["order"] == "g1,g2"
        assert out["threshold.g1"] == "1"
        assert out["threshold.g2"] == "2"
        assert out["value"] == "1"

    def test_star_file_orders_by_reservation_value(self, tmp_path):
        doc = {
            "boxes": [
                {"id": "hub", "cost": "0", "reward": [{"value": "0", "prob": "1"}]},
                # reservation values: cheap=2, dear=1, sure=3/2
                {"id": "cheap", "cost": "1/2", "reward": [
                    {"value": "3", "prob": "1/2"}, {"value": "0", "prob": "1/2"}]},
                {"id": "dear", "cost": "1", "reward": [
                    {"value": "3", "prob": "1/2"}, {"value": "0", "prob": "1/2"}]},
                {"id": "sure", "cost": "1/2", "reward": [{"value": "2", "prob": "1"}]},
            ],
            "constraint": {"kind": "tree",
                           "edges": [["hub", "cheap"], ["hub", "dear"], ["hub", "sure"]]},
        }
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        res = run_cli("solve", "--input", str(path))
        out = kv(res.stdout)
        assert out["order"] == "hub,cheap,sure,dear"
        assert out["threshold.cheap"] == "2"
        assert out["threshold.sure"] == "3/2"
        assert out["threshold.dear"] == "1"

    def test_json_round_trips(self, guard_file):
        res = run_cli("solve", "--input", guard_file, "--json")
        obj = json.loads(res.stdout)
        assert parse_rational(obj["threshold.g1"]) == 1
        assert parse_rational(obj["value"]) == 1

    def test_dag_exits_3_and_mentions_oracle(self, diamond_file):
        res = run_cli("solve", "--input", diamond_file)
        assert res.returncode == 3
        assert "oracle" in res.stderr

    def test_validation_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads(dump_instance(guard_line()))
        doc["boxes"][0]["reward"][0]["prob"] = "9/10"
        bad.write_text(json.dumps(doc))
        res = run_cli("solve", "--input", str(bad))
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_unreadable_input_exits_2(self):
        res = run_cli("solve", "--input", "/nonexistent/path.json")
        assert res.returncode == 2


class TestOtherCommands:
    def test_evaluate_set(self, guard_file):
        res = run_cli("evaluate", "--input", guard_file, "--set", "g1,g2")
        assert res.returncode == 0
        assert kv(res.stdout)["value"] == "1"

    def test_evaluate_default_thresholds(self, guard_file):
        res = run_cli("evaluate", "--input", guard_file)
        assert kv(res.stdout)["value"] == "1"

    def test_evaluate_threshold_file(self, guard_file, tmp_path):
        thresholds = tmp_path / "z.json"
        thresholds.write_text(json.dumps({"g1": "-1", "g2": "-1"}))
        res = run_cli("evaluate", "--input", guard_file, "--thresholds", str(thresholds))
        assert kv(res.stdout)["value"] == "0"

    def test_simulate(self, guard_file):
        res = run_cli("simulate", "--input", guard_file, "--trials", "50", "--seed", "4")
        out = kv(res.stdout)
        assert out["mean"] == "1"
        assert out["stddev"] == "0.0"
        assert out["trials"] == "50"
        assert out["seed"] == "4"

    def test_simulate_requires_seed(self, guard_file):
        res = run_cli("simulate", "--input", guard_file, "--trials", "10")
        assert res.returncode == 2

    def test_oracle(self, diamond_file):
        res = run_cli("oracle", "--input", diamond_file)
        out = kv(res.stdout)
        assert parse_rational(out["value"]) == F(251, 64)
        assert out["first_action"] == "A"
        assert parse_rational(out["e_max"]) - parse_rational(out["e_cost"]) == F(251, 64)

    def test_oracle_on_a_twenty_box_dag(self, tmp_path):
        inst = rand_graph_instance(random.Random(1), 20, ConstraintKind.DAG)
        path = tmp_path / "dag.json"
        path.write_text(dump_instance(inst))
        res = run_cli("oracle", "--input", str(path))
        assert res.returncode == 0 and res.stderr == ""
        assert parse_rational(kv(res.stdout)["value"]) == solve_exact(inst).value

    def test_fixed_order(self, diamond_file):
        res = run_cli("fixed-order", "--input", diamond_file)
        out = kv(res.stdout)
        assert parse_rational(out["value"]) == F(1251, 320)

    def test_approx_with_verify(self, tmp_path):
        path = tmp_path / "tm.json"
        path.write_text(dump_instance(figure1_tree_matroid()))
        res = run_cli("approx", "--input", str(path), "--verify")
        out = kv(res.stdout)
        assert res.returncode == 0
        assert parse_rational(out["set_margin"]) >= 0
        assert parse_rational(out["benchmark_margin"]) >= 0

    def test_approx_capacity_flag(self, guard_file):
        loose = run_cli("approx", "--input", guard_file, "--capacity", "2")
        assert kv(loose.stdout)["value"] == "1"
        tight = run_cli("approx", "--input", guard_file, "--capacity", "1")
        assert kv(tight.stdout)["value"] == "0"  # the guard alone is worthless
        bad = run_cli("approx", "--input", guard_file, "--capacity", "1", "2")
        assert bad.returncode == 2

    def test_learn(self, tmp_path):
        doc = {
            "boxes": [
                {"id": "a", "cost": "1/10", "reward": [
                    {"value": "0", "prob": "1/2"}, {"value": "1", "prob": "1/2"}]},
                {"id": "b", "cost": "0", "reward": [{"value": "1/2", "prob": "1"}]},
            ],
            "constraint": {"kind": "tree", "edges": [["a", "b"]]},
        }
        path = tmp_path / "learnable.json"
        path.write_text(json.dumps(doc))
        res = run_cli(
            "learn", "--input", str(path),
            "--epsilon", "1/10", "--delta", "1/10",
            "--seed", "7", "--samples", "400",
        )
        out = kv(res.stdout)
        assert res.returncode == 0
        assert parse_rational(out["gap"]) >= 0
        assert out["N"] == "400"

    def test_learn_requires_seed(self, tmp_path, guard_file):
        res = run_cli("learn", "--input", guard_file, "--epsilon", "1/10", "--delta", "1/10")
        assert res.returncode == 2


class TestExampleCommand:
    def test_figure1_reports_suboptimal_fixed_order(self):
        res = run_cli("example", "figure1")
        out = kv(res.stdout)
        assert out["fixed_order_suboptimal"] == "true"
        assert out["second_action_high"] == "B"
        assert out["second_action_low"] == "C"

    def test_adaptivity_gap_ratio(self):
        res = run_cli("example", "adaptivity-gap", "--p", "1/5")
        out = kv(res.stdout)
        assert float(out["ratio"]) >= 2.0
        assert float(out["best_nonadaptive_value"]) <= 0.5

    def test_guard_line_doc(self, tmp_path):
        out_path = tmp_path / "guard.json"
        res = run_cli("example", "guard-line", "--out", str(out_path))
        out = kv(res.stdout)
        assert out["threshold.g1"] == "1" and out["threshold.g2"] == "2"
        reloaded = load_instance(out_path.read_text())
        assert reloaded == guard_line()

    def test_figure1_doc_round_trips(self, tmp_path):
        out_path = tmp_path / "diamond.json"
        run_cli("example", "figure1", "--epsilon", "13/10", "--out", str(out_path))
        reloaded = load_instance(out_path.read_text())
        assert reloaded == figure1(F(13, 10))

    def test_unknown_example(self):
        res = run_cli("example", "mystery")
        assert res.returncode == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "--input", "{guard}"),
            ("solve", "--input", "{guard}", "--json"),
            ("evaluate", "--input", "{guard}", "--set", "g1"),
            ("simulate", "--input", "{guard}", "--trials", "200", "--seed", "9"),
            ("oracle", "--input", "{guard}"),
            ("fixed-order", "--input", "{guard}"),
            ("approx", "--input", "{guard}", "--verify"),
            ("example", "figure1"),
            ("example", "adaptivity-gap", "--p", "1/4", "--n", "40"),
            ("example", "guard-line"),
        ],
    )
    def test_byte_identical_across_runs(self, guard_file, args):
        concrete = [a.format(guard=guard_file) for a in args]
        first = run_cli(*concrete)
        second = run_cli(*concrete)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    def test_learn_byte_identical_across_runs(self, tmp_path):
        doc = {
            "boxes": [
                {"id": "a", "cost": "1/10", "reward": [
                    {"value": "0", "prob": "1/2"}, {"value": "1", "prob": "1/2"}]},
            ],
            "constraint": {"kind": "unconstrained", "edges": [], "roots": []},
        }
        path = tmp_path / "learnable.json"
        path.write_text(json.dumps(doc))
        args = ("learn", "--input", str(path), "--epsilon", "1/10",
                "--delta", "1/10", "--seed", "11", "--samples", "300")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
