"""Generated instance and ``--thresholds`` documents and flag values through
``cli.main``, in-process: every run ends in exit 0, 2 or 3, and a failing run
prints one ``error:`` line, never a traceback.  ``solve`` and ``evaluate``
run on every document; the exhaustive commands ``oracle``, ``fixed-order``
and ``approx`` (with and without ``--verify``, and with a ``--capacity``
vector whose entries may not be ints) on their own draws; ``simulate``,
``evaluate --set``, ``learn`` and ``example`` with drawn flag values on
theirs.

Documents start out well-formed (small boxes whose probabilities sum to
one, edges between their ids, an optional side constraint), then one field
may be replaced by arbitrary JSON, so both the solvers and the input checks
are reached.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from pandorabox import cli

IDS = ("a", "b", "c", "d")
VALUES = st.sampled_from(["0", "1", "2", "1/2", "7/3", "0.25", "1e3", "99e4300"]) | st.integers(0, 9)
BAD = st.sampled_from(["-1", "1/0", "1e99999", "x", "", "__x", "ring", True, 1.5, -1])
JUNK = BAD | st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
KINDS = st.sampled_from(["unconstrained", "line", "tree", "forest", "dag"])


def slots(node, out):
    """Every (container, key) pair inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        slots(child, out)
    return out


@st.composite
def instance_documents(draw):
    ids = draw(st.permutations(IDS[:draw(st.integers(1, len(IDS)))]))
    boxes = []
    for box_id in ids:
        values = draw(st.lists(VALUES, min_size=1, max_size=3))
        boxes.append({
            "id": box_id,
            "cost": draw(VALUES),
            "reward": [{"value": v, "prob": f"1/{len(values)}"} for v in values],
        })
    # a random forest over the boxes, sometimes with one more edge
    edges = [[ids[draw(st.integers(0, i - 1))], ids[i]] for i in range(1, len(ids)) if draw(st.booleans())]
    edges += draw(st.lists(st.lists(st.sampled_from(ids), min_size=2, max_size=2), max_size=1))
    kind = draw(KINDS)
    doc = {"boxes": boxes, "constraint": {"kind": kind, "edges": [] if kind == "unconstrained" else edges}}
    side = draw(st.sampled_from([None, "knapsack", "partition"]))
    if side == "knapsack":
        doc["side"] = {"kind": side, "weights": {i: [draw(st.integers(0, 2))] for i in ids},
                       "capacity": [draw(st.integers(0, 3))]}
    elif side == "partition":
        doc["side"] = {"kind": side, "parts": {i: draw(st.integers(0, 1)) for i in ids},
                       "capacities": [draw(st.integers(0, 2)), draw(st.integers(0, 2))]}
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(slots(doc, [])))
        container[key] = draw(JUNK)
    return doc


THRESHOLDS = st.dictionaries(st.sampled_from(IDS), VALUES | BAD, max_size=4) | JUNK
# flag values that are not ints
NOT_INT = st.sampled_from(["x", "", "1.5", "1/2", "1e3", "0x10", "nan"])
# a cardinality bound, a vector of another length, negative entries, an entry over every cap
CAPACITY = st.lists((st.integers(-2, 4) | st.just(10**30)).map(str) | NOT_INT, min_size=1, max_size=3)
# small counts, negative ones, one over every cap (simulate's MAX_TRIALS, adaptivity-gap's box cap)
COUNT = st.integers(-2, 4).map(str) | st.just(str(10**30)) | NOT_INT
RATIONAL = st.sampled_from(["1/4", "1/2", "1/3", "0.1", "0", "1", "2", "-1/2", "1e-400", "1e4300", "x", ""])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def check_runs(calls):
    """Each call exits 0, 2 or 3, and a failing one prints one ``error:`` line."""
    for argv in calls:
        code, err = run(argv)
        assert code in (0, 2, 3), (argv, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=300, deadline=None)
@given(doc=instance_documents(), thresholds=st.none() | THRESHOLDS)
def test_solve_and_evaluate_exit_cleanly(tmp_path_factory, doc, thresholds):
    tmp = tmp_path_factory.mktemp("fuzz")
    instance = tmp / "inst.json"
    instance.write_text(json.dumps(doc))
    evaluate = ["evaluate", "--input", str(instance)]
    if thresholds is not None:
        (tmp / "z.json").write_text(json.dumps(thresholds))
        evaluate += ["--thresholds", str(tmp / "z.json")]
    check_runs([["solve", "--input", str(instance)], evaluate])


@settings(max_examples=200, deadline=None)
@given(doc=instance_documents(), capacity=CAPACITY)
def test_exhaustive_commands_exit_cleanly(tmp_path_factory, doc, capacity):
    instance = tmp_path_factory.mktemp("fuzz") / "inst.json"
    instance.write_text(json.dumps(doc))
    given_input = ["--input", str(instance)]
    check_runs([
        ["oracle", *given_input],
        ["fixed-order", *given_input],
        ["approx", *given_input],
        ["approx", *given_input, "--verify"],
        ["approx", *given_input, "--capacity", *capacity],
    ])


def optional(flag, values):
    """The flag with a drawn value, or nothing."""
    return st.none().map(lambda _: []) | values.map(lambda value: [flag, value])


@settings(max_examples=150, deadline=None)
@given(doc=instance_documents(), trials=st.integers(1, 4).map(str) | COUNT,
       seed=st.integers(-9, 2**70).map(str) | NOT_INT, chosen=st.lists(st.sampled_from([*IDS, "zz", ""]), max_size=4),
       learn=st.tuples(RATIONAL, RATIONAL, COUNT, optional("--samples", COUNT),
                       optional("--constant", st.sampled_from(["1", "0", "-1", "1e300", "inf", "nan", "x"]))),
       example=st.tuples(st.sampled_from(["figure1", "adaptivity-gap", "guard-line", "nope"]),
                         optional("--epsilon", st.sampled_from(["5/4", "7/4", "2", "x", "1e4300"])),
                         optional("--p", st.sampled_from(["1/10", "1/2", "9/10", "0", "1", "1e-5", "x"])),
                         optional("--n", COUNT)))
def test_flag_values_exit_cleanly(tmp_path_factory, doc, trials, seed, chosen, learn, example):
    instance = tmp_path_factory.mktemp("fuzz") / "inst.json"
    instance.write_text(json.dumps(doc))
    given_input = ["--input", str(instance)]
    epsilon, delta, learn_seed, samples, constant = learn
    name, *flags = example
    check_runs([
        ["simulate", *given_input, "--trials", trials, "--seed", seed],
        ["evaluate", *given_input, "--set", ",".join(chosen)],
        ["learn", *given_input, "--epsilon", epsilon, "--delta", delta, "--seed", learn_seed, *samples, *constant],
        ["example", name, *[arg for flag in flags for arg in flag]],
    ])

