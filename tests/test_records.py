"""Every record class keeps the semantics of a frozen dataclass: keyword and
positional construction with the same defaults, value equality and hashing,
a field-wise repr, validation at construction and no attribute assignment."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest

from pandorabox.approx import ApproxPolicy, GuaranteeReport
from pandorabox.core import (BoxSpec, ConstraintGraph, DiscreteDistribution, Instance, IntegerBoxes,
                             InvariantError, MatroidSideConstraint, OrderModel, PreOrderIndex, ValidationError,
                             dump_instance, load_instance)
from pandorabox.learning import EmpiricalModel, LearnReport, LearningConfig
from pandorabox.line_solver import LineSolution
from pandorabox.instances import figure1
from pandorabox.oracle import OracleResult, solve_exact
from pandorabox.piecewise import PiecewiseLinear
from pandorabox.strategy import SimulationSummary, ThresholdPolicy, Trajectory
from pandorabox.tree_solver import AnnotatedEntry, AnnotatedLine, TreeSolution

from helpers import MacroBoxPartition

# The fields of every record, in declaration order.
FIELDS = {
    DiscreteDistribution: ["atoms"],
    BoxSpec: ["id", "cost", "reward"],
    ConstraintGraph: ["kind", "edges", "roots"],
    MatroidSideConstraint: ["kind", "weights", "capacity"],
    Instance: ["boxes", "constraint", "side"],
    OrderModel: ["ids", "index", "parent_masks", "children", "weights", "capacity"],
    PreOrderIndex: ["order", "next_position"],
    IntegerBoxes: ["scale", "dens", "costs", "atoms", "grid"],
    MacroBoxPartition: ["boundaries"],
    LineSolution: ["boxes", "zs", "kappas"],
    AnnotatedEntry: ["box_id", "threshold"],
    AnnotatedLine: ["entries"],
    TreeSolution: ["thresholds", "order", "value"],
    ThresholdPolicy: ["thresholds", "tiebreak"],
    Trajectory: ["steps", "net_revenue"],
    SimulationSummary: ["mean", "stddev", "trials", "seed"],
    OracleResult: ["value", "e_max", "e_cost", "grid", "model", "_policy", "_values", "_stops"],
    ApproxPolicy: ["instance", "preorder", "grid", "values", "actions"],
    GuaranteeReport: ["policy_value", "executed_value", "set_margin", "worst_set", "feasible_sets",
                      "benchmark_margin", "oracle_value", "oracle_e_max", "oracle_e_cost"],
    LearningConfig: ["epsilon", "delta", "samples_per_box", "constant"],
    EmpiricalModel: ["counts", "samples_per_box"],
    LearnReport: ["true_opt", "learned_policy_value", "gap", "epsilon", "samples_per_box"],
    PiecewiseLinear: ["xs", "ys", "right_slope"],
}
HOT = (AnnotatedEntry, ThresholdPolicy, PreOrderIndex, OracleResult, IntegerBoxes)

# Two valid field sets that differ in every field, for the records that validate.
VALID = {
    DiscreteDistribution: ({"atoms": ((F(0), F(1, 2)), (F(1), F(1, 2)))}, {"atoms": ((F(2), F(1)),)}),
    LearningConfig: ({"epsilon": F(1, 4), "delta": F(1, 4), "samples_per_box": None, "constant": 1.0},
                     {"epsilon": F(1, 2), "delta": F(1, 3), "samples_per_box": 5, "constant": 2.0}),
    PiecewiseLinear: ({"xs": (F(0), F(1)), "ys": (F(0), F(1)), "right_slope": F(1)},
                      {"xs": (F(0), F(2)), "ys": (F(1), F(1)), "right_slope": F(0)}),
}


def samples(cls) -> tuple[dict, dict]:
    return VALID.get(cls) or tuple({name: (side, name) for name in FIELDS[cls]} for side in "ab")


CLASSES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


@CLASSES
def test_equal_fields_make_equal_records(cls):
    a, _ = samples(cls)
    record = cls(**a)
    assert record == cls(*a.values())
    assert not record != cls(**a)
    assert hash(record) == hash(cls(*a.values()))
    assert record != tuple(a.values())


def test_hash_goes_field_by_field_and_refuses_an_unhashable_field():
    """As with a frozen dataclass: equal records hash alike, and a dict field
    (an ``OrderModel``'s index, an ``Instance``'s side, an ``OracleResult``'s
    policy) makes ``hash`` raise ``TypeError``."""
    @dataclass(frozen=True)
    class Frozen:
        index: dict

    box = BoxSpec("a", F(1), DiscreteDistribution.point(2))
    assert hash(box) == hash(BoxSpec("a", F(1), DiscreteDistribution.point(2))) == hash(box._field_values())
    instance = figure1()
    for record in (Frozen({}), instance, instance.order_model, solve_exact(instance)):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)


@CLASSES
def test_one_different_field_makes_records_unequal(cls):
    a, b = samples(cls)
    for name in FIELDS[cls]:
        assert cls(**{**a, name: b[name]}) != cls(**a), name


@CLASSES
def test_repr_names_every_field(cls):
    a, _ = samples(cls)
    shown = ", ".join(f"{name}={value!r}" for name, value in a.items())
    assert repr(cls(**a)) == f"{cls.__qualname__}({shown})"


@CLASSES
def test_attribute_assignment_is_refused(cls):
    a, b = samples(cls)
    record = cls(**a)
    for name in [*FIELDS[cls], "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, b.get(name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**a)
    assert not hasattr(record, "extra")


@CLASSES
def test_wrong_arguments_raise_type_error(cls):
    a, _ = samples(cls)
    with pytest.raises(TypeError):
        cls(*a.values(), "one too many")
    with pytest.raises(TypeError):
        cls(**a, extra=1)
    with pytest.raises(TypeError):
        cls(*a.values(), **{FIELDS[cls][0]: a[FIELDS[cls][0]]})
    if cls not in (MatroidSideConstraint,):
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("cls", HOT, ids=lambda cls: cls.__name__)
def test_hot_records_have_slots(cls):
    a, _ = samples(cls)
    assert not hasattr(cls(**a), "__dict__")


def test_defaults():
    assert ConstraintGraph("line") == ConstraintGraph("line", (), ())
    assert ConstraintGraph.unconstrained() == ConstraintGraph(kind="unconstrained", edges=(), roots=())
    side = MatroidSideConstraint()
    assert side == MatroidSideConstraint("none", {}, ()) == MatroidSideConstraint.none()
    other = MatroidSideConstraint()
    assert side.weights == {} and side.weights is not other.weights
    instance = Instance((BoxSpec("a", F(1), DiscreteDistribution.point(2)),))
    assert instance.constraint == ConstraintGraph.unconstrained()
    assert instance.side == MatroidSideConstraint.none()
    assert ThresholdPolicy({"a": F(1)}).tiebreak == ()
    config = LearningConfig(F(1, 4), F(1, 4))
    assert config.samples_per_box is None and config.constant == 1.0


def test_validation_at_construction():
    with pytest.raises(ValidationError):
        DiscreteDistribution(())
    with pytest.raises(ValidationError):
        DiscreteDistribution(atoms=((F(0), F(1, 2)),))
    with pytest.raises(ValidationError):
        LearningConfig(epsilon=F(2, 3), delta=F(1, 4))
    with pytest.raises(ValidationError):
        LearningConfig(F(1, 4), F(1))
    with pytest.raises(InvariantError):
        PiecewiseLinear((F(1), F(0)), (F(0), F(0)), F(0))


def test_cached_properties_stay_out_of_equality():
    a, _ = samples(DiscreteDistribution)
    read = DiscreteDistribution(**a)
    read.integer, read.cut_points  # noqa: B018 (fills the caches)
    assert read == DiscreteDistribution(**a)
    assert repr(read) == repr(DiscreteDistribution(**a))


def test_instance_documents_round_trip():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import gen

    for seed in (1, 2, 3):
        for item in gen.tree_solve_pool(seed) + gen.exhaustive_pool(seed):
            instance = load_instance(item["text"])
            assert load_instance(dump_instance(instance)) == instance, item["name"]
