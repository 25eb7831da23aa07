"""Built-in example instances used by the CLI and the acceptance tests."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .core import (
    BoxSpec,
    ConstraintGraph,
    ConstraintKind,
    DiscreteDistribution,
    Instance,
    MatroidSideConstraint,
    ValidationError,
    validate_instance,
)

F = Fraction


def _coin(hi, p=F(1, 2)) -> DiscreteDistribution:
    return DiscreteDistribution.of([(F(hi), p), (F(0), 1 - p)])


def figure1(epsilon: Fraction = F(3, 2)) -> Instance:
    """Four boxes on a diamond DAG whose optimal exploration order is not
    fixed: after the free root A, the optimal second box is B when A pays
    off and C when it does not, so no fixed-order strategy is optimal.

    B is a sure reward behind the cheaper toll; C is a copy of A's lottery
    behind a slightly larger toll.  Valid for epsilon in [5/4, 2); the toll
    scale shrinks as epsilon grows.
    """
    if not (F(5, 4) <= epsilon < 2):
        raise ValidationError(f"epsilon {epsilon} outside [5/4, 2)")
    toll = 1 - epsilon / 2
    boxes = (
        BoxSpec("A", F(0), _coin(F(5, 2))),
        BoxSpec("B", F(9, 10) * toll, DiscreteDistribution.point(2)),
        BoxSpec("C", toll, _coin(F(5, 2))),
        BoxSpec("D", F(0), _coin(6)),
    )
    constraint = ConstraintGraph(
        kind=ConstraintKind.DAG,
        edges=(("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")),
        roots=("A",),
    )
    return validate_instance(Instance(boxes=boxes, constraint=constraint))


def figure1_tree_matroid(epsilon: Fraction = F(3, 2)) -> Instance:
    """Tree variant of :func:`figure1`: the shared sink is split into two
    copies E and F (one per branch) and a cardinality-4 side constraint
    keeps at most one of them reachable in any feasible set."""
    base = figure1(epsilon)
    a, b, c, d = base.boxes
    boxes = (
        a,
        b,
        c,
        BoxSpec("E", d.cost, d.reward),
        BoxSpec("F", d.cost, d.reward),
    )
    constraint = ConstraintGraph(
        kind=ConstraintKind.TREE,
        edges=(("A", "B"), ("A", "C"), ("B", "E"), ("C", "F")),
        roots=("A",),
    )
    side = MatroidSideConstraint.knapsack({box.id: (1,) for box in boxes}, (4,))
    return validate_instance(Instance(boxes=boxes, constraint=constraint, side=side))


def adaptivity_gap(p: Fraction = F(1, 10), n: Optional[int] = None) -> Instance:
    """A line of identical boxes (cost 1 - p/2, reward 1/p^2 w.p. p^2) on
    which adaptive search earns about 1/(2p) while every fixed opened set
    earns at most 1/2: the classical adaptivity gap grows like 1/p.

    The default length makes the finite-horizon adaptive value come within
    1% of its limit.
    """
    if not (0 < p < 1):
        raise ValidationError(f"p must be in (0, 1), got {p}")
    if n is None:
        n = math.ceil(5 / (p * p))
    if n < 1:
        raise ValidationError("n must be >= 1")
    width = len(str(n - 1))
    reward = DiscreteDistribution.of([(1 / (p * p), p * p), (F(0), 1 - p * p)])
    cost = 1 - p / 2
    boxes = tuple(BoxSpec(f"b{i:0{width}d}", cost, reward) for i in range(n))
    edges = tuple((boxes[i].id, boxes[i + 1].id) for i in range(n - 1))
    kind = ConstraintKind.LINE if n > 1 else ConstraintKind.UNCONSTRAINED
    return validate_instance(Instance(boxes=boxes, constraint=ConstraintGraph(kind, edges)))


def guard_line() -> Instance:
    """Two boxes in a line: a costly box with no reward guarding a free box
    with a sure reward.  The guard's threshold reflects the whole suffix."""
    boxes = (
        BoxSpec("g1", F(1), DiscreteDistribution.point(0)),
        BoxSpec("g2", F(0), DiscreteDistribution.point(2)),
    )
    constraint = ConstraintGraph(ConstraintKind.LINE, (("g1", "g2"),))
    return validate_instance(Instance(boxes=boxes, constraint=constraint))

