"""Built-in example instances used by the CLI and the acceptance tests."""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    BoxSpec,
    CapExceededError,
    ConstraintGraph,
    ConstraintKind,
    DiscreteDistribution,
    Instance,
    ValidationError,
    describe_rational,
    validate_instance,
)

F = Fraction

# Largest adaptivity-gap line.  The exact rationals gain digits with every
# box, so time grows faster than n^2: --n 2000 / 5000 / 10000 at p = 1/1000
# took 1.1 / 5.9 / 22 s through the CLI on a shared 2-vCPU VM (p = 1/30,
# default n = 4500: 0.6 s).
ADAPTIVITY_GAP_BOX_CAP = 5_000
# Each box adds about the bits of p's numerator and denominator to those
# rationals, so n times that bit length is bounded too, at what p = 1/1000
# with n = 5000 reaches (5000 · (1 + 10)).
ADAPTIVITY_GAP_BIT_CAP = 55_000


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
        raise ValidationError(f"epsilon {describe_rational(epsilon)} outside [5/4, 2)")
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


def adaptivity_gap(p: Fraction = F(1, 10), n: int | None = None) -> Instance:
    """A line of identical boxes (cost 1 - p/2, reward 1/p^2 w.p. p^2) on
    which adaptive search earns about 1/(2p) while every fixed opened set
    earns at most 1/2: the classical adaptivity gap grows like 1/p.

    The default length ceil(5/p^2) makes the finite-horizon adaptive value
    come within 1% of its limit; more than ``ADAPTIVITY_GAP_BOX_CAP`` boxes,
    or n times the bit length of p's numerator plus denominator above
    ``ADAPTIVITY_GAP_BIT_CAP``, raise :class:`CapExceededError` before any
    box is built.
    """
    if not (0 < p < 1):
        raise ValidationError(f"p must be in (0, 1), got {describe_rational(p)}")
    if n is None:
        n = math.ceil(5 / (p * p))
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > ADAPTIVITY_GAP_BOX_CAP:  # a default n can have too many digits to print
        got = n if n < 10**12 else f"about 2^{n.bit_length() - 1}"
        raise CapExceededError(f"adaptivity-gap handles at most {ADAPTIVITY_GAP_BOX_CAP} boxes, got {got}")
    bits = n * (p.numerator.bit_length() + p.denominator.bit_length())
    if bits > ADAPTIVITY_GAP_BIT_CAP:
        raise CapExceededError(
            f"adaptivity-gap handles at most {ADAPTIVITY_GAP_BIT_CAP} box-bits (n times the bit "
            f"length of p's numerator plus denominator), got {bits}"
        )
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

