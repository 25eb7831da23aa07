"""Optimal threshold strategies for tree and forest constraints.

A solved subtree is its capped value kappa (see :mod:`.line_solver`): the
value of being in front of it with best reward x is E[max(x, kappa)].
Sibling subtrees are independent, so a box whose children have capped
values kappa_1..kappa_k sees W = max(X_b, kappa_1, ..., kappa_k), a product
of CDFs, and one capped-value step gives its threshold and its own kappa.
The kappa's are carried on ints (int probability numerators over one
denominator, int value keys over one scale); no float is used.
Nodes are solved in reverse pre-order (:func:`.core.build_preorder`), so
every child is solved before its parent.  A forest's value is
E[max(0, kappa_root1, ...)].  The exploration order is the executor's own
greedy (:func:`.strategy.fixed_opening_order`, ties by pre-order position),
so the solution is by construction the policy that runs.  DAGs and side
constraints are refused: the problem is NP-hard there.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from fractions import Fraction
from operator import attrgetter

from .core import (ConstraintKind, Instance, IntDistribution, MatroidSideConstraint, Record,
                   UnsupportedConstraintError, ValidationError, build_preorder, max_sweep, setfield)
from .line_solver import capped_step, solve_line  # noqa: F401 (an alias bench/selftest.py traces)
from .strategy import ThresholdPolicy, fixed_opening_order


class AnnotatedEntry(Record):
    __slots__ = ("box_id", "threshold")

    def __init__(self, box_id: str, threshold: Fraction) -> None:
        setfield(self, "box_id", box_id)
        setfield(self, "threshold", threshold)


class AnnotatedLine(Record):
    """An exploration order: box ids with their thresholds, in the order
    the threshold executor opens them."""

    entries: tuple[AnnotatedEntry, ...]

    def ids(self) -> tuple[str, ...]:
        return tuple(e.box_id for e in self.entries)


class TreeSolution(Record):
    thresholds: dict[str, Fraction]
    order: AnnotatedLine
    value: Fraction


def merge(lines: Sequence[AnnotatedLine]) -> AnnotatedLine:
    """The reference's nested merge, kept for tracing: repeatedly pop the
    front entry with the largest threshold; ties go to the line whose first
    box id is smallest.  Within-line order is preserved."""
    seen: set[str] = set()
    for entry in (e for line in lines for e in line.entries):
        if entry.box_id in seen:
            raise ValidationError(f"duplicate box id {entry.box_id!r} across merged lines")
        seen.add(entry.box_id)
    ordered = sorted((line.entries for line in lines if line.entries), key=lambda es: es[0].box_id)
    # heapq.merge pops the largest front key and breaks ties by input position
    return AnnotatedLine(tuple(heapq.merge(*ordered, key=attrgetter("threshold"), reverse=True)))


def solve_tree(instance: Instance) -> TreeSolution:
    """Optimal thresholds, exploration order and value for a line, tree or
    forest instance without a side constraint (unconstrained treated as a
    forest of singletons)."""
    if instance.constraint.kind == ConstraintKind.DAG:
        raise UnsupportedConstraintError("no optimal threshold strategy exists for DAG constraints; "
                                         "use the 'oracle' command for exact small-instance values")
    if instance.side.kind != MatroidSideConstraint.NONE:
        raise UnsupportedConstraintError(f"no optimal threshold strategy exists under a {instance.side.kind} "
                                         "side constraint; use the 'approx' or 'oracle' command")
    index = build_preorder(instance)
    kappas: dict[int, IntDistribution] = {}  # capped value of each solved subtree, by pre-order position
    z: dict[str, Fraction] = {}

    def pop_subtrees(first: int, stop: int) -> list[IntDistribution]:
        """Capped values of the subtrees at first, next(first), ... < stop."""
        popped = []
        while first < stop:
            popped.append(kappas.pop(first))
            first = index.next_position[first - 1]
        return popped

    for i in range(index.n, 0, -1):
        box = instance.box_map[index.order[i - 1]]
        z[box.id], kappas[i] = capped_step(box, pop_subtrees(i + 1, index.next_position[i - 1]))

    order = fixed_opening_order(instance, ThresholdPolicy(z, index.order))
    line = AnnotatedLine(tuple(AnnotatedEntry(b, z[b]) for b in order))
    value = max_sweep(pop_subtrees(1, index.n + 1)).expectation()
    return TreeSolution(thresholds={b: z[b] for b in order}, order=line, value=value)
