"""Optimal threshold strategies for tree and forest constraints.

A solved subtree is its capped value kappa (see :mod:`.line_solver`): the
value of being in front of it with best reward x is E[max(x, kappa)].
Sibling subtrees are independent, so a box whose children have capped
values kappa_1..kappa_k sees W = max(X_b, kappa_1, ..., kappa_k), a product
of CDFs, and one capped-value step gives its threshold and its own kappa.
Nothing is ever re-solved.  Nodes are solved in reverse pre-order
(:func:`.core.build_preorder`), so every child is solved before its parent.
A forest's value is E[max(0, kappa_root1, ...)].  The exploration order of
a subtree is its root followed by its children's orders merged front-first
by decreasing threshold (preserving within-line order).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .core import DiscreteDistribution, Instance, ValidationError, build_preorder, max_distribution
from .line_solver import capped_step, solve_line  # noqa: F401 (an alias bench/selftest.py traces)


@dataclass(frozen=True)
class AnnotatedEntry:
    box_id: str
    threshold: Fraction


@dataclass(frozen=True)
class AnnotatedLine:
    """A linearized subtree: box ids in exploration order with the
    thresholds they received inside that subtree."""

    entries: tuple[AnnotatedEntry, ...]

    def ids(self) -> tuple[str, ...]:
        return tuple(e.box_id for e in self.entries)


@dataclass(frozen=True)
class TreeSolution:
    thresholds: dict[str, Fraction]
    order: AnnotatedLine
    value: Fraction


def merge(lines: Sequence[AnnotatedLine]) -> AnnotatedLine:
    """Merge lines by repeatedly popping the front entry with the largest
    threshold; ties go to the line whose first box id is smallest.

    Within-line order is preserved even when thresholds inside a line are
    non-monotone, which is exactly how the threshold executor would
    interleave the lines at runtime.
    """
    seen: set[str] = set()
    for line in lines:
        for entry in line.entries:
            if entry.box_id in seen:
                raise ValidationError(f"duplicate box id {entry.box_id!r} across merged lines")
            seen.add(entry.box_id)
    ordered = sorted((line.entries for line in lines if line.entries), key=lambda es: es[0].box_id)
    # heapq.merge pops the largest front key and breaks ties by input position
    return AnnotatedLine(tuple(heapq.merge(*ordered, key=attrgetter("threshold"), reverse=True)))


def solve_tree(instance: Instance) -> TreeSolution:
    """Optimal thresholds, exploration order and value for a line, tree or
    forest instance (unconstrained treated as a forest of singletons)."""
    index = build_preorder(instance)
    # capped value and order of each solved subtree, by pre-order position
    solved: dict[int, tuple[DiscreteDistribution, AnnotatedLine]] = {}

    def pop_subtrees(first: int, stop: int) -> tuple[list[DiscreteDistribution], AnnotatedLine]:
        """Capped values and merged orders of the subtrees at first, next(first), ... < stop."""
        kappas, lines = [], []
        while first < stop:
            kappa, line = solved.pop(first)
            kappas.append(kappa)
            lines.append(line)
            first = index.next_position[first - 1]
        return kappas, lines[0] if len(lines) == 1 else merge(lines)

    for i in range(index.n, 0, -1):
        box = instance.box_map[index.order[i - 1]]
        kappas, line = pop_subtrees(i + 1, index.next_position[i - 1])
        z, kappa = capped_step(box, kappas)
        solved[i] = kappa, AnnotatedLine((AnnotatedEntry(box.id, z),) + line.entries)

    kappas, order = pop_subtrees(1, index.n + 1)
    return TreeSolution(
        thresholds={e.box_id: e.threshold for e in order.entries},
        order=order,
        value=max_distribution(kappas).expectation(),
    )
