"""Optimal threshold strategies for tree and forest constraints.

Subtrees are solved bottom-up, and a solved subtree is the line solution of
its linearized boxes.  A box's threshold depends only on its own subtree, so
sibling lines are merged front-first by decreasing threshold (preserving
within-line order) and the merged line, re-solved, gives every box back the
threshold it had; the parent is prepended and gets its threshold from one
extra backward step.  Nodes are solved in reverse pre-order
(:func:`.core.build_preorder`), so every child is solved before its parent.
The roots of a forest are merged once at the end, and the value is that
merged line's value.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .core import Instance, ValidationError, build_preorder
from .line_solver import LineSolution, solve_line


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


def _annotated(solution: LineSolution) -> AnnotatedLine:
    return AnnotatedLine(tuple(map(AnnotatedEntry, (b.id for b in solution.boxes), solution.zs)))


def solve_tree(instance: Instance) -> TreeSolution:
    """Optimal thresholds, exploration order and value for a line, tree or
    forest instance (unconstrained treated as a forest of singletons)."""
    index = build_preorder(instance)
    # a solved subtree's line solution by pre-order position, until its
    # parent (or the final merge of the roots) uses it
    solved: dict[int, LineSolution] = {}

    def merged(first: int, stop: int) -> LineSolution:
        """Merge the solved subtrees at positions first, next(first), ...
        before stop, and re-solve the merged line: every box keeps the
        threshold it got inside its own subtree."""
        kids = []
        while first < stop:
            kids.append(solved.pop(first))
            first = index.next_position[first - 1]
        if len(kids) == 1:
            return kids[0]
        line = merge([_annotated(kid) for kid in kids])
        return solve_line([instance.box_map[e.box_id] for e in line.entries])

    for i in range(index.n, 0, -1):
        box = instance.box_map[index.order[i - 1]]
        solved[i] = merged(i + 1, index.next_position[i - 1]).prepend(box)

    root = merged(1, index.n + 1)
    order = _annotated(root)
    return TreeSolution(
        thresholds={e.box_id: e.threshold for e in order.entries},
        order=order,
        value=root.value,
    )
