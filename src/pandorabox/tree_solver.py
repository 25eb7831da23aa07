"""Optimal threshold strategies for tree and forest constraints.

Subtrees are solved bottom-up: each solved subtree collapses into a line of
boxes annotated with their thresholds; sibling lines are merged front-first
by decreasing threshold (preserving within-line order), the parent is
prepended and gets its threshold from one extra backward step of the line
DP.  Nodes are solved in reverse pre-order (:func:`.core.build_preorder`),
so every child is solved before its parent.  The roots of a forest are
merged once at the end, and the value is that merged line's value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
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
    # (line key, deque of entries); lines keep their identity while draining.
    pending = [
        (line.entries[0].box_id, deque(line.entries))
        for line in lines
        if line.entries
    ]
    pending.sort(key=lambda item: item[0])
    out: list[AnnotatedEntry] = []
    while pending:
        best = max(range(len(pending)), key=lambda k: pending[k][1][0].threshold)
        # max() keeps the first (smallest line key) among equal thresholds
        out.append(pending[best][1].popleft())
        if not pending[best][1]:
            pending.pop(best)
    return AnnotatedLine(tuple(out))


def solve_tree(instance: Instance) -> TreeSolution:
    """Optimal thresholds, exploration order and value for a line, tree or
    forest instance (unconstrained treated as a forest of singletons)."""
    index = build_preorder(instance)
    # a solved subtree's line and line solution by pre-order position, until
    # its parent (or the final merge of the roots) uses them
    solved: dict[int, tuple[AnnotatedLine, LineSolution]] = {}

    def merged(first: int, stop: int) -> tuple[AnnotatedLine, LineSolution]:
        """Merge the solved subtrees at positions first, next(first), ...
        before stop."""
        kids = []
        while first < stop:
            kids.append(solved.pop(first))
            first = index.next_position[first - 1]
        if not kids:
            return AnnotatedLine(()), solve_line([])
        if len(kids) == 1:
            return kids[0]
        line = merge([kid for kid, _ in kids])
        return line, solve_line([instance.box_map[e.box_id] for e in line.entries])

    for i in range(index.n, 0, -1):
        line, solution = merged(i + 1, index.next_position[i - 1])
        box = instance.box_map[index.order[i - 1]]
        solution = solution.prepend(box)
        solved[i] = (AnnotatedLine((AnnotatedEntry(box.id, solution.zs[0]),) + line.entries), solution)

    line, solution = merged(1, index.n + 1)
    return TreeSolution(
        thresholds={e.box_id: e.threshold for e in line.entries},
        order=line,
        value=solution.value,
    )
