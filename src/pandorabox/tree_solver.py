"""Optimal threshold strategies for tree and forest constraints.

Subtrees are solved bottom-up: each solved subtree collapses into a line of
boxes annotated with their thresholds; sibling lines are merged front-first
by decreasing threshold (preserving within-line order), the parent is
prepended and gets its threshold from one extra backward step of the line
DP.  A forest gains a zero-cost zero-reward dummy root, which is excluded
from the reported thresholds and order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    BoxSpec,
    ConstraintGraph,
    ConstraintKind,
    DiscreteDistribution,
    DUMMY_ROOT_ID,
    Instance,
    UnsupportedConstraintError,
    ValidationError,
)
from .line_solver import LineSolution, solve_line

ZERO = Fraction(0)


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


def _forest_to_tree(instance: Instance) -> tuple[Instance, bool]:
    """Attach a dummy root to forest/unconstrained instances."""
    kind = instance.constraint.kind
    if kind in (ConstraintKind.TREE, ConstraintKind.LINE):
        return instance, False
    if kind not in (ConstraintKind.FOREST, ConstraintKind.UNCONSTRAINED):
        raise UnsupportedConstraintError(
            f"tree solver handles line/tree/forest constraints, not {kind!r}"
        )
    parents = instance.constraint.parents()
    roots = [b.id for b in instance.boxes if b.id not in parents]
    dummy = BoxSpec(DUMMY_ROOT_ID, ZERO, DiscreteDistribution.point(0))
    edges = tuple(instance.constraint.edges) + tuple(
        (DUMMY_ROOT_ID, r) for r in roots
    )
    tree = Instance(
        boxes=(dummy,) + instance.boxes,
        constraint=ConstraintGraph(kind=ConstraintKind.TREE, edges=edges),
        side=instance.side,
    )
    return tree, True


def solve_tree(instance: Instance) -> TreeSolution:
    """Optimal thresholds, exploration order and value for a line, tree or
    forest instance (unconstrained treated as a forest of singletons)."""
    tree, has_dummy = _forest_to_tree(instance)
    children_map = tree.constraint.children()
    parents_map = {c: p for p, cs in tree.constraint.children().items() for c in cs}
    remaining = {b.id: len(children_map.get(b.id, ())) for b in tree.boxes}

    # a solved subtree's line and line solution, until its parent uses them
    solved: dict[str, tuple[AnnotatedLine, LineSolution]] = {}
    queue = deque(b.id for b in tree.boxes if remaining[b.id] == 0)
    root_id = next(b.id for b in tree.boxes if b.id not in parents_map)

    processed = 0
    while queue:
        node = queue.popleft()
        processed += 1
        kids = [solved.pop(k) for k in children_map.get(node, ())]
        if not kids:
            merged_line = AnnotatedLine(())
            merged_solution = solve_line([])
        elif len(kids) == 1:
            merged_line, merged_solution = kids[0]
        else:
            merged_line = merge([line for line, _ in kids])
            merged_solution = solve_line([tree.box_map[e.box_id] for e in merged_line.entries])
        solution = merged_solution.prepend(tree.box_map[node])
        line = AnnotatedLine((AnnotatedEntry(node, solution.zs[0]),) + merged_line.entries)
        solved[node] = (line, solution)
        parent = parents_map.get(node)
        if parent is not None:
            remaining[parent] -= 1
            if remaining[parent] == 0:
                queue.append(parent)
    if processed != tree.n:
        raise ValidationError("constraint contains a cycle")  # pragma: no cover

    full_line, full_solution = solved[root_id]
    entries = full_line.entries[1:] if has_dummy else full_line.entries
    return TreeSolution(
        thresholds={e.box_id: e.threshold for e in entries},
        order=AnnotatedLine(entries),
        value=full_solution.value,
    )
