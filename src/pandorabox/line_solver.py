"""Exact dynamic program for line-constrained instances.

The value of being in front of box ``i`` with best reward ``x`` satisfies

    V(x, n+1) = x
    V(x, i)   = max(x, -c_i + E[V(max(x, X_i), i+1)])

Each ``V(., i)`` is nondecreasing, 1-Lipschitz and piecewise linear, so it is
represented exactly (:mod:`.piecewise`).  The threshold of box ``i`` is the
smallest fixed point of ``V(., i)``; it can sit strictly between support
values (the fixed point of a later level is itself a breakpoint), which is
why the representation carries breakpoints instead of a fixed support grid.
Thresholds can be negative when a prefix is cost-dominated; they are kept
(the executor simply never opens such a box from a nonnegative best).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import BoxSpec, ValidationError
from .piecewise import PiecewiseLinear

ZERO = Fraction(0)


@dataclass(frozen=True)
class ValueTable:
    """Tabulated optimal values V(x, i) for i = 1..n+1 on a common grid.

    The grid is {0}, every support value and every breakpoint discovered
    while solving; above the grid V(x, i) = x.
    """

    grid: tuple[Fraction, ...]
    levels: tuple[PiecewiseLinear, ...]  # levels[i-1] is V(., i)

    def at(self, x: Fraction, i: int) -> Fraction:
        """V(x, i) for any x >= 0 (1-based i, i = n+1 is the horizon)."""
        return self.levels[i - 1](x)


@dataclass(frozen=True)
class ThresholdTable:
    """Per-box thresholds z_i and dependence horizons d(i).

    d(i) is the first t >= i with z_{t+1} < z_i, or n when no later
    threshold drops below z_i; z_i depends only on boxes i..d(i).
    """

    thresholds: tuple[Fraction, ...]
    horizons: tuple[int, ...]


@dataclass(frozen=True)
class MacroBoxPartition:
    """Leader indices of the maximal runs whose thresholds stay above the
    run leader's threshold (1-based, always starts at 1)."""

    boundaries: tuple[int, ...]


@dataclass(frozen=True)
class LineSolution:
    """What the backward recursion produces for a line: its boxes, the
    levels V(., 1..n+1) and the thresholds z_1..z_n.  The value table and
    the threshold table are derived from these once, on first read."""

    boxes: tuple[BoxSpec, ...]
    levels: tuple[PiecewiseLinear, ...]  # levels[i-1] is V(., i)
    zs: tuple[Fraction, ...]

    @property
    def value(self) -> Fraction:
        """Optimal expected net revenue starting fresh (V(0, 1))."""
        return self.levels[0](ZERO)

    @cached_property
    def value_table(self) -> ValueTable:
        return _build_table(self.boxes, self.levels)

    @cached_property
    def thresholds(self) -> ThresholdTable:
        return ThresholdTable(self.zs, _horizons(self.zs))

    def prepend(self, box: BoxSpec) -> "LineSolution":
        """Solution of [box] + line: one backward step over this suffix."""
        z, phi = _backward_step(self.levels[0], box)
        return LineSolution((box,) + self.boxes, (phi,) + self.levels, (z,) + self.zs)


def _backward_step(next_level: PiecewiseLinear, box: BoxSpec) -> tuple[Fraction, PiecewiseLinear]:
    continue_value = next_level.expectation_of_max(box.reward).shift(-box.cost)
    z = continue_value.smallest_fixed_point()
    return z, continue_value.max_with_identity(fixed_point=z)


def _horizons(thresholds: Sequence[Fraction]) -> tuple[int, ...]:
    n = len(thresholds)
    out = []
    for i in range(1, n + 1):
        d = n
        for t in range(i, n):
            if thresholds[t] < thresholds[i - 1]:  # z_{t+1} < z_i, 1-based
                d = t
                break
        out.append(d)
    return tuple(out)


def _build_table(boxes: Sequence[BoxSpec], levels: tuple[PiecewiseLinear, ...]) -> ValueTable:
    grid = {ZERO}
    for box in boxes:
        grid.update(box.reward.values())
    for level in levels:
        grid.update(level.xs)
    return ValueTable(grid=tuple(sorted(grid)), levels=levels)


def solve_line(boxes: Sequence[BoxSpec]) -> LineSolution:
    """Solve the backward recursion; exact levels and thresholds."""
    solution = LineSolution((), (PiecewiseLinear.identity(),), ())
    for box in reversed(boxes):
        solution = solution.prepend(box)
    return solution


def compute_threshold(box: BoxSpec, line: Sequence[BoxSpec]) -> Fraction:
    """Threshold box would get as a prefix of ``line`` (one extra backward
    step over the line's levels)."""
    return solve_line(line).prepend(box).zs[0]


def macro_partition(thresholds: ThresholdTable) -> MacroBoxPartition:
    """Leader indices: after j, the next leader is the first index whose
    threshold does not exceed the threshold at j."""
    z = thresholds.thresholds
    if not z:
        raise ValidationError("cannot partition an empty threshold table")
    boundaries = [1]
    for j in range(2, len(z) + 1):
        if z[j - 1] <= z[boundaries[-1] - 1]:
            boundaries.append(j)
    return MacroBoxPartition(tuple(boundaries))


def line_optimal_value(boxes: Sequence[BoxSpec]) -> Fraction:
    """Optimal expected net revenue of a line without threshold extraction.

    Values are only ever queried at observed-max points, so a DP restricted
    to {0} plus the support union is exact.  Cheaper than
    :func:`solve_line` for long lines.
    """
    grid = {ZERO}
    for box in boxes:
        grid.update(box.reward.values())
    points = sorted(grid)
    current = {y: y for y in points}
    for box in reversed(boxes):
        nxt = {}
        for y in points:
            cont = -box.cost
            for v, p in box.reward.atoms:
                cont += p * current[v if v > y else y]
            nxt[y] = cont if cont > y else y
        current = nxt
    return current[ZERO]
