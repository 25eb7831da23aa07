"""Brute-force exact solver over states (opened set, best reward).

Ground truth for the optimality tests: a Bellman DP over bitmask states
with the best-reward grid {0} plus every support value.  A forward pass,
one level of opened-set size at a time, finds the reachable states; a
backward pass from the deepest level solves each of them once.  Works for
any constraint kind including DAGs and matroid side constraints;
deliberately exponential, guarded by explicit caps.  The DP runs on ints
over one common denominator (``core.integer_boxes``, no floats), so every
comparison is exact; ``Fraction``s are built only for reported values.
The best fixed order walks the same forward pass, one backward DP step
(``IntegerBoxes.step``) per distinct suffix of the maximal feasible orders.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import CapExceededError, Instance, IntegerBoxes, OrderModel, Record, integer_boxes

ZERO = Fraction(0)

HARD_BOX_CAP = 20
STATE_ESTIMATE_CAP = 5_000_000
FIXED_ORDER_BOX_CAP = 10
FIXED_ORDER_SEQUENCE_CAP = 250_000


class OracleResult(Record):
    """Optimal value, the optimal Markov policy on visited states, and the
    reward/cost split E[final best] / E[total spend] under that policy.
    ``_values`` holds each visited state's value as the int N of
    N / (L * prod of D_i over its unopened boxes) (``core.integer_boxes``)."""

    __slots__ = ("value", "e_max", "e_cost", "grid", "model", "_policy", "_values")

    def action(self, opened: Sequence[str], best: Fraction) -> str | None:
        """Optimal next box id at this state, or None to stop."""
        choice = self._policy[self.model.mask_of(opened), self.grid.index(best)]
        return None if choice is None else self.model.ids[choice]


def _opened_sets(model: OrderModel, ints: IntegerBoxes, start: int) -> list[list[tuple[int, int, int, list[int]]]]:
    """The opened sets reachable from the empty set (order-closed, within the side),
    by popcount level: (mask, bitset of the grid indices of its best rewards from
    grid index ``start``, r = prod of D_i over its unopened boxes, the boxes that can
    open next in ascending id order).  The best rewards do not depend on the opening
    order: the largest of the start and the boxes' lowest atoms, and every atom above it."""
    n = len(model.ids)
    dens, atoms = ints.dens, ints.atoms
    # Candidate iteration in ascending id order fixes the argmax tie-break.
    by_id = sorted(range(n), key=lambda i: model.ids[i])
    # A set's state: the largest lowest atom (or start) ``low``, its boxes'
    # atoms ``bits``, r, the side load and the boxes with no in-edge or an
    # open parent.  The reachable best rewards are low and the bits above it.
    lowest = [atoms[i][0][0] for i in range(n)]
    atom_bits = [sum(1 << vk for vk, _ in atoms[i]) for i in range(n)]
    child_bits = [sum(1 << c for c in model.children[i]) for i in range(n)]
    roots = sum(1 << i for i, parents in enumerate(model.parent_masks) if not parents)
    level = {0: (start, 0, math.prod(dens), model.empty_load, roots)}
    levels = []
    while level:
        deeper: dict[int, tuple | None] = {}  # None: the set overflows the side
        states = []
        for mask, (low, bits, r, load, allowed) in level.items():
            free, openable = allowed & ~mask, []
            for i in by_id:
                if free >> i & 1:
                    child = mask | 1 << i
                    if child not in deeper:
                        after = model.add(load, i)
                        deeper[child] = None if after is None else (
                            max(low, lowest[i]), bits | atom_bits[i], r // dens[i], after, allowed | child_bits[i])
                    if deeper[child] is not None:
                        openable.append(i)
            states.append((mask, 1 << low | bits >> low + 1 << low + 1, r, openable))
        levels.append(states)
        level = {mask: state for mask, state in deeper.items() if state is not None}
    return levels


def _engine(instance: Instance, initial_best: Fraction, terminal_weight: Fraction = Fraction(1)) -> OracleResult:
    """Bellman DP over (opened set, best reward); stopping with best reward
    y pays ``terminal_weight * y``.  A state's value is an int at the scale
    r = prod of D_i over its unopened boxes.  The backward pass solves the
    levels of :func:`_opened_sets` from the deepest up, each set's openable
    boxes in ascending id order, reading the children's values from per-set
    rows of the level below, dropped once the level is done, so every
    reachable state is solved once."""
    n = instance.n
    if n > HARD_BOX_CAP:
        raise CapExceededError(f"oracle handles at most {HARD_BOX_CAP} boxes, got {n}")
    grid = sorted(set(instance.support_union()) | {initial_best})
    estimate = (1 << n) * len(grid)
    if estimate > STATE_ESTIMATE_CAP:
        raise CapExceededError(
            f"state estimate 2^{n} * {len(grid)} = {estimate} exceeds cap {STATE_ESTIMATE_CAP}"
        )
    model = instance.order_model
    ints = integer_boxes(instance.boxes, grid, terminal_weight)
    costs, dens, atoms, payoff = ints.costs, ints.dens, ints.atoms, ints.payoff
    start, r0 = grid.index(initial_best), math.prod(dens)
    levels = _opened_sets(model, ints, start)

    values: dict[tuple[int, int], int] = {}
    policy: dict[tuple[int, int], int | None] = {}
    rows: dict[int, list] = {}
    while levels:
        below, rows = rows, {}
        for mask, ys, r, openable in levels.pop():
            options = [(i, -costs[i] * r, atoms[i], below[mask | 1 << i]) for i in openable]
            row = rows[mask] = [0] * len(grid)
            while ys:
                bit = ys & -ys
                ys ^= bit
                yk = bit.bit_length() - 1
                best_val = payoff[yk] * r
                best_act: int | None = None
                for i, val, box_atoms, child in options:
                    for vk, a in box_atoms:
                        val += a * child[vk if vk > yk else yk]
                    if val > best_val:
                        best_val = val
                        best_act = i
                key = (mask, yk)
                row[yk] = values[key] = best_val
                policy[key] = best_act
    del rows, below

    reward: dict[tuple[int, int], int] = {}

    def split(mask: int, yk: int, r: int) -> int:
        """N of E[final best] = N / (L * r) under the recorded policy."""
        key = (mask, yk)
        if key in reward:
            return reward[key]
        act = policy[key]
        if act is None:
            rew = ints.grid[yk] * r
        else:
            rew, child, sub = 0, mask | (1 << act), r // dens[act]
            for vk, a in atoms[act]:
                rew += a * split(child, vk if vk > yk else yk, sub)
        reward[key] = rew
        return rew

    total, best = values[0, start], split(0, start, r0)
    del split  # free the memo table by refcount, not by a later cyclic GC pass
    den = ints.scale * r0
    value, e_max = Fraction(total, den), Fraction(best, den)
    # each memo value is w * E[final best] - E[total spend] under the recorded policy
    return OracleResult(value, e_max, terminal_weight * e_max - value, tuple(grid), model, policy, values)


def solve_exact(instance: Instance, initial_best: Fraction = ZERO) -> OracleResult:
    """Optimal adaptive value by exhaustive dynamic programming.

    The policy opens a box only when strictly better than stopping, so at
    indifference it stops; argmax ties go to the smallest box id.
    """
    return _engine(instance, initial_best)


def best_fixed_order(instance: Instance) -> tuple[tuple[str, ...], Fraction]:
    """Best strategy whose exploration order is fixed upfront.

    Every maximal feasible order (the adaptive-stopping value of a prefix
    never beats its extension) opens a maximal set of :func:`_opened_sets`,
    one with no box left to open.  Its orders are built from the back: a box
    may go last when the rest is again such a set.  The backward DP row over
    the best reward (``IntegerBoxes.step``, only at the best rewards reachable
    in front of it) is carried down the search, so each distinct suffix costs
    one step; the front box is solved at best reward 0 alone.  Ties break
    lexicographically on the order.
    """
    n = instance.n
    if n > FIXED_ORDER_BOX_CAP:
        raise CapExceededError(
            f"fixed-order enumeration handles at most {FIXED_ORDER_BOX_CAP} boxes, got {n}"
        )
    ids = instance.order_model.ids
    ints = integer_boxes(instance.boxes, instance.support_union())
    costs, dens, atoms = ints.costs, ints.dens, ints.atoms
    sets = [entry for level in _opened_sets(instance.order_model, ints, 0) for entry in level]
    # each reachable set's best rewards, from 0, as grid indices
    reach = {mask: [k for k in range(len(ints.grid)) if ys >> k & 1] for mask, ys, _, _ in sets}
    best: tuple[int, int, tuple[str, ...]] | None = None  # value N / (L * r) as (N, r), order
    seen = 0

    def place(unplaced: int, suffix: list[int], row: list[int], r: int) -> None:
        """The orders of ``unplaced`` in front of ``suffix``, behind which ``row`` holds the values."""
        nonlocal best, seen
        if not unplaced & (unplaced - 1):  # the front box, at best reward 0
            front = unplaced.bit_length() - 1
            seen += 1
            if seen > FIXED_ORDER_SEQUENCE_CAP:
                raise CapExceededError(f"more than {FIXED_ORDER_SEQUENCE_CAP} feasible orders; instance too loose")
            r *= dens[front]
            value = max(0, sum(a * row[vk] for vk, a in atoms[front]) - costs[front] * r)
            if best is None or value * best[1] >= best[0] * r:
                order = (ids[front], *[ids[i] for i in reversed(suffix)])
                if best is None or value * best[1] > best[0] * r or order < best[2]:
                    best = (value, r, order)
            return
        for i in range(n):
            rest = unplaced & ~(1 << i)
            if rest != unplaced and rest in reach:
                sub = r * dens[i]
                suffix.append(i)
                place(rest, suffix, ints.step(i, row, sub, reach[rest]), sub)
                suffix.pop()

    for mask, _, _, openable in sets:
        if mask and not openable:  # a maximal set
            place(mask, [], ints.payoff, 1)
    if best is None:  # every box overflows the side alone: the empty order
        return (), ZERO
    return best[2], Fraction(best[0], ints.scale * best[1])


def best_half_reward_benchmark(instance: Instance) -> Fraction:
    """sup over all adaptive strategies of E[final best]/2 - E[total cost].

    This is itself a finite MDP (terminal payoff y/2, step cost c), so the
    Bellman recursion attains the sup over every deterministic Markov
    policy exactly.
    """
    return _engine(instance, ZERO, terminal_weight=Fraction(1, 2)).value
