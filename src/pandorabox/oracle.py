"""Brute-force exact solver over states (opened set, best reward).

Ground truth for the optimality tests: a Bellman DP over bitmask states
with the best-reward grid {0} plus every support value.  A forward pass,
one level of opened-set size at a time, finds the reachable states; a
backward pass from the deepest level solves each of them once.  A state
whose best reward is at least every unopened box's Weitzman index
(``core.reservation_scan``) stops without a look at its options:
by Weitzman's rule even the unconstrained problem stops there, and the order
and side constraints only remove options.  A box that unlocks nothing, with
its index strictly below its set's lowest best reward, is not offered there,
and the sets reached only through such openings are neither built nor solved:
skipping the box keeps every later option and saves more than it could add
(Kleinberg, Waggoner & Weyl's amortization).  Works for any constraint kind
including DAGs and matroid side constraints; deliberately exponential,
guarded by explicit caps.  The DP, grid included, runs on ints over one common
denominator (``core.integer_boxes``, no floats), so every comparison is exact;
``Fraction``s are built only for reported values.  The best fixed order walks
the same forward pass, one backward DP step (``IntegerBoxes.step``) per
distinct suffix of the maximal feasible orders.  Every DP here pays the best
reward y on stopping; the half-reward benchmark, which pays y / 2, is half the
optimum of the same instance with every cost doubled.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction

from .core import (BoxSpec, CapExceededError, Instance, IntegerBoxes, OrderModel, Record, describe_rational,
                   integer_boxes, reservation_scan)

ZERO = Fraction(0)

HARD_BOX_CAP = 20
BUILT_CELL_CAP = 5_000_000  # cells of the opened sets built: max(len(grid), side dimension) per set
SCANNED_STATE_CAP = 400_000
FIXED_ORDER_BOX_CAP = 10
FIXED_ORDER_SEQUENCE_CAP = 250_000


class OracleResult(Record):
    """Optimal value, the optimal Markov policy on the reachable states, and
    the reward/cost split E[final best] / E[total spend] under that policy.
    ``_policy`` and ``_values`` hold only the scanned states, those below
    their set's stop index (:func:`_stop_indices`, kept per box in
    ``_stops``); ``_values`` holds each one's value as the int N of
    N / (L * prod of D_i over its unopened boxes) (``core.integer_boxes``)."""

    __slots__ = ("value", "e_max", "e_cost", "grid", "model", "_policy", "_values", "_stops")

    def action(self, opened: Sequence[str], best: Fraction) -> str | None:
        """Optimal next box id at this state, or None to stop: None at any
        state at or above its stop index.  A ``ValueError`` for an unknown or
        repeated id or a best reward off the grid, a ``KeyError`` for another
        state the DP did not solve: one not reachable from the start, or
        reachable only through an opening the oracle proves worse (a box that
        unlocks nothing, below the best reward, see :func:`_opened_sets`)."""
        model, mask = self.model, 0
        for box_id in opened:
            i = model.index.get(box_id)
            if i is None or mask >> i & 1:
                raise ValueError(f"box {box_id!r} is {'unknown' if i is None else 'opened twice'}")
            mask |= 1 << i
        if best not in self.grid:
            raise ValueError(f"best reward {describe_rational(Fraction(best))} is not on the oracle's grid")
        key = mask, self.grid.index(best)
        if key in self._policy:
            choice = self._policy[key]
            return None if choice is None else model.ids[choice]
        if key[1] >= max((h for i, h in enumerate(self._stops) if not mask >> i & 1), default=0):
            return None
        raise KeyError(f"state ({', '.join(opened)}) at best reward {describe_rational(Fraction(best))} "
                       "is not reachable from the solved start, or only through an opening the oracle proves worse")


def _stop_indices(boxes: Sequence[BoxSpec], ints: IntegerBoxes) -> tuple[list[int], list[int]]:
    """Each box's stop index h_i and strict index d_i, both from its Weitzman
    index z (``core.reservation_scan``).  E[(X_i - y)^+] is nonincreasing, and
    strictly decreasing below max X_i, so E[(X_i - y_k)^+] <= c_i exactly when
    y_k >= z, and < c_i exactly when y_k > z and c_i > 0.  h_i is the first grid
    index at or above z (the int ``grid[k]`` = y_k * L at least ceil(z * L)),
    d_i the first strictly above it (``grid[k]`` above floor(z * L)); both are
    ``len(grid)`` (never) for a negative cost, and d_i is for a zero cost too."""
    grid, scale, never = ints.grid, ints.scale, len(ints.grid)
    stops, strict = [], []
    for b in boxes:
        if b.cost < 0:
            stops.append(never)
            strict.append(never)
            continue
        z = reservation_scan(b.reward.integer, b.cost, b.id)
        zl, den = z.numerator * scale, z.denominator
        stops.append(bisect_left(grid, -(-zl // den)))
        strict.append(bisect_right(grid, zl // den) if b.cost else never)
    return stops, strict


def _opened_sets(model: OrderModel, ints: IntegerBoxes, start: int, stops: Sequence[int],
                 strict: Sequence[int]) -> list[list[tuple[int, int, int, int, list[int]]]]:
    """The opened sets reachable from the empty set (order-closed, within the side)
    through openings that are not provably worse, by popcount level: (mask, bitset
    of the grid indices of its best rewards from grid index ``start``, its stop
    index H = the largest ``stops[i]`` over its unopened boxes (0 when none is),
    r = prod of D_i over its unopened boxes, the boxes that can open next in
    ascending id order).  The best rewards do not depend on the opening order: the
    largest of the start and the boxes' lowest atoms, and every atom above it.  A
    set whose lowest best reward is at least H is not expanded (no box can open
    next): every state of it stops.  Box i is not offered from a set whose lowest
    best reward has grid index at least ``strict[i]`` when every child of i can
    already open there: opening it is then strictly worse than every state's value
    (see :func:`solve_exact`).  ``stops`` and ``strict`` of ``[len(grid)] * n`` expand
    every set and offer every box.  Each set built (the root and every child tried,
    overflowing ones too) costs max(len(grid), d) cells, its backward row or its load
    of the side's dimension d; the count passing ``BUILT_CELL_CAP`` is refused before
    the next load is built, and so is the count of the states below each set's stop
    index (those :func:`solve_exact` scans) passing ``SCANNED_STATE_CAP``."""
    n, per_set = len(model.ids), max(len(ints.grid), len(model.capacity))
    dens, atoms = ints.dens, ints.atoms
    # Candidate iteration in ascending id order fixes the argmax tie-break.
    by_id = sorted(range(n), key=lambda i: model.ids[i])
    # H of a set is the stop index of its first unopened box in this order.
    ranked = sorted(((h, i) for i, h in enumerate(stops)), reverse=True)
    # A set's state: the largest lowest atom (or start) ``low``, its boxes'
    # atoms ``bits``, r, the side load and the boxes with no in-edge or an
    # open parent.  The reachable best rewards are low and the bits above it.
    lowest = [atoms[i][0][0] for i in range(n)]
    atom_bits = [sum(1 << vk for vk, _ in atoms[i]) for i in range(n)]
    child_bits = [sum(1 << c for c in model.children[i]) for i in range(n)]
    roots = sum(1 << i for i, parents in enumerate(model.parent_masks) if not parents)
    level = {0: (start, 0, math.prod(dens), model.empty_load, roots)}
    levels, scanned, built = [], 0, per_set
    while level:
        deeper: dict[int, tuple | None] = {}  # None: the set overflows the side
        states = []
        for mask, (low, bits, r, load, allowed) in level.items():
            stop = 0
            for h, i in ranked:
                if not mask >> i & 1:
                    stop = h
                    break
            ys = 1 << low | bits >> low + 1 << low + 1
            scanned += (ys & (1 << stop) - 1).bit_count()
            if scanned > SCANNED_STATE_CAP:
                raise CapExceededError(f"more than {SCANNED_STATE_CAP} states to scan; instance too loose")
            openable = []
            if low < stop:
                free = allowed & ~mask
                for i in by_id:
                    if free >> i & 1 and (low < strict[i] or child_bits[i] & ~allowed):
                        child = mask | 1 << i
                        if child not in deeper:
                            built += per_set
                            if built > BUILT_CELL_CAP:
                                raise CapExceededError(f"more than {BUILT_CELL_CAP} cells to build; instance too large")
                            after = model.add(load, i)
                            deeper[child] = None if after is None else (
                                max(low, lowest[i]), bits | atom_bits[i], r // dens[i], after, allowed | child_bits[i])
                        if deeper[child] is not None:
                            openable.append(i)
            states.append((mask, ys, stop, r, openable))
        levels.append(states)
        level = {mask: state for mask, state in deeper.items() if state is not None}
    return levels


def solve_exact(instance: Instance, initial_best: Fraction = ZERO) -> OracleResult:
    """Optimal adaptive value by exhaustive dynamic programming.

    The policy opens a box only when strictly better than stopping, so at
    indifference it stops; argmax ties go to the smallest box id.

    Bellman DP over (opened set, best reward); stopping with best reward
    y pays y.  A state's value is an int at the scale r = prod of D_i over its
    unopened boxes.  The backward pass solves the levels of
    :func:`_opened_sets` from the deepest up, each set's openable boxes in
    ascending id order, reading the children's values from per-set rows of the
    level below, dropped once the level is done, so every reachable state is
    solved once.  A state at or above its set's stop index
    (:func:`_stop_indices`) is worth ``grid[k] * r`` and is not scanned: with
    best reward y and every unopened box's Weitzman index at most y, no policy
    of the unconstrained problem beats y, and the order and side constraints
    only remove options.  Its row entry is written, and its state is left out
    of ``_values`` and ``_policy``; the start value is read from the root row.
    A box i that :func:`_opened_sets` does not offer (every child already
    openable, E[(X_i - y)^+] < c_i at every best reward y of the set) is
    strictly worse than the state's value: a policy that opens it first is
    beaten by one that samples X_i privately instead, opens the same boxes
    after (i unlocks nothing, and loads only shrink) and saves
    c_i - E[(X_i - y)^+] > 0.  So the first strict argmax never picks it, and
    every value, action, e_max and e_cost is as with it offered.  E[final best]
    is one forward pass of int mass over r0 = prod D_i through the recorded
    policy, level by level from the start.  It raises ``CapExceededError`` over
    ``HARD_BOX_CAP`` boxes or past a cap of :func:`_opened_sets`."""
    n = instance.n
    if n > HARD_BOX_CAP:
        raise CapExceededError(f"oracle handles at most {HARD_BOX_CAP} boxes, got {n}")
    model = instance.order_model
    ints = integer_boxes(instance.boxes, initial_best)
    costs, dens, atoms, pay = ints.costs, ints.dens, ints.atoms, ints.grid
    grid = tuple(Fraction(y, ints.scale) for y in pay)
    start, r0 = grid.index(initial_best), math.prod(dens)
    stops, strict = _stop_indices(instance.boxes, ints)
    levels = _opened_sets(model, ints, start, stops, strict)

    values: dict[tuple[int, int], int] = {}
    policy: dict[tuple[int, int], int | None] = {}
    rows: dict[int, list] = {}
    while levels:
        below, rows = rows, {}
        for mask, ys, stop, r, openable in levels.pop():
            row = rows[mask] = [0] * len(grid)
            scan = ys & (1 << stop) - 1
            ys ^= scan
            while ys:  # the stops
                bit = ys & -ys
                ys ^= bit
                yk = bit.bit_length() - 1
                row[yk] = pay[yk] * r
            if not scan:
                continue
            options = [(i, -costs[i] * r, atoms[i], below[mask | 1 << i]) for i in openable]
            while scan:
                bit = scan & -scan
                scan ^= bit
                yk = bit.bit_length() - 1
                best_val = pay[yk] * r
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
    total = rows[0][start]
    del rows, below

    # E[final best] under the recorded policy: int masses over r0, carried level by level
    best, level = 0, {(0, start): r0}
    while level:
        deeper: dict[tuple[int, int], int] = {}
        for (mask, yk), m in level.items():
            act = policy.get((mask, yk))  # None at a stop, scanned or not
            if act is None:
                best += m * pay[yk]
                continue
            child, m = mask | 1 << act, m // dens[act]
            for vk, a in atoms[act]:
                key = (child, vk if vk > yk else yk)
                deeper[key] = deeper.get(key, 0) + m * a
        level = deeper
    den = ints.scale * r0
    value, e_max = Fraction(total, den), Fraction(best, den)
    # the value is E[final best] - E[total spend] under the recorded policy
    return OracleResult(value, e_max, e_max - value, grid, model, policy, values, stops)


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
    ints = integer_boxes(instance.boxes)
    costs, dens, atoms = ints.costs, ints.dens, ints.atoms
    never = [len(ints.grid)] * n  # every maximal set is needed, so no set stops early and no box is skipped
    sets = [entry for level in _opened_sets(instance.order_model, ints, 0, never, never) for entry in level]
    # each reachable set's best rewards, from 0, as grid indices
    reach = {mask: [k for k in range(len(ints.grid)) if ys >> k & 1] for mask, ys, _, _, _ in sets}
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

    for mask, _, _, _, openable in sets:
        if mask and not openable:  # a maximal set
            place(mask, [], ints.grid, 1)
    if best is None:  # every box overflows the side alone: the empty order
        return (), ZERO
    return best[2], Fraction(best[0], ints.scale * best[1])


def best_half_reward_benchmark(instance: Instance) -> Fraction:
    """sup over all adaptive strategies of E[final best]/2 - E[total cost].

    Over the same policies this is half of sup E[final best] - E[2 * total
    cost], the optimum of the instance with every cost doubled (sharing the
    reward objects and their cached ``integer``), which the Bellman recursion
    attains exactly over every deterministic Markov policy.
    """
    doubled = tuple(BoxSpec(b.id, 2 * b.cost, b.reward) for b in instance.boxes)
    return solve_exact(Instance(doubled, instance.constraint, instance.side)).value / 2
