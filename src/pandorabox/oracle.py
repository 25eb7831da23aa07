"""Brute-force exact solver over states (opened set, best reward).

Ground truth for the optimality tests: memoized Bellman recursion over
bitmask states with the best-reward grid {0} plus every support value.
Works for any constraint kind including DAGs and matroid side constraints;
deliberately exponential, guarded by explicit caps.  The recursion runs on
ints over one common denominator (``core.integer_boxes``, no floats), so
every comparison is exact; ``Fraction``s are built only for reported values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import CapExceededError, Instance, Record, feasible_next, integer_boxes
from .line_solver import line_optimal_value

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


def _engine(instance: Instance, initial_best: Fraction, terminal_weight: Fraction = Fraction(1)) -> OracleResult:
    """Memoized Bellman recursion over (opened set, best reward); stopping
    with best reward y pays ``terminal_weight * y``.  A state's value is an
    int at the scale r = prod of D_i over its unopened boxes."""
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
    # Candidate iteration in ascending id order fixes the argmax tie-break.
    by_id = sorted(range(n), key=lambda i: model.ids[i])

    values: dict[tuple[int, int], int] = {}
    policy: dict[tuple[int, int], int | None] = {}

    def solve(mask: int, yk: int, load: tuple[int, ...], r: int) -> int:
        key = (mask, yk)
        cached = values.get(key)
        if cached is not None:
            return cached
        best_val = payoff[yk] * r
        best_act: int | None = None
        for i in by_id:
            after = model.try_open(mask, load, i)
            if after is None:
                continue
            val = -costs[i] * r
            child, sub = mask | (1 << i), r // dens[i]
            for vk, a in atoms[i]:
                val += a * solve(child, vk if vk > yk else yk, after, sub)
            if val > best_val:
                best_val = val
                best_act = i
        values[key] = best_val
        policy[key] = best_act
        return best_val

    start, r0 = (0, grid.index(initial_best)), math.prod(dens)
    total = solve(*start, model.empty_load, r0)

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

    best = split(*start, r0)
    del solve, split  # free the memo tables by refcount, not by a later cyclic GC pass
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

    Enumerates every maximal feasible order (the adaptive-stopping value of
    a prefix never beats its extension) and scores each with a 1-D DP over
    (position, best reward).  Ties break lexicographically on the order.
    """
    if instance.n > FIXED_ORDER_BOX_CAP:
        raise CapExceededError(
            f"fixed-order enumeration handles at most {FIXED_ORDER_BOX_CAP} boxes, got {instance.n}"
        )
    best: tuple[tuple[str, ...], Fraction] | None = None
    seen = 0

    def extend(opened: list[str]) -> None:
        nonlocal best, seen
        candidates = feasible_next(instance, opened)
        if not candidates:
            seen += 1
            if seen > FIXED_ORDER_SEQUENCE_CAP:
                raise CapExceededError(
                    f"more than {FIXED_ORDER_SEQUENCE_CAP} feasible orders; instance too loose"
                )
            value = line_optimal_value([instance.box_map[b] for b in opened])
            order = tuple(opened)
            if best is None or value > best[1] or (value == best[1] and order < best[0]):
                best = (order, value)
            return
        for box_id in sorted(candidates):
            opened.append(box_id)
            extend(opened)
            opened.pop()

    extend([])
    assert best is not None
    return best


def best_half_reward_benchmark(instance: Instance) -> Fraction:
    """sup over all adaptive strategies of E[final best]/2 - E[total cost].

    This is itself a finite MDP (terminal payoff y/2, step cost c), so the
    Bellman recursion attains the sup over every deterministic Markov
    policy exactly.
    """
    return _engine(instance, ZERO, terminal_weight=Fraction(1, 2)).value
