"""Brute-force exact solver over states (opened set, best reward).

Ground truth for the optimality tests: memoized Bellman recursion over
bitmask states with the best-reward grid {0} plus every support value.
Works for any constraint kind including DAGs and matroid side constraints;
deliberately exponential, guarded by explicit caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import CapExceededError, Instance, OrderModel, feasible_next
from .line_solver import line_optimal_value

ZERO = Fraction(0)

HARD_BOX_CAP = 20
STATE_ESTIMATE_CAP = 5_000_000
FIXED_ORDER_BOX_CAP = 10
FIXED_ORDER_SEQUENCE_CAP = 250_000


@dataclass(frozen=True)
class OracleResult:
    """Optimal value, the optimal Markov policy on visited states, and the
    reward/cost split E[final best] / E[total spend] under that policy."""

    value: Fraction
    e_max: Fraction
    e_cost: Fraction
    grid: tuple[Fraction, ...]
    model: OrderModel
    _policy: dict[tuple[int, int], Optional[int]]
    _values: dict[tuple[int, int], Fraction]

    def _key(self, opened: Sequence[str], best: Fraction) -> tuple[int, int]:
        return self.model.mask_of(opened), self.grid.index(best)

    def action(self, opened: Sequence[str], best: Fraction) -> Optional[str]:
        """Optimal next box id at this state, or None to stop."""
        choice = self._policy[self._key(opened, best)]
        return None if choice is None else self.model.ids[choice]

    def value_at(self, opened: Sequence[str], best: Fraction) -> Fraction:
        return self._values[self._key(opened, best)]


def _engine(instance: Instance, initial_best: Fraction, terminal_weight: Fraction = Fraction(1)) -> OracleResult:
    """Memoized Bellman recursion over (opened set, best reward); stopping
    with best reward y pays ``terminal_weight * y``."""
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
    boxes = instance.boxes
    y_index = {y: k for k, y in enumerate(grid)}
    payoff = [terminal_weight * y for y in grid]
    atom_indices = [
        [(y_index[v], v, p) for v, p in b.reward.atoms] for b in boxes
    ]
    # Candidate iteration in ascending id order fixes the argmax tie-break.
    by_id = sorted(range(n), key=lambda i: model.ids[i])

    values: dict[tuple[int, int], Fraction] = {}
    policy: dict[tuple[int, int], Optional[int]] = {}

    def solve(mask: int, yk: int, load: tuple[int, ...]) -> Fraction:
        key = (mask, yk)
        cached = values.get(key)
        if cached is not None:
            return cached
        y = grid[yk]
        best_val = payoff[yk]
        best_act: Optional[int] = None
        for i in by_id:
            after = model.try_open(mask, load, i)
            if after is None:
                continue
            val = -boxes[i].cost
            child = mask | (1 << i)
            for vk, v, p in atom_indices[i]:
                val += p * solve(child, vk if v > y else yk, after)
            if val > best_val:
                best_val = val
                best_act = i
        values[key] = best_val
        policy[key] = best_act
        return best_val

    start = (0, y_index[initial_best])
    total = solve(*start, model.empty_load)

    reward_part: dict[tuple[int, int], Fraction] = {}
    cost_part: dict[tuple[int, int], Fraction] = {}

    def split(mask: int, yk: int) -> tuple[Fraction, Fraction]:
        key = (mask, yk)
        if key in reward_part:
            return reward_part[key], cost_part[key]
        act = policy[key]
        if act is None:
            rew, cost = grid[yk], ZERO
        else:
            rew = ZERO
            cost = boxes[act].cost
            child = mask | (1 << act)
            for vk, v, p in atom_indices[act]:
                r, c = split(child, vk if v > grid[yk] else yk)
                rew += p * r
                cost += p * c
        reward_part[key] = rew
        cost_part[key] = cost
        return rew, cost

    e_max, e_cost = split(*start)
    return OracleResult(
        value=total,
        e_max=e_max,
        e_cost=e_cost,
        grid=tuple(grid),
        model=model,
        _policy=policy,
        _values=values,
    )


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
    best: Optional[tuple[tuple[str, ...], Fraction]] = None
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
