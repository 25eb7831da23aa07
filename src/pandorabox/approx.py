"""Approximately optimal adaptive strategies for tree constraints combined
with an oblivious side-constraint oracle.

Boxes are laid out in a pre-order of the tree, so the tree information in a
state compresses to "the position currently considered": the descendants of
position i occupy exactly i+1 .. next(i)-1, and skipping a box jumps to
next(i).  The side constraint enters only through a compressed statistic of
the opened set (the oblivious oracle): the weight total for a generalized
knapsack.  A forward pass by position collects the (position, best reward,
oracle state) cells that skip and open moves reach from position 1 with the
empty state and any best reward; the backward sweep computes, for each of
them, the value of the best sweep strategy

    value(i, y, D) = max( y,                                 terminate
                          value(next(i), y, D),              skip subtree
                          -c_i + E[value(i+1, y v X_i, D+i)] open box i )

with value(n+1, y, D) = y; opening box i is a move only when D+i fits the
side.  The recorded action resolves skip chains, so executing the policy
means following open and terminate decisions while tracking (position,
best, oracle state).

The resulting strategy is at least as good as opening any fixed feasible
set, and earns at least half the expected best reward of any adaptive
strategy minus its full expected cost.  The sweep runs on ints over one
common denominator (``core.integer_boxes``, no floats); the table keeps
those ints, and a cell becomes a ``Fraction`` only when it is read.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .core import (
    CAPACITY_FACTOR,
    CapExceededError,
    ExecutionState,
    Instance,
    IntDistribution,
    PreOrderIndex,
    Record,
    ValidationError,
    build_preorder,
    integer_boxes,
    max_sweep,
)
from .line_solver import NOTHING
from .oracle import solve_exact
from .strategy import RewardSampler, Trajectory

ZERO = Fraction(0)

MAX_ORACLE_DIMENSION = 4
TABLE_CELL_CAP = 2_000_000
SET_ENUMERATION_CAP = 12
ORACLE_COMPARISON_CAP = 10


class _ValueTable(Mapping):
    """Read-only view of the int table: cell (i, y, state) holds the
    numerator N of the value N / (L * scale[i])."""

    def __init__(self, cells: dict, den: int, scale: list[int]):
        self._cells, self._den, self._scale = cells, den, scale

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._cells[key], self._den * self._scale[key[0]])

    def __iter__(self):
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


class ApproxPolicy(Record):
    """The DP table and the resolved action map.

    ``values[(i, y_index, state)]`` is the best sweep value from position i
    (a read-only mapping that builds the ``Fraction`` on each read);
    ``actions[...]`` is None to terminate or the position to open next.  The
    oracle state is the side load of ``instance.order_model``.  Only cells a
    run can reach from position 1 with the empty load (at any best reward)
    are kept; reading any other key raises ``KeyError``.  The action
    must be looked up with the state tracked along the run: two histories
    can reach the same (position, best) with different remaining capacity,
    so the state is part of the key.
    """

    instance: Instance
    preorder: PreOrderIndex
    grid: tuple[Fraction, ...]
    values: Mapping
    actions: dict

    @property
    def start_state(self) -> tuple[int, ...]:
        return self.instance.order_model.empty_load

    @property
    def value(self) -> Fraction:
        """Expected net revenue of the policy from a fresh start."""
        return self.values[(1, 0, self.start_state)]


def solve_approx(instance: Instance) -> ApproxPolicy:
    """Backward sweep over the reachable (position, best-reward grid, oracle state) cells."""
    preorder = build_preorder(instance)
    model = instance.order_model
    if len(model.capacity) > MAX_ORACLE_DIMENSION:
        raise CapExceededError(
            f"oracle dimension {len(model.capacity)} exceeds {MAX_ORACLE_DIMENSION}"
        )
    bound = CAPACITY_FACTOR * instance.n
    for cap in model.capacity:
        if cap > bound:
            raise CapExceededError(f"capacity entry {cap} exceeds the {bound} bound")
    grid = instance.support_union()
    n = preorder.n
    cells = (n + 1) * len(grid) * math.prod(cap + 1 for cap in model.capacity)
    if cells > TABLE_CELL_CAP:
        raise CapExceededError(f"table would need {cells} cells, cap is {TABLE_CELL_CAP}")

    boxes = [instance.box_map[b] for b in preorder.order]
    slots = [model.index[b.id] for b in boxes]
    ints = integer_boxes(boxes, grid)
    # a value at position i is N / (L * scale[i]), scale[i] = prod_{j >= i} D_j
    scale = [0] + [math.prod(ints.dens[k:]) for k in range(n + 1)]
    # forward: reach[i] maps each load a run can hold at position i to the
    # grid indices of the best reward it can hold there with that load
    reach: list[dict] = [{} for _ in range(n + 2)]
    reach[1][model.empty_load] = set(range(len(grid)))
    for i in range(1, n + 1):
        nxt, atoms = preorder.next_position[i - 1], ints.atoms[i - 1]
        for state, yks in reach[i].items():
            reach[nxt].setdefault(state, set()).update(yks)
            after_open = model.add(state, slots[i - 1])
            if after_open is not None:
                reach[i + 1].setdefault(after_open, set()).update(
                    vk if vk > yk else yk for yk in yks for vk, _ in atoms)

    values: dict = {}
    actions: dict = {}
    for state, yks in reach[n + 1].items():
        for yk in yks:
            values[(n + 1, yk, state)] = ints.grid[yk]
            actions[(n + 1, yk, state)] = None

    for i in range(n, 0, -1):
        nxt = preorder.next_position[i - 1]
        r, lift = scale[i], scale[i] // scale[nxt]
        cost, atoms = -ints.costs[i - 1] * r, ints.atoms[i - 1]
        for state, yks in reach[i].items():
            after_open = model.add(state, slots[i - 1])
            for yk in yks:
                best, act = ints.grid[yk] * r, None
                if after_open is not None:  # an open that overflows the side is no move
                    open_val = cost
                    for vk, a in atoms:
                        open_val += a * values[(i + 1, vk if vk > yk else yk, after_open)]
                    if open_val > best:
                        best, act = open_val, i
                skip_val = values[(nxt, yk, state)] * lift
                if skip_val > best:
                    best, act = skip_val, actions[(nxt, yk, state)]
                values[(i, yk, state)] = best
                actions[(i, yk, state)] = act
    return ApproxPolicy(
        instance=instance,
        preorder=preorder,
        grid=grid,
        values=_ValueTable(values, ints.scale, scale),
        actions=actions,
    )


def run_approx(instance: Instance, policy: ApproxPolicy, rng_seed: int, trial: int = 0) -> Trajectory:
    """Execute the policy with lazily sampled rewards."""
    sampler = RewardSampler(rng_seed, trial)
    model = instance.order_model
    y_index = {y: k for k, y in enumerate(policy.grid)}
    pos = 1
    y = ZERO
    state = policy.start_state
    spent = ZERO
    steps: list[tuple[str, Fraction]] = []
    opened: list[str] = []
    while True:
        act = policy.actions[(pos, y_index[y], state)]
        if act is None:
            break
        box = instance.box_map[policy.preorder.order[act - 1]]
        reward = sampler.draw(box.reward, len(steps), box.id)
        spent += box.cost
        steps.append((box.id, reward))
        opened.append(box.id)
        if reward > y:
            y = reward
        state = model.add(state, model.index[box.id])
        if state is None:
            raise ValidationError(f"policy opened {box.id!r} into an infeasible state")
        pos = act + 1
    return Trajectory(
        steps=tuple(steps),
        final=ExecutionState(opened=frozenset(opened), best=y, spent=spent),
    )


def exact_policy_value(instance: Instance, policy: ApproxPolicy) -> Fraction:
    """Expected net revenue of the recorded actions, by an independent
    forward pass (no reuse of the DP table's numbers): the states reachable
    from the start are found first, then valued backwards by position, as
    every outcome of opening a box sits at a later position."""
    model = instance.order_model
    y_index = {y: k for k, y in enumerate(policy.grid)}
    start = (1, 0, policy.start_state)
    moves: dict = {}  # state -> (value on stopping or -cost, [(probability, next state)])
    stack = [start]
    while stack:
        key = stack.pop()
        if key in moves:
            continue
        _, yk, state = key
        act = policy.actions[key]
        if act is None:
            moves[key] = (policy.grid[yk], [])
            continue
        box = instance.box_map[policy.preorder.order[act - 1]]
        after = model.add(state, model.index[box.id])
        if after is None:
            raise ValidationError(f"policy opens {box.id!r} into an infeasible state")
        y = policy.grid[yk]
        outcomes = [(p, (act + 1, y_index[v] if v > y else yk, after)) for v, p in box.reward.atoms]
        moves[key] = (-box.cost, outcomes)
        stack.extend(nxt for _, nxt in outcomes)

    value: dict = {}
    for key in sorted(moves, key=lambda k: k[0], reverse=True):
        base, outcomes = moves[key]
        value[key] = base + sum(p * value[nxt] for p, nxt in outcomes)
    return value[start]


class GuaranteeReport(Record):
    policy_value: Fraction
    executed_value: Fraction
    set_margin: Fraction
    worst_set: tuple[str, ...]
    feasible_sets: int
    benchmark_margin: Fraction | None
    oracle_value: Fraction | None
    oracle_e_max: Fraction | None
    oracle_e_cost: Fraction | None


def _enumerate_set_margin(instance: Instance, policy: ApproxPolicy) -> tuple[Fraction, tuple[str, ...], int]:
    """Minimum of (policy value - set value) over every feasible set:
    tree-closed (include a box only under an included parent) and
    side-feasible, walked over the pre-order with include/skip branching.
    The best reward of the chosen prefix is carried on ints, from the point
    mass at 0, by one ``max_sweep`` with each included box's cached
    ``reward.integer``."""
    preorder = policy.preorder
    n = preorder.n
    boxes = [instance.box_map[b] for b in preorder.order]
    model = instance.order_model
    psi_start = policy.value

    best_margin: list = [None]
    worst: list = [()]
    count = [0]

    def walk(pos: int, state, best: IntDistribution, cost: Fraction, chosen: tuple[str, ...]) -> None:
        if pos == n + 1:
            count[0] += 1
            margin = psi_start - (best.expectation() - cost)
            if best_margin[0] is None or margin < best_margin[0]:
                best_margin[0] = margin
                worst[0] = chosen
            return
        walk(preorder.next_position[pos - 1], state, best, cost, chosen)  # skip the whole subtree
        box = boxes[pos - 1]
        after = model.add(state, model.index[box.id])
        if after is not None:
            walk(pos + 1, after, max_sweep([best, box.reward.integer]), cost + box.cost, chosen + (box.id,))

    walk(1, policy.start_state, NOTHING, ZERO, ())
    assert best_margin[0] is not None
    return best_margin[0], worst[0], count[0]


def verify_guarantee(instance: Instance, policy: ApproxPolicy | None = None) -> GuaranteeReport:
    """Check the two guarantees at desk scale.

    (a) the policy value dominates every feasible non-adaptive set
        (exhaustive enumeration), and
    (b) the executed policy earns at least half the optimal strategy's
        expected best reward minus its full expected cost.
    """
    if policy is None:
        policy = solve_approx(instance)
    if instance.n > SET_ENUMERATION_CAP:
        raise CapExceededError(
            f"set enumeration handles at most {SET_ENUMERATION_CAP} boxes, got {instance.n}"
        )
    set_margin, worst_set, n_sets = _enumerate_set_margin(instance, policy)
    executed = exact_policy_value(instance, policy)

    benchmark_margin = None
    oracle_value = None
    e_max = None
    e_cost = None
    if instance.n <= ORACLE_COMPARISON_CAP:
        result = solve_exact(instance)
        oracle_value = result.value
        e_max = result.e_max
        e_cost = result.e_cost
        benchmark_margin = executed - (e_max / 2 - e_cost)
    return GuaranteeReport(
        policy_value=policy.value,
        executed_value=executed,
        set_margin=set_margin,
        worst_set=worst_set,
        feasible_sets=n_sets,
        benchmark_margin=benchmark_margin,
        oracle_value=oracle_value,
        oracle_e_max=e_max,
        oracle_e_cost=e_cost,
    )
