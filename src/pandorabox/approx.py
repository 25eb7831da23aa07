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
common denominator (``core.integer_boxes``, no floats), in one value row and
one action row over the grid per reached (position, load); opening is
``IntegerBoxes.step``, and a cell becomes a ``Fraction`` only when it is read.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

from .core import (
    CAPACITY_FACTOR,
    CapExceededError,
    Instance,
    PreOrderIndex,
    Record,
    ValidationError,
    build_preorder,
    integer_boxes,
)
from .oracle import solve_exact

MAX_ORACLE_DIMENSION = 4
TABLE_CELL_CAP = 2_000_000
SET_ENUMERATION_CAP = 12
ORACLE_COMPARISON_CAP = 10


class _Cells(Mapping):
    """Read-only view of the sweep's rows: cell (i, y_index, state) is entry y_index of
    field 1 (values, N read as N / (L * scale[i]), L = ``ints.scale``) or 2 (actions) of
    ``rows[i, state]``, when y_index is in its field 0, the grid indices reached there."""

    def __init__(self, rows: dict, field: int, ints, scale: list[int]):
        self._rows, self._field, self.ints, self._scale = rows, field, ints, scale

    def __getitem__(self, key):
        i, yk, state = key
        row = self._rows[i, state]
        if yk not in row[0]:
            raise KeyError(key)
        entry = row[self._field][yk]
        return Fraction(entry, self.ints.scale * self._scale[i]) if self._field == 1 else entry

    def __iter__(self):
        return ((i, yk, state) for (i, state), (yks, _, _) in self._rows.items() for yk in yks)

    def __len__(self) -> int:
        return sum(len(row[0]) for row in self._rows.values())


class ApproxPolicy(Record):
    """The DP table and the resolved action map.

    ``values[(i, y_index, state)]`` is the best sweep value from position i
    and ``actions[...]`` is None to terminate or the position to open next:
    read-only mappings over the sweep's rows, ``values`` building the
    ``Fraction`` on each read (its ``ints`` is the sweep's int layout).  The
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
    actions: Mapping

    @property
    def start_state(self) -> tuple[int, ...]:
        return self.instance.order_model.empty_load

    @property
    def value(self) -> Fraction:
        """Expected net revenue of the policy from a fresh start."""
        return self.values[(1, 0, self.start_state)]


def solve_approx(instance: Instance) -> ApproxPolicy:
    """Backward sweep over the reachable (position, best-reward grid, oracle state) cells.  The
    forward pass counts each (position, load) it reaches, a row of len(grid) cells, as it is
    made, and raises ``CapExceededError`` once the cells pass ``TABLE_CELL_CAP``."""
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

    boxes = [instance.box_map[b] for b in preorder.order]
    slots = [model.index[b.id] for b in boxes]
    ints = integer_boxes(boxes, grid)
    # a value at position i is N / (L * scale[i]), scale[i] = prod_{j >= i} D_j
    scale = [0] + [math.prod(ints.dens[k:]) for k in range(n + 1)]
    # forward: reach[i] maps each load a run can hold at position i to the
    # grid indices of the best reward it can hold there with that load
    reach: list[dict] = [{} for _ in range(n + 2)]
    reach[1][model.empty_load] = set(range(len(grid)))
    cells = len(grid)
    for i in range(1, n + 1):
        nxt, atoms = preorder.next_position[i - 1], ints.atoms[i - 1]
        for state, yks in reach[i].items():
            after_open = model.add(state, slots[i - 1])  # an open that overflows the side is no move
            moves = [(nxt, state, yks)] if after_open is None else [
                (nxt, state, yks), (i + 1, after_open, {vk if vk > yk else yk for yk in yks for vk, _ in atoms})]
            for pos, load, lifted in moves:
                if load not in reach[pos]:
                    cells += len(grid)
                    if cells > TABLE_CELL_CAP:
                        raise CapExceededError(f"more than {TABLE_CELL_CAP} table cells to build; instance too large")
                    reach[pos][load] = set()
                reach[pos][load].update(lifted)

    # rows[i, load] = (the grid indices reached there, values, actions), over the grid
    rows = {(n + 1, state): (yks, ints.grid, [None] * len(grid)) for state, yks in reach[n + 1].items()}
    for i in range(n, 0, -1):
        nxt = preorder.next_position[i - 1]
        r, lift = scale[i], scale[i] // scale[nxt]
        stops = [y * r for y in ints.grid]
        for state, yks in reach[i].items():
            after_open = model.add(state, slots[i - 1])
            # an open that overflows the side is no move
            row = stops[:] if after_open is None else ints.step(i - 1, rows[i + 1, after_open][1], r, yks)
            acts = [None] * len(grid)
            _, skip_row, skip_acts = rows[nxt, state]
            for yk in yks:
                if row[yk] != stops[yk]:  # step opens only when strictly above stopping
                    acts[yk] = i
                skip_val = skip_row[yk] * lift
                if skip_val > row[yk]:
                    row[yk], acts[yk] = skip_val, skip_acts[yk]
            rows[i, state] = (yks, row, acts)
    return ApproxPolicy(
        instance=instance,
        preorder=preorder,
        grid=grid,
        values=_Cells(rows, 1, ints, scale),
        actions=_Cells(rows, 2, ints, scale),
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


def _enumerate_set_margin(instance: Instance, policy: ApproxPolicy) -> tuple[Fraction, tuple[str, ...], int]:
    """Minimum of (policy value - set value) over every feasible set:
    tree-closed (include a box only under an included parent) and
    side-feasible, walked over the pre-order with include/skip branching
    (skip first), on ints of ``integer_boxes`` on the policy grid y_0 = 0 < ...
    < y_K.  At position p the chosen prefix's best reward has the CDF F_k at
    y_k over prod_{j < p} D_j: including box p multiplies F_k by C_p[k], its
    CDF numerator, and skipping the subtree at p multiplies every F_k by the
    product of D_j over p .. next(p)-1.  So every set's F is over D = prod D_i,
    and its value over D * L is the int sum_k (y_{k+1} - y_k)(D - F_k) - cost * D.

    A branch is cut at position p when its bound, with G_p[k] = prod_{j >= p} C_j[k],

        sum_k (y_{k+1} - y_k)(D - F_k * G_p[k]) - (cost + negative costs at p..n) * D,

    is at most the best value found so far.  A set below p opens a subset of
    the boxes at p..n, so its best reward is at most the max over all of them
    and its cost at least the cost so far plus the negative ones ahead: no set
    below a cut beats the best value strictly, and the worst set stays the
    first strict maximum of the value in walk order.  The feasible sets are
    counted apart, by a forward pass of load -> number of ways over the
    positions with :func:`solve_approx`'s skip and open moves."""
    preorder = policy.preorder
    n, nxt = preorder.n, preorder.next_position
    boxes = [instance.box_map[b] for b in preorder.order]
    model = instance.order_model
    slots = [model.index[b.id] for b in boxes]
    ints = policy.values.ints  # solve_approx's layout of these boxes on the policy grid
    den = math.prod(ints.dens)
    steps = [b - a for a, b in zip(ints.grid, ints.grid[1:])]
    cdfs = []  # C_i[k] for k < K; C_i[K] = D_i is in no sum
    for atoms in ints.atoms:
        pmf = [0] * len(ints.grid)
        for vk, a in atoms:
            pmf[vk] = a
        cdfs.append(list(itertools.accumulate(pmf[:-1])))
    # weights[p][k] = (y_{k+1} - y_k) * G_p[k]; spans[p] = D_p * ... * D_{next(p)-1}
    weights, ahead = [steps] * (n + 2), [0] * (n + 2)
    for p in range(n, 0, -1):
        weights[p] = list(map(operator.mul, weights[p + 1], cdfs[p - 1]))
        ahead[p] = ahead[p + 1] + min(ints.costs[p - 1], 0)
    spans = [0] + [math.prod(ints.dens[p - 1:nxt[p - 1] - 1]) for p in range(1, n + 1)]
    top = ints.grid[-1]
    best, worst = [0], [()]  # the empty set, the first set the walk reaches

    def walk(p: int, load, cdf: list[int], cost: int, chosen: tuple[str, ...]) -> None:
        bound = den * (top - cost - ahead[p]) - sum(map(operator.mul, cdf, weights[p]))
        if bound <= best[0]:
            return
        if p == n + 1:
            best[0], worst[0] = bound, chosen
            return
        span = spans[p]
        walk(nxt[p - 1], load, [f * span for f in cdf], cost, chosen)  # skip the whole subtree
        after = model.add(load, slots[p - 1])
        if after is not None:
            walk(p + 1, after, list(map(operator.mul, cdf, cdfs[p - 1])), cost + ints.costs[p - 1],
                 chosen + (preorder.order[p - 1],))

    walk(1, policy.start_state, [1] * len(steps), 0, ())
    reach = [Counter() for _ in range(n + 2)]
    reach[1][policy.start_state] = 1
    for p in range(1, n + 1):
        for load, ways in reach[p].items():
            reach[nxt[p - 1]][load] += ways
            after = model.add(load, slots[p - 1])
            if after is not None:
                reach[p + 1][after] += ways
    return policy.value - Fraction(best[0], den * ints.scale), worst[0], sum(reach[n + 1].values())


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

    benchmark_margin = oracle_value = None
    if instance.n <= ORACLE_COMPARISON_CAP:
        result = solve_exact(instance)
        oracle_value = result.value
        benchmark_margin = executed - (result.e_max / 2 - result.e_cost)
    return GuaranteeReport(
        policy_value=policy.value,
        executed_value=executed,
        set_margin=set_margin,
        worst_set=worst_set,
        feasible_sets=n_sets,
        benchmark_margin=benchmark_margin,
        oracle_value=oracle_value,
    )
