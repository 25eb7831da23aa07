"""Shared generators and independent brute-force oracles for the tests.

The brute-force routines here deliberately avoid the library's own
algorithms (product-space enumeration, history recursion without
memoization) so they can serve as independent cross-checks.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

from pandorabox import (
    BoxSpec,
    CapExceededError,
    ConstraintGraph,
    ConstraintKind,
    DiscreteDistribution,
    Instance,
    MatroidSideConstraint,
    SimulationSummary,
    ThresholdPolicy,
    ValidationError,
    build_preorder,
    figure1,
    feasible_next,
    fixed_opening_order,
    merge,
    validate_instance,
)
from pandorabox import oracle
from pandorabox.core import Record, max_sweep
from pandorabox.line_solver import NOTHING, solve_line
from pandorabox.piecewise import PiecewiseLinear
from pandorabox.tree_solver import AnnotatedEntry, AnnotatedLine

F = Fraction
ZERO = F(0)


# ---------------------------------------------------------------------------
# Random instance generation (exact rationals, small denominators)
# ---------------------------------------------------------------------------

def rand_probs(rng: random.Random, k: int) -> list[Fraction]:
    den = rng.choice([d for d in (2, 3, 4, 6, 8, 12) if d >= k])
    cuts = sorted(rng.sample(range(1, den), k - 1)) if k > 1 else []
    parts = []
    prev = 0
    for c in cuts + [den]:
        parts.append(F(c - prev, den))
        prev = c
    return parts


def rand_dist(rng: random.Random, max_support: int = 3, max_value: int = 8) -> DiscreteDistribution:
    k = rng.randint(1, max_support)
    scale = rng.choice((1, 1, 2))
    values = sorted(rng.sample(range(0, max_value + 1), k))
    probs = rand_probs(rng, k)
    return DiscreteDistribution.of([(F(v, scale), p) for v, p in zip(values, probs)])


def rand_box(rng: random.Random, index: int, max_cost: int = 5) -> BoxSpec:
    cost = F(rng.randint(0, max_cost), rng.choice((1, 2, 3)))
    return BoxSpec(f"b{index:02d}", cost, rand_dist(rng))


def rand_line_boxes(rng: random.Random, n: int) -> list[BoxSpec]:
    return [rand_box(rng, i) for i in range(n)]


TIE_DISTS = (
    DiscreteDistribution.of([(0, "1/2"), (4, "1/2")]),
    DiscreteDistribution.of([(1, "1/3"), (3, "2/3")]),
    DiscreteDistribution.point(2),
    DiscreteDistribution.point(0),
)
TIE_COSTS = (F(0), F(0), F(1, 2), F(1), F(2), F(3), F(5))


def rand_tie_box(rng: random.Random, index: int) -> BoxSpec:
    """Half the boxes come from a few shared (cost, reward) choices, so equal
    thresholds, zero costs and cost-dominated (negative) thresholds are
    common; the rest are :func:`rand_box`."""
    if rng.random() < 0.5:
        return BoxSpec(f"b{index:02d}", rng.choice(TIE_COSTS), rng.choice(TIE_DISTS))
    return rand_box(rng, index)


FIXED_DRAW_DISTS = (
    DiscreteDistribution.point(0),
    DiscreteDistribution.point(3),
    DiscreteDistribution.point(6),
    DiscreteDistribution.of([(0, "1/3"), (1, "1/3"), (2, "1/3")]),
    DiscreteDistribution.of([(1, "1/4"), (3, "1/2"), (7, "1/4")]),
    DiscreteDistribution.of([(5, "1/2"), (8, "1/2")]),
)


def rand_fixed_draw_box(rng: random.Random, index: int) -> BoxSpec:
    """Most boxes are point masses or supports that a best of 2, 3, 6 or 8
    lifts to one rank, so many openings need no draw; at a best of 3 the
    atoms 1 and 3 of ``{1, 3, 7}`` lift to one rank and 7 does not."""
    if rng.random() < 0.8:
        return BoxSpec(f"b{index:02d}", rng.choice(TIE_COSTS), rng.choice(FIXED_DRAW_DISTS))
    return rand_box(rng, index)


def rand_tie_instance(rng: random.Random, kind: str, max_n: int = 9, box=rand_tie_box) -> Instance:
    """Random validated line, tree, forest, DAG or unconstrained set of
    tie-heavy boxes (made by ``box``), with boxes and edges listed in shuffled order."""
    n = rng.randint(1, max_n)
    boxes = [box(rng, i) for i in range(n)]
    rng.shuffle(boxes)
    if kind == ConstraintKind.LINE:
        edges = [(boxes[i].id, boxes[i + 1].id) for i in range(n - 1)]
    elif kind == ConstraintKind.TREE:
        edges = [(boxes[rng.randrange(i)].id, boxes[i].id) for i in range(1, n)]
    elif kind == ConstraintKind.FOREST:
        edges = [(boxes[rng.randrange(i)].id, boxes[i].id) for i in range(1, n) if rng.random() < 0.6]
    elif kind == ConstraintKind.DAG:
        edges = [(boxes[j].id, boxes[i].id) for i in range(1, n) for j in rng.sample(range(i), rng.randint(0, min(i, 2)))]
    else:
        edges = []
    if n == 1 or (not edges and kind != ConstraintKind.FOREST):
        kind = ConstraintKind.UNCONSTRAINED
    rng.shuffle(edges)
    return validate_instance(Instance(boxes=tuple(boxes), constraint=ConstraintGraph(kind, tuple(edges))))


def line_instance_of(boxes) -> Instance:
    edges = tuple((boxes[i].id, boxes[i + 1].id) for i in range(len(boxes) - 1))
    kind = ConstraintKind.LINE if len(boxes) > 1 else ConstraintKind.UNCONSTRAINED
    return Instance(boxes=tuple(boxes), constraint=ConstraintGraph(kind, edges))


def distinct_value_line(n: int, seed: int = 0) -> Instance:
    """A line of n boxes, box k paying 0 or a value of its own in [1, 10^6],
    each with probability 1/2, at cost (k + 1)/100: the running support of an
    evaluation sweep grows by about one key per box."""
    rng = random.Random(seed)
    values = rng.sample(range(1, 10**6 + 1), n)
    return line_instance_of([BoxSpec(f"b{k:04d}", F(k + 1, 100), DiscreteDistribution.of([(0, F(1, 2)), (v, F(1, 2))]))
                             for k, v in enumerate(values)])


def figure1_tree_matroid(epsilon: Fraction = F(3, 2)) -> Instance:
    """Tree variant of :func:`figure1`: the shared sink is split into two
    copies E and F (one per branch) and a cardinality-4 side constraint
    keeps at most one of them reachable in any feasible set."""
    base = figure1(epsilon)
    a, b, c, d = base.boxes
    boxes = (
        a,
        b,
        c,
        BoxSpec("E", d.cost, d.reward),
        BoxSpec("F", d.cost, d.reward),
    )
    constraint = ConstraintGraph(
        kind=ConstraintKind.TREE,
        edges=(("A", "B"), ("A", "C"), ("B", "E"), ("C", "F")),
        roots=("A",),
    )
    side = MatroidSideConstraint.knapsack({box.id: (1,) for box in boxes}, (4,))
    return validate_instance(Instance(boxes=boxes, constraint=constraint, side=side))


def rand_tree_instance(rng: random.Random, n: int) -> Instance:
    boxes = tuple(rand_box(rng, i) for i in range(n))
    edges = tuple((boxes[rng.randrange(i)].id, boxes[i].id) for i in range(1, n))
    kind = ConstraintKind.TREE if n > 1 else ConstraintKind.UNCONSTRAINED
    return Instance(boxes=boxes, constraint=ConstraintGraph(kind, edges))


def rand_forest_of_paths(rng: random.Random, max_paths: int = 3, max_total: int = 9) -> Instance:
    n_paths = rng.randint(1, max_paths)
    sizes = [rng.randint(1, max(1, max_total // n_paths)) for _ in range(n_paths)]
    boxes: list[BoxSpec] = []
    edges: list[tuple[str, str]] = []
    for size in sizes:
        start = len(boxes)
        for _ in range(size):
            boxes.append(rand_box(rng, len(boxes)))
        for i in range(start, start + size - 1):
            edges.append((boxes[i].id, boxes[i + 1].id))
    kind = ConstraintKind.FOREST if len(boxes) > 1 else ConstraintKind.UNCONSTRAINED
    return Instance(boxes=tuple(boxes), constraint=ConstraintGraph(kind, tuple(edges)))


def rand_knapsack_side(rng: random.Random, ids, max_dim: int = 2, min_dim: int = 1) -> MatroidSideConstraint:
    d = rng.randint(min_dim, max_dim)
    weights = {i: tuple(rng.randint(0, 3) for _ in range(d)) for i in ids}
    capacity = tuple(rng.randint(1, 2 * len(list(ids)) + 2) for _ in range(d))
    return MatroidSideConstraint.knapsack(weights, capacity)


def rand_partition_side(rng: random.Random, ids, max_parts: int = 3, min_parts: int = 1) -> MatroidSideConstraint:
    k = rng.randint(min_parts, max_parts)
    return MatroidSideConstraint.partition(
        {i: rng.randrange(k) for i in ids}, tuple(rng.randint(0, 3) for _ in range(k))
    )


def with_side(instance: Instance, side: MatroidSideConstraint) -> Instance:
    return Instance(boxes=instance.boxes, constraint=instance.constraint, side=side)


def with_negative_costs(instance: Instance, rng: random.Random) -> Instance:
    """Unvalidated copy with some costs lowered below 0 (the DPs accept them)."""
    boxes = tuple(BoxSpec(b.id, b.cost - rng.choice((0, 1, F(3, 2))), b.reward) for b in instance.boxes)
    return Instance(boxes=boxes, constraint=instance.constraint, side=instance.side)


def with_costs_times(instance: Instance, factor: Fraction) -> Instance:
    """Copy with every cost multiplied by ``factor``, sharing the reward objects."""
    boxes = tuple(BoxSpec(b.id, factor * b.cost, b.reward) for b in instance.boxes)
    return Instance(boxes=boxes, constraint=instance.constraint, side=instance.side)


def rand_case(rng: random.Random, kind: str, max_n: int) -> Instance:
    """A tie-heavy instance with, at random, a knapsack or partition side
    and negative costs."""
    inst = rand_tie_instance(rng, kind, max_n=max_n)
    ids = [b.id for b in inst.boxes]
    roll = rng.random()
    if roll < 0.3:
        inst = with_side(inst, rand_knapsack_side(rng, ids))
    elif roll < 0.6:
        inst = with_side(inst, rand_partition_side(rng, ids))
    return with_negative_costs(inst, rng) if rng.random() < 0.25 else inst


def rand_graph_instance(rng: random.Random, n: int, kind: str) -> Instance:
    """Random validated tree, forest or DAG: box i takes its parents among
    boxes 0..i-1 (exactly one for a tree, at most one for a forest, up to
    three for a DAG)."""
    boxes = tuple(rand_box(rng, i) for i in range(n))
    edges = []
    for i in range(1, n):
        if kind == ConstraintKind.TREE:
            k = 1
        elif kind == ConstraintKind.FOREST:
            k = rng.randint(0, 1)
        else:
            k = rng.randint(0, min(i, 3))
        edges += [(boxes[j].id, boxes[i].id) for j in rng.sample(range(i), k)]
    return validate_instance(Instance(boxes=boxes, constraint=ConstraintGraph(kind, tuple(edges))))


# ---------------------------------------------------------------------------
# Literal openability reference, written from the model's definition only
# ---------------------------------------------------------------------------

def reference_side_ok(instance: Instance, ids) -> bool:
    """Summed side weights of ``ids`` within every capacity entry."""
    side = instance.side
    if side.kind == MatroidSideConstraint.KNAPSACK:
        return all(
            sum(side.weights[i][j] for i in ids) <= cap for j, cap in enumerate(side.capacity)
        )
    if side.kind == MatroidSideConstraint.PARTITION:
        return all(
            sum(1 for i in ids if side.weights[i].index(1) == part) <= cap
            for part, cap in enumerate(side.capacity)
        )
    return True


def reference_order_ok(instance: Instance, opened, box_id: str) -> bool:
    """No in-edge into ``box_id``, or some in-neighbour already opened."""
    in_neighbours = [p for p, c in instance.constraint.edges if c == box_id]
    return not in_neighbours or any(p in opened for p in in_neighbours)


def reference_next(instance: Instance, opened) -> list[str]:
    """Boxes openable next, in instance order."""
    return [
        b.id
        for b in instance.boxes
        if b.id not in opened
        and reference_order_ok(instance, opened, b.id)
        and reference_side_ok(instance, set(opened) | {b.id})
    ]


def reference_set_feasible(instance: Instance, ids) -> bool:
    """Can ``ids`` be opened one box at a time?  Peels reachable boxes."""
    chosen = set(ids)
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for box_id in sorted(chosen - reached):
            if reference_order_ok(instance, reached, box_id):
                reached.add(box_id)
                grew = True
    return reached == chosen and reference_side_ok(instance, chosen)


def graph_parents(graph: ConstraintGraph) -> dict[str, list[str]]:
    """In-neighbours of every box with an in-edge, in edge order."""
    out: dict[str, list[str]] = {}
    for parent, child in graph.edges:
        out.setdefault(child, []).append(parent)
    return out


def graph_children(graph: ConstraintGraph) -> dict[str, list[str]]:
    """Out-neighbours of every box with an out-edge, in edge order."""
    out: dict[str, list[str]] = {}
    for parent, child in graph.edges:
        out.setdefault(parent, []).append(child)
    return out


def reference_greedy_order(instance: Instance, thresholds, rank) -> list[str]:
    """The threshold rule's visiting order: repeatedly the openable box with
    the largest threshold, ties by rank, then id."""
    order: list[str] = []
    while True:
        candidates = reference_next(instance, order)
        if not candidates:
            return order
        order.append(min(candidates, key=lambda b: (-thresholds[b], rank.get(b, 0), b)))


# ---------------------------------------------------------------------------
# Slow references for the exact primitives, the line and tree DPs and the
# simulator
# ---------------------------------------------------------------------------

def expected_excess(dist: DiscreteDistribution, z: Fraction) -> Fraction:
    """E[(X - z)_+], exactly.  ``z`` may be negative."""
    total = ZERO
    for v, p in dist.atoms:
        if v > z:
            total += p * (v - z)
    return total


# Int forms (keys over scale 1, numerators, den) that break the invariant, one way each
MALFORMED_INT_FORMS = [
    ([], [], 1),  # no atom
    ([0, 2, 2], [1, 1, 1], 3),  # keys not strictly increasing
    ([3, 1], [1, 1], 2),
    ([-1, 2], [1, 1], 2),  # negative value
    ([0, 2], [0, 2], 2),  # a numerator that is not positive
    ([0, 2], [-1, 3], 2),
    ([0, 2], [1, 1], 3),  # numerators that do not sum to den
    ([0, 2], [1, 1, 1], 3),  # more numerators than keys
]


def int_distribution_violation(d) -> str | None:
    """What is wrong with a ``core.IntDistribution``, or None: its keys must be
    strictly increasing from 0 or above, its numerators positive and summing to
    ``den``, one numerator per key.  ``IntDistribution`` stores its fields
    unchecked, so the tests hold this check for every one the solvers build."""
    keys, probs = d.keys, d.probs
    if not keys or len(keys) != len(probs):
        return f"{len(keys)} keys and {len(probs)} numerators"
    if keys[0] < 0 or any(a >= b for a, b in zip(keys, keys[1:])):
        return f"keys {keys} are not strictly increasing from 0 or above"
    if min(probs) <= 0:
        return f"numerators {probs} are not all positive"
    if sum(probs) != d.den:
        return f"numerators sum to {sum(probs)}, not den {d.den}"
    return None


def int_distribution(ints) -> DiscreteDistribution:
    """The ``DiscreteDistribution`` of a ``core.IntDistribution``: keys over scale, numerators over den."""
    return DiscreteDistribution(tuple(zip([Fraction(k, ints.scale) for k in ints.keys],
                                          [Fraction(p, ints.den) for p in ints.probs])))


def max_distribution(dists) -> DiscreteDistribution:
    """Exact distribution of max(X_1, ..., X_k) for independent X_i (``core.max_sweep``)."""
    return int_distribution(max_sweep([d.integer for d in dists]))


def quadratic_max_distribution(dists) -> list[tuple[Fraction, Fraction]]:
    """Distribution of the max as the product of the inputs' CDFs, each
    CDF summed afresh at every point of the union support."""
    atoms, prev = [], ZERO
    for v in sorted({v for d in dists for v in d.values()}):
        cdf = F(1)
        for d in dists:
            cdf *= sum((p for u, p in d.atoms if u <= v), ZERO)
        if cdf > prev:
            atoms.append((v, cdf - prev))
        prev = cdf
    return atoms


def quadratic_reservation(box: BoxSpec) -> Fraction:
    """Smallest z with E[(X - z)^+] = cost, by evaluating the excess afresh
    at both ends of every support segment and inverting the crossing one."""
    values = box.reward.values()
    if box.cost == 0:
        return values[-1]
    if expected_excess(box.reward, values[0]) <= box.cost:
        return box.reward.expectation() - box.cost
    for left, right in zip(values, values[1:]):
        e_left = expected_excess(box.reward, left)
        e_right = expected_excess(box.reward, right)
        if e_right <= box.cost:
            return left + (e_left - box.cost) * (right - left) / (e_left - e_right)
    raise AssertionError("no crossing")


def reference_solve_line(boxes) -> tuple[list[Fraction], list[PiecewiseLinear]]:
    """Thresholds z_1..z_n and levels V(., 1..n+1) by the piecewise-linear
    backward step: x -> -c_i + E[V(max(x, X_i), i+1)], its smallest fixed
    point z_i, and its max with the identity as V(., i)."""
    levels = [PiecewiseLinear((ZERO,), (ZERO,), F(1))]
    zs: list[Fraction] = []
    for box in reversed(boxes):
        reach = levels[0].expectation_of_max(box.reward)
        step = PiecewiseLinear(reach.xs, tuple(y - box.cost for y in reach.ys), reach.right_slope)
        zs.insert(0, step.smallest_fixed_point())
        levels.insert(0, step.max_with_identity())
    return zs, levels


def reference_horizons(thresholds) -> tuple[int, ...]:
    """d(i) for i = 1..n by scanning forward from every i: the first t >= i
    with z_{t+1} < z_i, or n (O(n^2) comparisons)."""
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


def reference_solve_tree(instance: Instance) -> tuple[Fraction, tuple[str, ...], dict[str, Fraction]]:
    """Value, exploration order and thresholds of a line, tree, forest or
    unconstrained instance: at every node the children's lines are merged,
    and the node followed by the merged line is re-solved as a line; the
    roots' lines are merged and re-solved once more for the value."""
    children = graph_children(instance.constraint)
    parents = graph_parents(instance.constraint)

    def annotated(ids) -> tuple[AnnotatedLine, Fraction]:
        zs, levels = reference_solve_line([instance.box_map[b] for b in ids])
        return AnnotatedLine(tuple(map(AnnotatedEntry, ids, zs))), levels[0](ZERO)

    def solve(box_id: str) -> AnnotatedLine:
        below = merge([solve(child) for child in children.get(box_id, [])])
        return annotated((box_id,) + below.ids())[0]

    roots = merge([solve(b.id) for b in instance.boxes if b.id not in parents])
    line, value = annotated(roots.ids())
    return value, line.ids(), {e.box_id: e.threshold for e in line.entries}


def reference_engine(instance: Instance, initial_best: Fraction = ZERO, terminal_weight: Fraction = F(1)):
    """The oracle's Bellman recursion on ``Fraction``s: value, e_max, e_cost,
    the policy map and the value map, keyed like ``OracleResult`` by
    (opened bitmask, grid index)."""
    n = instance.n
    grid = sorted(set(instance.support_union()) | {initial_best})
    model = instance.order_model
    boxes = instance.boxes
    y_index = {y: k for k, y in enumerate(grid)}
    payoff = [terminal_weight * y for y in grid]
    atom_indices = [[(y_index[v], v, p) for v, p in b.reward.atoms] for b in boxes]
    by_id = sorted(range(n), key=lambda i: model.ids[i])
    values: dict = {}
    policy: dict = {}

    def solve(mask: int, yk: int, load) -> Fraction:
        key = (mask, yk)
        cached = values.get(key)
        if cached is not None:
            return cached
        y = grid[yk]
        best_val = payoff[yk]
        best_act = None
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
    parts: dict = {}

    def split(mask: int, yk: int) -> tuple[Fraction, Fraction]:
        key = (mask, yk)
        if key in parts:
            return parts[key]
        act = policy[key]
        if act is None:
            rew, cost = grid[yk], ZERO
        else:
            rew, cost = ZERO, boxes[act].cost
            child = mask | (1 << act)
            for vk, v, p in atom_indices[act]:
                r, c = split(child, vk if v > grid[yk] else yk)
                rew += p * r
                cost += p * c
        parts[key] = rew, cost
        return rew, cost

    e_max, e_cost = split(*start)
    return total, e_max, e_cost, policy, values


def reference_undominated_states(instance: Instance, initial_best: Fraction = ZERO,
                                 terminal_weight: Fraction = F(1)) -> set:
    """The states (opened bitmask, grid index) of every opened set reached from
    the empty set through undominated openings, at every best reward the set
    can hold.  Opening box i from set S is dominated when every child of i can
    already open at S and sum p * max(v - y, 0) < c_i / w over X_i's atoms at
    S's lowest best reward y: skipping it then keeps every later option and
    saves more than it could add."""
    grid = sorted(set(instance.support_union()) | {initial_best})
    ids = [b.id for b in instance.boxes]
    children = graph_children(instance.constraint)

    def bests(mask: int) -> set:
        ys = {initial_best}
        for i, b in enumerate(instance.boxes):
            if mask >> i & 1:
                ys = {max(y, v) for y in ys for v in b.reward.values()}
        return ys

    seen, todo = {0}, [0]
    while todo:
        mask = todo.pop()
        opened = [box_id for i, box_id in enumerate(ids) if mask >> i & 1]
        low = min(bests(mask))
        for box_id in reference_next(instance, opened):
            box = instance.box_map[box_id]
            excess = sum(p * max(v - low, 0) for v, p in box.reward.atoms)
            unlocks = any(not reference_order_ok(instance, opened, c) for c in children.get(box_id, ()))
            if excess < box.cost / terminal_weight and not unlocks:
                continue
            child = mask | 1 << ids.index(box_id)
            if child not in seen:
                seen.add(child)
                todo.append(child)
    return {(mask, grid.index(y)) for mask in seen for y in bests(mask)}


def reference_approx(instance: Instance) -> tuple[dict, dict]:
    """``solve_approx``'s backward sweep on ``Fraction``s: the values and
    actions tables over (position, grid index, side load)."""
    preorder = build_preorder(instance)
    model = instance.order_model
    grid = instance.support_union()
    y_index = {y: k for k, y in enumerate(grid)}
    states = list(itertools.product(*(range(cap + 1) for cap in model.capacity)))
    n = preorder.n
    values: dict = {}
    actions: dict = {}
    for yk in range(len(grid)):
        for state in states:
            values[(n + 1, yk, state)] = grid[yk]
            actions[(n + 1, yk, state)] = None
    for i in range(n, 0, -1):
        box = instance.box_map[preorder.order[i - 1]]
        nxt = preorder.next_position[i - 1]
        for state in states:
            after_open = model.add(state, model.index[box.id])
            for yk, y in enumerate(grid):
                skip_val = values[(nxt, yk, state)]
                open_val = None  # opening a box that overflows the side is no move
                if after_open is not None:
                    open_val = -box.cost
                    for v, p in box.reward.atoms:
                        vk = y_index[v] if v > y else yk
                        open_val += p * values[(i + 1, vk, after_open)]
                best = max(y, skip_val) if open_val is None else max(y, open_val, skip_val)
                values[(i, yk, state)] = best
                if best == y:
                    actions[(i, yk, state)] = None
                elif best == open_val:
                    actions[(i, yk, state)] = i
                else:
                    actions[(i, yk, state)] = actions[(nxt, yk, state)]
    return values, actions


def reachable_approx_cells(instance: Instance) -> set:
    """The (position, grid index, side load) cells of ``solve_approx``'s
    table that a run can reach: a closure over skip and open moves from
    position 1 with the empty load and every grid value, on ``Fraction``s."""
    preorder = build_preorder(instance)
    model = instance.order_model
    grid = instance.support_union()
    y_index = {y: k for k, y in enumerate(grid)}
    stack = [(1, yk, model.empty_load) for yk in range(len(grid))]
    seen: set = set()
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        i, yk, load = cell
        if i > preorder.n:
            continue
        stack.append((preorder.next_position[i - 1], yk, load))
        box = instance.box_map[preorder.order[i - 1]]
        after = model.add(load, model.index[box.id])
        if after is not None:
            y = grid[yk]
            stack.extend((i + 1, y_index[v if v > y else y], after) for v, _ in box.reward.atoms)
    return seen


def reference_set_margin(instance: Instance, policy) -> tuple[Fraction, tuple[str, ...], int]:
    """Minimum of (policy value - set value) over every feasible set:
    tree-closed (include a box only under an included parent) and
    side-feasible, walked over the pre-order with include/skip branching.
    The best reward of the chosen prefix is carried on ints, from the point
    mass at 0, by one ``max_sweep`` with each included box's cached
    ``reward.integer``.  Every feasible set is visited and valued, so this
    checks the pruning and the separate count of ``approx._enumerate_set_margin``."""
    preorder = policy.preorder
    n = preorder.n
    boxes = [instance.box_map[b] for b in preorder.order]
    model = instance.order_model
    psi_start = policy.value

    best_margin: list = [None]
    worst: list = [()]
    count = [0]

    def walk(pos: int, state, best, cost: Fraction, chosen: tuple[str, ...]) -> None:
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


def reference_line_optimal_value(boxes) -> Fraction:
    """Grid DP over (position, best reward) on ``Fraction``s."""
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


def reference_best_fixed_order(instance: Instance) -> tuple[tuple[str, ...], Fraction]:
    """``oracle.best_fixed_order`` by a forward search over every maximal
    feasible order, each scored by :func:`reference_line_optimal_value`; ties break
    lexicographically on the order, under the same caps and messages."""
    if instance.n > oracle.FIXED_ORDER_BOX_CAP:
        raise CapExceededError(
            f"fixed-order enumeration handles at most {oracle.FIXED_ORDER_BOX_CAP} boxes, got {instance.n}"
        )
    best: tuple[tuple[str, ...], Fraction] | None = None
    seen = 0

    def extend(opened: list[str]) -> None:
        nonlocal best, seen
        candidates = feasible_next(instance, opened)
        if not candidates:
            seen += 1
            if seen > oracle.FIXED_ORDER_SEQUENCE_CAP:
                raise CapExceededError(
                    f"more than {oracle.FIXED_ORDER_SEQUENCE_CAP} feasible orders; instance too loose"
                )
            value = reference_line_optimal_value([instance.box_map[b] for b in opened])
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


def reference_evaluate_threshold_exact(instance: Instance, policy: ThresholdPolicy) -> Fraction:
    """Exact expected net revenue of the strategy by a ``Fraction`` sweep of
    the whole fixed order: the distribution of the best reward among
    still-running realizations, each mass stopping as soon as its best
    reaches the next threshold."""
    order = fixed_opening_order(instance, policy)
    running: dict[Fraction, Fraction] = {ZERO: F(1)}
    revenue = ZERO
    for box_id in order:
        z = policy.thresholds[box_id]
        box = instance.box_map[box_id]
        surviving: dict[Fraction, Fraction] = {}
        for y, mass in running.items():
            if y >= z:
                revenue += mass * y
            else:
                surviving[y] = surviving.get(y, ZERO) + mass
        if not surviving:
            return revenue
        nxt: dict[Fraction, Fraction] = {}
        for y, mass in surviving.items():
            revenue -= mass * box.cost
            for v, p in box.reward.atoms:
                top = v if v > y else y
                nxt[top] = nxt.get(top, ZERO) + mass * p
        running = nxt
    for y, mass in running.items():
        revenue += mass * y
    return revenue


def literal_u64(seed: int, trial: int, step: int, box_id: str) -> int:
    """The sampler's 64-bit point by its literal definition: the first 8
    bytes, big-endian, of SHA-256 of the text "seed|trial|step|box_id"."""
    payload = f"{seed}|{trial}|{step}|{box_id}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def reference_draw(dist: DiscreteDistribution, u: int) -> Fraction:
    """The atom at the 64-bit point u by a literal CDF scan: the first value
    whose cumulative probability exceeds u/2^64."""
    cum = ZERO
    for v, p in dist.atoms:
        cum += p
        # u/2^64 < cum  <=>  u * den < num << 64
        if u * cum.denominator < cum.numerator << 64:
            return v
    raise AssertionError(f"u={u} beyond the CDF")


def reference_simulate(instance: Instance, policy: ThresholdPolicy, trials: int,
                       rng_seed: int) -> SimulationSummary:
    """Per-trial rational walk of the sampler stream, drawn through
    ``literal_u64``: sums each trial's net revenue and its square as
    ``Fraction``s."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    order = fixed_opening_order(instance, policy)
    boxes = [instance.box_map[b] for b in order]
    thresholds = [policy.thresholds[b] for b in order]
    total = ZERO
    total_sq = ZERO
    for t in range(trials):
        best = ZERO
        spent = ZERO
        for step, box in enumerate(boxes):
            if best >= thresholds[step]:
                break
            spent += box.cost
            reward = reference_draw(box.reward, literal_u64(rng_seed, t, step, box.id))
            if reward > best:
                best = reward
        net = best - spent
        total += net
        total_sq += net * net
    mean = total / trials
    if trials > 1:
        variance = (total_sq - trials * mean * mean) / (trials - 1)
        stddev = math.sqrt(float(variance)) if variance > 0 else 0.0
    else:
        stddev = 0.0
    return SimulationSummary(mean=mean, stddev=stddev, trials=trials, seed=rng_seed)


# ---------------------------------------------------------------------------
# Independent brute-force oracles
# ---------------------------------------------------------------------------

def brute_max_distribution(dists) -> list[tuple[Fraction, Fraction]]:
    """Distribution of the max by full product-space enumeration."""
    tally: dict[Fraction, Fraction] = {}
    for combo in itertools.product(*(d.atoms for d in dists)):
        value = max(v for v, _ in combo)
        prob = F(1)
        for _, p in combo:
            prob *= p
        tally[value] = tally.get(value, ZERO) + prob
    return sorted(tally.items())


def enumerate_realizations(boxes):
    """Yields (values dict id -> value, probability) over the product space."""
    for combo in itertools.product(*(b.reward.atoms for b in boxes)):
        prob = F(1)
        values = {}
        for box, (v, p) in zip(boxes, combo):
            prob *= p
            values[box.id] = v
        yield values, prob


def run_line_threshold(boxes, thresholds, values, horizon=None) -> tuple[tuple, Fraction]:
    """Walk a line with per-box thresholds on a fixed realization; stop when
    the best reward reaches the next threshold or the horizon (1-based box
    count) is exhausted.  Returns (history of (id, value), net revenue)."""
    limit = len(boxes) if horizon is None else horizon
    y = ZERO
    spent = ZERO
    history = []
    for i in range(limit):
        if y >= thresholds[i]:
            break
        box = boxes[i]
        spent += box.cost
        x = values[box.id]
        history.append((box.id, x))
        if x > y:
            y = x
    return tuple(history), y - spent


class MacroBoxPartition(Record):
    """Leader indices of the maximal runs whose thresholds stay above the
    run leader's threshold (1-based, always starts at 1)."""

    boundaries: tuple[int, ...]


def macro_partition(z: tuple[Fraction, ...]) -> MacroBoxPartition:
    """Leader indices of the thresholds z_1..z_n: after j, the next leader is
    the first index whose threshold does not exceed the threshold at j."""
    if not z:
        raise ValidationError("cannot partition an empty list of thresholds")
    boundaries = [1]
    for j in range(2, len(z) + 1):
        if z[j - 1] <= z[boundaries[-1] - 1]:
            boundaries.append(j)
    return MacroBoxPartition(tuple(boundaries))


def check_line_submartingale(boxes) -> None:
    """Exact check: truncating the optimal line run at successive macro-box
    boundaries gives conditional expectations that never decrease."""
    solution = solve_line(boxes)
    z = solution.zs
    bounds = macro_partition(z).boundaries
    ends = [0] + [bounds[k + 1] - 1 for k in range(len(bounds) - 1)] + [len(boxes)]

    outcomes = list(enumerate_realizations(boxes))
    for k in range(len(ends) - 1):
        groups: dict[tuple, list[tuple[Fraction, Fraction]]] = {}
        for values, prob in outcomes:
            history, net = run_line_threshold(boxes, z, values, horizon=ends[k])
            _, net_next = run_line_threshold(boxes, z, values, horizon=ends[k + 1])
            groups.setdefault(history, []).append((prob, net_next, net))
        for history, rows in groups.items():
            total = sum(p for p, _, _ in rows)
            current = rows[0][2]
            assert all(net == current for _, _, net in rows)
            conditional = sum(p * nn for p, nn, _ in rows) / total
            assert conditional >= current, (history, conditional, current)


def run_greedy_threshold_on_realization(instance: Instance, thresholds, values) -> Fraction:
    """Net revenue of the threshold rule on one fixed realization, executed
    literally: while the best reward is below the largest threshold among
    openable boxes, open that argmax box (ties by id)."""
    opened: set[str] = set()
    y = ZERO
    spent = ZERO
    while True:
        candidates = reference_next(instance, opened)
        if not candidates:
            return y - spent
        best_box = min(candidates, key=lambda b: (-thresholds[b], b))
        if y >= thresholds[best_box]:
            return y - spent
        opened.add(best_box)
        spent += instance.box_map[best_box].cost
        if values[best_box] > y:
            y = values[best_box]


def decision_tree_sup_half(instance: Instance) -> Fraction:
    """sup over adaptive strategies of E[final best]/2 - E[cost], by
    explicit recursion over histories (no state memoization)."""

    def value(opened: tuple[str, ...], y: Fraction) -> Fraction:
        best = y / 2
        for box_id in reference_next(instance, opened):
            box = instance.box_map[box_id]
            val = -box.cost
            for v, p in box.reward.atoms:
                val += p * value(opened + (box_id,), v if v > y else y)
            if val > best:
                best = val
        return best

    return value((), ZERO)
