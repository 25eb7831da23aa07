"""Seeded instance generators for the benchmark.

Every generator returns a plain JSON-ready dict in the instance document
format (rationals written as ``"p/q"`` strings), so the program under test
only ever sees documents.  The same seed gives byte-identical documents:
all randomness comes from ``random.Random`` seeded by a string built from
the workload seed and the slot index, and documents are dumped with sorted
keys.

Shapes and sizes follow a fixed schedule per workload, and the structure
of each slot (parent choices, path cuts, DAG edges, side capacities) comes
from an RNG seeded by the slot alone.  Only the contents (costs, rewards,
knapsack weights and partition parts) come from the workload seed.  That
keeps the cost of a pool similar across seeds while the instances differ.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

DENOMINATORS = (2, 3, 4, 6, 8, 12)


def q(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rng_for(seed: int, workload: str, slot: int) -> random.Random:
    return random.Random(f"{workload}|{seed}|{slot}")


def structure_rng(workload: str, slot: int) -> random.Random:
    return random.Random(f"{workload}|structure|{slot}")


def reward(rng: random.Random, k: int, max_value: int = 8, unit: bool = False) -> list:
    """k atoms with small denominators.  ``unit`` keeps values in [0, 1]
    for the learning regime."""
    den = rng.choice([d for d in DENOMINATORS if d >= k])
    cuts = sorted(rng.sample(range(1, den), k - 1)) + [den]
    probs, prev = [], 0
    for c in cuts:
        probs.append(Fraction(c - prev, den))
        prev = c
    # Integer values from a fixed range keep the support union (the oracle's
    # and approx DP's best-reward grid) about the same size across seeds.
    scale = 8 if unit else 1
    values = sorted(Fraction(v, scale) for v in rng.sample(range(0, max_value + 1), k))
    return [{"value": q(v), "prob": q(p)} for v, p in zip(values, probs)]


def box(rng: random.Random, index: int, unit: bool = False) -> dict:
    """Box ``index`` gets 1 + index % 3 reward atoms: a fixed mix of 1, 2
    and 3 atoms keeps the cost of same-sized instances close across seeds."""
    if unit:
        cost = Fraction(rng.randint(0, 3), rng.choice((8, 12, 16)))
    else:
        cost = Fraction(rng.randint(0, 5), rng.choice((1, 2, 3)))
    return {"id": f"b{index:03d}", "cost": q(cost), "reward": reward(rng, 1 + index % 3, unit=unit)}


def doc(boxes: list, kind: str, edges: list) -> dict:
    if len(boxes) == 1 and kind in ("line", "tree", "forest"):
        kind, edges = "unconstrained", []
    return {"boxes": boxes, "constraint": {"kind": kind, "edges": edges}}


def ids(boxes: list) -> list:
    return [b["id"] for b in boxes]


# ---------------------------------------------------------------------------
# Order-constraint shapes
# ---------------------------------------------------------------------------

def line(rng: random.Random, n: int, shape_rng: random.Random = None) -> dict:
    boxes = [box(rng, i) for i in range(n)]
    b = ids(boxes)
    return doc(boxes, "line", [[b[i], b[i + 1]] for i in range(n - 1)])


def random_tree(rng: random.Random, n: int, shape_rng: random.Random = None, unit: bool = False) -> dict:
    """Random recursive tree: box i hangs under a uniform earlier box."""
    shape_rng = shape_rng or rng
    boxes = [box(rng, i, unit) for i in range(n)]
    b = ids(boxes)
    return doc(boxes, "tree", [[b[shape_rng.randrange(i)], b[i]] for i in range(1, n)])


def caterpillar(rng: random.Random, n: int, shape_rng: random.Random = None) -> dict:
    """A spine with one leaf hanging off each spine node."""
    boxes = [box(rng, i) for i in range(n)]
    b = ids(boxes)
    spine = b[0::2]
    edges = [[spine[i], spine[i + 1]] for i in range(len(spine) - 1)]
    edges += [[b[2 * k], b[2 * k + 1]] for k in range(len(b) // 2)]
    return doc(boxes, "tree", edges)


def path_forest(rng: random.Random, n: int, shape_rng: random.Random = None) -> dict:
    """A forest of 2..4 paths whose lengths add up to n."""
    shape_rng = shape_rng or rng
    boxes = [box(rng, i) for i in range(n)]
    b = ids(boxes)
    k = min(n, shape_rng.randint(2, 4))
    cuts = sorted(shape_rng.sample(range(1, n), k - 1)) if k > 1 else []
    edges, start = [], 0
    for end in cuts + [n]:
        edges += [[b[i], b[i + 1]] for i in range(start, end - 1)]
        start = end
    return doc(boxes, "forest", edges)


def bushy(rng: random.Random, n: int, shape_rng: random.Random = None) -> dict:
    """A shallow tree: a root, about sqrt(n) children, the rest grandchildren."""
    shape_rng = shape_rng or rng
    boxes = [box(rng, i) for i in range(n)]
    b = ids(boxes)
    width = max(1, round((n - 1) ** 0.5))
    mid = b[1:1 + width]
    edges = [[b[0], c] for c in mid]
    edges += [[shape_rng.choice(mid), c] for c in b[1 + width:]]
    return doc(boxes, "tree", edges)


def dag(rng: random.Random, n: int, shape_rng: random.Random = None) -> dict:
    """Layered DAG: after two in-degree-0 boxes, each box gets 1..2
    in-neighbours among the earlier boxes."""
    shape_rng = shape_rng or rng
    boxes = [box(rng, i) for i in range(n)]
    b = ids(boxes)
    edges = []
    for i in range(2, n):
        for p in sorted(shape_rng.sample(range(i), min(i, shape_rng.randint(1, 2)))):
            edges.append([b[p], b[i]])
    return doc(boxes, "dag", edges)


def knapsack_side(rng: random.Random, box_ids: list, shape_rng: random.Random = None) -> dict:
    shape_rng = shape_rng or rng
    d = shape_rng.randint(1, 2)
    n = len(box_ids)
    return {
        "kind": "knapsack",
        "weights": {i: [rng.randint(0, 3) for _ in range(d)] for i in box_ids},
        "capacity": [shape_rng.randint(n // 2, n + 2) for _ in range(d)],
    }


def partition_side(rng: random.Random, box_ids: list, shape_rng: random.Random = None) -> dict:
    shape_rng = shape_rng or rng
    k = shape_rng.randint(2, 3)
    return {
        "kind": "partition",
        "parts": {i: rng.randrange(k) for i in box_ids},
        "capacities": [shape_rng.randint(1, 3) for _ in range(k)],
    }


def dumps(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Workload pools.  Each item is one op's input; ops cycle through the pool in
# this order.  Consecutive items step through the size ranks, so any run of
# ops samples small and large instances alike.
# ---------------------------------------------------------------------------

TREE_SIZES = {
    "line": (10, 25, 50, 90, 150),
    "random_tree": (10, 20, 40, 70, 100),
    "caterpillar": (8, 14, 22, 32, 44),
    "path_forest": (10, 25, 50, 90, 130),
    "bushy": (10, 20, 40, 70, 100),
}
TREE_SHAPES = tuple(TREE_SIZES)
TREE_RANKS = 5
TREE_REPEATS = 4

SIM_SHAPES = ("random_tree", "caterpillar", "line", "bushy", "path_forest")
SIM_POOL = 100
SIM_TRIALS = 500

EXHAUSTIVE_POOL = 240

SHAPES = {
    "line": line,
    "random_tree": random_tree,
    "caterpillar": caterpillar,
    "path_forest": path_forest,
    "bushy": bushy,
}


def tree_solve_pool(seed: int) -> list[dict]:
    """Every (shape, size rank) cell TREE_REPEATS times.  With an odd number
    of equally filled size ranks, the median op lies inside the middle rank,
    not in the gap between two ranks."""
    cells = len(TREE_SHAPES) * TREE_RANKS
    items = []
    for j in range(cells * TREE_REPEATS):
        shape = TREE_SHAPES[j % len(TREE_SHAPES)]
        n = TREE_SIZES[shape][(j + j // len(TREE_SHAPES)) % TREE_RANKS]
        document = SHAPES[shape](rng_for(seed, "tree-solve", j), n, structure_rng("tree-solve", j))
        items.append({"name": f"t{j:02d}-{shape}-{n}", "shape": shape, "text": dumps(document)})
    return items


def simulate_pool(seed: int) -> list[dict]:
    items = []
    for j in range(SIM_POOL):
        shape = SIM_SHAPES[j % len(SIM_SHAPES)]
        n = 4 + (3 * j) % 7
        rng = rng_for(seed, "simulate", j)
        document = SHAPES[shape](rng, n, structure_rng("simulate", j))
        items.append({
            "name": f"s{j:02d}-{shape}-{n}", "shape": shape, "text": dumps(document),
            "trials": SIM_TRIALS, "rng_seed": rng.randrange(1 << 32),
        })
    return items


def exhaustive_pool(seed: int) -> list[dict]:
    items = []
    for j in range(EXHAUSTIVE_POOL):
        rng, shape_rng = rng_for(seed, "exhaustive", j), structure_rng("exhaustive", j)
        kind = ("dag", "approx", "fixed")[j % 3]
        if kind == "dag":
            n = 10 + (j // 3) % 5
            document = dag(rng, n, shape_rng)
        elif kind == "approx":
            n = 8 + (j // 3) % 5
            document = random_tree(rng, n, shape_rng)
            make_side = knapsack_side if (j // 3) % 2 else partition_side
            document["side"] = make_side(rng, ids(document["boxes"]), shape_rng)
        else:
            n = 5 + (j // 3) % 3
            document = random_tree(rng, n, shape_rng)
        items.append({"name": f"e{j:02d}-{kind}-{n}", "kind": kind, "text": dumps(document)})
    return items


CLI_COMMANDS = ("solve", "evaluate", "simulate", "oracle", "fixed-order", "approx", "learn", "example")


CLI_POOL = 20


def cli_pool(seed: int) -> list[dict]:
    """20 calls cycling through the commands, each on its own small
    document, so five passes make 100 ops."""
    items = []
    for j in range(CLI_POOL):
        command = CLI_COMMANDS[j % len(CLI_COMMANDS)]
        variant = j // len(CLI_COMMANDS)
        rng = rng_for(seed, "cli", j)
        name = f"c{j:02d}-{command}"
        argv = [command]
        document = None
        if command == "solve":
            document = (random_tree, path_forest, line)[variant](rng, 14)
        elif command == "evaluate":
            document = random_tree(rng, 10)
            if variant == 1:
                argv += ["--set", document["boxes"][0]["id"]]
        elif command == "simulate":
            document = (random_tree, line, bushy)[variant](rng, 8)
            argv += ["--trials", "300", "--seed", str(rng.randrange(1 << 32))]
        elif command == "oracle":
            document = dag(rng, 8)
        elif command == "fixed-order":
            document = random_tree(rng, 6)
        elif command == "approx":
            document = random_tree(rng, 8)
            document["side"] = (knapsack_side, partition_side)[variant](rng, ids(document["boxes"]))
            argv += ["--verify"]
        elif command == "learn":
            document = random_tree(rng, 6, rng, unit=True)
            argv += ["--epsilon", "1/4", "--delta", "1/4", "--seed", str(rng.randrange(1 << 32))]
        else:
            argv += ["guard-line"] if variant else ["figure1", "--epsilon", rng.choice(["5/4", "3/2", "7/4"])]
        item = {"name": name, "command": command, "argv": argv, "text": None}
        if document is not None:
            item["text"] = dumps(document)
            argv[1:1] = ["--input", f"{name}.json"]
        items.append(item)
    return items


POOLS = {
    "tree-solve": tree_solve_pool,
    "simulate": simulate_pool,
    "exhaustive": exhaustive_pool,
    "cli": cli_pool,
}
