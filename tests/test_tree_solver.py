from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pandorabox import (
    BoxSpec,
    ConstraintGraph,
    DiscreteDistribution,
    Instance,
    ThresholdPolicy,
    UnsupportedConstraintError,
    ValidationError,
    evaluate_threshold_exact,
    load_instance,
    merge,
    solve_exact,
    solve_line,
    solve_tree,
    weitzman_reservation,
)
from pandorabox.instances import figure1, figure1_tree_matroid
from pandorabox.tree_solver import AnnotatedEntry, AnnotatedLine

from helpers import (
    graph_children,
    line_instance_of,
    rand_box,
    rand_dist,
    rand_forest_of_paths,
    rand_knapsack_side,
    rand_line_boxes,
    rand_partition_side,
    rand_tie_instance,
    rand_tree_instance,
    with_side,
)

F = Fraction


def annotated(*pairs) -> AnnotatedLine:
    return AnnotatedLine(tuple(AnnotatedEntry(i, F(z)) for i, z in pairs))


class TestMerge:
    def test_sorted_fronts_interleave(self):
        a = annotated(("a1", 5), ("a2", 3))
        b = annotated(("b1", 4), ("b2", 2))
        assert merge([a, b]).ids() == ("a1", "b1", "a2", "b2")

    def test_within_line_order_preserved_when_nonmonotone(self):
        a = annotated(("a1", 3), ("a2", 6))
        b = annotated(("b1", 4))
        assert merge([a, b]).ids() == ("b1", "a1", "a2")

    def test_single_line_identity(self):
        a = annotated(("a1", 3), ("a2", 6))
        assert merge([a]) == a

    def test_tie_breaks_by_line_head_id(self):
        a = annotated(("x", 2))
        b = annotated(("m", 2), ("q", 2))
        assert merge([a, b]).ids() == ("m", "q", "x")

    def test_duplicate_ids_rejected(self):
        a = annotated(("a1", 3))
        with pytest.raises(ValidationError, match="duplicate"):
            merge([a, a])

    @given(
        st.lists(
            st.lists(st.integers(-4, 12), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    def test_merge_preserves_each_lines_internal_order(self, raw):
        lines = [
            AnnotatedLine(
                tuple(
                    AnnotatedEntry(f"L{i}e{j}", F(t)) for j, t in enumerate(ts)
                )
            )
            for i, ts in enumerate(raw)
        ]
        merged = merge(lines)
        assert sorted(merged.ids()) == sorted(i for l in lines for i in l.ids())
        position = {box_id: k for k, box_id in enumerate(merged.ids())}
        for line in lines:
            ids = line.ids()
            assert all(position[a] < position[b] for a, b in zip(ids, ids[1:]))

    def test_many_singletons_merge_as_a_sort(self):
        # a star or an unconstrained instance merges one line per box; the
        # merge must not rescan every pending line for each entry it pops
        rng = random.Random(97)
        entries = [AnnotatedEntry(f"s{k:04d}", F(rng.randint(0, 30), 4)) for k in range(4000)]
        rng.shuffle(entries)
        start = time.perf_counter()
        merged = merge([AnnotatedLine((e,)) for e in entries])
        elapsed = time.perf_counter() - start
        assert merged.entries == tuple(sorted(entries, key=lambda e: (-e.threshold, e.box_id)))
        assert elapsed < 2.0


class TestSolveTree:
    def test_path_tree_equals_line_solver(self):
        rng = random.Random(47)
        for _ in range(40):
            boxes = rand_line_boxes(rng, rng.randint(1, 6))
            inst = line_instance_of(boxes)
            tree_sol = solve_tree(inst)
            line_sol = solve_line(boxes)
            assert tree_sol.value == line_sol.value
            assert tree_sol.order.ids() == tuple(b.id for b in boxes)
            for entry, z in zip(tree_sol.order.entries, line_sol.thresholds.thresholds):
                assert entry.threshold == z

    def test_star_with_free_root_recovers_reservation_ordering(self):
        rng = random.Random(53)
        for _ in range(30):
            k = rng.randint(1, 5)
            root = BoxSpec("root", F(0), DiscreteDistribution.point(0))
            leaves = [rand_box(rng, i) for i in range(k)]
            inst = Instance(
                boxes=(root, *leaves),
                constraint=ConstraintGraph("tree", tuple(("root", l.id) for l in leaves)),
            )
            sol = solve_tree(inst)
            zetas = {l.id: weitzman_reservation(l) for l in leaves}
            assert all(sol.thresholds[l.id] == zetas[l.id] for l in leaves)
            expected = tuple(sorted(zetas, key=lambda i: (-zetas[i], i)))
            assert sol.order.ids() == ("root",) + expected

    def test_small_binary_tree_matches_oracle(self):
        rng = random.Random(59)
        boxes = tuple(rand_box(rng, i) for i in range(5))
        edges = (
            (boxes[0].id, boxes[1].id),
            (boxes[0].id, boxes[2].id),
            (boxes[1].id, boxes[3].id),
            (boxes[1].id, boxes[4].id),
        )
        inst = Instance(boxes=boxes, constraint=ConstraintGraph("tree", edges))
        assert solve_tree(inst).value == solve_exact(inst).value

    def test_random_trees_match_oracle(self):
        rng = random.Random(61)
        for _ in range(60):
            inst = rand_tree_instance(rng, rng.randint(1, 7))
            assert solve_tree(inst).value == solve_exact(inst).value

    def test_forest_of_paths_matches_oracle(self):
        rng = random.Random(67)
        for _ in range(60):
            inst = rand_forest_of_paths(rng, max_paths=3, max_total=7)
            assert solve_tree(inst).value == solve_exact(inst).value

    def test_unconstrained_is_weitzman(self):
        rng = random.Random(71)
        for _ in range(30):
            boxes = tuple(rand_box(rng, i) for i in range(rng.randint(1, 5)))
            inst = Instance(boxes=boxes)
            sol = solve_tree(inst)
            assert sol.value == solve_exact(inst).value
            assert all(
                sol.thresholds[b.id] == weitzman_reservation(b) for b in boxes
            )

    def test_dummy_root_never_reported(self):
        rng = random.Random(73)
        inst = rand_forest_of_paths(rng, max_paths=3, max_total=6)
        sol = solve_tree(inst)
        assert set(sol.thresholds) == {b.id for b in inst.boxes}
        assert len(sol.order.entries) == inst.n

    def test_deterministic(self):
        rng = random.Random(79)
        inst = rand_tree_instance(rng, 7)
        assert solve_tree(inst) == solve_tree(inst)

    def test_linearization_is_topological(self):
        rng = random.Random(81)
        for _ in range(40):
            inst = rand_tree_instance(rng, rng.randint(1, 8))
            order = solve_tree(inst).order.ids()
            assert sorted(order) == sorted(b.id for b in inst.boxes)
            position = {b: k for k, b in enumerate(order)}
            for parent, child in inst.constraint.edges:
                assert position[parent] < position[child]

    def test_executing_thresholds_achieves_tree_value(self):
        rng = random.Random(83)
        for _ in range(40):
            inst = rand_tree_instance(rng, rng.randint(1, 7))
            sol = solve_tree(inst)
            policy = ThresholdPolicy.for_instance(inst, sol.thresholds, sol.order.ids())
            assert evaluate_threshold_exact(inst, policy) == sol.value

    def test_dag_rejected(self):
        with pytest.raises(UnsupportedConstraintError, match="DAG"):
            solve_tree(figure1())

    def test_side_constraints_rejected(self):
        # Under a side constraint the problem is NP-hard.  On the tree
        # variant of Figure 1 the capped values of the side-free tree promise
        # 759/160, but with the side constraint the optimum is 251/64.
        matroid = figure1_tree_matroid()
        side_free = Instance(boxes=matroid.boxes, constraint=matroid.constraint)
        assert solve_tree(side_free).value == F(759, 160) > solve_exact(matroid).value == F(251, 64)
        rng = random.Random(89)
        cases = [matroid]
        for make_side in (rand_knapsack_side, rand_partition_side):
            for n in (1, 5):
                inst = rand_tree_instance(rng, n)
                cases.append(with_side(inst, make_side(rng, [b.id for b in inst.boxes])))
        for inst in cases:
            with pytest.raises(UnsupportedConstraintError, match="side constraint"):
                solve_tree(inst)

    def test_thresholds_are_subtree_indifference_points(self):
        # a box's threshold is where one is indifferent between stopping and
        # exploring its subtree optimally: checked against the exhaustive
        # oracle of the subtree alone, including minimality below it
        rng = random.Random(107)
        for _ in range(25):
            inst = rand_tree_instance(rng, rng.randint(1, 6))
            sol = solve_tree(inst)
            children = graph_children(inst.constraint)

            def subtree_ids(node):
                out = [node]
                for c in children.get(node, ()):
                    out.extend(subtree_ids(c))
                return out

            for box in inst.boxes:
                ids = set(subtree_ids(box.id))
                sub_boxes = tuple(b for b in inst.boxes if b.id in ids)
                sub_edges = tuple(
                    e for e in inst.constraint.edges if e[0] in ids and e[1] in ids
                )
                kind = "tree" if len(sub_boxes) > 1 else "unconstrained"
                sub = Instance(
                    boxes=sub_boxes, constraint=ConstraintGraph(kind, sub_edges)
                )
                z = sol.thresholds[box.id]
                assert solve_exact(sub, initial_best=z).value == z
                for delta in (F(1, 3), F(1, 64)):
                    probe = z - delta
                    assert solve_exact(sub, initial_best=probe).value > probe


def tie_heavy_instance(rng: random.Random, n: int, forest: bool) -> Instance:
    """Random tree or forest whose boxes come from a small palette, so equal
    thresholds are common; box i takes its parent among boxes 0..i-1."""
    palette = [(F(c, 2), DiscreteDistribution.of([(F(v), F(1, 2)) for v in vs]))
               for c in (0, 1, 2) for vs in ((0, 2), (1, 3), (0, 4))]
    boxes = tuple(BoxSpec(f"b{i:02d}", *rng.choice(palette)) for i in range(n))
    edges = tuple((boxes[rng.randrange(i)].id, boxes[i].id) for i in range(1, n)
                  if not forest or rng.random() < 0.6)
    kind = "unconstrained" if not edges else ("forest" if forest else "tree")
    return Instance(boxes=boxes, constraint=ConstraintGraph(kind, edges))


class TestSubtreeThresholds:
    def test_threshold_depends_only_on_own_subtree(self):
        # a box's threshold equals the one it gets from its subtree alone,
        # and from solve_line on the subtree's order; all-palette instances
        # make equal thresholds common, and the mixed tie-heavy ones add
        # zero costs and negative thresholds
        rng = random.Random(109)
        instances = [tie_heavy_instance(rng, rng.randint(1, 10), forest=trial % 2 == 1) for trial in range(300)]
        instances += [rand_tie_instance(rng, ("tree", "forest")[trial % 2], max_n=10) for trial in range(100)]
        for inst in instances:
            sol = solve_tree(inst)
            children = graph_children(inst.constraint)
            for box in inst.boxes:
                ids, stack = set(), [box.id]
                while stack:
                    node = stack.pop()
                    ids.add(node)
                    stack.extend(children.get(node, ()))
                sub_edges = tuple(e for e in inst.constraint.edges if e[0] in ids)
                sub = Instance(
                    boxes=tuple(b for b in inst.boxes if b.id in ids),
                    constraint=ConstraintGraph("tree" if sub_edges else "unconstrained", sub_edges),
                )
                sub_sol = solve_tree(sub)
                assert sub_sol.thresholds[box.id] == sol.thresholds[box.id]
                line = solve_line([inst.box_map[i] for i in sub_sol.order.ids()])
                assert line.zs == tuple(sol.thresholds[i] for i in sub_sol.order.ids())


class TestTies:
    def test_identical_subtrees_tie_break_total(self):
        dist = rand_dist(random.Random(89))
        root = BoxSpec("r", F(0), DiscreteDistribution.point(0))
        twins = [BoxSpec(f"t{i}", F(1, 2), dist) for i in range(3)]
        inst = Instance(
            boxes=(root, *twins),
            constraint=ConstraintGraph("tree", tuple(("r", t.id) for t in twins)),
        )
        sol = solve_tree(inst)
        assert sol.order.ids() == ("r", "t0", "t1", "t2")
        assert sol.value == solve_exact(inst).value


class TestScaling:
    def test_caterpillar_and_long_line_solve_fast(self):
        # each box is solved once, so these take well under a second; a
        # solver that re-solves merged lines takes about a minute on the
        # caterpillar
        rng = random.Random(113)
        boxes = tuple(rand_box(rng, i) for i in range(400))
        spine = boxes[0::2]
        edges = tuple((a.id, b.id) for a, b in zip(spine, spine[1:]))
        edges += tuple((boxes[k].id, boxes[k + 1].id) for k in range(0, 400, 2))
        inst = Instance(boxes=boxes, constraint=ConstraintGraph("tree", edges))
        start = time.perf_counter()
        assert solve_tree(inst).value > 0
        assert time.perf_counter() - start < 5.0
        line = rand_line_boxes(rng, 1500)
        start = time.perf_counter()
        assert solve_line(line).value > 0
        assert time.perf_counter() - start < 5.0

    def test_random_and_bushy_trees_solve_fast(self):
        rng = random.Random(114)
        tree = rand_tree_instance(rng, 1000)
        start = time.perf_counter()
        assert solve_tree(tree).value > 0
        assert time.perf_counter() - start < 5.0
        # a root, about sqrt(n) children, the rest grandchildren
        boxes = tuple(rand_box(rng, i) for i in range(600))
        mid = boxes[1:25]
        edges = tuple((boxes[0].id, c.id) for c in mid) + tuple((rng.choice(mid).id, c.id) for c in boxes[25:])
        bushy = Instance(boxes=boxes, constraint=ConstraintGraph("tree", edges))
        start = time.perf_counter()
        assert solve_tree(bushy).value > 0
        assert time.perf_counter() - start < 5.0


def test_solve_leaves_cached_reward_ints_unchanged():
    """A leaf's step sweeps one input, which ``max_sweep`` returns as it is:
    the box's cached int reward.  No step may mutate its lists."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import gen

    def ints(inst):
        return [(w.keys[:], w.scale, w.probs[:], w.den) for w in (b.reward.integer for b in inst.boxes)]

    for seed in (1, 2, 3):
        for item in gen.tree_solve_pool(seed):
            inst = load_instance(item["text"])
            before = ints(inst)
            solve_tree(inst)
            assert ints(inst) == before, item["name"]
