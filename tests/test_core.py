from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pandorabox import (
    BoxSpec,
    CapExceededError,
    ConstraintGraph,
    DiscreteDistribution,
    Instance,
    MatroidSideConstraint,
    ParseError,
    ValidationError,
    dump_instance,
    load_instance,
    parse_rational,
    validate_instance,
    weitzman_reservation,
)
from pandorabox.core import MAX_DOCUMENT_BYTES, MAX_SIDE_ENTRIES, IntDistribution, max_sweep
from pandorabox.instances import figure1
from pandorabox.line_solver import NOTHING

from helpers import (
    MALFORMED_INT_FORMS,
    brute_max_distribution,
    expectation,
    expected_excess,
    int_distribution,
    int_distribution_violation,
    max_distribution,
    quadratic_max_distribution,
    quadratic_reservation,
    rand_dist,
)

F = Fraction


def coin(hi, p=F(1, 2)) -> DiscreteDistribution:
    return DiscreteDistribution.of([(F(hi), p), (F(0), 1 - p)])


MINIMAL_DOC = json.dumps(
    {
        "boxes": [
            {
                "id": "solo",
                "cost": "1",
                "reward": [
                    {"value": "3", "prob": "1/2"},
                    {"value": "0", "prob": "1/2"},
                ],
            }
        ],
        "constraint": {"kind": "unconstrained", "edges": [], "roots": []},
    }
)


class TestParseRational:
    def test_forms(self):
        assert parse_rational("1/2") == F(1, 2)
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("3") == 3
        assert parse_rational(7) == 7
        assert parse_rational("-2/3") == F(-2, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("one half")
        with pytest.raises(ParseError):
            parse_rational("1/0")
        with pytest.raises(ParseError):
            parse_rational(0.25)

    @pytest.mark.parametrize("text", ["1e5000", "1e-5000", "1e4_400", "1E+4301"])
    def test_rejects_exponent_beyond_the_bound(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_accepts_exponent_at_the_bound(self):
        assert parse_rational("1e4300") == 10**4300
        assert parse_rational("1e-4300") == F(1, 10**4300)
        assert parse_rational(" 1E1_0 ") == 10**10


class TestLoadInstance:
    def test_minimal_document(self):
        inst = load_instance(MINIMAL_DOC)
        assert inst.n == 1
        assert inst.boxes[0].cost == 1
        assert inst.boxes[0].reward.atoms == ((F(0), F(1, 2)), (F(3), F(1, 2)))

    def test_size_cap_counts_utf8_bytes(self):
        at_cap = MINIMAL_DOC + " " * (MAX_DOCUMENT_BYTES - len(MINIMAL_DOC))
        assert load_instance(at_cap).n == 1
        with pytest.raises(CapExceededError, match="larger than"):
            load_instance(at_cap + " ")
        with pytest.raises(CapExceededError, match="larger than"):  # the last character takes two bytes
            load_instance(at_cap[:-1] + "\u00e9")

    def test_builtin_diamond_document_round_trips(self):
        inst = figure1(F(3, 2))
        assert inst.n == 4
        again = load_instance(dump_instance(inst))
        assert again == inst

    def test_bad_probability_sum_names_box(self):
        doc = json.loads(MINIMAL_DOC)
        doc["boxes"][0]["reward"][0]["prob"] = "2/5"
        with pytest.raises(ValidationError, match="solo"):
            load_instance(json.dumps(doc))

    def test_cycle_detected(self):
        doc = {
            "boxes": [
                {"id": "a", "cost": "0", "reward": [{"value": "1", "prob": "1"}]},
                {"id": "b", "cost": "0", "reward": [{"value": "1", "prob": "1"}]},
            ],
            "constraint": {"kind": "tree", "edges": [["a", "b"], ["b", "a"]]},
        }
        with pytest.raises(ValidationError):
            load_instance(json.dumps(doc))

    def test_dangling_edge_named(self):
        doc = json.loads(MINIMAL_DOC)
        doc["constraint"] = {"kind": "tree", "edges": [["solo", "ghost"]]}
        with pytest.raises(ValidationError, match="ghost"):
            load_instance(json.dumps(doc))

    def test_reserved_prefix_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["boxes"][0]["id"] = "__root__"
        with pytest.raises(ValidationError, match="reserved"):
            load_instance(json.dumps(doc))

    def test_negative_cost_rejected_by_default(self):
        doc = json.loads(MINIMAL_DOC)
        doc["boxes"][0]["cost"] = "-1"
        with pytest.raises(ValidationError, match="negative"):
            load_instance(json.dumps(doc))

    def test_side_constraint_round_trip(self):
        inst = load_instance(MINIMAL_DOC)
        side = MatroidSideConstraint.knapsack({"solo": (1,)}, (1,))
        inst = Instance(boxes=inst.boxes, constraint=inst.constraint, side=side)
        again = load_instance(dump_instance(inst))
        assert again.side == side

    @pytest.mark.parametrize(
        "side",
        [  # built in the test: a boolean part raises in partition() already
            (MatroidSideConstraint.knapsack, {"solo": (True,)}, (1,)),
            (MatroidSideConstraint.knapsack, {"solo": (1,)}, (True,)),
            (MatroidSideConstraint.partition, {"solo": False}, (1,)),
            (MatroidSideConstraint.partition, {"solo": 0}, (True,)),
        ],
    )
    def test_boolean_side_entries_rejected(self, side):
        make, entries, capacity = side
        inst = load_instance(MINIMAL_DOC)
        with pytest.raises(ValidationError):
            validate_instance(Instance(boxes=inst.boxes, side=make(entries, capacity)))

    def test_capacity_bound_enforced(self):
        inst = load_instance(MINIMAL_DOC)
        side = MatroidSideConstraint.knapsack({"solo": (1,)}, (11,))
        with pytest.raises(ValidationError, match="exceeds"):
            validate_instance(Instance(boxes=inst.boxes, side=side))


class TestPartitionSide:
    """A partition is held as the knapsack of its parts' unit vectors."""

    @pytest.mark.parametrize("part", [False, True, -1, 2, 1.0, "0", None, [0]])
    def test_bad_part_raises_at_construction(self, part):
        with pytest.raises(ValidationError, match="invalid part index"):
            MatroidSideConstraint.partition({"solo": part}, (1, 1))

    def test_too_many_weight_entries_raise_before_building(self):
        with pytest.raises(CapExceededError, match="weight entries"):
            MatroidSideConstraint.partition({"a": 0, "b": 0}, (0,) * (MAX_SIDE_ENTRIES // 2 + 1))
        assert MatroidSideConstraint.partition({"a": 0, "b": 0}, (0,) * (MAX_SIDE_ENTRIES // 2)).weights["b"][0] == 1

    @pytest.mark.parametrize("vector", [(0, 0), (1, 1), (2, 0), (0, -1)])
    def test_hand_built_partition_needs_unit_vectors(self, vector):
        inst = load_instance(MINIMAL_DOC)
        side = MatroidSideConstraint("partition", {"solo": vector}, (1, 1))
        with pytest.raises(ValidationError, match="weight vector for box 'solo'"):
            validate_instance(Instance(boxes=inst.boxes, side=side))

    def test_none_side_takes_no_weights(self):
        inst = load_instance(MINIMAL_DOC)
        for side in (MatroidSideConstraint("none", {"solo": (1,)}, ()), MatroidSideConstraint("none", {}, (0,))):
            with pytest.raises(ValidationError, match="'none'"):
                validate_instance(Instance(boxes=inst.boxes, side=side))

    def test_parts_out_of_box_order_dump_back_identically(self):
        doc = json.loads(MINIMAL_DOC)
        doc["boxes"] += [dict(doc["boxes"][0], id=box_id) for box_id in ("b", "a")]
        doc["side"] = {"kind": "partition", "parts": {"a": 1, "solo": 0, "b": 1}, "capacities": [1, 2]}
        text = dump_instance(load_instance(json.dumps(doc)))
        assert json.loads(text)["side"] == doc["side"]
        assert list(json.loads(text)["side"]["parts"]) == ["a", "solo", "b"]
        assert dump_instance(load_instance(text)) == text

    def test_partition_compiles_as_the_unit_vector_knapsack(self):
        rng = random.Random(27)
        boxes = load_instance(MINIMAL_DOC).boxes
        boxes = tuple(BoxSpec(f"b{i}", boxes[0].cost, boxes[0].reward) for i in range(6))
        for _ in range(20):
            k = rng.randint(1, 4)
            parts = {b.id: rng.randrange(k) for b in boxes}
            caps = tuple(rng.randint(0, 3) for _ in range(k))
            units = {i: tuple(int(j == part) for j in range(k)) for i, part in parts.items()}
            a, b = (validate_instance(Instance(boxes, side=side)).order_model
                    for side in (MatroidSideConstraint.partition(parts, caps),
                                 MatroidSideConstraint.knapsack(units, caps)))
            assert (a.weights, a.capacity) == (b.weights, b.capacity)


class TestParserFuzz:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("boxes", {}),
            lambda d: d.__setitem__("boxes", []),
            lambda d: d["boxes"].__setitem__(0, "not a box"),
            lambda d: d["boxes"][0].pop("cost"),
            lambda d: d["boxes"][0].__setitem__("id", 7),
            lambda d: d["boxes"][0].__setitem__("reward", []),
            lambda d: d["boxes"][0]["reward"][0].pop("prob"),
            lambda d: d["boxes"][0].__setitem__("cost", 0.25),
            lambda d: d.__setitem__("constraint", "line"),
            lambda d: d.__setitem__("constraint", {"kind": "spiral"}),
            lambda d: d.__setitem__(
                "constraint", {"kind": "line", "edges": [["solo"]]}
            ),
            lambda d: d.__setitem__("side", {"kind": "mystery"}),
            lambda d: d.__setitem__("side", {"kind": "knapsack"}),
        ],
    )
    def test_malformed_documents_raise_package_errors(self, mutate):
        from pandorabox import PandoraError

        doc = json.loads(MINIMAL_DOC)
        mutate(doc)
        with pytest.raises(PandoraError):
            load_instance(json.dumps(doc))

    def test_non_json_input(self):
        with pytest.raises(ParseError):
            load_instance("{not json")


class TestExpectedExcess:
    def test_worked_values(self):
        dist = coin(3)
        assert expected_excess(dist, F(1)) == 1  # 1/2 * (3 - 1)
        assert expected_excess(dist, F(3)) == 0
        assert expected_excess(dist, F(-1)) == F(5, 2)  # E[X] - z below support

    def test_matches_direct_sum_on_random_dists(self):
        rng = random.Random(101)
        for _ in range(200):
            dist = rand_dist(rng)
            z = F(rng.randint(-4, 10), rng.randint(1, 4))
            direct = sum(
                (p * (v - z) for v, p in dist.atoms if v > z), start=F(0)
            )
            assert expected_excess(dist, z) == direct

    @given(st.integers(-20, 40), st.integers(-20, 40), st.integers(1, 8))
    def test_lipschitz_and_monotone(self, a_num, b_num, den):
        rng = random.Random(a_num * 1000 + b_num + den)
        dist = rand_dist(rng)
        a, b = sorted((F(a_num, den), F(b_num, den)))
        drop = expected_excess(dist, a) - expected_excess(dist, b)
        assert F(0) <= drop <= b - a


class TestWeitzmanReservation:
    def test_worked_values(self):
        assert weitzman_reservation(BoxSpec("a", F(1), coin(3))) == 1
        assert weitzman_reservation(BoxSpec("a", F(0), DiscreteDistribution.point(2))) == 2
        assert weitzman_reservation(BoxSpec("a", F(2), DiscreteDistribution.point(1))) == -1

    def test_negative_cost_is_refused_naming_the_box(self):
        with pytest.raises(ValidationError, match=r"^box 'neg' has negative cost -1/2$"):
            weitzman_reservation(BoxSpec("neg", F(-1, 2), DiscreteDistribution.point(1)))

    def test_root_property_and_minimality(self):
        rng = random.Random(7)
        for _ in range(200):
            box = BoxSpec("a", F(rng.randint(0, 6), rng.randint(1, 3)), rand_dist(rng))
            zeta = weitzman_reservation(box)
            assert expected_excess(box.reward, zeta) == box.cost
            for delta in (F(1, 7), F(1, 64), F(3, 5)):
                if box.cost > 0:
                    assert expected_excess(box.reward, zeta - delta) > box.cost
                else:
                    # cost 0: the smallest zero of the excess is the top value
                    assert zeta == box.reward.atoms[-1][0]

    def test_top_down_scan_matches_quadratic_scan(self):
        rng = random.Random(71)
        for k in range(600):
            dist = rand_dist(rng, max_support=7, max_value=30)
            mean = expectation(dist)
            # zero cost, a cost inside (0, E[X]], and a cost above E[X]
            cost = (F(0), mean * F(rng.randint(1, 8), 8), mean + F(rng.randint(1, 6), 3))[k % 3]
            box = BoxSpec("a", cost, dist)
            assert weitzman_reservation(box) == quadratic_reservation(box)


class TestMaxDistribution:
    def test_identity(self):
        d = DiscreteDistribution.point(0)
        assert max_distribution([d]) == d

    def test_empty_input_names_max_sweep(self):
        with pytest.raises(ValidationError, match="^max_sweep needs at least one distribution$"):
            max_sweep([])

    def test_two_coins(self):
        d = coin(1)
        assert max_distribution([d, d]).atoms == ((F(0), F(1, 4)), (F(1), F(3, 4)))

    def test_point_vs_coin(self):
        out = max_distribution([DiscreteDistribution.point(2), coin(3)])
        assert out.atoms == ((F(2), F(1, 2)), (F(3), F(1, 2)))

    def test_against_product_enumeration(self):
        rng = random.Random(21)
        for _ in range(80):
            dists = [rand_dist(rng) for _ in range(rng.randint(1, 4))]
            result = max_distribution(dists)
            assert list(result.atoms) == brute_max_distribution(dists)
            assert sum(result.probs()) == 1

    def test_one_sweep_matches_quadratic_sweep(self):
        rng = random.Random(73)
        cases = [[rand_dist(rng, max_support=6, max_value=20) for _ in range(rng.randint(1, 6))] for _ in range(300)]
        # wide maxima with point masses: running CDFs leave 0 at different
        # atoms and several reach 1 early
        for _ in range(20):
            wide = [rand_dist(rng, max_support=4, max_value=12) for _ in range(rng.randint(20, 60))]
            wide += [DiscreteDistribution.point(rng.randint(0, 12)) for _ in range(rng.randint(0, 3))]
            rng.shuffle(wide)
            cases.append(wide)
        for dists in cases:
            result = list(max_distribution(dists).atoms)
            assert result == quadratic_max_distribution(dists)
            if len(dists) <= 3:
                assert result == brute_max_distribution(dists)

    @staticmethod
    def two_input_cases():
        of = DiscreteDistribution.of
        yield "different scales", of([(F(1, 3), "1/2"), (F(5, 2), "1/2")]), of([(F(1, 4), "1/5"), (F(2, 7), "4/5")])
        yield "shared keys", of([(0, "1/4"), (1, "1/4"), (2, "1/2")]), of([(1, "1/3"), (2, "1/3"), (3, "1/3")])
        yield "one atom each", DiscreteDistribution.point(2), DiscreteDistribution.point(F(3, 2))
        yield "one atom and a coin", DiscreteDistribution.point(2), coin(3)
        yield "a coin and one atom", coin(3), DiscreteDistribution.point(2)
        yield "all keys below", of([(0, "1/2"), (1, "1/2")]), of([(5, "2/3"), (F(13, 2), "1/3")])
        yield "all keys above", of([(5, "2/3"), (F(13, 2), "1/3")]), of([(0, "1/2"), (1, "1/2")])
        rng = random.Random(83)
        for _ in range(300):
            yield "random", rand_dist(rng, max_support=6, max_value=20), rand_dist(rng, max_support=6, max_value=20)

    def test_two_input_merge_has_the_ints_of_the_sort_sweep(self):
        """Two inputs take the merge path; a third, the point mass at 0, takes
        the sort path and changes no int.  The inputs' order changes no int
        either: the two swapped, and every permutation of 3-4 inputs."""
        def ints(d):
            return d.keys, d.scale, d.probs, d.den, d.carrier

        for name, a, b in self.two_input_cases():
            x, y = a.integer, b.integer
            before = [(d.keys[:], d.scale, d.probs[:], d.den) for d in (x, y)]
            merged = max_sweep([x, y])
            for other in (max_sweep([x, y, NOTHING]), max_sweep([y, x])):
                assert ints(merged) == ints(other), name
            assert list(int_distribution(merged).atoms) == quadratic_max_distribution([a, b]), name
            assert [(d.keys, d.scale, d.probs, d.den) for d in (x, y)] == before, name
        rng = random.Random(89)
        for _ in range(60):
            dists = [rand_dist(rng, max_support=6, max_value=20).integer for _ in range(rng.randint(3, 4))]
            first = ints(max_sweep(dists))
            for perm in itertools.permutations(dists):
                assert ints(max_sweep(list(perm))) == first

    def test_one_input_sweep_is_its_input(self):
        rng = random.Random(79)
        for _ in range(200):
            d = rand_dist(rng, max_support=6, max_value=20)
            w = max_sweep([d.integer])
            assert w is d.integer
            assert list(int_distribution(w).atoms) == quadratic_max_distribution([d])


class TestDistributionValidation:
    def test_rejects_bad_atoms(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(((F(1), F(1, 2)),))  # sums to 1/2
        with pytest.raises(ValidationError):
            DiscreteDistribution(((F(-1), F(1)),))  # negative value
        with pytest.raises(ValidationError):
            DiscreteDistribution(((F(2), F(1, 2)), (F(1), F(1, 2))))  # not sorted

    def test_int_form(self):
        d = DiscreteDistribution.of([(F(5, 2), "1/6"), (0, "1/2"), (F(4, 3), "1/3")])
        ints = d.integer
        assert (ints.keys, ints.scale, ints.probs, ints.den) == ([0, 8, 15], 6, [3, 2, 1], 6)
        assert int_distribution(ints) == d and ints.expectation() == expectation(d)
        assert d.integer is ints  # cached, like cut_points

    @pytest.mark.parametrize("keys, probs, den", MALFORMED_INT_FORMS)
    def test_int_form_checks_its_invariants(self, keys, probs, den):
        # the constructor stores its fields; the tests' guard flags each malformed form
        assert int_distribution_violation(IntDistribution(keys, 1, probs, den)) is not None

    def test_of_merges_duplicates(self):
        d = DiscreteDistribution.of([(1, "1/4"), (1, "1/4"), (0, "1/2")])
        assert d.atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))


class TestConstraintValidation:
    def test_line_must_chain(self):
        boxes = (
            BoxSpec("a", F(0), coin(1)),
            BoxSpec("b", F(0), coin(1)),
            BoxSpec("c", F(0), coin(1)),
        )
        good = ConstraintGraph("line", (("a", "b"), ("b", "c")))
        validate_instance(Instance(boxes=boxes, constraint=good))
        branching = ConstraintGraph("line", (("a", "b"), ("a", "c")))
        with pytest.raises(ValidationError, match="branches"):
            validate_instance(Instance(boxes=boxes, constraint=branching))

    def test_multiple_parents_rejected_for_tree(self):
        boxes = (
            BoxSpec("a", F(0), coin(1)),
            BoxSpec("b", F(0), coin(1)),
            BoxSpec("c", F(0), coin(1)),
        )
        graph = ConstraintGraph("tree", (("a", "c"), ("b", "c")))
        with pytest.raises(ValidationError, match="multiple parents"):
            validate_instance(Instance(boxes=boxes, constraint=graph))

    def test_dag_allows_multiple_parents(self):
        inst = figure1()
        assert inst.constraint.kind == "dag"
        validate_instance(inst)
