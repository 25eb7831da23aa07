from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pandorabox import (
    BoxSpec,
    ConstraintKind,
    DiscreteDistribution,
    InvariantError,
    ValidationError,
    line_optimal_value,
    solve_exact,
    solve_line,
    weitzman_reservation,
)
from pandorabox.instances import adaptivity_gap
from pandorabox.line_solver import _horizons, capped_step

from helpers import (
    check_line_submartingale,
    enumerate_realizations,
    expectation,
    expected_excess,
    int_distribution,
    line_instance_of,
    macro_partition,
    quadratic_max_distribution,
    quadratic_reservation,
    rand_box,
    rand_dist,
    rand_line_boxes,
    rand_tie_instance,
    reference_horizons,
)

F = Fraction


def box(bid, cost, pairs) -> BoxSpec:
    return BoxSpec(bid, F(cost), DiscreteDistribution.of(pairs))


GUARD = [box("g1", 1, [(0, 1)]), box("g2", 0, [(2, 1)])]


class TestSolveLine:
    def test_guard_line_thresholds(self):
        sol = solve_line(GUARD)
        assert sol.zs == (F(1), F(2))

    def test_guard_line_values(self):
        sol = solve_line(GUARD)
        assert sol.at(F(0), 1) == 1
        assert sol.at(F(3), 1) == 3
        with pytest.raises(InvariantError):
            sol.at(F(-1, 2), 1)  # below the domain start 0

    def test_single_box_recovers_reservation_value(self):
        rng = random.Random(3)
        for _ in range(100):
            b = rand_box(rng, 0)
            assert solve_line([b]).zs[0] == weitzman_reservation(b)

    def test_threshold_can_sit_between_support_values(self):
        # The deeper levels' fixed points create breakpoints between
        # support values; support-grid interpolation would report 8/5 here.
        prefix = box("p", "1/4", [("3/2", "1/2"), (0, "1/2")])
        sol = solve_line([prefix] + GUARD)
        assert sol.zs[0] == 1

    def test_negative_threshold_for_cost_dominated_prefix(self):
        sol = solve_line([box("a", 2, [(1, 1)])])
        assert sol.zs == (F(-1),)
        assert sol.value == 0

    def test_value_matches_fast_path_and_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            boxes = rand_line_boxes(rng, rng.randint(1, 6))
            sol = solve_line(boxes)
            assert sol.value == line_optimal_value(boxes)
            assert sol.value == solve_exact(line_instance_of(boxes)).value


class TestHorizons:
    def test_matches_the_quadratic_scan(self):
        rng = random.Random(41)
        for _ in range(1600):
            boxes = list(rand_tie_instance(rng, ConstraintKind.LINE).boxes)
            sol = solve_line(boxes)
            assert sol.horizons == reference_horizons(sol.zs)

    @pytest.mark.parametrize(
        "zs, horizons",
        [
            ((1, 2, 2, 1, 0), (4, 3, 3, 4, 5)),  # a tie does not end a horizon
            ((3, 2, 1), (1, 2, 3)),  # strictly decreasing
            ((5, 5, 5, 5), (4, 4, 4, 4)),  # constant
            ((-1, -3, 2, -3, -2), (1, 5, 3, 5, 5)),  # negative thresholds
            ((7,), (1,)),
            ((), ()),
        ],
    )
    def test_hand_cases(self, zs, horizons):
        zs = tuple(map(F, zs))
        assert _horizons(zs) == reference_horizons(zs) == horizons


class TestComputeThreshold:
    """The threshold a box gets as the prefix of a solved line: one prepend step."""

    def test_guard_prefix(self):
        assert solve_line([GUARD[1]]).prepend(GUARD[0]).zs[0] == 1

    def test_empty_line_is_reservation_value(self):
        b = box("a", 1, [(3, "1/2"), (0, "1/2")])
        assert solve_line([]).prepend(b).zs[0] == weitzman_reservation(b)

    def test_free_box_dominating_future(self):
        free = box("f", 0, [(5, 1)])
        assert solve_line(GUARD).prepend(free).zs[0] == 5

    def test_matches_full_resolve(self):
        rng = random.Random(13)
        for _ in range(50):
            boxes = rand_line_boxes(rng, rng.randint(1, 5))
            head = rand_box(rng, 99)
            full = solve_line([head] + boxes)
            stepped = solve_line(boxes).prepend(head)
            assert stepped.zs[0] == full.zs[0]
            assert stepped.zs == full.zs and stepped.horizons == full.horizons
            assert stepped.grid == full.grid
            for i in range(1, len(boxes) + 3):
                for x in full.grid:
                    assert stepped.at(x, i) == full.at(x, i)


def big_dist(rng: random.Random, bits: int = 200) -> DiscreteDistribution:
    """Up to four atoms whose values and probabilities have denominators of
    at least ``bits`` bits."""
    den = rng.getrandbits(bits) | 1 << bits
    cuts = sorted({rng.randrange(1, den) for _ in range(rng.randint(0, 3))})
    probs = [F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]
    value_den = rng.getrandbits(bits) | 1 << bits
    values = [F(rng.randrange(8 * value_den), value_den) for _ in probs]
    if rng.random() < 0.3:
        values[0] = F(rng.randint(0, 8))  # a small value the other inputs may share
    return DiscreteDistribution.of(zip(values, probs))


def reference_capped_step(box: BoxSpec, after: list[DiscreteDistribution]) -> tuple[DiscreteDistribution, Fraction, list]:
    """W, z and the atoms of kappa from the quadratic max, the quadratic
    reservation scan and the cap min(W, max(z, 0)), all on Fractions."""
    w = DiscreteDistribution(tuple(quadratic_max_distribution([box.reward, *after])))
    z = quadratic_reservation(BoxSpec(box.id, box.cost, w))
    top = max(z, F(0))
    kept = [(v, p) for v, p in w.atoms if v < top]
    return w, z, kept + [(top, 1 - sum((p for _, p in kept), F(0)))]


class TestCappedStep:
    """The int step (max sweep, reservation scan, cap) against the Fraction
    references, atom for atom."""

    def cases(self):
        rng = random.Random(2027)
        for k in range(640):
            big = k % 4 == 1
            make = (lambda: big_dist(rng)) if big else (lambda: rand_dist(rng, max_support=5, max_value=10))
            reward, after = make(), [make() for _ in range(rng.randint(0, 4))]
            w = DiscreteDistribution(tuple(quadratic_max_distribution([reward, *after])))
            mean = expectation(w)
            kind = k % 5
            if kind == 0:
                cost = F(0)
            elif kind == 1:  # above E[W]: z < 0, kappa is the point mass at 0
                cost = mean + F(rng.randint(1, 5), rng.randint(1, 3))
            elif kind == 2:  # z exactly on a support value below the top
                cost = expected_excess(w, rng.choice(w.values()[:-1] or w.values()))
            else:
                cost = mean * F(rng.randint(1, 9), 9)
            yield BoxSpec("b", cost, reward), after

    def test_matches_fraction_references(self):
        n = on_support = big = negative = 0
        for box, after in self.cases():
            z, kappa = capped_step(box, [d.integer for d in after])
            w, ref_z, ref_atoms = reference_capped_step(box, after)
            assert type(z) is Fraction and z == ref_z
            assert list(int_distribution(kappa).atoms) == ref_atoms
            # the ints are as small as the reduced Fractions: scale and den
            # are the lcm of the value and probability denominators
            assert kappa.scale == math.lcm(*[v.denominator for v, _ in ref_atoms])
            assert kappa.den == math.lcm(*[p.denominator for _, p in ref_atoms])
            assert kappa.expectation() == sum((v * p for v, p in ref_atoms), F(0))
            n += 1
            on_support += box.cost > 0 and ref_z in w.values()
            big += w.probs()[0].denominator.bit_length() > 200
            negative += ref_z < 0
        assert n >= 500 and on_support >= 100 and big >= 100 and negative >= 100

    def test_line_steps_stay_reduced(self):
        rng = random.Random(2028)
        kappa = DiscreteDistribution.point(0)
        for i in range(60):
            box = BoxSpec(f"b{i}", F(rng.randint(0, 4), rng.randint(1, 7)), big_dist(rng, 64))
            z, step = capped_step(box, [kappa.integer])
            _, ref_z, ref_atoms = reference_capped_step(box, [kappa])
            assert z == ref_z and list(int_distribution(step).atoms) == ref_atoms
            assert step.den == math.lcm(*[p.denominator for _, p in ref_atoms])
            kappa = DiscreteDistribution(tuple(ref_atoms))

    def test_carried_reductions_stay_complete(self):
        """solve_line carries each kappa's ints from step to step; every one is
        in lowest terms, also where a step divides by the carrier more than once."""

        def dyadic(rng):  # up to three atoms with probabilities over 8
            k = rng.randint(1, 3)
            cuts = sorted(rng.sample(range(1, 8), k - 1))
            values = sorted(rng.sample(range(40), k))
            return DiscreteDistribution.of((v, F(b - a, 8)) for v, a, b in zip(values, [0, *cuts], [*cuts, 8]))

        rng = random.Random(2029)
        dyadic_line = [BoxSpec(f"b{i:03d}", F(rng.randint(0, 6), rng.choice((1, 2, 4))), dyadic(rng))
                       for i in range(120)]
        lines = [adaptivity_gap(F(1, q)).boxes[:300] for q in (10, 20, 30)] + [dyadic_line]
        solutions = [solve_line(boxes) for boxes in lines]
        for solution in solutions:
            for kappa in solution.kappas:
                assert math.gcd(kappa.den, *kappa.probs) == 1 and math.gcd(kappa.scale, *kappa.keys) == 1
        # a step whose reduction removed a factor that W's carrier does not
        # hold divided by a gcd with the carrier twice or more
        kappas, repeated = solutions[-1].kappas, 0
        for b, kappa, after in zip(dyadic_line, kappas, kappas[1:]):
            removed = b.reward.integer.den * after.den // kappa.den
            repeated += removed % math.lcm(b.reward.integer.carrier, after.carrier) != 0
        assert repeated >= 10


class TestMacroPartition:
    @pytest.mark.parametrize(
        "z, expected",
        [
            ([5, 3, 2], (1, 2, 3)),
            ([3, 6, 2], (1, 3)),
            ([4], (1,)),
        ],
    )
    def test_worked_examples(self, z, expected):
        assert macro_partition(tuple(F(v) for v in z)).boundaries == expected

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            macro_partition(())

    def test_runs_stay_above_leader(self):
        rng = random.Random(17)
        for _ in range(80):
            sol = solve_line(rand_line_boxes(rng, rng.randint(1, 6)))
            z = sol.zs
            bounds = macro_partition(z).boundaries
            assert bounds[0] == 1
            for k, leader in enumerate(bounds):
                end = bounds[k + 1] - 1 if k + 1 < len(bounds) else len(z)
                for j in range(leader + 1, end + 1):
                    assert z[j - 1] > z[leader - 1]


class TestClaimedInvariants:
    N_LINES = 150

    def test_monotone_append(self):
        rng = random.Random(19)
        for _ in range(self.N_LINES):
            boxes = rand_line_boxes(rng, rng.randint(1, 5))
            extra = rand_box(rng, 77)
            before = solve_line(boxes).zs
            after = solve_line(boxes + [extra]).zs
            assert all(b >= a for a, b in zip(before, after))

    def test_prefix_dependence_window(self):
        rng = random.Random(23)
        for _ in range(self.N_LINES):
            boxes = rand_line_boxes(rng, rng.randint(1, 6))
            sol = solve_line(boxes)
            z = sol.zs
            d = sol.horizons
            for i in range(1, len(boxes) + 1):
                window = boxes[i - 1 : d[i - 1]]
                assert solve_line(window).zs[0] == z[i - 1]

    def test_fixed_point_and_minimality(self):
        rng = random.Random(29)
        for _ in range(self.N_LINES):
            boxes = rand_line_boxes(rng, rng.randint(1, 6))
            sol = solve_line(boxes)
            for i, z in enumerate(sol.zs, start=1):
                if z >= 0:
                    assert sol.at(z, i) == z
                    assert z in sol.grid
                for x in sol.grid:
                    if x < z:
                        assert sol.at(x, i) > x

    def test_lipschitz_between_grid_points(self):
        rng = random.Random(31)
        for _ in range(self.N_LINES):
            boxes = rand_line_boxes(rng, rng.randint(1, 6))
            sol = solve_line(boxes)
            for i in range(1, len(boxes) + 2):
                for a, b in zip(sol.grid, sol.grid[1:]):
                    diff = sol.at(b, i) - sol.at(a, i)
                    assert F(0) <= diff <= b - a
                    assert sol.at((a + b) / 2, i) == (sol.at(a, i) + sol.at(b, i)) / 2  # linear
                top = sol.grid[-1]
                assert sol.at(top, i) == top  # identity above the grid
            n1 = len(boxes) + 1
            for x in sol.grid:
                assert sol.at(x, n1) == x  # horizon level is the identity

    def test_stopping_time_independent_of_start_below_strict_minimum(self):
        # When z_i is strictly below every later threshold, the run from
        # box i opens the same boxes for every start value in [0, z_i]
        # (under the proceed-at-equality convention).
        rng = random.Random(37)
        checked = 0
        for _ in range(200):
            boxes = rand_line_boxes(rng, rng.randint(2, 5))
            z = solve_line(boxes).zs
            n = len(boxes)
            for i in range(1, n):
                zi = z[i - 1]
                if zi <= 0 or any(z[j] <= zi for j in range(i, n)):
                    continue
                checked += 1
                suffix = boxes[i - 1 :]
                zs = z[i - 1 :]
                for values, _ in enumerate_realizations(suffix):
                    opened = set()
                    for start in (F(0), zi / 2, zi):
                        y = start
                        run = []
                        for t, b in enumerate(suffix):
                            if y > zs[t]:
                                break
                            run.append(b.id)
                            if values[b.id] > y:
                                y = values[b.id]
                        opened.add(tuple(run))
                    assert len(opened) == 1
        assert checked > 20

    def test_submartingale_over_macro_boxes(self):
        rng = random.Random(41)
        for _ in range(25):
            boxes = rand_line_boxes(rng, rng.randint(1, 5))
            check_line_submartingale(boxes)

    def test_value_function_matches_oracle_between_grid_points(self):
        # the oracle accepts any starting best reward, so it can probe the
        # piecewise-linear interpolation at points strictly between knots
        rng = random.Random(97)
        for _ in range(40):
            boxes = rand_line_boxes(rng, rng.randint(1, 5))
            sol = solve_line(boxes)
            probes = set()
            for a, b in zip(sol.grid, sol.grid[1:]):
                probes.add((a + b) / 2)
                probes.add(a + (b - a) / 7)
            probes.add(sol.grid[-1] + F(13, 9))
            for i in range(1, len(boxes) + 1):
                suffix = line_instance_of(boxes[i - 1 :])
                for x in sorted(probes):
                    assert sol.at(x, i) == solve_exact(suffix, initial_best=x).value


class TestDegenerateLines:
    def test_all_zero_rewards(self):
        boxes = [BoxSpec(f"z{i}", F(i, 3), DiscreteDistribution.point(0)) for i in range(4)]
        sol = solve_line(boxes)
        assert sol.value == 0
        assert all(z <= 0 for z in sol.zs)

    def test_free_zero_reward_chain_prepends_harmlessly(self):
        chain = [BoxSpec(f"f{i}", F(0), DiscreteDistribution.point(0)) for i in range(3)]
        prize = BoxSpec("p", F(1), DiscreteDistribution.of([(5, "1/2"), (0, "1/2")]))
        sol = solve_line(chain + [prize])
        assert sol.value == solve_line([prize]).value == F(3, 2)
        assert sol.zs[-1] == weitzman_reservation(prize)

    def test_equal_thresholds_everywhere(self):
        dist = DiscreteDistribution.of([(4, "1/4"), (0, "3/4")])
        boxes = [BoxSpec(f"t{i}", F(1), dist) for i in range(5)]
        sol = solve_line(boxes)
        zs = sol.zs
        assert zs[-1] == weitzman_reservation(boxes[-1])
        assert all(a >= b for a, b in zip(zs, zs[1:]))  # suffix shrinks
        assert sol.value == solve_exact(line_instance_of(boxes)).value

    def test_large_denominators_stay_exact(self):
        boxes = [
            BoxSpec("a", F(355, 113), DiscreteDistribution.of([(F(22, 7), F(97, 101)), (F(1000003, 99991), F(4, 101))])),
            BoxSpec("b", F(1, 99991), DiscreteDistribution.of([(F(2, 3), F(1, 2)), (F(1000000, 99991), F(1, 2))])),
        ]
        sol = solve_line(boxes)
        assert sol.value == line_optimal_value(boxes)
        assert sol.value == solve_exact(line_instance_of(boxes)).value

    def test_moderately_long_line_monotone_thresholds(self):
        # identical boxes: thresholds decrease toward the standalone value
        dist = DiscreteDistribution.of([(9, "1/3"), (0, "2/3")])
        boxes = [BoxSpec(f"i{k:02d}", F(1), dist) for k in range(40)]
        sol = solve_line(boxes)
        zs = sol.zs
        assert all(a >= b for a, b in zip(zs, zs[1:]))
        assert zs[-1] == weitzman_reservation(boxes[-1]) == 6

