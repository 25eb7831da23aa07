"""Exact dynamic program for line-constrained instances.

The value of being in front of box ``i`` with best reward ``x`` satisfies

    V(x, n+1) = x
    V(x, i)   = max(x, -c_i + E[V(max(x, X_i), i+1)])

A solved suffix is one exact distribution, its capped value kappa_i, with
V(x, i) = E[max(x, kappa_i)] for x >= 0 (Kleinberg, Waggoner & Weyl,
"Descending Price Optimally Coordinates Search", EC 2016); kappa_{n+1} = 0.
With W = max(X_i, kappa_{i+1}), the threshold z_i (the smallest fixed point
of V(., i)) solves E[(W - z)^+] = c_i, and kappa_i = min(W, max(z_i, 0)),
because for x < z_i

    -c_i + E[max(x, W)] = x + E[(W - x)^+] - E[(W - z_i)^+] = E[max(x, min(W, z_i))].

Rewards are nonnegative, so the cap at 0 for a negative z_i changes no value
at x >= 0.  Negative thresholds (cost-dominated prefixes) are kept; the
executor simply never opens such a box from a nonnegative best.  The step
runs on ints (:class:`.core.IntDistribution`: probability numerators over one
denominator, value keys over one scale) up to the ``Fraction`` z_i, and V(x, i)
is read off those ints.  On a line W is a two-input max, one merge pass
(:func:`.core.max_sweep`), and kappa_i is brought to lowest terms by gcds
against the carrier of its denominator's primes (an int no larger than the lcm
of the suffix's reward denominators), not against the denominator itself: the
step's int work is linear in the size of kappa's numerators.  The grid DP
``line_optimal_value`` runs on integer numerators over one common denominator
(``core.integer_boxes``).  No floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from collections.abc import Sequence
from functools import cached_property

from .core import BoxSpec, IntDistribution, InvariantError, Record, integer_boxes, max_sweep, reservation_scan

ZERO = Fraction(0)
NOTHING = IntDistribution([0], 1, [1], 1)  # the capped value of an empty line


class LineSolution(Record):
    """What the backward recursion produces for a line: its boxes, the
    thresholds z_1..z_n and the capped values kappa_1..kappa_{n+1} (on
    ints), with V(x, i) = E[max(x, kappa_i)] read from them.  The value grid
    and the dependence horizons are derived once, on first read."""

    boxes: tuple[BoxSpec, ...]
    zs: tuple[Fraction, ...]
    kappas: tuple[IntDistribution, ...]  # kappas[i-1] is kappa_i

    @property
    def value(self) -> Fraction:
        """Optimal expected net revenue starting fresh (V(0, 1))."""
        return self.kappas[0].expectation()

    @cached_property
    def grid(self) -> tuple[Fraction, ...]:
        """{0}, every support value and the support of every kappa_i (which holds
        every nonnegative threshold): V(., i) is linear between grid points, and
        above the grid V(x, i) = x."""
        grid = {ZERO}.union(*(b.reward.values() for b in self.boxes))
        grid.update(Fraction(key, k.scale) for k in self.kappas for key in k.keys)
        return tuple(sorted(grid))

    @cached_property
    def horizons(self) -> tuple[int, ...]:
        """Dependence horizons d(i): the first t >= i with z_{t+1} < z_i, or n when
        no later threshold drops below z_i; z_i depends only on boxes i..d(i)."""
        return _horizons(self.zs)

    def at(self, x: Fraction, i: int) -> Fraction:
        """V(x, i) for any x >= 0 (1-based i, i = n+1 is the horizon)."""
        if x < 0:
            raise InvariantError(f"{x} is below the domain start 0")
        k, a, b = self.kappas[i - 1], x.numerator, x.denominator
        top = a * k.scale  # x = top / (b * scale), each key = key * b / (b * scale)
        return Fraction(sum(max(top, key * b) * p for key, p in zip(k.keys, k.probs)), b * k.scale * k.den)

    def prepend(self, box: BoxSpec) -> "LineSolution":
        """Solution of [box] + line: one capped-value step over this suffix."""
        z, kappa = capped_step(box, self.kappas[:1])
        return LineSolution((box,) + self.boxes, (z,) + self.zs, (kappa,) + self.kappas)


def capped_step(box: BoxSpec, after: Sequence[IntDistribution]) -> tuple[Fraction, IntDistribution]:
    """Threshold and capped value of ``box`` when what it unlocks is worth
    E[max(x, kappa_1, ..., kappa_k)] for the independent capped values
    ``after`` (one per solved suffix or subtree)."""
    w = max_sweep((box.reward.integer, *after))
    z = reservation_scan(w, box.cost, box.id)
    # min(W, top) with top = max(z, 0) <= max W: every atom at or above top moves onto it
    num, den = (z.numerator, z.denominator) if z.numerator > 0 else (0, 1)
    kept = bisect_left(w.keys, -(-num * w.scale // den))  # the atoms with key * den < num * scale
    if not kept:  # no atom below top: the point mass at top, in lowest terms as z is
        return z, IntDistribution([num], den, [1], 1)
    scale = math.lcm(w.scale, den)
    f = scale // w.scale
    keys = (w.keys[:kept] if f == 1 else [k * f for k in w.keys[:kept]]) + [num * (scale // den)]
    probs = w.probs[:kept]
    probs.append(w.den - sum(probs))
    # over the smallest scale and den, as the reduced Fractions would be.  A common factor
    # of the numerators divides w.den, so its primes divide w.carrier: divide by their gcd
    # with the carrier (a small int, so each gcd is linear) until it is 1.
    g = math.gcd(scale, *keys)
    if g != 1:
        keys, scale = [k // g for k in keys], scale // g
    total, g = w.den, math.gcd(w.carrier, *probs)
    while g != 1:
        probs, total = [p // g for p in probs], total // g
        g = math.gcd(g, *probs)
    return z, IntDistribution(keys, scale, probs, total, w.carrier)


def _horizons(thresholds: Sequence[Fraction]) -> tuple[int, ...]:
    """d(i) is the 0-based index of the next strictly smaller threshold, else n:
    one pass over a stack of the indices still waiting for one (a tie waits)."""
    out, waiting = [len(thresholds)] * len(thresholds), []
    for t, z in enumerate(thresholds):
        while waiting and z < thresholds[waiting[-1]]:
            out[waiting.pop()] = t
        waiting.append(t)
    return tuple(out)


def solve_line(boxes: Sequence[BoxSpec]) -> LineSolution:
    """Solve the backward recursion; exact thresholds and capped values."""
    solution = LineSolution((), (), (NOTHING,))
    for box in reversed(boxes):
        solution = solution.prepend(box)
    return solution


def line_optimal_value(boxes: Sequence[BoxSpec]) -> Fraction:
    """Optimal expected net revenue of a line without threshold extraction.

    Values are only ever queried at observed-max points, so a DP restricted
    to {0} plus the support union is exact; the values in front of box i
    are ints over L * prod_{j >= i} D_j, one ``IntegerBoxes.step`` per box.
    It shares no step with :func:`solve_line`, so each checks the other.
    """
    grid = {ZERO}
    for box in boxes:
        grid.update(box.reward.values())
    ints = integer_boxes(boxes, sorted(grid))
    current, r, every = ints.payoff, 1, range(len(grid))
    for i in range(len(boxes) - 1, -1, -1):
        r *= ints.dens[i]
        current = ints.step(i, current, r, every)
    return Fraction(current[0], ints.scale * r)
