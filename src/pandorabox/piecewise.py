"""Exact piecewise-linear functions on [0, inf) over rationals.

The reference backward step of the line DP runs on these; no solver imports
them.  Knots are exact rationals, the function is linear between consecutive
knots and extends linearly beyond the last knot with an explicit right slope.
Fixed points are found by scanning segments, so "smallest solution" questions
are answered without tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DiscreteDistribution, InvariantError

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PiecewiseLinear:
    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    right_slope: Fraction

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or not self.xs:
            raise InvariantError("knot arrays must be nonempty and aligned")
        for a, b in zip(self.xs, self.xs[1:]):
            if b <= a:
                raise InvariantError("knot abscissae must be strictly increasing")

    def __call__(self, x: Fraction) -> Fraction:
        xs, ys = self.xs, self.ys
        if x < xs[0]:
            raise InvariantError(f"{x} is below the domain start {xs[0]}")
        if x >= xs[-1]:
            return ys[-1] + self.right_slope * (x - xs[-1])
        # binary search for the segment containing x
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xs[mid] <= x:
                lo = mid
            else:
                hi = mid
        x0, x1 = xs[lo], xs[hi]
        y0, y1 = ys[lo], ys[hi]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def expectation_of_max(self, dist: DiscreteDistribution) -> "PiecewiseLinear":
        """x -> E[f(max(x, X))] for X ~ dist (support nonnegative).

        Linear between knots of {own knots} U {support of X}: on such a
        segment every term is either f at a frozen support value (constant)
        or f itself (linear, no interior knot).
        """
        knots = sorted(set(self.xs) | {v for v in dist.values() if v >= self.xs[0]})
        values = []
        for k in knots:
            total = ZERO
            for v, p in dist.atoms:
                total += p * self(k if k >= v else v)
            values.append(total)
        return PiecewiseLinear(tuple(knots), tuple(values), self.right_slope)

    def smallest_fixed_point(self) -> Fraction:
        """Smallest x with f(x) = x, extending f constantly below 0.

        Requires f(x) - x nonincreasing (f nondecreasing and 1-Lipschitz),
        which holds for every value function built here.  When f(0) <= 0 the
        crossing lies on the constant extension and equals f(0) itself.
        """
        xs, ys = self.xs, self.ys
        if ys[0] <= xs[0]:
            # f is below the identity already at the domain start; the
            # crossing sits on the constant extension, at x = f(start).
            return ys[0]
        prev_gap = ys[0] - xs[0]
        prev_x = xs[0]
        for x, y in zip(xs[1:], ys[1:]):
            gap = y - x
            if gap <= 0:
                return prev_x + prev_gap * (x - prev_x) / (prev_gap - gap)
            prev_gap, prev_x = gap, x
        if self.right_slope >= 1:
            raise InvariantError("no fixed point: function stays above the identity")
        return prev_x + prev_gap / (1 - self.right_slope)

    def max_with_identity(self) -> "PiecewiseLinear":
        """x -> max(x, f(x)) on [0, inf), given f(x) - x nonincreasing.

        Equals f below the smallest fixed point and the identity above it.
        """
        z = self.smallest_fixed_point()
        if z <= self.xs[0]:
            return PiecewiseLinear((self.xs[0],), (self.xs[0],), ONE)
        xs = [x for x in self.xs if x < z]
        ys = [self(x) for x in xs]
        xs.append(z)
        ys.append(z)
        return PiecewiseLinear(tuple(xs), tuple(ys), ONE)

