"""Sample-based solving: learn rounded empirical reward distributions, solve
the empirical instance, and measure the learned policy's true value.

Rewards and costs must lie in [0, 1].  Sampled rewards are rounded down to a
grid of step epsilon (the accuracy target), tallied into exact empirical
distributions (counts over the sample size), and the empirical instance is
solved like any other.  Costs are not rounded.

The tally of N samples of a box is one multinomial draw over its atoms, taken
as conditional binomials on the package's one random stream
(``strategy.u64``), keyed by the seed and the box id.  Each binomial is
Devroye's geometric method below a mean of 10 and Hörmann's BTRS
transformed rejection above it.  Its probability is an exact ratio, made a
float only inside the draw, and the counts are exact ints.  The draw calls
``math.log``, ``math.log1p`` and ``math.lgamma``, which come from the
platform's C library, so the counts are reproducible bit-for-bit on one libm
only, unlike ``simulate``'s integer-only draws.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction

from .core import (
    BoxSpec,
    CapExceededError,
    DiscreteDistribution,
    Instance,
    Record,
    ValidationError,
    describe_rational,
)
from .strategy import ThresholdPolicy, evaluate_threshold_exact, u64
from .tree_solver import solve_tree

# Largest sample count per box.  The draw takes O(1) uniforms at any count; the
# cap bounds N, the denominator of every learned probability count / N that the
# exact tree DP carries.
MAX_SAMPLES = (1 << 63) - 1


def sample_bound(n: int, epsilon: Fraction, delta: Fraction, constant: float = 1.0) -> int:
    """Samples per box sufficient for an additive-epsilon policy on a tree
    with probability 1 - delta (natural logs; the leading constant is a knob):
    constant * n/eps^2 * log^2(1/eps) * log(n/eps) * log(n/(eps*delta)).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    # compared exactly: a value below the float range is still in (0, 1)
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValidationError("epsilon and delta must lie in (0, 1)")
    if not math.isfinite(constant):
        raise ValidationError(f"constant {constant} must be finite")
    eps = float(epsilon)
    dlt = float(delta)
    ratio = n / (eps * dlt) if eps * dlt else math.inf
    if ratio < math.inf:
        confidence = math.log(ratio)
    else:  # log(n / (epsilon * delta)) is finite even where the float ratio is not
        exact = n / (Fraction(epsilon) * Fraction(delta))
        confidence = math.log(exact.numerator) - math.log(exact.denominator)
    try:
        raw = constant * n / eps**2 * math.log(1 / eps) ** 2 * math.log(n / eps) * confidence
    except (ZeroDivisionError, OverflowError):  # a power of epsilon leaves the float range
        raw = math.inf
    if raw > MAX_SAMPLES:  # an overflowed product is inf and fails here too
        raise CapExceededError(f"sample bound {raw:.3g} exceeds {MAX_SAMPLES}")
    return max(1, math.ceil(raw))


class LearningConfig(Record):
    epsilon: Fraction
    delta: Fraction
    samples_per_box: int | None = None  # None: use the tree bound
    constant: float = 1.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not (0 < self.epsilon < 1) or not (0 < self.delta < 1):
            raise ValidationError("epsilon and delta must lie in (0, 1)")
        if (1 / self.epsilon).denominator != 1:  # epsilon is the grid step
            raise ValidationError(f"grid step {describe_rational(self.epsilon)} must divide 1 exactly")
        if not (math.isfinite(self.constant) and self.constant > 0):
            raise ValidationError(f"constant {self.constant} must be finite and positive")

    def sample_count(self, n: int) -> int:
        if self.samples_per_box is not None:
            if self.samples_per_box < 1:
                raise ValidationError("samples_per_box must be >= 1")
            if self.samples_per_box > MAX_SAMPLES:
                raise CapExceededError(f"sample count {self.samples_per_box} exceeds {MAX_SAMPLES}")
            return self.samples_per_box
        return sample_bound(n, self.epsilon, self.delta, self.constant)


class EmpiricalModel(Record):
    """Per-box tallies of grid-rounded samples; probabilities are the exact
    ratios count / samples_per_box."""

    counts: dict[str, tuple[tuple[Fraction, int], ...]]
    samples_per_box: int

    def distribution(self, box_id: str) -> DiscreteDistribution:
        return DiscreteDistribution.of(
            [(v, Fraction(c, self.samples_per_box)) for v, c in self.counts[box_id]]
        )

    def empirical_instance(self, base: Instance) -> Instance:
        boxes = tuple(
            BoxSpec(b.id, b.cost, self.distribution(b.id)) for b in base.boxes
        )
        return Instance(boxes=boxes, constraint=base.constraint, side=base.side)


def _check_learning_regime(instance: Instance) -> None:
    for box in instance.boxes:
        if box.cost < 0 or box.cost > 1:
            raise ValidationError(f"box {box.id!r} cost {describe_rational(box.cost)} outside [0, 1]")
        for v in box.reward.values():
            if v < 0 or v > 1:
                raise ValidationError(f"box {box.id!r} reward {describe_rational(v)} outside [0, 1]")


def round_down_to_grid(value: Fraction, step: Fraction) -> Fraction:
    return value // step * step


def _uniforms(head: bytes) -> Iterator[float]:
    """Uniforms on [0, 1) with 53 random bits: the k-th is u64(head, "|k")."""
    for k in itertools.count():
        yield (u64(head, b"|%d" % k) >> 11) * 2.0**-53


def _stirling_tail(k: int) -> float:
    """log k! minus its Stirling form (k + 1/2) log(k + 1) - (k + 1) + log sqrt(2 pi)."""
    if k < 10:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + k + 1 - 0.5 * math.log(2 * math.pi)
    x = 1 / (k + 1)
    return (1 / 12 - (1 / 360 - x * x / 1260) * x * x) * x


def _log_pmf_ratio(n: int, q: float, k: int, m: int) -> float:
    """log f(k)/f(m), f the Binomial(n, q) pmf: Stirling's series for the four
    factorials, written on the int offset k - m with log1p so that it holds its
    precision at n near 2^63, where each log k! alone loses it."""
    d = k - m
    return ((n - m + 0.5) * math.log1p(d / (n - k + 1)) - (m + 0.5) * math.log1p(d / (m + 1))
            + d * math.log(q * (n - k + 1) / ((1 - q) * (k + 1)))
            + _stirling_tail(m) + _stirling_tail(n - m) - _stirling_tail(k) - _stirling_tail(n - k))


def _binomial(n: int, p: Fraction, uniforms: Iterator[float]) -> int:
    """A Binomial(n, p) draw.  p above 1/2 draws n minus a Binomial(n, 1 - p);
    below a mean n·p of 10, geometric skips count the successes (Devroye);
    above it, BTRS transformed rejection (Hörmann 1993) around the mode m."""
    if p > Fraction(1, 2):
        return n - _binomial(n, 1 - p, uniforms)
    q = float(p)
    if n == 0 or q == 0:
        return 0
    if n * q < 10:
        log_q, count, left = math.log1p(-q), 0, n
        while True:
            skip = math.log(1 - next(uniforms)) / log_q  # failures before the next success
            if skip >= left:
                return count
            count, left = count + 1, left - math.floor(skip) - 1
    spq = math.sqrt(n * q * (1 - q))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * q
    c = n * q + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    m = math.floor((n + 1) * q)
    while True:
        u = next(uniforms) - 0.5
        v = 1 - next(uniforms)  # in (0, 1], for its log below
        us = 0.5 - abs(u)
        if us == 0:  # the hat's pole: no k
            continue
        k = math.floor((2 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        if math.log(v * alpha / (a / (us * us) + b)) <= _log_pmf_ratio(n, q, k, m):
            return k


def _multinomial(n: int, probs: tuple[Fraction, ...], uniforms: Iterator[float]) -> list[int]:
    """Counts of n draws over outcomes of the given probabilities (summing to
    1): each count is a Binomial(n left, p / mass left) with the ratio formed
    exactly, and the last outcome takes the rest, so the counts sum to n."""
    counts, left, mass = [], n, Fraction(1)
    for p in probs[:-1]:
        count = _binomial(left, p / mass, uniforms)
        counts.append(count)
        left, mass = left - count, mass - p
    return counts + [left]


def learn_model(instance: Instance, config: LearningConfig, rng_seed: int) -> EmpiricalModel:
    """Draw N i.i.d. samples per box, round down to the grid, tally.

    Per-box counts come from one multinomial draw over the true atoms (the
    tally of N independent samples has exactly that law), on the stream
    ``u64("{seed}|learn|{box id}", "|k")``, so a box's counts depend only on
    the seed, its id and its reward law: not on the other boxes or their
    order.  ``simulate``'s streams have an int second field, so they never
    meet these.
    """
    _check_learning_regime(instance)
    n_samples = config.sample_count(instance.n)
    counts: dict[str, tuple[tuple[Fraction, int], ...]] = {}
    for box in instance.boxes:
        drawn = _multinomial(n_samples, box.reward.probs(), _uniforms(f"{rng_seed}|learn|{box.id}".encode()))
        tally: dict[Fraction, int] = {}
        for (value, _), count in zip(box.reward.atoms, drawn):
            if count == 0:
                continue
            rounded = round_down_to_grid(value, config.epsilon)
            tally[rounded] = tally.get(rounded, 0) + count
        counts[box.id] = tuple(sorted(tally.items()))
    return EmpiricalModel(counts=counts, samples_per_box=n_samples)


class LearnReport(Record):
    true_opt: Fraction
    learned_policy_value: Fraction
    gap: Fraction
    epsilon: Fraction
    samples_per_box: int


def learn_and_solve(instance: Instance, config: LearningConfig, rng_seed: int) -> tuple[ThresholdPolicy, LearnReport]:
    """Learn, solve the empirical instance, and score the learned policy on
    the true instance (exactly).  The gap is true optimum minus the learned
    policy's true value; it is nonnegative by optimality."""
    truth = solve_tree(instance)  # refuses DAGs and side constraints before any sampling
    model = learn_model(instance, config, rng_seed)
    empirical = model.empirical_instance(instance)
    learned = solve_tree(empirical)
    policy = ThresholdPolicy.for_instance(instance, learned.thresholds, learned.order.ids())
    achieved = evaluate_threshold_exact(instance, policy)
    report = LearnReport(
        true_opt=truth.value,
        learned_policy_value=achieved,
        gap=truth.value - achieved,
        epsilon=config.epsilon,
        samples_per_box=model.samples_per_box,
    )
    return policy, report
