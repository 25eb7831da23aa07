"""Sample-based solving: learn rounded empirical reward distributions, solve
the empirical instance, and measure the learned policy's true value.

Rewards and costs must lie in [0, 1].  Sampled rewards are rounded down to a
grid of step epsilon (the accuracy target), tallied into exact empirical
distributions (counts over the sample size), and the empirical instance is
solved like any other.  Costs are not rounded.
"""

from __future__ import annotations

import math
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
from .strategy import ThresholdPolicy, evaluate_threshold_exact
from .tree_solver import solve_tree

_SEED_MASK = (1 << 63) - 1
# numpy's multinomial draw takes its sample count as an int64.
MAX_SAMPLES = (1 << 63) - 1


def sample_bound(n: int, epsilon: Fraction, delta: Fraction, mode: str = "tree",
                 constant: float = 1.0) -> int:
    """Samples per box sufficient for an additive-epsilon policy with
    probability 1 - delta (natural logs; the leading constant is a knob).

    general constraints: constant * n^3/eps^3 * log(n/(eps*delta))
    tree constraints:    constant * n/eps^2 * log^2(1/eps) * log(n/eps)
                         * log(n/(eps*delta))
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    # compared exactly: a value below the float range is still in (0, 1)
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValidationError("epsilon and delta must lie in (0, 1)")
    if not math.isfinite(constant):
        raise ValidationError(f"constant {constant} must be finite")
    if mode not in ("general", "tree"):
        raise ValidationError(f"unknown mode {mode!r}")
    eps = float(epsilon)
    dlt = float(delta)
    ratio = n / (eps * dlt) if eps * dlt else math.inf
    if ratio < math.inf:
        confidence = math.log(ratio)
    else:  # log(n / (epsilon * delta)) is finite even where the float ratio is not
        exact = n / (Fraction(epsilon) * Fraction(delta))
        confidence = math.log(exact.numerator) - math.log(exact.denominator)
    try:
        if mode == "general":
            raw = constant * n**3 / eps**3 * confidence
        else:
            raw = constant * n / eps**2 * math.log(1 / eps) ** 2 * math.log(n / eps) * confidence
    except (ZeroDivisionError, OverflowError):  # a power of epsilon leaves the float range
        raw = math.inf
    if raw > MAX_SAMPLES:  # an overflowed product is inf and fails here too
        raise CapExceededError(f"sample bound {raw:.3g} exceeds {MAX_SAMPLES}")
    return max(1, math.ceil(raw))


class LearningConfig(Record):
    epsilon: Fraction
    delta: Fraction
    samples_per_box: int | None = None  # None: use the tree-mode bound
    constant: float = 1.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not (0 < self.epsilon < 1) or not (0 < self.delta < 1):
            raise ValidationError("epsilon and delta must lie in (0, 1)")
        if (1 / self.epsilon).denominator != 1:  # epsilon is the grid step
            raise ValidationError(f"grid step {describe_rational(self.epsilon)} must divide 1 exactly")

    def sample_count(self, n: int) -> int:
        if self.samples_per_box is not None:
            if self.samples_per_box < 1:
                raise ValidationError("samples_per_box must be >= 1")
            if self.samples_per_box > MAX_SAMPLES:
                raise CapExceededError(f"sample count {self.samples_per_box} exceeds {MAX_SAMPLES}")
            return self.samples_per_box
        return sample_bound(n, self.epsilon, self.delta, "tree", self.constant)


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


def learn_model(instance: Instance, config: LearningConfig, rng_seed: int) -> EmpiricalModel:
    """Draw N i.i.d. samples per box, round down to the grid, tally.

    Per-box counts come from a multinomial draw over the true atoms (the
    tally of N independent samples has exactly that law); streams are
    derived from (seed, box index) so results do not depend on box order of
    evaluation or batching.  numpy is imported here, so only callers that
    learn pay for its import.
    """
    import numpy as np

    _check_learning_regime(instance)
    n_samples = config.sample_count(instance.n)
    counts: dict[str, tuple[tuple[Fraction, int], ...]] = {}
    for index, box in enumerate(instance.boxes):
        seq = np.random.SeedSequence([rng_seed & _SEED_MASK, index])
        rng = np.random.Generator(np.random.PCG64(seq))
        probs = [float(p) for p in box.reward.probs()]
        drawn = rng.multinomial(n_samples, probs)
        tally: dict[Fraction, int] = {}
        for (value, _), count in zip(box.reward.atoms, drawn):
            if count == 0:
                continue
            rounded = round_down_to_grid(value, config.epsilon)
            tally[rounded] = tally.get(rounded, 0) + int(count)
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
