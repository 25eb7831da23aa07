"""Execution and evaluation of threshold strategies.

A threshold strategy repeatedly opens the feasible box with the largest
threshold while the best observed reward is strictly below it (it stops at
equality).  The choice of the next box never depends on observed rewards, so
every strategy has a fixed exploration order; only the stopping point is
random.  That reduction makes exact evaluation a one-dimensional sweep and
simulation a cheap walk down an order built once on int threshold levels.

Sampling is counter-based: ``u64`` hashes the text "seed|trial|step|box",
built as a head "seed|trial" and a tail "|step|box", with SHA-256 to a
64-bit point u, and the draw inverts the exact CDF at u/2^64, so runs are
reproducible bit-for-bit across platforms.  The inversion is integer-only:
u draws the first atom whose cut point ceil(P(X <= v_k)·2^64) exceeds u
(``bisect_right`` over ``DiscreteDistribution.cut_points``), which is the
first atom with u/2^64 < P(X <= v_k).

``simulate`` walks the same stream on integer ranks, step by step over
blocks of ``TRIAL_BLOCK`` trials, each head and tail encoded once.  Rewards
become ranks in the sorted support of the opened boxes (0 included), and
each step's threshold the smallest rank that stops there.  A block's live
trials are grouped by best rank: at each step a group at or above the
stopping rank is counted under (step, best rank), and the others draw and
are regrouped.  The exact mean and variance are formed from the counts
after the loop; blocks bound the memory and do not change the counts.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .core import (
    CapExceededError,
    DiscreteDistribution,
    ExecutionState,
    Instance,
    ParseError,
    Record,
    ValidationError,
    max_distribution,
    parse_rational,
    set_feasibility_violation,
    setfield,
)

ZERO = Fraction(0)
# Largest simulate trial count: 10^5 trials on small solved trees took 0.03-0.48 s on a 2-vCPU VM.
MAX_TRIALS = 1_000_000
# Trials walked together by simulate: their heads are the only per-trial state held.
TRIAL_BLOCK = 4096

_first_u64 = struct.Struct(">Q").unpack_from


def u64(head: bytes, tail: bytes) -> int:
    """The first 64 bits, big-endian, of SHA-256(head + tail)."""
    return _first_u64(hashlib.sha256(head + tail).digest())[0]


class ThresholdPolicy(Record):
    """Thresholds for every box plus a total tie-break order on ids."""

    __slots__ = ("thresholds", "tiebreak")

    def __init__(self, thresholds: Mapping[str, Fraction], tiebreak: tuple[str, ...] = ()) -> None:
        setfield(self, "thresholds", thresholds)
        setfield(self, "tiebreak", tiebreak)

    def rank(self) -> dict[str, int]:
        return {box_id: k for k, box_id in enumerate(self.tiebreak or sorted(self.thresholds))}

    @staticmethod
    def for_instance(instance: Instance, thresholds: Mapping[str, Fraction | int | str],
                     tiebreak: Sequence[str] = ()) -> "ThresholdPolicy":
        missing = [b.id for b in instance.boxes if b.id not in thresholds]
        if missing:
            raise ValidationError(f"policy is missing thresholds for boxes {missing}")
        ids = instance.box_map.keys()
        if tiebreak and (len(tiebreak) != len(ids) or ids != set(tiebreak)):
            listed = Counter(tiebreak)
            raise ValidationError(
                f"tiebreak must list each box id once: missing {[i for i in ids if i not in listed]}, "
                f"unknown {sorted(listed.keys() - ids)}, repeated {sorted(i for i, k in listed.items() if k > 1)}")
        parsed = {}
        for box_id, z in thresholds.items():
            try:
                parsed[box_id] = parse_rational(z)
            except ParseError as exc:
                raise ParseError(f"threshold of box {box_id!r}: {exc}") from None
        return ThresholdPolicy(parsed, tuple(tiebreak))


class Trajectory(Record):
    steps: tuple[tuple[str, Fraction], ...]
    final: ExecutionState

    @property
    def net_revenue(self) -> Fraction:
        return self.final.best - self.final.spent


class RewardSampler:
    """Deterministic per-(seed, trial) reward stream."""

    def __init__(self, seed: int, trial: int = 0):
        self.head = f"{seed}|{trial}".encode()

    def uniform_u64(self, step: int, box_id: str) -> int:
        return u64(self.head, f"|{step}|{box_id}".encode())

    def draw(self, dist: DiscreteDistribution, step: int, box_id: str) -> Fraction:
        u = self.uniform_u64(step, box_id)
        return dist.atoms[bisect_right(dist.cut_points, u)][0]


def fixed_opening_order(instance: Instance, policy: ThresholdPolicy) -> list[str]:
    """The realization-independent order in which the strategy visits boxes:
    greedy argmax threshold over currently openable boxes, until nothing is
    openable.  Stopping is decided separately against this order.

    The openable boxes sit in a heap of (level, tie-break rank, id, i), with int levels
    from one sort on (floor(z·2^64), z), largest first: ``Fraction``s compare only at
    equal floors.  A box that overflows the side load drops for good (loads only grow).
    """
    model = instance.order_model
    rank = policy.rank()
    ranked = sorted((((z.numerator << 64) // z.denominator, z, i)
                     for i, z in enumerate(map(policy.thresholds.__getitem__, model.ids))), reverse=True)
    entries, level, prev = [None] * len(ranked), -1, None
    for floor, z, i in ranked:
        if (floor, z) != prev:
            level, prev = level + 1, (floor, z)
        entries[i] = (level, rank[model.ids[i]], model.ids[i], i)
    heap = [entries[i] for i, parents in enumerate(model.parent_masks) if not parents]
    heapq.heapify(heap)
    mask = 0
    load = model.empty_load
    order: list[str] = []
    while heap:
        _, _, box_id, i = heapq.heappop(heap)
        after = model.try_open(mask, load, i)
        if after is None:  # opened already through another parent, or overflows
            continue
        mask |= 1 << i
        load = after
        order.append(box_id)
        for child in model.children[i]:
            heapq.heappush(heap, entries[child])
    return order


def run_threshold(instance: Instance, policy: ThresholdPolicy, rng_seed: int,
                  trial: int = 0) -> Trajectory:
    """Execute the strategy once with lazily sampled rewards."""
    sampler = RewardSampler(rng_seed, trial)
    order = fixed_opening_order(instance, policy)
    best = ZERO
    spent = ZERO
    steps: list[tuple[str, Fraction]] = []
    for step, box_id in enumerate(order):
        if best >= policy.thresholds[box_id]:
            break
        box = instance.box_map[box_id]
        reward = sampler.draw(box.reward, step, box_id)
        spent += box.cost
        if reward > best:
            best = reward
        steps.append((box_id, reward))
    return Trajectory(
        steps=tuple(steps),
        final=ExecutionState(opened=frozenset(b for b, _ in steps), best=best, spent=spent),
    )


def evaluate_threshold_exact(instance: Instance, policy: ThresholdPolicy) -> Fraction:
    """Exact expected net revenue of the strategy.

    Sweeps the fixed order forward, carrying the exact distribution of the
    best reward among still-running realizations; mass stops as soon as its
    best reaches the next threshold.
    """
    order = fixed_opening_order(instance, policy)
    running: dict[Fraction, Fraction] = {ZERO: Fraction(1)}
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


def evaluate_set(instance: Instance, ids: Sequence[str] | frozenset | set) -> Fraction:
    """E[max over the set] minus its total cost; the set must be feasible."""
    violation = set_feasibility_violation(instance, ids)
    if violation is not None:
        raise ValidationError(violation)
    chosen = sorted(set(ids))
    if not chosen:
        return ZERO
    dist = max_distribution([instance.box_map[i].reward for i in chosen])
    cost = sum((instance.box_map[i].cost for i in chosen), ZERO)
    return dist.expectation() - cost


class SimulationSummary(Record):
    mean: Fraction
    stddev: float
    trials: int
    seed: int


def simulate(instance: Instance, policy: ThresholdPolicy, trials: int, rng_seed: int) -> SimulationSummary:
    """Monte-Carlo estimate of the strategy's net revenue.

    Trial t draws from the (seed, t) stream, so results are reproducible and
    independent of any batching.  The mean is exact over the sampled
    trajectories (a rational); the sample stddev is reported as a float.
    More than ``MAX_TRIALS`` raise :class:`CapExceededError` before any work.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if trials > MAX_TRIALS:
        got = trials if trials < 10**12 else f"about 2^{trials.bit_length() - 1}"
        raise CapExceededError(f"simulate handles at most {MAX_TRIALS} trials, got {got}")
    order = fixed_opening_order(instance, policy)
    boxes = [instance.box_map[b] for b in order]
    values = sorted({ZERO}.union(v for box in boxes for v, _ in box.reward.atoms))
    rank = {v: r for r, v in enumerate(values)}
    # per step: (smallest best rank that stops, payload tail, cut points, atom ranks)
    plan = [
        (bisect_left(values, policy.thresholds[box.id]), f"|{step}|{box.id}".encode(),
         box.reward.cut_points, [rank[v] for v, _ in box.reward.atoms])
        for step, box in enumerate(boxes)
    ]
    tally: dict[tuple[int, int], int] = {}  # (boxes opened, best rank) -> trials
    for start in range(0, trials, TRIAL_BLOCK):
        # live trials of the block by best rank (0 is the rank of the reward 0)
        groups = {0: [f"{rng_seed}|{t}".encode() for t in range(start, min(start + TRIAL_BLOCK, trials))]}
        for step, (stop, tail, cuts, ranks) in enumerate(plan):
            regrouped: dict[int, list[bytes]] = {}
            for best, heads in groups.items():
                if best >= stop:
                    tally[step, best] = tally.get((step, best), 0) + len(heads)
                    continue
                lifted = [r if r > best else best for r in ranks]
                drawn = [lifted[bisect_right(cuts, u64(head, tail))] for head in heads]
                for head, r in zip(heads, drawn):
                    regrouped.setdefault(r, []).append(head)
            groups = regrouped
            if not groups:
                break
        for best, heads in groups.items():  # opened every box
            tally[len(plan), best] = tally.get((len(plan), best), 0) + len(heads)
    spent = [ZERO]
    for box in boxes:
        spent.append(spent[-1] + box.cost)
    total = ZERO
    total_sq = ZERO
    for (step, best), count in tally.items():
        net = values[best] - spent[step]
        total += count * net
        total_sq += count * net * net
    mean = total / trials
    if trials > 1:
        variance = (total_sq - trials * mean * mean) / (trials - 1)
        stddev = math.sqrt(float(variance)) if variance > 0 else 0.0
    else:
        stddev = 0.0
    return SimulationSummary(mean=mean, stddev=stddev, trials=trials, seed=rng_seed)
