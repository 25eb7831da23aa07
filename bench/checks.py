"""Result checks for the benchmark workloads.

Each check takes plain values (exact rationals, strings, ints) and returns a
list of failure messages; an empty list means the result is correct.  The
self-test feeds each one a deliberately corrupted result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def tree_solve(value: Fraction, evaluated: Fraction, line_value: Optional[Fraction] = None) -> list[str]:
    """The exact evaluation of the solved policy equals ``solution.value``;
    on lines the value-only DP agrees too."""
    out = []
    if evaluated != value:
        out.append(f"evaluate_threshold_exact {evaluated} != solution.value {value}")
    if line_value is not None and line_value != value:
        out.append(f"line_optimal_value {line_value} != solution.value {value}")
    return out


def simulate_mean(mean: Fraction, exact: Fraction, variance: Fraction, trials: int) -> list[str]:
    """|mean - exact| <= 5 sigma / sqrt(T), compared exactly as
    (mean - exact)^2 * T <= 25 * variance; equality when sigma = 0."""
    if variance == 0:
        return [] if mean == exact else [f"mean {mean} != exact {exact} with zero variance"]
    if (mean - exact) ** 2 * trials > 25 * variance:
        return [f"mean {float(mean)} is more than 5 sigma/sqrt({trials}) from exact {float(exact)}"]
    return []


def equal(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: {got} != {want}"]


def oracle_split(value: Fraction, e_max: Fraction, e_cost: Fraction) -> list[str]:
    """The oracle's reward/cost split adds up to its value."""
    return equal("solve_exact e_max - e_cost", e_max - e_cost, value)


def approx_report(policy_value: Fraction, executed_value: Fraction, set_margin: Fraction,
                  benchmark_margin: Optional[Fraction]) -> list[str]:
    out = []
    if set_margin < 0:
        out.append(f"set_margin {set_margin} < 0")
    if benchmark_margin is not None and benchmark_margin < 0:
        out.append(f"benchmark_margin {benchmark_margin} < 0")
    out += equal("executed_value vs policy_value", executed_value, policy_value)
    return out


def fixed_order(fixed_value: Fraction, exact_value: Fraction, tree_value: Fraction,
                half_value: Fraction, e_max: Fraction, e_cost: Fraction) -> list[str]:
    """On side-free trees: oracle == tree DP, best fixed order <= oracle, and
    the half-reward sup is at least the optimal policy's E[max]/2 - E[cost]."""
    out = equal("solve_exact vs solve_tree", exact_value, tree_value)
    if fixed_value > exact_value:
        out.append(f"best_fixed_order {fixed_value} > solve_exact {exact_value}")
    if half_value < e_max / 2 - e_cost:
        out.append(f"best_half_reward_benchmark {half_value} < e_max/2 - e_cost {e_max / 2 - e_cost}")
    return out


def parse_pairs(stdout: str) -> list[tuple[str, str]]:
    pairs = []
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        pairs.append((key, value) if sep else (line, None))
    return pairs


def cli_output(returncode: int, stdout: str, expected: Sequence[tuple[str, str]]) -> list[str]:
    """Exit code 0 and the key=value block equal to the library's results."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    got = parse_pairs(stdout)
    if got != list(expected):
        return [f"stdout {got} != library {list(expected)}"]
    return []
