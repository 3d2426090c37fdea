"""Evaluation metrics and statistical comparisons.

Everything here works in minimization orientation: callers direction-convert
first. The module provides the utopian-anchored normalized percentage gain,
the resource-efficiency ratio between best-so-far curves, a Wilcoxon
signed-rank test (exact for small samples, normal approximation with tie and
continuity corrections beyond), the Vargha-Delaney stochastic-superiority
effect size with magnitude classes, and Scott-Knott rank clustering, whose
splits use an F(1, nu) test with a closed-form tail (the finite Student-t
series of Abramowitz & Stegun 26.7.3-4), so the module needs only the
standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from statistics import fmean
from typing import Sequence

from .trace import RunSummary

ALPHA = 0.05

# Effect-size magnitude thresholds, applied symmetrically around 0.5.
_SMALL, _MEDIUM, _LARGE = 0.56, 0.64, 0.71

# Largest number of nonzero pairs for which the exact signed-rank
# distribution is enumerated; beyond this the normal approximation is used.
EXACT_WILCOXON_LIMIT = 25


@dataclass(frozen=True)
class StatResult:
    """Paired-comparison outcome: significance and stochastic superiority."""

    p_value: float
    a12: float
    magnitude: str
    significant: bool


def utopian(all_results: Sequence[float]) -> float:
    """Unattainable reference value: the best observed result minus the gap to
    its nearest distinct neighbor."""
    if not all_results:
        raise ValueError("utopian needs at least one result")
    best = min(all_results)
    others = [v for v in all_results if v != best]
    if not others:
        raise ValueError("utopian is undefined when all results are identical")
    gap = min(v - best for v in others)
    return best - gap


def normalized_gain(
    model_results: Sequence[float],
    counterpart_results: Sequence[float],
    utopian_value: float,
) -> float:
    """Average normalized percentage gain of the model over its counterpart.

    Both result sets are sorted ascending and paired by index; each pair
    contributes (y_i - x_i) / (y_i - y_o), and the mean is reported as a
    percentage. Zero or negative means similar or worse.
    """
    if len(model_results) != len(counterpart_results):
        raise ValueError("result sequences must have equal length")
    if not model_results:
        raise ValueError("result sequences must be nonempty")
    x = sorted(model_results)
    y = sorted(counterpart_results)
    total = 0.0
    for xi, yi in zip(x, y):
        denominator = yi - utopian_value
        if denominator == 0.0:
            raise ValueError(f"counterpart result {yi} equals the utopian value")
        total += (yi - xi) / denominator
    return total / len(x) * 100.0


def mean_best_curve(runs: Sequence[RunSummary]) -> list[float]:
    """Mean best-so-far after each measurement; a run that stopped early
    keeps its final best."""
    if not runs:
        raise ValueError("run set must be nonempty")
    horizon = max(len(run.best_so_far) for run in runs)
    padded = [
        chain(run.best_so_far, repeat(run.best_target, horizon - len(run.best_so_far)))
        for run in runs
    ]
    return list(map(fmean, zip(*padded)))


def efficiency_ratio(
    model_curve: Sequence[float], baseline_curve: Sequence[float]
) -> float | None:
    """Measurements the model needs to reach the baseline's final mean
    best-so-far level, as a percentage of the baseline's own count; both
    curves come from ``mean_best_curve``.

    Returns None when the model never reaches that level within its budget.
    """
    if not model_curve or not baseline_curve:
        raise ValueError("curves must be nonempty")
    level = baseline_curve[-1]
    b = next(i for i, v in enumerate(baseline_curve, start=1) if v <= level)
    m = next((i for i, v in enumerate(model_curve, start=1) if v <= level), None)
    if m is None:
        return None
    return 100.0 * m / b


def _midranks(magnitudes: Sequence[float]) -> list[float]:
    order = sorted(range(len(magnitudes)), key=lambda i: magnitudes[i])
    ranks = [0.0] * len(magnitudes)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and magnitudes[order[end + 1]] == magnitudes[order[pos]]:
            end += 1
        mean_rank = (pos + end) / 2 + 1
        for k in range(pos, end + 1):
            ranks[order[k]] = mean_rank
        pos = end + 1
    return ranks


def _exact_two_sided(ranks: Sequence[float], w_plus: float) -> float:
    # Distribution of W+ over all sign assignments, on doubled ranks so that
    # midranks (halves) become integers.
    doubled = [round(2 * r) for r in ranks]
    total_sum = sum(doubled)
    counts = [0] * (total_sum + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total_sum - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    w2 = round(2 * w_plus)
    low = sum(counts[: w2 + 1])
    high = sum(counts[w2:])
    total = 1 << len(ranks)
    return min(1.0, 2.0 * min(low, high) / total)


def _approx_two_sided(ranks: Sequence[float], w_plus: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    tie_groups: dict[float, int] = {}
    for r in ranks:
        tie_groups[r] = tie_groups.get(r, 0) + 1
    tie_term = sum(t**3 - t for t in tie_groups.values()) / 48.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if variance <= 0.0:
        return 1.0
    deviation = max(0.0, abs(w_plus - mean) - 0.5)  # continuity correction
    z = deviation / math.sqrt(variance)
    return math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided paired signed-rank p-value.

    Zero differences are dropped and tied magnitudes midranked. The exact
    distribution is used for up to EXACT_WILCOXON_LIMIT nonzero pairs; larger
    samples use the normal approximation with tie and continuity corrections.
    """
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 1.0
    ranks = _midranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    if len(diffs) <= EXACT_WILCOXON_LIMIT:
        return _exact_two_sided(ranks, w_plus)
    return _approx_two_sided(ranks, w_plus)


def a12_magnitude(value: float) -> str:
    """Magnitude class of an effect size, symmetric around 0.5."""
    effect = max(value, 1.0 - value)
    if effect >= _LARGE:
        return "large"
    if effect >= _MEDIUM:
        return "medium"
    if effect >= _SMALL:
        return "small"
    return "negligible"


def a12(a: Sequence[float], b: Sequence[float]) -> tuple[float, str]:
    """Vargha-Delaney stochastic superiority of ``a`` over ``b``.

    Higher values must mean better here: callers encode direction (e.g. negate
    for minimization) before calling. Returns the value and its magnitude.
    """
    if not a or not b:
        raise ValueError("effect size needs nonempty samples")
    wins = 0.0
    for x in a:
        for y in b:
            if x > y:
                wins += 1.0
            elif x == y:
                wins += 0.5
    value = wins / (len(a) * len(b))
    return value, a12_magnitude(value)


def compare_results(
    model_results: Sequence[float], counterpart_results: Sequence[float]
) -> StatResult:
    """Paired comparison of two minimization result sets, run-index paired."""
    p = wilcoxon_signed_rank(model_results, counterpart_results)
    value, magnitude = a12(
        [-v for v in model_results], [-v for v in counterpart_results]
    )
    return StatResult(p_value=p, a12=value, magnitude=magnitude, significant=p < ALPHA)


def f1_sf(x: float, nu: int) -> float:
    """Upper tail P(F > x) of the F(1, nu) distribution, for integer nu >= 1.

    F(1, nu) is the square of Student's t with nu degrees of freedom, so the
    tail is 1 - A(sqrt(x) | nu), the two-sided t tail at sqrt(x). A is the
    finite series of Abramowitz & Stegun 26.7.3 (odd nu) and 26.7.4 (even nu)
    in theta = atan(sqrt(x / nu)): with S a sum of nu // 2 terms in
    cos(theta)^2, A = 2/pi * (theta + sin(theta) cos(theta) S) for odd nu and
    A = sin(theta) S for even nu.
    """
    if x <= 0.0:
        return 1.0
    odd = nu % 2
    cos2 = nu / (nu + x)
    series, term = 0.0, 1.0
    for k in range(1, nu // 2 + 1):
        series += term
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
    sin = 1.0 / math.sqrt(1.0 + nu / x)
    if odd:
        theta = math.atan(math.sqrt(x / nu))
        central = 2.0 / math.pi * (theta + sin * math.sqrt(cos2) * series)
    else:
        central = sin * series
    # Rounding can lift the central mass A past 1 for huge x; a NaN x stays
    # NaN and so is never significant.
    tail = 1.0 - central
    return 0.0 if tail < 0.0 else tail


def scott_knott(groups: dict[str, Sequence[float]]) -> dict[str, int]:
    """Rank groups by recursive mean-ordered binary partitioning.

    The split maximizing the between-group sum of squares is accepted only if
    an F-test rejects homogeneity; members of one cluster share a rank, and
    rank 1 is the best (smallest-mean) cluster. Groups holding one value
    between them always share a rank.
    """
    if not groups:
        raise ValueError("scott_knott needs at least one group")
    for label, values in groups.items():
        if not values:
            raise ValueError(f"group {label!r} is empty")
    ordered = sorted(groups, key=lambda label: (fmean(groups[label]), label))
    ranks: dict[str, int] = {}
    _partition(ordered, groups, 1, ranks)
    return ranks


def _partition(
    labels: list[str],
    groups: dict[str, Sequence[float]],
    rank: int,
    out: dict[str, int],
) -> int:
    flat = [v for label in labels for v in groups[label]]
    total = len(flat)
    # fmean's rounding can make one value look split: it is never split.
    if len(labels) > 1 and min(flat) != max(flat):
        grand = fmean(flat)
        between, split, cut = -1.0, 0, 0
        sizes = accumulate(len(groups[label]) for label in labels[:-1])
        for i, size in enumerate(sizes, start=1):
            candidate = size * (fmean(flat[:size]) - grand) ** 2 + (total - size) * (
                fmean(flat[size:]) - grand
            ) ** 2
            if candidate > between:
                between, split, cut = candidate, i, size
        # The split is kept if a one-way F-test between its two sides
        # rejects homogeneity at ALPHA.
        if between != 0.0 and total > 2:
            left, right = flat[:cut], flat[cut:]
            mean_left, mean_right = fmean(left), fmean(right)
            within = sum((v - mean_left) ** 2 for v in left) + sum(
                (v - mean_right) ** 2 for v in right
            )
            nu = total - 2
            if within == 0.0 or f1_sf(between / (within / nu), nu) < ALPHA:
                rank = _partition(labels[:split], groups, rank, out)
                return _partition(labels[split:], groups, rank, out)
    for label in labels:
        out[label] = rank
    return rank + 1


def pick_best_counterpart(per_optimizer_results: dict[str, Sequence[float]]) -> str:
    """The optimizer of least mean result, ties to the smaller label.

    This is the paper's pick, the first optimizer of Scott-Knott's best rank:
    ``scott_knott`` orders groups by (mean, label) and gives that order
    rising ranks, so its first group has the least key here and rank 1."""
    return min(
        per_optimizer_results,
        key=lambda label: (fmean(per_optimizer_results[label]), label),
    )
