"""Optimization models: direction handling, max-min scaling, meta-objectives, dominance.

Three models are supported. The single-objective model minimizes the
direction-converted target alone. The plain bi-objective model (PMO) minimizes
the (target, auxiliary) pair as equals. The meta bi-objective model (MMO)
minimizes g1 = ft + w*phi(fa) and g2 = ft - w*phi(fa): the target stays primary
while configurations with dissimilar auxiliary values become incomparable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Literal

from .measurement import MeasurementRecord

ObjectivePoint = tuple[float, ...]

Direction = Literal["minimize", "maximize"]

DIRECTIONS = ("minimize", "maximize")

MMO_SHAPES = ("linear", "sqrt", "square")

PMO = "pmo"


def check_directions(directions: tuple[str, ...]) -> None:
    """Reject any direction other than "minimize" and "maximize"."""
    for direction in directions:
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")


def to_minimization(
    record: MeasurementRecord, directions: tuple[Direction, Direction]
) -> tuple[float, float]:
    """Direction-convert the raw (target, auxiliary) pair: maximizing
    objectives are negated."""
    target, auxiliary = record.target_raw, record.auxiliary_raw
    if directions[0] == "maximize":
        target = -target
    if directions[1] == "maximize":
        auxiliary = -auxiliary
    return target, auxiliary


class NormalizationBounds:
    """Running per-objective min/max of converted values seen so far in one run.

    Bounds only widen; they are updated dynamically as the tuning proceeds.
    """

    def __init__(self):
        self.mins = [math.inf] * 2
        self.maxs = [-math.inf] * 2

    def observe(self, point: tuple[float, ...]) -> bool:
        """Widen the bounds to cover ``point``; True if a bound moved."""
        moved = False
        for i, value in enumerate(point):
            if value < self.mins[i]:
                self.mins[i] = value
                moved = True
            if value > self.maxs[i]:
                self.maxs[i] = value
                moved = True
        return moved

    def normalize(self, value: float, objective: int) -> float:
        """Max-min scale into [0, 1]; a degenerate range maps to 0.5.

        The value must already be covered by the bounds (observe first);
        a value outside them raises ValueError.
        """
        lo = self.mins[objective]
        hi = self.maxs[objective]
        if not lo <= value <= hi:
            raise ValueError(f"value {value} outside bounds [{lo}, {hi}]")
        if lo == hi:
            return 0.5
        return (value - lo) / (hi - lo)


@dataclass(frozen=True)
class MmoInstance:
    """One meta-model instance: the balance shape and its weight w > 0."""

    shape: str
    weight: float

    def __post_init__(self) -> None:
        if self.shape not in MMO_SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; expected one of {MMO_SHAPES}")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be finite and > 0, got {self.weight}")

    def phi(self, fa_norm: float) -> float:
        """Weighted balance term applied to the normalized auxiliary value."""
        if self.shape == "linear":
            return self.weight * fa_norm
        if self.shape == "sqrt":
            return self.weight * math.sqrt(fa_norm)
        return self.weight * fa_norm * fa_norm


def meta_objectives(
    instance: MmoInstance, ft_norm: float, fa_norm: float
) -> ObjectivePoint:
    """Meta pair (ft + w*phi(fa), ft - w*phi(fa)) from normalized inputs."""
    balance = instance.phi(fa_norm)
    return (ft_norm + balance, ft_norm - balance)


def pmo_objectives(ft_norm: float, fa_norm: float) -> ObjectivePoint:
    """The plain bi-objective pair: target and auxiliary minimized as equals."""
    return (ft_norm, fa_norm)


def dominance(u: ObjectivePoint, v: ObjectivePoint) -> int:
    """Pareto comparison: 1 if u dominates v, -1 if v dominates u, 0 otherwise.

    u dominates v iff u <= v componentwise with at least one strict inequality;
    equal points are mutually nondominated.
    """
    if len(u) != len(v):
        raise ValueError(f"objective length mismatch: {len(u)} vs {len(v)}")
    u_better = False
    v_better = False
    for a, b in zip(u, v):
        if a < b:
            u_better = True
        elif b < a:
            v_better = True
    if u_better and not v_better:
        return 1
    if v_better and not u_better:
        return -1
    return 0


def fast_nondominated_sort(points: list[ObjectivePoint]) -> list[list[int]]:
    """Partition indices into fronts: front 0 is the nondominated set, front k
    is nondominated once fronts < k are removed.

    Front 0 lists its indices ascending. Front k >= 1 lists them in the order
    the general counting loop discovers them: by the position in front k-1 of
    a member's last dominator there, then by index. Crowding ties depend on
    this order, so the two-objective path reproduces it exactly.
    """
    if not points:
        raise ValueError("cannot sort an empty point set")
    if all(len(p) == 2 for p in points):
        return _sort_two_objectives(points)
    return _sort_by_domination_counts(points)


def _sort_by_domination_counts(points: list[ObjectivePoint]) -> list[list[int]]:
    """The O(M N^2) sort of Deb et al. 2002 for any number of objectives."""
    n = len(points)
    dominated: list[list[int]] = [[] for _ in range(n)]
    counts = [0] * n
    for i in range(n):
        pi = points[i]
        for j in range(i + 1, n):
            d = dominance(pi, points[j])
            if d > 0:
                dominated[i].append(j)
                counts[j] += 1
            elif d < 0:
                dominated[j].append(i)
                counts[i] += 1
    fronts: list[list[int]] = []
    current = [i for i in range(n) if counts[i] == 0]
    while current:
        fronts.append(current)
        nxt: list[int] = []
        for i in current:
            for j in dominated[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def _sort_two_objectives(points: list[ObjectivePoint]) -> list[list[int]]:
    """O(N log N) bi-objective sort (Jensen 2003; ENS-BS, Zhang et al. 2015).

    Visited in lexicographic order, a point is dominated by an earlier one iff
    that one has no larger second objective and differs from it. Within a
    front the second objective falls in lexicographic order, so the front's
    last member decides, and the first front it does not dominate is found
    by binary search. Equal points share a front.
    """
    lex_fronts: list[list[int]] = []
    for i in sorted(range(len(points)), key=points.__getitem__):
        p = points[i]
        lo, hi = 0, len(lex_fronts)
        while lo < hi:
            mid = (lo + hi) // 2
            last = points[lex_fronts[mid][-1]]
            if last[1] <= p[1] and last != p:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(lex_fronts):
            lex_fronts.append([i])
        else:
            lex_fronts[lo].append(i)

    # The dominators of a front-k member within front k-1 are a contiguous
    # run of front k-1 in lexicographic order (first objective no larger,
    # second no larger), and both ends of the run only move forward as the
    # member advances through front k. A monotone deque then yields the
    # largest output position in each run: the member's last dominator.
    fronts = [sorted(lex_fronts[0])]
    position = [0] * len(points)
    for above, front in zip(lex_fronts, lex_fronts[1:]):
        for pos, i in enumerate(fronts[-1]):
            position[i] = pos
        window: deque[int] = deque()  # members of `above`, positions falling
        added = 0
        keyed: list[tuple[int, int]] = []
        for i in front:
            first, second = points[i]
            while added < len(above) and points[above[added]][0] <= first:
                q = above[added]
                while window and position[window[-1]] < position[q]:
                    window.pop()
                window.append(q)
                added += 1
            while points[window[0]][1] > second:
                window.popleft()
            keyed.append((position[window[0]], i))
        keyed.sort()
        fronts.append([i for _, i in keyed])
    return fronts


def pareto_front(points: list[ObjectivePoint]) -> list[int]:
    """Indices of the points dominated by no other point in the set, ascending."""
    return fast_nondominated_sort(points)[0]
