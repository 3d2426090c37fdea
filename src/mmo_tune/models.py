"""Optimization models: direction handling, max-min scaling, meta-objectives
and the bi-objective nondominated sort.

Three models are supported. The single-objective model minimizes the
direction-converted target alone. The plain bi-objective model (PMO) minimizes
the (target, auxiliary) pair as equals. The meta bi-objective model (MMO)
minimizes g1 = ft + w*phi(fa) and g2 = ft - w*phi(fa): the target stays primary
while configurations with dissimilar auxiliary values become incomparable.
Both multi-objective models minimize a pair, so an objective point is a pair.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Literal

from .measurement import MeasurementRecord

ObjectivePoint = tuple[float, float]

Direction = Literal["minimize", "maximize"]

DIRECTIONS = ("minimize", "maximize")

MMO_SHAPES = ("linear", "sqrt", "square")

PMO = "pmo"


def check_directions(directions: tuple[str, ...]) -> None:
    """Require a (target, auxiliary) pair of "minimize" or "maximize"."""
    if len(directions) != 2:
        raise ValueError(
            f"directions must be a (target, auxiliary) pair, got {len(directions)}"
        )
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


def fast_nondominated_sort(
    points: list[ObjectivePoint], capacity: int | None = None
) -> list[list[int]]:
    """Partition the indices of objective pairs into fronts: front 0 is the
    nondominated set, front k is nondominated once fronts < k are removed.
    A point that is not a pair raises ValueError; equal points share a front.
    With ``capacity``, only the first fronts that together hold at least
    ``capacity`` points are returned: all a selection of that many reads.

    Front 0 lists its indices ascending. Front k >= 1 lists them in the order
    the counting loop of Deb et al. 2002 discovers them: by the position in
    front k-1 of a member's last dominator there, then by index. Crowding ties
    depend on this order; the tests keep that loop as its reference.

    Finding the fronts is O(N log N) (Jensen 2003; ENS-BS, Zhang et al.
    2015). Visited in lexicographic order, a point is dominated by an earlier
    one iff that one has no larger second objective and differs from it.
    Within a front the second objective falls in lexicographic order, so the
    front's last member decides, and the first front it does not dominate is
    found by binary search. A point equal to the one before it joins that
    one's front. Ordering front k scans each member's run of dominators in
    front k-1, so that step costs the total run length, at most the product
    of the two front sizes: the whole sort is not O(N log N) in the worst case.
    """
    if not points:
        raise ValueError("cannot sort an empty point set")
    if set(map(len, points)) != {2}:
        raise ValueError("every objective point must be a pair")
    lex_fronts: list[list[int]] = []
    lasts: list[float] = []  # second objective of each front's last member, ascending
    previous = None
    lo = 0
    for i in sorted(range(len(points)), key=points.__getitem__):
        p = points[i]
        if p != previous:
            # Every earlier point differs from p: only its second objective
            # decides.
            previous = p
            lo = bisect_right(lasts, p[1])
        if lo == len(lex_fronts):
            lex_fronts.append([i])
            lasts.append(p[1])
        else:
            lex_fronts[lo].append(i)
            lasts[lo] = p[1]

    # The dominators of a front-k member within front k-1 are a contiguous
    # run of front k-1 in lexicographic order: the first objective is no
    # larger up to its end, and the second, which falls along a front, no
    # larger from its start. The member's last dominator holds the largest
    # output position in the run.
    fronts = [sorted(lex_fronts[0])]
    held = len(fronts[0])
    position = [0] * len(points)
    for above, front in zip(lex_fronts, lex_fronts[1:]):
        if capacity is not None and held >= capacity:
            break
        for pos, i in enumerate(fronts[-1]):
            position[i] = pos
        firsts = [points[q][0] for q in above]
        negated_seconds = [-points[q][1] for q in above]
        positions = [position[q] for q in above]
        keyed: list[tuple[int, int]] = []
        for i in front:
            first, second = points[i]
            start = bisect_left(negated_seconds, -second)
            keyed.append((max(positions[start : bisect_right(firsts, first)]), i))
        keyed.sort()
        fronts.append([i for _, i in keyed])
        held += len(front)
    return fronts
