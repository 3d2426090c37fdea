"""Shared fixtures for the test suite."""

from __future__ import annotations

import csv
import os
import subprocess
import sys

import pytest

import mmo_tune
from mmo_tune.space import OptionSpace, OptionSpec

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(mmo_tune.__file__)))


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` under ``python -O``, which strips assert statements, so
    a check that must survive it can be seen to."""
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        timeout=60,
    )


def make_binary_space(n: int) -> OptionSpace:
    return OptionSpace(tuple(OptionSpec(f"o{i}", "binary", 0, 1) for i in range(n)))


def write_table(path, space: OptionSpace, rows: dict[tuple[int, ...], tuple[float, float]]) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*space.names, "target", "auxiliary"])
        for values, (target, auxiliary) in rows.items():
            writer.writerow([*values, f"{target:.2f}", f"{auxiliary:.2f}"])
    return str(path)


def dominance(u, v):
    """Reference Pareto comparison of two objective pairs: 1 if u dominates v,
    -1 if v dominates u, 0 otherwise (equal points are mutually nondominated)."""
    if u == v:
        return 0
    if u[0] <= v[0] and u[1] <= v[1]:
        return 1
    if v[0] <= u[0] and v[1] <= u[1]:
        return -1
    return 0


def sort_by_domination_counts(points):
    """Reference front order: the O(N^2) counting loop of Deb et al. 2002.

    Front k >= 1 comes out in the order the loop discovers its members, which
    is the order ``fast_nondominated_sort`` must reproduce exactly."""
    n = len(points)
    dominated = [[] for _ in range(n)]
    counts = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            d = dominance(points[i], points[j])
            if d > 0:
                dominated[i].append(j)
                counts[j] += 1
            elif d < 0:
                dominated[j].append(i)
                counts[i] += 1
    fronts = []
    current = [i for i in range(n) if counts[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated[i]:
                counts[j] -= 1
                if counts[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


@pytest.fixture
def binary3() -> OptionSpace:
    return make_binary_space(3)


@pytest.fixture
def binary8() -> OptionSpace:
    return make_binary_space(8)
