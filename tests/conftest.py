"""Shared fixtures for the test suite."""

from __future__ import annotations

import csv
import os
import subprocess
import sys

import pytest

import mmo_tune
import mmo_tune.measurement
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


def unwritten_spellings(text: str) -> dict[str, str]:
    """A CSV file's text in spellings its writer never makes. The csv module
    reads the first three as it reads ``text``: CRLF line ends, no final
    newline, and the second-to-last cell of the first data row quoted. It
    reads as a line break a trailing blank line (one more row, of no cells),
    a CR before the last cell of the first data row, and a newline in place
    of the comma before it. It reads a comma-free tail after the last
    newline, a number or a word, as one more row of one cell."""
    lines = text.split("\n")
    cells = lines[1].split(",")

    def first_row(*edited: str) -> str:
        return "\n".join([lines[0], ",".join([*cells[:-2], *edited]), *lines[2:]])

    return {
        "crlf": text.replace("\n", "\r\n"),
        "no-final-newline": text[:-1],
        "quoted-cell": first_row(f'"{cells[-2]}"', cells[-1]),
        "trailing-blank-line": text + "\n",
        "cr-in-a-row": first_row(cells[-2], "\r" + cells[-1]),
        "comma-made-newline": first_row(cells[-2] + "\n" + cells[-1]),
        "number-after-last-newline": text + "7",
        "word-after-last-newline": text + "x",
    }


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


def reference_boundary_mutation(space, config, rate, rng):
    """Reference boundary mutation: one coin per option, then for a mutated
    option a second coin between its lower and upper bound.

    The draw order the optimizers' operator must keep, draw for draw."""
    values = list(config)
    for i, opt in enumerate(space.options):
        if rng.random() < rate:
            values[i] = opt.lower if rng.random() < 0.5 else opt.upper
    return tuple(values)


def reference_uniform_crossover(a, b, rate, rng):
    """Reference uniform crossover: one coin for whether to cross, then a fair
    coin per position for whether to swap it."""
    if rng.random() >= rate:
        return a, b
    left = list(a)
    right = list(b)
    for i in range(len(left)):
        if rng.random() < 0.5:
            left[i], right[i] = right[i], left[i]
    return tuple(left), tuple(right)


@pytest.fixture
def binary3() -> OptionSpace:
    return make_binary_space(3)


@pytest.fixture
def binary8() -> OptionSpace:
    return make_binary_space(8)


@pytest.fixture
def opened(monkeypatch) -> list:
    """The files ``mmo_tune.measurement``, the one CSV file reader, opens
    during the test, in order."""
    paths = []

    def counted(file, *args, **kwargs):
        paths.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(mmo_tune.measurement, "open", counted, raising=False)
    return paths
