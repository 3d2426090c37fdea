"""The trace of a tuning run, its CSV file format, and the summary a report reads.

A trace is the ordered log of every distinct measurement of one run. In
memory, ``RunTrace`` holds each measurement once as an individual
(configuration, target, auxiliary), both values converted for minimization,
keyed by its configuration in the order measured, beside the best-so-far
after each; a row's step is its position. Its CSV holds one row per
measurement (step, option values, raw target and auxiliary, budget consumed,
best-so-far). A finished run is kept as that file and its ``RunSummary``;
``emit_trace`` writes the file under a temporary name and renames it into
place, so a file at a trace's name is always complete (a symlink, device or
FIFO there is written through).

A report reads three things of a run: its best-so-far column, its final best
target and the measurements made when that best was first reached.
``RunSummary`` holds just these, the column as an ``array('d')``.
``RunTrace.summary`` makes one of a trace in memory; ``load_summary``, the one
trace reader, reduces a trace file to one, holding the cells of that one file
while it reads them.

``load_summary`` checks every row. A malformed row raises ValueError starting
with ``path:line:``: a wrong cell count, a number that does not parse, an
option value outside the space, a non-finite target, auxiliary or
best-so-far, a step or consumed count other than the row's number (a run
consumes one unit of budget per distinct measurement), or a configuration that
an earlier row holds. A byte that is not UTF-8 raises ValueError starting
with ``path:``. The file is read once by ``measurement.read_csv``: its text
is split into one flat list of cells, and each rule is checked on a whole
column of that list (a stride slice), with no list per row. Only a text that
fails a rule, or one spelled as no writer spells it (a quote, a CR, no final
newline, another header), goes through the csv module to the row-by-row
loop that words each error.
"""

from __future__ import annotations

import csv
import os
import stat
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite
from typing import Iterator

from .measurement import MeasurementRecord, read_csv
from .models import Direction, to_minimization
from .space import Configuration, OptionSpace

# A measured configuration: (configuration, target, auxiliary), both values
# converted for minimization.
Individual = tuple[Configuration, float, float]


@dataclass
class RunTrace:
    """Ordered log of every distinct measurement in one tuning run.

    ``rows`` maps each measured configuration to its individual in the order
    measured: the configuration with its target and auxiliary, each negated
    if ``directions`` maximizes it. A row's step, and the budget consumed
    after it, is its position counting from 1: a run records each
    configuration when it first measures it, and its rows are the run's
    measurement cache. ``best_so_far`` holds the best converted target after
    each row."""

    space: OptionSpace
    directions: tuple[Direction, Direction]
    rows: dict[Configuration, Individual] = field(default_factory=dict, init=False)
    best_so_far: array = field(default_factory=lambda: array("d"), init=False)
    restarts: int = field(default=0, init=False)

    def record(self, config: Configuration, measurement: MeasurementRecord) -> Individual:
        """Convert a distinct measurement, append it as the next row and
        return its individual. Raises ValueError, as ``load_summary`` does,
        when ``config`` is already recorded."""
        if config in self.rows:
            raise ValueError(f"configuration {config} repeats an earlier row")
        individual = (config, *to_minimization(measurement, self.directions))
        self.rows[config] = individual
        target, best = individual[1], self.best_so_far
        best.append(min(target, best[-1]) if best else target)
        return individual

    def summary(self) -> RunSummary:
        """The summary a report reads of this run."""
        return RunSummary.of(array("d", self.best_so_far))


@dataclass(frozen=True)
class RunSummary:
    """What a report reads of one run: the best-so-far after each distinct
    measurement, the final best target, and the measurements made when that
    best was first reached."""

    best_so_far: array
    best_target: float
    measurements_to_best: int

    @classmethod
    def of(cls, best_so_far: array) -> RunSummary:
        """The summary of a best-so-far column, one value per measurement."""
        if not best_so_far:
            raise ValueError("empty trace has no best target")
        best = best_so_far[-1]
        return cls(best_so_far, best, best_so_far.index(best) + 1)


def weight_token(weight: float | None) -> str:
    return "-" if weight is None else repr(float(weight))


def _header(space: OptionSpace) -> list[str]:
    return ["step", *space.names, "target", "auxiliary", "consumed", "best_so_far"]


def emit_trace(trace: RunTrace, path: str) -> None:
    """Write a trace as CSV: step, option values, raw values, budget, best-so-far.

    A run consumes one unit of budget per distinct measurement, so the
    consumed column repeats the step. The rows go to ``path + ".tmp"``, which
    is then renamed to ``path``, so a writer failing or killed partway leaves
    no short trace at ``path``. A symlink, device or FIFO at ``path`` is
    written through instead of replaced."""
    regular = not os.path.lexists(path) or stat.S_ISREG(os.lstat(path).st_mode)
    target = path + ".tmp" if regular else path
    try:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_header(trace.space))
            # Negation is exact and its own inverse, so a converted value times
            # its objective's converted 1.0 is the raw value, -0.0 included.
            t_sign, a_sign = to_minimization(MeasurementRecord(1.0, 1.0), trace.directions)
            rows = zip(trace.rows.values(), trace.best_so_far)
            for step, ((config, ft, fa), best) in enumerate(rows, start=1):
                writer.writerow([step, *config, repr(ft * t_sign), repr(fa * a_sign),
                                 step, repr(best)])
        if regular:
            os.replace(target, path)
    except BaseException:
        if regular and os.path.exists(target):
            os.remove(target)
        raise


def load_summary(path: str, space: OptionSpace) -> RunSummary:
    """The summary of a trace CSV, every row checked: its step and consumed
    count are its row number; a malformed row raises ValueError starting with
    ``path:line:``, and a byte that is not UTF-8 one starting with ``path:``.

    The file is read once by ``read_csv``, and its rows are checked on whole
    columns of its cells. A text that check refuses goes to ``_row_column``
    through the csv module, which words the error of its first malformed
    row, or returns the column of a valid file spelled as no writer spells
    it (``01`` for ``1``, a quoted cell, CRLF line ends)."""
    column = read_csv(path, _header(space), space, 1, _flat_column, _row_column)
    try:
        return RunSummary.of(column)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@lru_cache(maxsize=8)
def _row_numbers(k: int) -> tuple[list[str], list[str]]:
    """Rows 1 to k as a trace spells their consumed count (``"1"``) and, first
    in its line, their step (``"\\n1"``)."""
    numbers = list(map(str, range(1, k + 1)))
    return numbers, ["\n" + number for number in numbers]


def _flat_column(cells: list[str], spellings: list[dict[str, int]]) -> array | None:
    """The best-so-far column of a trace's cells (see
    ``measurement._csv_columns``), every rule checked on whole columns; None
    if a rule fails, ValueError if a cell does not parse."""
    n = len(spellings)
    w = n + 5
    numbers, starts = _row_numbers(len(cells) // w - 1)
    if cells[w : -1 : w] != starts or cells[w + n + 3 : -1 : w] != numbers:
        return None
    # Spellings map one-to-one to values, so rows spelled alike hold equal
    # configurations.
    if len(set(zip(*[cells[w + j : -1 : w] for j in range(1, n + 1)]))) != len(numbers):
        return None
    measured = map(float, cells[w + n + 1 : -1 : w] + cells[w + n + 2 : -1 : w])
    best = array("d", map(float, cells[w + n + 4 : -1 : w]))
    # A sum is finite only if every term is (an overflow refuses a valid file,
    # which the row loop then reads).
    return best if isfinite(sum(measured) + sum(best)) else None


def _row_column(path: str, reader: Iterator[list[str]], space: OptionSpace) -> array:
    """The best-so-far column of a trace, read from a csv reader over its
    file and checked row by row; a header other than the writer's raises
    ValueError starting with ``path:``, the first malformed row one starting
    with ``path:line:``."""
    header = next(reader, None)
    if header != _header(space):
        raise ValueError(f"{path}: unexpected trace header {header}")
    column = array("d")
    n = len(space.names)
    seen: set[Configuration] = set()
    # A csv error anywhere in the file comes before a malformed row.
    for row, cells in enumerate(list(reader), start=1):
        try:
            if len(cells) != n + 5:
                raise ValueError(f"expected {n + 5} cells, got {len(cells)}")
            step = int(cells[0])
            config = space.config(cells[1 : 1 + n])
            target = float(cells[1 + n])
            auxiliary = float(cells[2 + n])
            consumed = int(cells[3 + n])
            best = float(cells[4 + n])
            if not (isfinite(target) and isfinite(auxiliary) and isfinite(best)):
                raise ValueError("non-finite target, auxiliary or best_so_far")
            if step != row or consumed != row:
                raise ValueError(
                    f"step {step} and consumed {consumed} must both be the "
                    f"row number {row}"
                )
            if config in seen:
                raise ValueError(f"configuration {config} repeats an earlier row")
            seen.add(config)
        except ValueError as exc:
            raise ValueError(f"{path}:{row + 1}: {exc}") from exc
        column.append(best)
    return column


def trace_filename(model: str, weight: float | None, run_index: int) -> str:
    slug = model.replace(":", "_").replace("-", "_")
    suffix = "" if weight is None else f"__w{weight_token(weight)}"
    return f"{slug}{suffix}__run{run_index:03d}.csv"
