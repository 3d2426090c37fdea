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
trace reader, reduces a trace file to one, holding the rows of that one file
while it reads them.

``load_summary`` checks every row. A malformed row raises ValueError starting
with ``path:line:``: a wrong cell count, a number that does not parse, an
option value outside the space, a non-finite target, auxiliary or
best-so-far, a step or consumed count other than the row's number (a run
consumes one unit of budget per distinct measurement), or a configuration that
an earlier row holds. The rules are checked on whole columns at once; only a
file that fails them goes through the row-by-row loop that words each error.
"""

from __future__ import annotations

import csv
import os
import stat
from array import array
from dataclasses import dataclass, field
from math import isfinite

from .measurement import MeasurementRecord
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
    ``path:line:``.

    The file's rows are checked on whole columns. A file that check refuses
    goes to ``_row_column``, which words the error of its first malformed row,
    or returns the column of a valid file spelled as no writer spells it
    (``01`` for ``1``)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _header(space):
            raise ValueError(f"{path}: unexpected trace header {header}")
        rows = list(reader)
    try:
        column = _checked_column(rows, space)
    except ValueError:  # a cell that does not parse
        column = None
    if column is None:
        column = _row_column(path, rows, space)
    try:
        return RunSummary.of(column)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _checked_column(rows: list[list[str]], space: OptionSpace) -> array | None:
    """The best-so-far column of a trace's rows, every rule checked on whole
    columns; None if a rule fails, ValueError if a cell does not parse.

    Each distinct spelling in an option column is parsed once, and spellings
    must map one-to-one to values, so configurations differ exactly when their
    spellings do."""
    n = len(space.names)
    k = len(rows)
    if set(map(len, rows)) != {n + 5}:
        return None
    columns = list(zip(*rows))
    row_numbers = tuple(map(str, range(1, k + 1)))
    if columns[0] != row_numbers or columns[n + 3] != row_numbers:
        return None
    for opt, cells in zip(space.options, columns[1 : 1 + n]):
        spellings = set(cells)
        values = set(map(int, spellings))
        if len(values) != len(spellings) or not (
            opt.lower <= min(values) and max(values) <= opt.upper
        ):
            return None
    if len(set(zip(*columns[1 : 1 + n]))) != k:
        return None
    measured = map(float, columns[n + 1] + columns[n + 2])
    best = array("d", map(float, columns[n + 4]))
    if not (all(map(isfinite, measured)) and all(map(isfinite, best))):
        return None
    return best


def _row_column(path: str, rows: list[list[str]], space: OptionSpace) -> array:
    """The best-so-far column of a trace's rows, checked row by row; the
    first malformed row raises ValueError starting with ``path:line:``."""
    column = array("d")
    n = len(space.names)
    seen: set[Configuration] = set()
    for row, cells in enumerate(rows, start=1):
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
