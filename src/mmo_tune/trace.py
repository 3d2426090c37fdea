"""The trace of a tuning run and its CSV file format.

A trace is the ordered log of every distinct measurement of one run. Its CSV
holds one row per measurement (step, option values, raw target and auxiliary,
budget consumed, best-so-far) and reads back losslessly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .measurement import MeasurementRecord
from .space import Configuration, OptionSpace


@dataclass(frozen=True)
class TraceEntry:
    """One distinct measurement: raw values plus budget and best-so-far state."""

    step: int
    config: Configuration
    target_raw: float
    auxiliary_raw: float
    consumed_after: int
    best_so_far: float


@dataclass
class RunTrace:
    """Ordered log of every distinct measurement in one tuning run."""

    space: OptionSpace
    entries: list[TraceEntry] = field(default_factory=list)
    restarts: int = 0

    def record(
        self,
        config: Configuration,
        measurement: MeasurementRecord,
        consumed: int,
        target: float,
    ) -> None:
        """Append a distinct measurement; ``target`` is its direction-converted
        target, which the best-so-far tracks."""
        best = target
        if self.entries:
            if consumed < self.entries[-1].consumed_after:
                raise ValueError("budget consumption must be nondecreasing")
            best = min(best, self.entries[-1].best_so_far)
        self.entries.append(
            TraceEntry(
                step=len(self.entries) + 1,
                config=config,
                target_raw=measurement.target_raw,
                auxiliary_raw=measurement.auxiliary_raw,
                consumed_after=consumed,
                best_so_far=best,
            )
        )

    def best_target(self) -> float:
        """Minimum direction-converted target over all measurements."""
        if not self.entries:
            raise ValueError("empty trace has no best target")
        return self.entries[-1].best_so_far

    def measurements_to_best(self) -> int:
        """Budget consumed when the final best value was first reached."""
        best = self.best_target()
        for entry in self.entries:
            if entry.best_so_far == best:
                return entry.consumed_after
        raise AssertionError("unreachable: best_so_far must appear in entries")


def weight_token(weight: float | None) -> str:
    return "-" if weight is None else repr(float(weight))


def _header(space: OptionSpace) -> list[str]:
    return ["step", *space.names, "target", "auxiliary", "consumed", "best_so_far"]


def emit_trace(trace: RunTrace, path: str) -> None:
    """Write a trace as CSV: step, option values, raw values, budget, best-so-far."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(trace.space))
        for entry in trace.entries:
            writer.writerow(
                [
                    entry.step,
                    *entry.config,
                    repr(entry.target_raw),
                    repr(entry.auxiliary_raw),
                    entry.consumed_after,
                    repr(entry.best_so_far),
                ]
            )


def load_trace(path: str, space: OptionSpace) -> RunTrace:
    """Read a trace CSV back; lossless against emit_trace.

    A malformed row (wrong cell count, a number that does not parse, an option
    value outside the space, a non-finite target, auxiliary or best-so-far)
    raises ValueError starting with ``path:line:``.
    """
    trace = RunTrace(space)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _header(space):
            raise ValueError(f"{path}: unexpected trace header {header}")
        n = len(space.names)
        for line, cells in enumerate(reader, start=2):
            try:
                if len(cells) != n + 5:
                    raise ValueError(f"expected {n + 5} cells, got {len(cells)}")
                entry = TraceEntry(
                    step=int(cells[0]),
                    config=space.config(int(v) for v in cells[1 : 1 + n]),
                    target_raw=float(cells[1 + n]),
                    auxiliary_raw=float(cells[2 + n]),
                    consumed_after=int(cells[3 + n]),
                    best_so_far=float(cells[4 + n]),
                )
                if not (
                    math.isfinite(entry.target_raw)
                    and math.isfinite(entry.auxiliary_raw)
                    and math.isfinite(entry.best_so_far)
                ):
                    raise ValueError("non-finite target, auxiliary or best_so_far")
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from exc
            trace.entries.append(entry)
    return trace


def trace_filename(model: str, weight: float | None, run_index: int) -> str:
    slug = model.replace(":", "_").replace("-", "_")
    suffix = "" if weight is None else f"__w{weight_token(weight)}"
    return f"{slug}{suffix}__run{run_index:03d}.csv"
