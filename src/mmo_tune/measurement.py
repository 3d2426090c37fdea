"""Measurement oracles: tabular, external-command and synthetic; ``read_csv``,
which reads a table or trace file once."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from statistics import median_low
from typing import Callable, Iterator, Protocol

from .space import Configuration, InvalidConfigurationError, OptionSpace


class BudgetExhausted(Exception):
    """Cooperative stop signal: the distinct-measurement budget is spent.

    Not an error; optimizers catch it and report their best-so-far result.
    """


class TableFormatError(ValueError):
    """Raised when a measurement table does not match the CSV schema."""


class UnmeasuredConfigError(LookupError):
    """Raised when a tabular oracle is asked about a configuration it has no row for."""


class CommandOracleError(RuntimeError):
    """Raised when an external measurement command fails; carries the transcript."""


@dataclass(frozen=True)
class MeasurementRecord:
    """Raw target and auxiliary performance values, as measured."""

    target_raw: float
    auxiliary_raw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target_raw) and math.isfinite(self.auxiliary_raw)):
            raise ValueError("measurement values must be finite")


class Oracle(Protocol):
    def measure(self, config: Configuration) -> MeasurementRecord: ...


class TabularOracle:
    """Exact-match lookups against pre-measured data; never invents values."""

    def __init__(self, rows: dict[tuple[int, ...], tuple[float, float]]):
        self.rows = rows

    def measure(self, config: Configuration) -> MeasurementRecord:
        try:
            target, auxiliary = self.rows[config]
        except KeyError:
            raise UnmeasuredConfigError(f"unmeasured configuration {config}") from None
        return MeasurementRecord(target, auxiliary)


def load_table(path: str, space: OptionSpace) -> TabularOracle:
    """Load a measurement table.

    Schema: header row is the option names in space order followed by ``target``
    and ``auxiliary``; data rows are integers then two decimals. Duplicate
    configuration rows are fatal (ambiguous ground truth), and so is a table
    of no row.

    The file is read once, by ``read_csv``. A text its column check refuses,
    or one spelled as no writer spells it (a quote, a CR, a blank line, text
    after the last newline), goes to ``_row_table``, which words the error of
    its first malformed row, or returns the rows of a valid file. A byte that
    is not UTF-8 raises TableFormatError naming the file.
    """
    return TabularOracle(read_csv(path, [*space.names, "target", "auxiliary"], space, 0,
                                  _flat_table, _row_table, TableFormatError))


def read_csv(path: str, header: list[str], space: OptionSpace, first: int,
             flat: Callable, rows: Callable, error: type[ValueError] = ValueError):
    """What a CSV file headed by ``header``, its options in columns ``first``
    onward, holds, read and decoded once: ``flat(cells, spellings)`` (see
    ``_csv_columns``) or, if either refuses the text (None or ValueError),
    ``rows(path, reader, space)`` on a csv reader over that same text. A
    byte that is not UTF-8 raises ``error`` naming the file; a path that is
    not a string or path-like raises ValueError, as ``open`` would read an
    integer as a file descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a string or path-like, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc
    try:
        split = _csv_columns(text, header, space, first)
        value = None if split is None else flat(*split)
    except ValueError:  # a cell that does not parse
        value = None
    if value is None:
        value = rows(path, csv.reader(io.StringIO(text, newline="")), space)
    return value


def _csv_columns(
    text: str, header: list[str], space: OptionSpace, first: int
) -> tuple[list[str], list[dict[str, int]]] | None:
    """The cells of a CSV text headed by ``header``, as one flat list, and a
    map from each option column's spellings to its values; None, or
    ValueError for a spelling that does not parse, if the text is not one
    the csv module would read as these cells or an option column is out of
    line.

    The text must hold no quote or CR, end with a newline, start with the
    header, and give every line ``w = len(header)`` cells. Row r (from 0)
    of the body is ``cells[w * (r + 1) : w * (r + 2)]``, column j of the
    body is ``cells[w + j : -1 : w]``, and the first cell of each row keeps
    the newline before it (``"\\n1"`` for a row starting ``1``); no per-line
    string is made. Options are columns ``first`` onward, in space order:
    each column's distinct spellings must map one-to-one to integers inside
    the option's bounds, so configurations differ exactly when their
    spellings do."""
    end = text.find("\n")
    if (end < 0 or not text.endswith("\n") or '"' in text or "\r" in text
            or text[:end].split(",") != header):
        return None
    cells = text.replace("\n", ",\n").split(",")
    w = len(header)
    lines, extra = divmod(len(cells) - 1, w)
    # Each newline starts a cell of its own; all must fall on a row start.
    if extra or text.count("\n") != lines or "".join(cells[::w]).count("\n") != lines:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, cells)) > limit:
        return None
    spellings = []
    for j, opt in enumerate(space.options, start=first):
        spelled = set(cells[w + j : -1 : w])
        values = dict(zip(spelled, map(int, spelled)))
        ints = set(values.values())
        if len(ints) != len(values) or ints and not (
            opt.lower <= min(ints) and max(ints) <= opt.upper
        ):
            return None
        spellings.append(values)
    return cells, spellings


def _flat_table(cells: list[str], spellings: list[dict[str, int]]) -> dict | None:
    """The rows of a table's cells (see ``_csv_columns``), every rule checked
    on whole columns; None if a rule fails or the table holds no row,
    ValueError if a cell does not parse."""
    n = len(spellings)
    w = n + 2
    targets = list(map(float, cells[w + n : -1 : w]))
    auxiliaries = list(map(float, cells[w + n + 1 : -1 : w]))
    # A sum is finite only if every term is (an overflow refuses a valid
    # file, which the row loop then reads).
    if not math.isfinite(sum(targets) + sum(auxiliaries)):
        return None
    configs = zip(*(map(values.__getitem__, cells[w + j : -1 : w])
                    for j, values in enumerate(spellings)))
    rows = dict(zip(configs, zip(targets, auxiliaries)))
    return rows if 0 < len(rows) == len(targets) else None


def _row_table(path: str, reader: Iterator[list[str]], space: OptionSpace) -> dict:
    """The rows of a table, read from a csv reader over its file and checked
    row by row; the first malformed row raises TableFormatError naming the
    file and line, and so does a table with no row."""
    try:
        header = next(reader)
    except StopIteration:
        raise TableFormatError(f"{path}: empty file") from None
    if len(header) < 3 or header[-2:] != ["target", "auxiliary"]:
        raise TableFormatError(
            f"{path}: header must end with 'target','auxiliary', got {header}"
        )
    option_names = tuple(header[:-2])
    for name in option_names:
        if name not in space.names:
            raise TableFormatError(f"{path}: unknown option column {name!r}")
    if option_names != space.names:
        raise TableFormatError(
            f"{path}: option columns {option_names} do not match "
            f"space order {space.names}"
        )
    rows: dict[tuple[int, ...], tuple[float, float]] = {}
    for lineno, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            raise TableFormatError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        try:
            values = tuple(int(c) for c in cells[: len(option_names)])
            target = float(cells[-2])
            auxiliary = float(cells[-1])
        except ValueError as exc:
            raise TableFormatError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
        if not (math.isfinite(target) and math.isfinite(auxiliary)):
            raise TableFormatError(f"{path}:{lineno}: non-finite measurement")
        try:
            space.validate(values)
        except InvalidConfigurationError as exc:
            raise TableFormatError(f"{path}:{lineno}: {exc}") from exc
        if values in rows:
            raise TableFormatError(
                f"{path}:{lineno}: duplicate configuration row {values}"
            )
        rows[values] = (target, auxiliary)
    if not rows:
        raise TableFormatError(f"{path}: table holds no configuration rows")
    return rows


class CommandOracle:
    """Measures by running an external command; option values go in as OPT_<name>.

    The command's final stdout line must be ``{"target": <num>, "auxiliary": <num>}``.
    Each measurement runs the command ``samples`` times and keeps per-objective
    lower medians: values it measured.
    """

    def __init__(
        self,
        command: str,
        space: OptionSpace,
        samples: int = 5,
        timeout: float = 60.0,
    ):
        # Checked before any command runs: a non-finite timeout fails only
        # after the command has exited, so a hanging one would never be killed.
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
        # NaN fails the range, and so does an int too large for a float.
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not (
            0 < timeout <= sys.float_info.max
        ):
            raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
        if not isinstance(command, str) or not command.strip():
            raise ValueError(f"command must be a nonblank string, got {command!r}")
        for name in space.names:
            if "=" in name or "\0" in name:
                raise ValueError(f"option name {name!r} holds '=' or NUL: "
                                 "OPT_<name> must be an environment variable name")
        self.command = command
        self.space = space
        self.samples = samples
        self.timeout = timeout

    def measure(self, config: Configuration) -> MeasurementRecord:
        self.space.validate(config)
        env = dict(os.environ)
        for opt, value in zip(self.space.options, config):
            env[f"OPT_{opt.name}"] = str(value)
        samples = [self._run_once(env) for _ in range(self.samples)]
        targets, auxiliaries = zip(*samples)
        return MeasurementRecord(median_low(targets), median_low(auxiliaries))

    def _run_once(self, env: dict[str, str]) -> tuple[float, float]:
        # Imported here: only a command oracle starts a process, and no
        # other command needs these modules.
        import signal
        import subprocess
        import tempfile

        # A session of its own makes the command lead a process group, and
        # its output goes to files, so the wait is for the command alone, not
        # for a child it left holding a pipe. Whether it exited, timed out or
        # the tuner was interrupted, the whole group is killed while the
        # unreaped command keeps the group's id from being reused; a child
        # left running after a success is killed silently. A byte that is not
        # UTF-8 reads as U+FFFD, which no result line can hold.
        with (tempfile.TemporaryFile("w+", encoding="utf-8", errors="replace") as out,
              tempfile.TemporaryFile("w+", encoding="utf-8", errors="replace") as err):
            proc = subprocess.Popen(self.command, shell=True, env=env, stdout=out,
                                    stderr=err, start_new_session=True)
            try:
                exited = _exits_within(proc.pid, self.timeout)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            if not exited:
                raise CommandOracleError(
                    f"command timed out after {self.timeout}s: {self.command}"
                )
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if proc.returncode != 0:
            raise CommandOracleError(
                f"command exited {proc.returncode}: {self.command}"
                + _transcript(stdout, stderr)
            )
        lines = [line for line in stdout.splitlines() if line.strip()]
        if not lines:
            raise CommandOracleError(
                f"command produced no output: {self.command}\nstderr: {stderr!r}"
            )
        try:
            result = json.loads(lines[-1])
            values = result["target"], result["auxiliary"]
            # JSON numbers only: float() would also read true, false and "1.5".
            if not all(type(v) in (int, float) for v in values):
                raise TypeError("result values must be JSON numbers")
            target, auxiliary = map(float, values)
        except (json.JSONDecodeError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise CommandOracleError(
                f"unparseable result line {lines[-1]!r} from: {self.command}"
            ) from exc
        if not (math.isfinite(target) and math.isfinite(auxiliary)):
            raise CommandOracleError(
                f"non-finite result line {lines[-1]!r} from: {self.command}"
                + _transcript(stdout, stderr)
            )
        return target, auxiliary


def _exits_within(pid: int, timeout: float) -> bool:
    """Whether the child ``pid`` exits within ``timeout`` seconds, polled as
    ``Popen.wait`` polls with a timeout; it is left unreaped either way."""
    deadline = time.monotonic() + timeout
    delay = 0.0005
    while not os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        time.sleep(min(delay, remaining))
        delay = min(2 * delay, 0.05)
    return True


def _transcript(stdout: str, stderr: str) -> str:
    return f"\nstdout: {stdout!r}\nstderr: {stderr!r}"


class SyntheticOracle:
    """Deterministic planted-optimum landscape.

    The target is a normalized distance-to-planted slope plus seeded per-config
    noise of amplitude ``ruggedness``, with pits of depth ``2 * ruggedness``
    carved at ``density`` of the configurations. The planted optimum
    (``planted``, or a configuration drawn from ``seed``) sits strictly below
    every other value. With ruggedness 0 the landscape has a single basin; once
    ruggedness exceeds the per-step slope, isolated pit centers become strict
    Hamming-1 local minima. The auxiliary value mixes the target with
    independent seeded noise via ``correlation``, so extreme auxiliary values
    can coexist with similar target values.
    """

    def __init__(
        self, space: OptionSpace, seed: int, density: float = 0.05,
        ruggedness: float = 0.3, correlation: float = 0.0,
        planted: list[int] | tuple[int, ...] | None = None,
    ):
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        for name, value in (("density", density), ("ruggedness", ruggedness),
                            ("correlation", correlation)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if planted is not None and (not isinstance(planted, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in planted
        )):
            raise ValueError(f"planted must be a list of integers, got {planted!r}")
        if not 0.0 < density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        # NaN, infinity and an int too large for a float (which the landscape
        # could not multiply) fail this.
        if not 0.0 <= ruggedness <= sys.float_info.max:
            raise ValueError(f"ruggedness must be finite and >= 0, got {ruggedness}")
        if not -1.0 <= correlation <= 1.0:
            raise ValueError("correlation must be in [-1, 1]")
        self.space = space
        self.seed = seed
        self.density = density
        self.ruggedness = ruggedness
        self.correlation = correlation
        if planted is None:
            planted = space.random_config(random.Random(seed))
        self.planted = space.config(planted)
        spans = sum(opt.upper - opt.lower for opt in space.options)
        self._distance_scale = float(spans) if spans else 1.0
        # Each of a configuration's three uniform draws hashes the seed, its
        # tag and the configuration's repr.
        prefix = str(seed).encode()
        self._seed_tags = tuple(prefix + tag for tag in (b"noise", b"pit", b"aux"))

    def target(self, config: Configuration) -> float:
        return self._values(config)[0]

    def auxiliary(self, config: Configuration) -> float:
        return self._values(config)[1]

    def measure(self, config: Configuration) -> MeasurementRecord:
        return MeasurementRecord(*self._values(config))

    def _values(self, config: Configuration) -> tuple[float, float]:
        """(target, auxiliary) of ``config``; InvalidConfigurationError if it
        is not a configuration of the space."""
        self.space.validate(config)
        key = repr(config).encode()
        noise, pit, aux = [
            int.from_bytes(hashlib.blake2b(seed_tag + key, digest_size=8).digest(), "big")
            / 2.0**64
            for seed_tag in self._seed_tags
        ]
        if config == self.planted:
            target = -2.0 * self.ruggedness - 0.5
        else:
            base = (
                sum(abs(v - pv) for v, pv in zip(config, self.planted))
                / self._distance_scale
            )
            carved = -2.0 * self.ruggedness if pit < self.density else 0.0
            target = base + self.ruggedness * noise + carved
        rho = self.correlation
        return target, rho * target + (1.0 - abs(rho)) * aux
