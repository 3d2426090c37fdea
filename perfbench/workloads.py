"""Workload inputs, reference values and output checks.

Everything here is independent of ``mmo_tune``: the inputs are files the
program reads, and the checks compare the program's outputs with values this
module computes itself, so a behaviour change in the program cannot also
change what it is checked against.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("nsga2-synth", "local-table", "report-rebuild")

SINGLE_MODELS = ("single:rs", "single:shc-r", "single:sa", "single:soga")
NSGA2_MODELS = ("pmo", "mmo:linear", "mmo:sqrt", "mmo:square")
ALL_MODELS = SINGLE_MODELS + NSGA2_MODELS
DEFAULT_WEIGHTS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 10.0)

# Per-size parameters. "full" is the benchmark; "toy" keeps the same shape at
# a size the benchmark's own tests run in a few seconds.
SIZES = {
    "full": {
        # 12 binary options, 4,096 configurations; acceptance criterion 7.
        "synth_options": 12,
        "synth_landscapes": 3,
        "synth_repeats": 2,
        "synth_plan": (400, 20),  # (budget, population)
        # (lower, upper) of the integer options; six binary options follow.
        "table_integers": ((1, 8), (1, 6), (0, 9)),
        "table_binaries": 6,
        "table_repeats": 8,
        "rebuilds": 3,
        "table_plan": (600, 50),  # the storm-wc preset
        "report_weights": DEFAULT_WEIGHTS,
        "report_repeats": 30,
        "report_rows": 600,
        "min_passes": 3,
    },
    "toy": {
        "synth_options": 7,
        "synth_landscapes": 1,
        "synth_repeats": 2,
        "synth_plan": (40, 6),
        "table_integers": ((1, 4), (0, 3)),
        "table_binaries": 3,
        "table_repeats": 2,
        "rebuilds": 2,
        "table_plan": (40, 6),
        "report_weights": (0.1, 10.0),
        "report_repeats": 4,
        "report_rows": 30,
        "min_passes": 2,
    },
}

SYNTH_DENSITY = 0.05
SYNTH_RUGGEDNESS = 0.35
SYNTH_CORRELATION = 0.3


def sub_seed(seed: int, *parts: object) -> int:
    """Stable 63-bit seed for one input, derived from the workload seed."""
    h = hashlib.blake2b(f"{seed}|{parts!r}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


# ---------------------------------------------------------------------------
# Spaces


@dataclass(frozen=True)
class Space:
    """Option bounds in declaration order, and the JSON document the CLI reads."""

    names: tuple[str, ...]
    bounds: tuple[tuple[int, int], ...]

    def doc(self) -> dict:
        return {
            "options": [
                {
                    "name": name,
                    "kind": "binary" if (lo, hi) == (0, 1) else "integer",
                    "lower": lo,
                    "upper": hi,
                }
                for name, (lo, hi) in zip(self.names, self.bounds)
            ]
        }

    def size(self) -> int:
        return math.prod(hi - lo + 1 for lo, hi in self.bounds)

    def decode(self, index: int) -> tuple[int, ...]:
        """The configuration at ``index`` in lexicographic order."""
        values = []
        for lo, hi in reversed(self.bounds):
            index, digit = divmod(index, hi - lo + 1)
            values.append(lo + digit)
        return tuple(reversed(values))


def binary_space(n: int) -> Space:
    return Space(tuple(f"b{i}" for i in range(n)), ((0, 1),) * n)


def table_space(size: dict) -> Space:
    integers = size["table_integers"]
    names = [f"n{i}" for i in range(len(integers))]
    names += [f"b{i}" for i in range(size["table_binaries"])]
    return Space(tuple(names), tuple(integers) + ((0, 1),) * size["table_binaries"])


# ---------------------------------------------------------------------------
# Reference values


def _unit_hash(seed: int, tag: bytes, values: tuple[int, ...]) -> float:
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    h.update(tag)
    h.update(repr(values).encode())
    return int.from_bytes(h.digest(), "big") / 2.0**64


def synthetic_values(
    space: Space, seed: int
) -> dict[tuple[int, ...], tuple[float, float]]:
    """(target, auxiliary) of every configuration of the planted-optimum
    landscape the program's ``--synthetic`` oracle defines, computed here
    from its documented definition."""
    rng = random.Random(seed)
    planted = tuple(rng.randint(lo, hi) for lo, hi in space.bounds)
    scale = float(sum(hi - lo for lo, hi in space.bounds)) or 1.0
    rho = SYNTH_CORRELATION
    out = {}
    for index in range(space.size()):
        values = space.decode(index)
        if values == planted:
            target = -2.0 * SYNTH_RUGGEDNESS - 0.5
        else:
            base = sum(abs(v - pv) for v, pv in zip(values, planted)) / scale
            noise = SYNTH_RUGGEDNESS * _unit_hash(seed, b"noise", values)
            pit = 0.0
            if _unit_hash(seed, b"pit", values) < SYNTH_DENSITY:
                pit = -2.0 * SYNTH_RUGGEDNESS
            target = base + noise + pit
        auxiliary = rho * target + (1.0 - abs(rho)) * _unit_hash(seed, b"aux", values)
        out[values] = (target, auxiliary)
    return out


def table_rows(space: Space, seed: int) -> list[tuple[tuple[int, ...], str, str]]:
    """A measured-looking table: per-level main effects, six pairwise
    interactions and per-row noise, rounded to two decimals so targets tie."""
    rng = random.Random(seed)
    k = len(space.bounds)
    effects = [
        {v: rng.uniform(0.0, 8.0) for v in range(lo, hi + 1)} for lo, hi in space.bounds
    ]
    pairs = [tuple(rng.sample(range(k), 2)) for _ in range(6)]
    interactions = [
        {
            (a, b): rng.uniform(-4.0, 4.0)
            for a in range(space.bounds[i][0], space.bounds[i][1] + 1)
            for b in range(space.bounds[j][0], space.bounds[j][1] + 1)
        }
        for i, j in pairs
    ]
    rows = []
    for index in range(space.size()):
        values = space.decode(index)
        target = 20.0 + sum(effects[i][v] for i, v in enumerate(values))
        for (i, j), table in zip(pairs, interactions):
            target += table[(values[i], values[j])]
        target += rng.uniform(0.0, 6.0)
        auxiliary = 0.3 * target + 0.7 * rng.uniform(10.0, 60.0)
        rows.append((values, f"{target:.2f}", f"{auxiliary:.2f}"))
    return rows


# ---------------------------------------------------------------------------
# Workload inputs


@dataclass
class Campaign:
    """One ``mmo-tune campaign`` call of a tuning workload, with its oracle."""

    args: list[str]
    runs: int
    budget: int
    reference: dict[tuple[int, ...], tuple[float, float]]
    lo: float
    hi: float


@dataclass
class Inputs:
    """What one run of a workload feeds the program and checks against."""

    plan_path: str
    names: tuple[str, ...]
    campaigns: list[Campaign] = field(default_factory=list)
    # report-rebuild only: the directory and each run's expected best target.
    rebuild_dir: str | None = None
    expected_best: dict[tuple[str, float | None, int], float] = field(default_factory=dict)
    lo: float = 0.0
    hi: float = 1.0


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _plan_doc(space: Space, oracle: dict, budget: int, pop: int, repeats: int,
              models, weights, seed: int) -> dict:
    return {
        "space": space.doc(),
        "oracle": oracle,
        "budget": budget,
        "population_size": pop,
        "repeats": repeats,
        "models": list(models),
        "weights": [float(w) for w in weights],
        "master_seed": seed,
        "target_direction": "minimize",
        "auxiliary_direction": "minimize",
    }


def make_inputs(workload: str, seed: int, size_name: str, work: str, index: int = 0) -> Inputs:
    """Write the inputs of pass ``index`` under ``work`` and return their description.

    The tuning workloads give every pass its own landscape or table and
    campaign seed, so one run averages over several; every pass of
    report-rebuild reads the same stored campaign."""
    size = SIZES[size_name]
    os.makedirs(work, exist_ok=True)
    if workload == "nsga2-synth":
        return _synth_inputs(seed, index, size, work)
    if workload == "local-table":
        return _table_inputs(seed, index, size, work)
    if workload == "report-rebuild":
        return _report_inputs(seed, size, work)
    raise ValueError(f"unknown workload {workload!r}")


def _synth_inputs(seed: int, index: int, size: dict, work: str) -> Inputs:
    space = binary_space(size["synth_options"])
    space_path = os.path.join(work, "space.json")
    _write_json(space_path, space.doc())
    budget, pop = size["synth_plan"]
    weights = (0.1, 10.0)
    groups = 1 + 3 * len(weights)
    inputs = Inputs(os.path.join(work, "plan.json"), space.names)
    for k in range(size["synth_landscapes"]):
        landscape = sub_seed(seed, "landscape", index, k) % 1_000_000
        master = sub_seed(seed, "campaign", index, k) % 1_000_000
        reference = synthetic_values(space, landscape)
        targets = [t for t, _ in reference.values()]
        oracle = ["--synthetic", "--landscape-seed", str(landscape),
                  "--density", repr(SYNTH_DENSITY), "--ruggedness", repr(SYNTH_RUGGEDNESS),
                  "--correlation", repr(SYNTH_CORRELATION)]
        args = ["campaign", "--space", space_path, *oracle,
                "--budget", str(budget), "--pop", str(pop),
                "--repeats", str(size["synth_repeats"]),
                "--models", ",".join(NSGA2_MODELS),
                "--weights", ",".join(repr(w) for w in weights),
                "--seed", str(master)]
        inputs.campaigns.append(Campaign(args, groups * size["synth_repeats"], budget,
                                         reference, min(targets), max(targets)))
        if k == 0:
            oracle_doc = {"kind": "synthetic", "seed": landscape, "density": SYNTH_DENSITY,
                          "ruggedness": SYNTH_RUGGEDNESS, "correlation": SYNTH_CORRELATION}
            _write_json(inputs.plan_path, _plan_doc(space, oracle_doc, budget, pop,
                                                    size["synth_repeats"], NSGA2_MODELS,
                                                    weights, master))
    return inputs


def _table_inputs(seed: int, index: int, size: dict, work: str) -> Inputs:
    space = table_space(size)
    space_path = os.path.join(work, "space.json")
    _write_json(space_path, space.doc())
    table_path = os.path.join(work, "table.csv")
    rows = table_rows(space, sub_seed(seed, "table", index))
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*space.names, "target", "auxiliary"])
        for values, target, auxiliary in rows:
            writer.writerow([*values, target, auxiliary])
    reference = {values: (float(t), float(a)) for values, t, a in rows}
    targets = [t for t, _ in reference.values()]
    budget, pop = size["table_plan"]
    master = sub_seed(seed, "campaign", index) % 1_000_000
    args = ["campaign", "--space", space_path, "--table", table_path,
            "--budget", str(budget), "--pop", str(pop),
            "--repeats", str(size["table_repeats"]), "--models", ",".join(SINGLE_MODELS),
            "--seed", str(master)]
    inputs = Inputs(os.path.join(work, "plan.json"), space.names)
    inputs.campaigns.append(Campaign(args, len(SINGLE_MODELS) * size["table_repeats"],
                                     budget, reference, min(targets), max(targets)))
    _write_json(inputs.plan_path, _plan_doc(
        space, {"kind": "table", "path": table_path}, budget, pop,
        size["table_repeats"], SINGLE_MODELS, DEFAULT_WEIGHTS, master))
    return inputs


def trace_filename(model: str, weight: float | None, run: int) -> str:
    """The file name the program gives a run's trace in a campaign directory."""
    slug = model.replace(":", "_").replace("-", "_")
    suffix = "" if weight is None else f"__w{float(weight)!r}"
    return f"{slug}{suffix}__run{run:03d}.csv"


def group_keys(weights) -> list[tuple[str, float | None]]:
    keys: list[tuple[str, float | None]] = []
    for model in ALL_MODELS:
        if model.startswith("mmo:"):
            keys.extend((model, float(w)) for w in sorted(weights))
        else:
            keys.append((model, None))
    return keys


def _report_inputs(seed: int, size: dict, work: str) -> Inputs:
    """A stored campaign in the paper's shape: every model, every weight,
    ``report_repeats`` runs of ``report_rows`` distinct measurements each.

    Group levels fall into four clusters so Scott-Knott splits; each run has
    its own offset so the paired differences are nonzero and Wilcoxon runs
    its normal approximation at 30 pairs."""
    rng = random.Random(sub_seed(seed, "report"))
    space = table_space(SIZES["full"])
    campaign = os.path.join(work, "campaign")
    os.makedirs(os.path.join(campaign, "traces"))
    weights = size["report_weights"]
    repeats, rows = size["report_repeats"], size["report_rows"]
    inputs = Inputs(os.path.join(campaign, "plan.json"), space.names,
                    rebuild_dir=campaign, lo=math.inf, hi=-math.inf)
    _write_json(inputs.plan_path, _plan_doc(
        space, {"kind": "table", "path": "table.csv"}, rows, min(50, rows), repeats,
        ALL_MODELS, weights, sub_seed(seed, "master") % 1_000_000))
    header = ",".join(["step", *space.names, "target", "auxiliary", "consumed",
                       "best_so_far"]) + "\n"
    n = space.size()
    for model, weight in group_keys(weights):
        level = 10.0 + 2.0 * rng.randrange(4) + rng.uniform(0.0, 0.5)
        for run in range(repeats):
            offset = rng.uniform(0.0, 2.0)
            best = math.inf
            lines = [header]
            for step, index in enumerate(rng.sample(range(n), rows), start=1):
                target = f"{level + offset + rng.uniform(0.0, 8.0):.2f}"
                best = min(best, float(target))
                inputs.hi = max(inputs.hi, float(target))
                config = ",".join(map(str, space.decode(index)))
                lines.append(f"{step},{config},{target},{rng.uniform(1.0, 9.0):.2f},"
                             f"{step},{best!r}\n")
            inputs.expected_best[(model, weight, run)] = best
            inputs.lo = min(inputs.lo, best)
            path = os.path.join(campaign, "traces", trace_filename(model, weight, run))
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
    return inputs


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class Verdict:
    """Operations attempted and failed in one checked output, with reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    regrets: list[float] = field(default_factory=list)
    report_sha256: str = ""

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.failed + count, self.attempted)
        self.problems.append(problem)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.regrets.extend(other.regrets)


def check_trace(path: str, names: tuple[str, ...], campaign: Campaign) -> tuple[str | None, float]:
    """Return (problem or None, best target) for one emitted trace."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["step", *names, "target", "auxiliary", "consumed", "best_so_far"]
        if header != expected:
            return f"unexpected header {header}", math.nan
        k = len(names)
        seen = set()
        best = math.inf
        step = 0
        for step, cells in enumerate(reader, start=1):
            if len(cells) != k + 5:
                return f"row {step}: {len(cells)} cells", math.nan
            config = tuple(int(c) for c in cells[1 : 1 + k])
            if int(cells[0]) != step or int(cells[k + 3]) != step:
                return f"row {step}: step or consumed out of sequence", math.nan
            if config in seen:
                return f"row {step}: repeated configuration {config}", math.nan
            seen.add(config)
            target, auxiliary = float(cells[k + 1]), float(cells[k + 2])
            if (target, auxiliary) != campaign.reference.get(config):
                return f"row {step}: values differ from the oracle for {config}", math.nan
            best = min(best, target)
            if float(cells[k + 4]) != best:
                return f"row {step}: best_so_far is not the running minimum", math.nan
        if step != campaign.budget:
            return f"{step} measurements, budget {campaign.budget}", math.nan
    return None, best


def check_campaign(out: str, names: tuple[str, ...], campaign: Campaign,
                   written: str, rebuilt: list[str | None]) -> Verdict:
    """Check a campaign directory. Each run is one operation, failed if its
    trace is missing or wrong; each ``stats`` rebuild is one, failed if it
    raised (None) or its report's sha256 differs from the campaign's
    (``written``)."""
    verdict = Verdict(attempted=campaign.runs + len(rebuilt), report_sha256=written)
    trace_dir = os.path.join(out, "traces")
    files = sorted(os.listdir(trace_dir)) if os.path.isdir(trace_dir) else []
    if len(files) != campaign.runs:
        verdict.fail(campaign.runs - min(len(files), campaign.runs),
                     f"{out}: {len(files)} traces, expected {campaign.runs}")
    for name in files[: campaign.runs]:
        problem, best = check_trace(os.path.join(trace_dir, name), names, campaign)
        if problem:
            verdict.fail(1, f"{name}: {problem}")
        else:
            verdict.regrets.append((best - campaign.lo) / (campaign.hi - campaign.lo))
    for sha in rebuilt:
        if sha != written:
            verdict.fail(1, f"{out}: stats rebuild differs from the campaign's report.json")
    return verdict


def check_rebuild(report_path: str, inputs: Inputs) -> Verdict:
    """Check one ``stats`` rebuild (one operation) against the generated traces."""
    verdict = Verdict(attempted=1)
    try:
        with open(report_path, "rb") as fh:
            data = fh.read()
        report = json.loads(data)
        runs = {
            (g["model"], g["weight"], r["run"]): r["best_target"]
            for g in report["groups"]
            for r in g["runs"]
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        verdict.fail(1, f"{report_path}: unreadable report ({exc})")
        return verdict
    if runs != inputs.expected_best:
        verdict.fail(1, f"{report_path}: best targets differ from the stored traces")
    verdict.regrets = [(v - inputs.lo) / (inputs.hi - inputs.lo) for v in runs.values()]
    verdict.report_sha256 = hashlib.sha256(data).hexdigest()
    return verdict
