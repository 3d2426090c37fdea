"""Experiment orchestration: plans, campaigns, weight selection, trace files.

A campaign is fully determined by its plan and master seed: every run's seed is
a stable hash of (master seed, model, weight, run index), traces are written as
CSV, and the report is a pure function of the plan plus the traces, so it can
be recomputed byte-for-byte from disk.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import random
import time
from dataclasses import dataclass
from statistics import fmean, stdev

from .measurement import (
    CommandOracle,
    Oracle,
    SyntheticOracle,
    TabularOracle,
    load_table,
)
from .models import MMO_SHAPES, PMO, Direction, MmoInstance, check_directions
from .optimizers import _Run, _nsga2, _rs, _sa, _shc_restart, _soga
from .space import OptionSpace, space_from_doc, space_to_doc
from .stats import (
    compare_results,
    efficiency_ratio,
    mean_best_curve,
    normalized_gain,
    pick_best_counterpart,
    scott_knott,
    utopian,
)
from .trace import (
    RunSummary,
    RunTrace,
    emit_trace,
    load_summary,
    trace_filename,
    weight_token,
)

SEED_ENV_VAR = "MMO_TUNE_SEED"

_SINGLE_RUNNERS = {
    "single:rs": _rs,
    "single:shc-r": _shc_restart,
    "single:sa": _sa,
    "single:soga": _soga,
}
SINGLE_MODELS = tuple(_SINGLE_RUNNERS)
MMO_MODELS = tuple(f"mmo:{shape}" for shape in MMO_SHAPES)
ALL_MODELS = SINGLE_MODELS + (PMO,) + MMO_MODELS

DEFAULT_WEIGHTS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 10.0)

POPULATION_MODELS = ("single:soga", PMO) + MMO_MODELS

# Budget and population presets for the reference systems.
PRESETS: dict[str, tuple[int, int]] = {
    "trimesh": (20, 1000),
    "x264": (50, 2500),
    "storm-wc": (50, 600),
    "storm-rs": (50, 900),
    "storm-sol": (50, 700),
    "keras-dnn-dsr": (60, 800),
    "keras-dnn-coffee": (50, 900),
    "keras-lstm": (20, 400),
}


class CampaignError(RuntimeError):
    """Raised when a campaign run fails; names the failing run."""


def canonical_model(name: str) -> str:
    model = name.strip().lower()
    if model not in ALL_MODELS:
        raise ValueError(f"unknown model {name!r}; expected one of {ALL_MODELS}")
    return model


def derive_seed(master_seed: int, *parts: object) -> int:
    """Stable 64-bit seed from the master seed and contextual parts."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(master_seed).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a campaign needs: space, oracle, budgets, models, seeding."""

    space: OptionSpace
    oracle_spec: dict
    budget: int
    population_size: int
    repeats: int = 30
    models: tuple[str, ...] = ALL_MODELS
    weights: tuple[float, ...] = DEFAULT_WEIGHTS
    master_seed: int = 0
    target_direction: Direction = "minimize"
    auxiliary_direction: Direction = "minimize"

    def __post_init__(self) -> None:
        check_directions(self.directions)
        for name in ("budget", "population_size", "repeats", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, low in (("budget", 1), ("population_size", 2), ("repeats", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name, kinds, what in (
            ("models", str, "model names"), ("weights", (int, float), "numbers")
        ):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(
                isinstance(v, kinds) and not isinstance(v, bool) for v in values
            ):
                raise ValueError(f"{name} must be a list of {what}, got {values!r}")
        if not self.models:
            raise ValueError("plan selects no models")
        object.__setattr__(
            self, "models", tuple(canonical_model(m) for m in self.models)
        )
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        for name in ("models", "weights"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat, got {values}")
        if any(m in MMO_MODELS for m in self.models) and not self.weights:
            raise ValueError("weights must be nonempty when a meta model is selected")
        if not all(math.isfinite(w) and w > 0 for w in self.weights):
            raise ValueError("weights must be finite and positive")
        if (
            any(m in POPULATION_MODELS for m in self.models)
            and self.budget < self.population_size
        ):
            raise ValueError("budget must cover at least one population")

    @property
    def directions(self) -> tuple[Direction, Direction]:
        return self.target_direction, self.auxiliary_direction

    def mmo_models(self) -> tuple[str, ...]:
        return tuple(m for m in self.models if m in MMO_MODELS)

    def run_seed(self, model: str, weight: float | None, run_index: int) -> int:
        """Seed of one campaign run: a hash of the master seed and the run's key."""
        return derive_seed(self.master_seed, model, weight_token(weight), run_index)

    def group_keys(self) -> list[tuple[str, float | None]]:
        """Canonical (model, weight) grid: plan order, weights ascending."""
        keys: list[tuple[str, float | None]] = []
        for model in self.models:
            if model in MMO_MODELS:
                keys.extend((model, w) for w in sorted(self.weights))
            else:
                keys.append((model, None))
        return keys

    def run_keys(self) -> list[tuple[str, float | None, int]]:
        """(model, weight, run index) of every run, group by group."""
        return [(*key, run) for key in self.group_keys() for run in range(self.repeats)]

    def to_doc(self) -> dict:
        doc = {name: getattr(self, name) for name in _DOC_FIELDS}
        return dict(doc, space=space_to_doc(self.space), oracle=self.oracle_spec)

    def canonical_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))

    def plan_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# Plan fields that plan.json stores under their own names, besides "space"
# and "oracle".
_DOC_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(ExperimentPlan)
    if field.name not in ("space", "oracle_spec")
)


def plan_from_doc(doc: object) -> ExperimentPlan:
    """Rebuild a plan from ``to_doc``'s form; the space and the directions are
    checked as on input. The document must hold exactly ``to_doc``'s fields;
    a missing or unknown one raises ValueError naming it."""
    if not isinstance(doc, dict):
        raise ValueError(f"plan must be a JSON object, got {type(doc).__name__}")
    fields = ("space", "oracle", *_DOC_FIELDS)
    for name in fields:
        if name not in doc:
            raise ValueError(f"plan field {name!r} is missing")
    for name in doc:
        if name not in fields:
            raise ValueError(f"plan field {name!r} is unknown")
    return ExperimentPlan(
        space=space_from_doc(doc["space"]),
        oracle_spec=doc["oracle"],
        **{name: doc[name] for name in _DOC_FIELDS},
    )


def _oracle_constructors() -> dict:
    # Looked up at each call, so that a wrapper put in place of one is called.
    return {"table": load_table, "command": CommandOracle, "synthetic": SyntheticOracle}


_ORACLE_SIGNATURES = {
    kind: inspect.signature(constructor)
    for kind, constructor in _oracle_constructors().items()
}


def _bind_oracle_spec(plan: ExperimentPlan) -> tuple[str, dict]:
    """The kind and the constructor arguments of a plan's oracle spec,
    checked against that kind's constructor without calling it (a table spec
    does not read its table). The spec holds ``kind`` plus the arguments of
    the constructor other than the space; a missing or unknown field raises
    ValueError naming it."""
    if not isinstance(plan.oracle_spec, dict):
        raise ValueError(f"oracle spec must be a JSON object, got {plan.oracle_spec!r}")
    fields = dict(plan.oracle_spec)
    kind = fields.pop("kind", None)
    if kind not in _ORACLE_SIGNATURES:
        raise ValueError(f"unknown oracle kind {kind!r}")
    try:
        _ORACLE_SIGNATURES[kind].bind(space=plan.space, **fields)
    except TypeError as exc:
        raise ValueError(f"{kind} oracle spec: {exc}") from None
    return kind, fields


def build_oracle(plan: ExperimentPlan) -> Oracle:
    """The oracle of a plan's oracle spec (see ``_bind_oracle_spec``); it
    reports raw values."""
    kind, fields = _bind_oracle_spec(plan)
    return _oracle_constructors()[kind](space=plan.space, **fields)


def execute_run(
    space: OptionSpace,
    oracle: Oracle,
    budget: int,
    population_size: int,
    model: str,
    weight: float | None,
    seed: int,
    directions: tuple[Direction, Direction] = ("minimize", "minimize"),
) -> RunTrace:
    """One tuning run of the given model with its own trace and generator,
    measuring at most ``budget`` distinct configurations; ``directions``
    says whether the target and the auxiliary are minimized or maximized.
    A negative budget, a population below 1, a bad direction, an unknown
    model or a meta model without a weight raises ValueError."""
    run = _Run(space, budget, oracle, population_size, seed, directions)
    if model in _SINGLE_RUNNERS:
        return _SINGLE_RUNNERS[model](run)
    if model == PMO:
        return _nsga2(run, PMO)
    if model not in MMO_MODELS:
        raise ValueError(f"unknown model {model!r}")
    if weight is None:
        raise ValueError(f"model {model} needs a weight")
    return _nsga2(run, MmoInstance(model.split(":", 1)[1], weight))


def _run_name(key: tuple[str, float | None, int]) -> str:
    model, weight, run_index = key
    return f"model={model} weight={weight_token(weight)} run={run_index}"


def _named_run(
    plan: ExperimentPlan, oracle: Oracle, key: tuple[str, float | None, int],
    seed: int, budget: int, population_size: int, path: str | None = None,
) -> RunTrace:
    """``execute_run`` for the run ``key`` of a plan, its trace written to
    ``path`` if one is given; a failure of either raises CampaignError naming
    the run."""
    model, weight, _ = key
    try:
        trace = execute_run(
            plan.space, oracle, budget, population_size, model, weight, seed,
            plan.directions,
        )
        if path is not None:
            emit_trace(trace, path)
        return trace
    except Exception as exc:
        raise CampaignError(f"run failed: {_run_name(key)}: {exc}") from exc


# A worker process's plan, oracle and campaign directory, set once by
# _init_worker, so that a task carries only its run key.
_worker_state: tuple[ExperimentPlan, Oracle, str | None] | None = None


def _init_worker(plan: ExperimentPlan, oracle: Oracle, out_dir: str | None) -> None:
    global _worker_state
    _worker_state = (plan, oracle, out_dir)


def _campaign_run(
    plan: ExperimentPlan, oracle: Oracle, out_dir: str | None,
    key: tuple[str, float | None, int],
) -> RunSummary:
    """Run ``key`` of a plan at its campaign seed; its trace goes to
    ``out_dir`` as soon as it finishes, and only its summary is kept."""
    path = None if out_dir is None else _trace_path(out_dir, key)
    seed = plan.run_seed(*key)
    return _named_run(
        plan, oracle, key, seed, plan.budget, plan.population_size, path
    ).summary()


def _worker_run(key: tuple[str, float | None, int]) -> RunSummary:
    return _campaign_run(*_worker_state, key)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def run_campaign(
    plan: ExperimentPlan,
    jobs: int = 1,
    oracle: Oracle | None = None,
    out_dir: str | None = None,
) -> dict[tuple[str, float | None, int], RunSummary]:
    """Execute the full model-by-weight-by-repeat grid of a plan and return
    the summary of every run. With ``out_dir``, each run writes its trace
    under ``out_dir/traces`` as it finishes; with ``jobs`` > 1 the worker
    writes it and sends back only the summary. ``jobs`` below 1 raises
    ValueError."""
    _check_jobs(jobs)
    oracle = oracle if oracle is not None else build_oracle(plan)
    keys = plan.run_keys()
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    if jobs == 1:
        return {key: _campaign_run(plan, oracle, out_dir, key) for key in keys}
    return _pooled_runs(plan, oracle, out_dir, keys, jobs)


def _pooled_runs(
    plan: ExperimentPlan, oracle: Oracle, out_dir: str | None,
    keys: list[tuple[str, float | None, int]], jobs: int,
) -> dict[tuple[str, float | None, int], RunSummary]:
    """``run_campaign``'s runs in ``jobs`` worker processes, one future per
    key, each submitted only when a worker is free. So no run starts after
    one has failed, and if a worker dies, the runs left unfinished are the
    ones that were running; the error names them. Otherwise the first failed
    run in plan order raises its CampaignError, as it would serially."""
    # Imported here: the pool brings in multiprocessing, which a serial
    # campaign and every other command never need.
    from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    futures: dict[Future, tuple[str, float | None, int]] = {}
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(plan, oracle, out_dir),
    ) as pool:
        running: set[Future] = set()
        for key in keys:
            if len(running) == jobs:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(future.exception() for future in done):
                    break
            try:
                future = pool.submit(_worker_run, key)
            except BrokenProcessPool:
                break
            futures[future] = key
            running.add(future)
    failed = [(key, f.exception()) for f, key in futures.items() if f.exception()]
    if not failed:
        return {key: future.result() for future, key in futures.items()}
    exc = failed[0][1]
    if isinstance(exc, CampaignError):
        raise exc
    # The pool itself failed, e.g. a worker died: every run it was running
    # holds the one error.
    names = ", ".join(_run_name(key) for key, error in failed if error is exc)
    raise CampaignError(f"campaign worker failed running {names}: {exc}") from exc


def build_report(
    plan: ExperimentPlan, runs: dict[tuple[str, float | None, int], RunSummary]
) -> dict:
    """Assemble the campaign report; a pure function of the plan and the
    summaries of its runs.

    It reads each run once, through ``runs[key]``, group by group in plan
    order, and reduces each group as it reads it to its best targets, its
    measurements-to-best and, if the plan mixes single models with others,
    its mean best-so-far curve, so it keeps no summary past its group."""
    group_keys = plan.group_keys()
    # A curve is read only to compare a model that is not single with the
    # single-model counterpart.
    is_single = [model in SINGLE_MODELS for model in plan.models]
    with_curves = any(is_single) and not all(is_single)
    best_targets, to_best, curves = {}, {}, {}
    for key in group_keys:
        group = [runs[(*key, run)] for run in range(plan.repeats)]
        best_targets[key] = [run.best_target for run in group]
        to_best[key] = [run.measurements_to_best for run in group]
        if with_curves:
            curves[key] = mean_best_curve(group)
        del group  # before the next group is read

    singles = {
        model: best_targets[(model, None)]
        for model in plan.models
        if model in SINGLE_MODELS
    }
    counterpart = pick_best_counterpart(singles) if singles else None
    counterpart_results = singles.get(counterpart) if counterpart else None
    counterpart_curve = curves.get((counterpart, None))

    all_results = [v for results in best_targets.values() for v in results]
    try:
        utopian_value: float | None = utopian(all_results)
    except ValueError:
        utopian_value = None

    labels = {
        key: key[0] if key[1] is None else f"{key[0]}@{weight_token(key[1])}"
        for key in group_keys
    }
    ranks = scott_knott({labels[key]: best_targets[key] for key in group_keys})

    groups = []
    for key in group_keys:
        model, weight = key
        results = best_targets[key]
        entry: dict = {
            "model": model,
            "weight": weight,
            "label": labels[key],
            "runs": [
                {
                    "run": run_index,
                    "seed": plan.run_seed(model, weight, run_index),
                    "best_target": best_target,
                    "measurements_to_best": measurements,
                }
                for run_index, (best_target, measurements) in enumerate(
                    zip(results, to_best[key])
                )
            ],
            "mean": fmean(results),
            "stddev": stdev(results) if len(results) > 1 else 0.0,
            "sk_rank": ranks[labels[key]],
            "gain_pct": None,
            "wilcoxon_p": None,
            "a12": None,
            "a12_magnitude": None,
            "significant": None,
            "efficiency_pct": None,
            "converged": None,
        }
        if model not in SINGLE_MODELS and counterpart_results is not None:
            if utopian_value is not None:
                entry["gain_pct"] = normalized_gain(
                    results, counterpart_results, utopian_value
                )
            stat = compare_results(results, counterpart_results)
            entry["wilcoxon_p"] = stat.p_value
            entry["a12"] = stat.a12
            entry["a12_magnitude"] = stat.magnitude
            entry["significant"] = stat.significant
            ratio = efficiency_ratio(curves[key], counterpart_curve)
            entry["efficiency_pct"] = ratio
            entry["converged"] = ratio is not None
        groups.append(entry)

    return {
        "plan_hash": plan.plan_hash(),
        "master_seed": plan.master_seed,
        "repeats": plan.repeats,
        "best_counterpart": counterpart,
        "utopian": utopian_value,
        "groups": groups,
    }


def best_weight_groups(report: dict) -> dict[str, dict]:
    """Per meta model, its report group of least (mean, weight); the earlier
    group wins an exact tie.

    This is the paper's pick, the model's best-ranked weight: Scott-Knott
    gives groups in (mean, label) order rising ranks, so among one model's
    groups the least mean has the least rank, and groups of equal mean share
    one rank, leaving the weight to decide."""
    meta = [group for group in report["groups"] if group["model"] in MMO_MODELS]
    return {
        model: min(
            (group for group in meta if group["model"] == model),
            key=lambda group: (group["mean"], group["weight"]),
        )
        for model in dict.fromkeys(group["model"] for group in meta)
    }


# ---------------------------------------------------------------------------
# Weight selection


def _preliminary_scale(plan: ExperimentPlan) -> tuple[int, int]:
    budget = math.ceil(0.10 * plan.budget)
    population = max(2, math.floor(0.10 * plan.population_size))
    return budget, population


def preliminary_weight_selection(
    plan: ExperimentPlan, oracle: Oracle | None = None
) -> dict[str, float]:
    """Choose one weight per meta-model instance from cheap preliminary runs.

    One run per weight at 10% of the budget (ceiling) and 10% of the population
    (floored at 2); the weight with the best target wins, ties broken uniformly
    at random from a seeded generator. A failing run raises CampaignError
    naming its model and weight.
    """
    mmo_models = plan.mmo_models()
    if not mmo_models:
        raise ValueError("plan selects no meta models")
    oracle = oracle if oracle is not None else build_oracle(plan)
    budget, population = _preliminary_scale(plan)
    chosen: dict[str, float] = {}
    for model in mmo_models:
        results: list[tuple[float, float]] = []
        for weight in sorted(plan.weights):
            seed = derive_seed(
                plan.master_seed, "prelim", model, weight_token(weight), 0
            )
            trace = _named_run(plan, oracle, (model, weight, 0), seed, budget, population)
            results.append((weight, trace.summary().best_target))
        best_value = min(value for _, value in results)
        tied = [weight for weight, value in results if value == best_value]
        tie_rng = random.Random(derive_seed(plan.master_seed, "prelim-tie", model))
        chosen[model] = tied[tie_rng.randrange(len(tied))]
    return chosen


def data_driven_weight_selection(
    table: TabularOracle,
    plan: ExperimentPlan,
    mode: str = "preliminary",
    jobs: int = 1,
) -> tuple[dict[str, float], float]:
    """Choose weights by replaying tuning against pre-measured data only.

    ``mode="preliminary"`` reuses the preliminary-selection computation path
    (identical choice for equal seeds). ``mode="full"`` runs the campaign of
    the plan's meta instances over all weights (campaign seeds; in ``jobs``
    worker processes) and, per instance, picks the weight of
    ``best_weight_groups`` in the report of that campaign. Returns the chosen
    weights and the elapsed seconds.
    """
    if mode not in ("preliminary", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    start = time.perf_counter()
    if mode == "preliminary":
        chosen = preliminary_weight_selection(plan, oracle=table)
        return chosen, time.perf_counter() - start
    mmo_models = plan.mmo_models()
    if not mmo_models:
        raise ValueError("plan selects no meta models")
    meta_plan = dataclasses.replace(plan, models=mmo_models)
    runs = run_campaign(meta_plan, jobs=jobs, oracle=table)
    best = best_weight_groups(build_report(meta_plan, runs))
    chosen = {model: group["weight"] for model, group in best.items()}
    return chosen, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Campaign files


def write_campaign(plan: ExperimentPlan, out_dir: str, jobs: int = 1) -> dict:
    """Run a campaign and persist plan, traces, report, and the flat summary.

    ``plan.json`` comes first and each trace lands as its run finishes; the
    report and ``summary.csv`` are written only once every run has, so a
    failed campaign leaves no report. An earlier campaign's report, summary
    and traces at this plan's names go first, never to be read as this one's.
    ``jobs`` below 1, or an oracle spec that builds no oracle, raises before
    anything is touched."""
    _check_jobs(jobs)
    oracle = build_oracle(plan)
    os.makedirs(out_dir, exist_ok=True)
    stale = [os.path.join(out_dir, name) for name in ("report.json", "summary.csv")]
    for path in stale + [_trace_path(out_dir, key) for key in plan.run_keys()]:
        if os.path.lexists(path):
            os.remove(path)
    with open(os.path.join(out_dir, "plan.json"), "w", encoding="utf-8") as fh:
        fh.write(plan.canonical_json() + "\n")
    runs = run_campaign(plan, jobs=jobs, oracle=oracle, out_dir=out_dir)
    report = build_report(plan, runs)
    write_report(report, out_dir)
    _write_summary(report, os.path.join(out_dir, "summary.csv"))
    return report


def _write_summary(report: dict, path: str) -> None:
    """Write the report's per-run rows as a flat CSV, one line per run."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "weight", "run", "best_target", "measurements_to_best"])
        for group in report["groups"]:
            weight = group["weight"]
            for run in group["runs"]:
                writer.writerow(
                    [
                        group["model"],
                        "" if weight is None else weight_token(weight),
                        run["run"],
                        repr(run["best_target"]),
                        run["measurements_to_best"],
                    ]
                )


def recompute_report(out_dir: str) -> dict:
    """Rebuild the report purely from the stored plan and traces. A trace is
    read, and reduced to its summary, only when the report asks for it, and
    no summary is stored, so the rebuild holds one group's at a time. The
    stored oracle spec must be one that ``campaign`` would run; the oracle
    itself is not built."""
    path = os.path.join(out_dir, "plan.json")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: {exc}") from None
    plan = plan_from_doc(doc)
    _bind_oracle_spec(plan)
    return build_report(plan, _StoredRuns(out_dir, plan.space))


class _StoredRuns(dict):
    """The summary of each run of a campaign directory, loaded from its trace
    each time it is looked up and never stored."""

    def __init__(self, out_dir: str, space: OptionSpace):
        self.out_dir, self.space = out_dir, space

    def __missing__(self, key: tuple[str, float | None, int]) -> RunSummary:
        return load_summary(_trace_path(self.out_dir, key), self.space)


def _trace_path(out_dir: str, key: tuple[str, float | None, int]) -> str:
    return os.path.join(out_dir, "traces", trace_filename(*key))


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def write_report(report: dict, out_dir: str) -> str:
    """Write ``report.json`` of a campaign directory and return its path."""
    path = os.path.join(out_dir, "report.json")
    with open(path, "wb") as fh:
        fh.write(report_bytes(report))
    return path
