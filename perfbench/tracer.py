"""Per-layer tracing of mmo_tune from outside the program.

``Tracer.install`` replaces the module and class attributes the program calls
through with wrappers. Each wrapped call records a span (name, start, end,
parent) in compact in-memory arrays; ``dump`` writes them out when the pass
ends, and ``summarize`` turns a dump into per-layer counts and self times. A
span's self time is its duration minus the durations of its child spans.
Attributes that no longer exist are skipped, so their metrics read 0.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
from time import perf_counter

# (span name, module, attribute). A name may cover several attributes; the
# same function imported into two modules is wrapped at each binding the
# program calls through.
SPANS = (
    ("space.neighbors", "mmo_tune.space", "OptionSpace.neighbors"),
    ("space.config", "mmo_tune.space", "OptionSpace.config"),
    ("measurement.cache", "mmo_tune.optimizers", "cached_measure"),
    ("measurement.oracle", "mmo_tune.measurement", "SyntheticOracle.measure"),
    ("measurement.oracle", "mmo_tune.measurement", "TabularOracle.measure"),
    ("measurement.load_table", "mmo_tune.harness", "load_table"),
    ("models.normalize", "mmo_tune.models", "NormalizationBounds.normalize"),
    ("models.objectives", "mmo_tune.optimizers", "meta_objectives"),
    ("models.objectives", "mmo_tune.optimizers", "pmo_objectives"),
    ("optimizers.nondominated_sort", "mmo_tune.optimizers", "fast_nondominated_sort"),
    ("optimizers.crowding", "mmo_tune.optimizers", "crowding_distance"),
    ("optimizers.env_selection", "mmo_tune.optimizers", "environmental_selection"),
    ("optimizers.variation", "mmo_tune.optimizers", "boundary_mutation"),
    ("optimizers.variation", "mmo_tune.optimizers", "uniform_crossover"),
    ("optimizers.driver", "mmo_tune.harness", "execute_run"),
    ("stats.efficiency_ratio", "mmo_tune.harness", "efficiency_ratio"),
    ("stats.scott_knott", "mmo_tune.harness", "scott_knott"),
    ("stats.scott_knott", "mmo_tune.stats", "scott_knott"),
    ("stats.compare_results", "mmo_tune.harness", "compare_results"),
    ("harness.load_trace", "mmo_tune.harness", "load_trace"),
    ("harness.emit_trace", "mmo_tune.harness", "emit_trace"),
    ("harness.build_report", "mmo_tune.harness", "build_report"),
)

# Called too often for a timed span (dominance: hundreds of thousands of
# times per NSGA-II run): these get a bare call counter.
COUNTERS = (
    ("models.dominance", "mmo_tune.optimizers", "dominance"),
    ("space.random_config", "mmo_tune.space", "OptionSpace.random_config"),
)


def _resolve(module: str, attribute: str):
    """(owner, name, current value) of a dotted attribute, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array.array("H")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {name: 0 for name, _, _ in COUNTERS}
        self.calls: dict[str, int] = {}  # live call counts per wrapped attribute
        self.extra = {"points": 0, "rows": 0, "generations": 0.0, "restarts": 0}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, key: str, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        name_id = self._name_id(name)
        stack, calls = self.stack, self.calls
        sname, sparent, sstart, send = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        calls.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            index = len(sname)
            sname.append(name_id)
            sparent.append(stack[-1] if stack else -1)
            sstart.append(0.0)
            send.append(0.0)
            calls[key] += 1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                sstart[index] = start
                send[index] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        hooks = {
            "fast_nondominated_sort": self._after_sort,
            "load_trace": self._after_load_trace,
        }
        for name, module, attribute in SPANS:
            found = _resolve(module, attribute)
            if found is None:
                continue
            owner, key, fn = found
            if key == "execute_run":
                wrapper = self._run_span(name, fn)
            else:
                wrapper = self.span(name, fn, key, hooks.get(key))
            setattr(owner, key, wrapper)
        for name, module, attribute in COUNTERS:
            found = _resolve(module, attribute)
            if found is not None:
                owner, key, fn = found
                setattr(owner, key, self.counter(name, fn))

    def _after_sort(self, args, kwargs, result) -> None:
        points = args[0] if args else kwargs.get("points", ())
        self.extra["points"] += len(points)

    def _after_load_trace(self, args, kwargs, result) -> None:
        self.extra["rows"] += len(getattr(result, "entries", ()))

    def _run_span(self, name: str, fn):
        """Span for one tuning run that also derives its generation count:
        environmental selections for NSGA-II, mutations over the population
        size for the single-objective GA."""
        signature = inspect.signature(fn)
        calls = self.calls
        inner = self.span(name, fn, "execute_run")

        def wrapper(*args, **kwargs):
            selections = calls.get("environmental_selection", 0)
            mutations = calls.get("boundary_mutation", 0)
            result = inner(*args, **kwargs)
            bound = signature.bind_partial(*args, **kwargs).arguments
            if bound.get("model") == "single:soga":
                mutations = calls.get("boundary_mutation", 0) - mutations
                self.extra["generations"] += mutations / bound["population_size"]
            else:
                self.extra["generations"] += calls.get("environmental_selection", 0) - selections
            self.extra["restarts"] += getattr(result, "restarts", 0)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and counters (JSON) of the pass."""
        with open(path + ".bin", "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
        doc = {"names": self.names, "spans": len(self.span_name),
               "counters": self.counters, "extra": self.extra}
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def summarize(path: str) -> tuple[dict[str, int], dict[str, float], dict[str, float], dict, dict]:
    """Read a dump: per-name call counts, self seconds and total seconds
    (children included), then the counters and extras."""
    with open(path + ".json", encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["spans"]
    columns = [array.array(code) for code in "Hidd"]
    with open(path + ".bin", "rb") as fh:
        for column in columns:
            column.fromfile(fh, n)
    names, parents, starts, ends = columns
    durations = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * n
    for index, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += durations[index]
    calls = {name: 0 for name in doc["names"]}
    self_s = {name: 0.0 for name in doc["names"]}
    total_s = {name: 0.0 for name in doc["names"]}
    for index, name_id in enumerate(names):
        name = doc["names"][name_id]
        calls[name] += 1
        self_s[name] += durations[index] - child[index]
        total_s[name] += durations[index]
    return calls, self_s, total_s, doc["counters"], doc["extra"]
