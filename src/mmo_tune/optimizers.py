"""Search procedures over the cached-measurement budget.

Four single-objective baselines (random search with a wide neighborhood,
stochastic hill climbing with restarts, simulated annealing, a generational
GA) plus an NSGA-II loop that drives the plain and meta bi-objective models.
Every run owns its generator, ledger, and trace; equal seeds give bit-identical
traces.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable

from .measurement import (
    BudgetExhausted,
    BudgetLedger,
    MeasurementRecord,
    Oracle,
    cached_measure,
)
from .models import (
    PMO,
    MmoInstance,
    NormalizationBounds,
    ObjectivePoint,
    fast_nondominated_sort,
    meta_objectives,
    pmo_objectives,
    to_minimization,
)
from .space import Configuration, OptionSpace

# Consecutive proposals (or generations, for the population methods) without a
# new distinct measurement before falling back to uniform resampling of the
# unmeasured space. Keeps every optimizer making budget progress on small or
# nearly exhausted spaces.
STALL_PROPOSALS = 32
STALL_GENERATIONS = 3

# Spaces up to this size may be enumerated to sample the unmeasured remainder
# exactly once rejection sampling stops paying off.
_ENUMERATE_LIMIT = 1 << 20


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared optimizer parameters and their defaults.

    ``rs_radius`` defaults to half the option count, ``shc_restart_stall`` to
    four times the option count, and ``sa_initial_temp`` to the standard
    deviation of an initial uniform batch; all three are deliberate choices,
    exposed because no canonical values exist.
    """

    population_size: int = 20
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9
    rs_radius: int | None = None
    sa_initial_temp: float | None = None
    sa_cooling: float = 0.95
    shc_restart_stall: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 < self.sa_cooling < 1.0:
            raise ValueError("sa_cooling must be in (0, 1)")
        if self.rs_radius is not None and self.rs_radius < 1:
            raise ValueError("rs_radius must be >= 1")
        if self.shc_restart_stall is not None and self.shc_restart_stall < 1:
            raise ValueError("shc_restart_stall must be >= 1")


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
        self, config: Configuration, measurement: MeasurementRecord, consumed: int
    ) -> None:
        converted, _ = to_minimization(measurement)
        best = converted
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

    def __len__(self) -> int:
        return len(self.entries)

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


class _Run:
    """Per-run plumbing: cached measurement, trace recording, progress checks."""

    def __init__(self, space: OptionSpace, ledger: BudgetLedger, oracle: Oracle):
        self.space = space
        self.ledger = ledger
        self.oracle = oracle
        self.trace = RunTrace(space)
        self._space_size = space.size()

    def measure(self, config: Configuration) -> MeasurementRecord:
        before = self.ledger.consumed
        record = cached_measure(self.ledger, self.oracle, config)
        if self.ledger.consumed > before:
            self.trace.record(config, record, self.ledger.consumed)
        return record

    def finished(self) -> bool:
        """No further distinct measurement is possible: budget or space is spent."""
        return self.ledger.consumed >= min(self.ledger.limit, self._space_size)

    def fresh_uniform(self, rng: random.Random) -> Configuration | None:
        """A uniform draw over the not-yet-measured configurations, if any remain."""
        if self.ledger.consumed >= self._space_size:
            return None
        for _ in range(64):
            config = self.space.random_config(rng)
            if config not in self.ledger.cache:
                return config
        if self._space_size <= _ENUMERATE_LIMIT:
            remaining = [
                c for c in self.space.enumerate_all() if c not in self.ledger.cache
            ]
            return remaining[rng.randrange(len(remaining))]
        while True:
            config = self.space.random_config(rng)
            if config not in self.ledger.cache:
                return config

    def target_of(self, record: MeasurementRecord) -> float:
        return to_minimization(record)[0]


def _finish(run: _Run, loop: Callable[[], None]) -> RunTrace:
    try:
        loop()
    except BudgetExhausted:
        pass
    return run.trace


# ---------------------------------------------------------------------------
# Variation operators


def boundary_mutation(
    space: OptionSpace, config: Configuration, rate: float, rng: random.Random
) -> Configuration:
    """Independently reset each option to its lower or upper bound with probability ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    values = list(config.values)
    for i, opt in enumerate(space.options):
        if rng.random() < rate:
            values[i] = opt.lower if rng.random() < 0.5 else opt.upper
    return Configuration(tuple(values))


def uniform_crossover(
    a: Configuration, b: Configuration, rate: float, rng: random.Random
) -> tuple[Configuration, Configuration]:
    """Swap each position between the children via a fair coin, with probability ``rate``."""
    if len(a.values) != len(b.values):
        raise ValueError("parents come from different spaces")
    if rng.random() >= rate:
        return a, b
    left = list(a.values)
    right = list(b.values)
    for i in range(len(left)):
        if rng.random() < 0.5:
            left[i], right[i] = right[i], left[i]
    return Configuration(tuple(left)), Configuration(tuple(right))


# ---------------------------------------------------------------------------
# NSGA-II kernels


def crowding_distance(points: list[ObjectivePoint]) -> list[float]:
    """Crowding distances within one front: boundary points get +inf, interior
    points accumulate (next - prev) / (max - min) per objective."""
    k = len(points)
    if k == 0:
        raise ValueError("empty front")
    distances = [0.0] * k
    for m in range(len(points[0])):
        order = sorted(range(k), key=lambda i: points[i][m])
        distances[order[0]] = math.inf
        distances[order[-1]] = math.inf
        span = points[order[-1]][m] - points[order[0]][m]
        if span == 0.0:
            continue
        for pos in range(1, k - 1):
            distances[order[pos]] += (
                points[order[pos + 1]][m] - points[order[pos - 1]][m]
            ) / span
    return distances


def environmental_selection(
    points: list[ObjectivePoint],
    capacity: int,
    protect: int | None = None,
) -> list[int]:
    """Select ``capacity`` indices by nondominated rank, truncating the split
    front by descending crowding distance.

    ``protect`` forces one index of the split front into the selection (used to
    keep the best-target member alive under the meta model, where it is always
    on front 0 but not necessarily a crowding boundary point).
    """
    if capacity >= len(points):
        return list(range(len(points)))
    fronts = fast_nondominated_sort(points)
    selected: list[int] = []
    for front in fronts:
        if len(selected) + len(front) <= capacity:
            selected.extend(front)
            continue
        dist = crowding_distance([points[i] for i in front])
        order = sorted(range(len(front)), key=lambda j: -dist[j])
        take = [front[j] for j in order[: capacity - len(selected)]]
        if protect is not None and protect in front and protect not in take and take:
            take[-1] = protect
        selected.extend(take)
        break
    return selected


# ---------------------------------------------------------------------------
# Single-objective optimizers


def run_rs(
    space: OptionSpace, ledger: BudgetLedger, oracle: Oracle, cfg: OptimizerConfig
) -> RunTrace:
    """Random search over a wide neighborhood of the incumbent, keeping the best
    target; falls back to uniform resampling once the neighborhood is spent."""
    rng = random.Random(cfg.seed)
    run = _Run(space, ledger, oracle)
    radius = cfg.rs_radius or max(1, len(space.options) // 2)

    def loop() -> None:
        incumbent = space.random_config(rng)
        incumbent_value = run.target_of(run.measure(incumbent))
        stalled = 0
        while not run.finished():
            if stalled >= STALL_PROPOSALS:
                candidate = run.fresh_uniform(rng)
                if candidate is None:
                    return
            else:
                candidate = space.neighbors(incumbent, radius, rng, 1)[0]
            before = ledger.consumed
            value = run.target_of(run.measure(candidate))
            stalled = stalled + 1 if ledger.consumed == before else 0
            if value < incumbent_value:
                incumbent, incumbent_value = candidate, value

    return _finish(run, loop)


def run_shc_restart(
    space: OptionSpace, ledger: BudgetLedger, oracle: Oracle, cfg: OptimizerConfig
) -> RunTrace:
    """Stochastic hill climbing on Hamming-1 neighbors, restarting from a fresh
    uniform configuration after a stall of non-improving evaluations."""
    rng = random.Random(cfg.seed)
    run = _Run(space, ledger, oracle)
    stall_limit = cfg.shc_restart_stall or 4 * len(space.options)

    def loop() -> None:
        current = space.random_config(rng)
        current_value = run.target_of(run.measure(current))
        non_improving = 0
        stalled = 0
        while not run.finished():
            if stalled >= STALL_PROPOSALS:
                candidate = run.fresh_uniform(rng)
                if candidate is None:
                    return
            else:
                candidate = space.neighbors(current, 1, rng, 1)[0]
            before = ledger.consumed
            value = run.target_of(run.measure(candidate))
            stalled = stalled + 1 if ledger.consumed == before else 0
            if value < current_value:
                current, current_value = candidate, value
                non_improving = 0
            else:
                non_improving += 1
            if non_improving >= stall_limit and not run.finished():
                run.trace.restarts += 1
                current = space.random_config(rng)
                current_value = run.target_of(run.measure(current))
                non_improving = 0

    return _finish(run, loop)


def metropolis_probability(delta: float, temperature: float) -> float:
    """Acceptance probability for a target change of ``delta`` at ``temperature``."""
    if delta <= 0.0:
        return 1.0
    if temperature <= 0.0:
        return 0.0
    exponent = -delta / temperature
    if exponent < -745.0:  # exp underflow
        return 0.0
    return math.exp(exponent)


def run_sa(
    space: OptionSpace, ledger: BudgetLedger, oracle: Oracle, cfg: OptimizerConfig
) -> RunTrace:
    """Simulated annealing with geometric cooling per distinct measurement.

    When no initial temperature is given, it defaults to the standard deviation
    of the targets of an initial uniform batch of ``population_size`` samples.
    """
    rng = random.Random(cfg.seed)
    run = _Run(space, ledger, oracle)

    def loop() -> None:
        if cfg.sa_initial_temp is None:
            batch = _sample_distinct(space, rng, cfg.population_size)
            values = [(c, run.target_of(run.measure(c))) for c in batch]
            targets = [v for _, v in values]
            t0 = statistics.pstdev(targets) if len(targets) > 1 else 1.0
            if t0 <= 0.0:
                t0 = 1.0
            current, current_value = min(values, key=lambda cv: cv[1])
        else:
            t0 = cfg.sa_initial_temp
            current = space.random_config(rng)
            current_value = run.target_of(run.measure(current))
        start_consumed = ledger.consumed
        stalled = 0
        while not run.finished():
            if stalled >= STALL_PROPOSALS:
                candidate = run.fresh_uniform(rng)
                if candidate is None:
                    return
            else:
                candidate = space.neighbors(current, 1, rng, 1)[0]
            temperature = t0 * cfg.sa_cooling ** (ledger.consumed - start_consumed)
            before = ledger.consumed
            value = run.target_of(run.measure(candidate))
            stalled = stalled + 1 if ledger.consumed == before else 0
            if rng.random() < metropolis_probability(value - current_value, temperature):
                current, current_value = candidate, value

    return _finish(run, loop)


# ---------------------------------------------------------------------------
# Population-based optimizers


def _sample_distinct(
    space: OptionSpace, rng: random.Random, count: int
) -> list[Configuration]:
    """Uniform sample without replacement while the space size permits."""
    size = space.size()
    if size <= count:
        population = list(space.enumerate_all())
        rng.shuffle(population)
        while len(population) < count:
            population.append(space.random_config(rng))
        return population
    seen: set[Configuration] = set()
    population: list[Configuration] = []
    while len(population) < count:
        config = space.random_config(rng)
        for _ in range(100):
            if config not in seen:
                break
            config = space.random_config(rng)
        seen.add(config)
        population.append(config)
    return population


def _tournament(
    size: int, rng: random.Random, better: Callable[[int, int], int]
) -> int:
    """Binary tournament over index range; ties fall to a fair coin."""
    i = rng.randrange(size)
    j = rng.randrange(size)
    verdict = better(i, j)
    if verdict == 0:
        return i if rng.random() < 0.5 else j
    return i if verdict > 0 else j


def run_soga(
    space: OptionSpace, ledger: BudgetLedger, oracle: Oracle, cfg: OptimizerConfig
) -> RunTrace:
    """Generational GA on the scalar target: binary tournaments, uniform
    crossover, boundary mutation, elitist replacement."""
    if cfg.population_size < 2:
        raise ValueError("population_size must be >= 2 for the GA")
    rng = random.Random(cfg.seed)
    run = _Run(space, ledger, oracle)
    can_vary = cfg.mutation_rate > 0.0 or cfg.crossover_rate > 0.0

    def evaluate(config: Configuration) -> tuple[Configuration, float]:
        return config, run.target_of(run.measure(config))

    def loop() -> None:
        population = [evaluate(c) for c in _sample_distinct(space, rng, cfg.population_size)]
        stalled_generations = 0
        while not run.finished():
            def better(i: int, j: int) -> int:
                a, b = population[i][1], population[j][1]
                if a < b:
                    return 1
                if b < a:
                    return -1
                return 0

            offspring: list[tuple[Configuration, float]] = []
            before = ledger.consumed
            while len(offspring) < len(population):
                p1 = population[_tournament(len(population), rng, better)][0]
                p2 = population[_tournament(len(population), rng, better)][0]
                c1, c2 = uniform_crossover(p1, p2, cfg.crossover_rate, rng)
                for child in (c1, c2):
                    if len(offspring) >= len(population):
                        break
                    mutated = boundary_mutation(space, child, cfg.mutation_rate, rng)
                    offspring.append(evaluate(mutated))
            if ledger.consumed == before:
                stalled_generations += 1
                if stalled_generations >= STALL_GENERATIONS:
                    if not can_vary:
                        # Variation-free search cannot progress; stop spinning.
                        return
                    fresh = run.fresh_uniform(rng)
                    if fresh is None:
                        return
                    offspring[rng.randrange(len(offspring))] = evaluate(fresh)
                    stalled_generations = 0
            else:
                stalled_generations = 0
            # Elitist replacement: the best individual always survives.
            best = min(population + offspring, key=lambda cv: cv[1])
            population = offspring
            if best[1] < min(population, key=lambda cv: cv[1])[1]:
                worst = max(range(len(population)), key=lambda i: population[i][1])
                population[worst] = best

    return _finish(run, loop)


def run_nsga2(
    space: OptionSpace,
    ledger: BudgetLedger,
    oracle: Oracle,
    model: MmoInstance | str,
    cfg: OptimizerConfig,
) -> RunTrace:
    """NSGA-II over the plain or meta bi-objective model.

    Normalization bounds widen dynamically with every measurement, and all
    retained individuals' objective points are recomputed from the current
    bounds before each selection step. The reported result of the run is the
    best measured target over the whole trace, not a survivor of selection.
    """
    if cfg.population_size < 2:
        raise ValueError("population_size must be >= 2 for the GA")
    if model != PMO and not isinstance(model, MmoInstance):
        raise ValueError(f"model must be {PMO!r} or an MmoInstance, got {model!r}")
    rng = random.Random(cfg.seed)
    run = _Run(space, ledger, oracle)
    can_vary = cfg.mutation_rate > 0.0 or cfg.crossover_rate > 0.0
    bounds = NormalizationBounds()

    def evaluate(config: Configuration) -> tuple[Configuration, float, float]:
        ft, fa = to_minimization(run.measure(config))
        bounds.observe((ft, fa))
        return config, ft, fa

    def objective_point(individual: tuple[Configuration, float, float]) -> ObjectivePoint:
        _, ft, fa = individual
        ft_n = bounds.normalize(ft, 0)
        fa_n = bounds.normalize(fa, 1)
        if model == PMO:
            return pmo_objectives(ft_n, fa_n)
        return meta_objectives(model, ft_n, fa_n)

    def loop() -> None:
        population = [evaluate(c) for c in _sample_distinct(space, rng, cfg.population_size)]
        stalled_generations = 0
        while not run.finished():
            points = [objective_point(ind) for ind in population]
            fronts = fast_nondominated_sort(points)
            rank = [0] * len(population)
            crowd = [0.0] * len(population)
            for level, front in enumerate(fronts):
                dist = crowding_distance([points[i] for i in front])
                for j, i in enumerate(front):
                    rank[i] = level
                    crowd[i] = dist[j]

            def better(i: int, j: int) -> int:
                if rank[i] != rank[j]:
                    return 1 if rank[i] < rank[j] else -1
                if crowd[i] != crowd[j]:
                    return 1 if crowd[i] > crowd[j] else -1
                return 0

            offspring: list[tuple[Configuration, float, float]] = []
            before = ledger.consumed
            while len(offspring) < len(population):
                p1 = population[_tournament(len(population), rng, better)][0]
                p2 = population[_tournament(len(population), rng, better)][0]
                c1, c2 = uniform_crossover(p1, p2, cfg.crossover_rate, rng)
                for child in (c1, c2):
                    if len(offspring) >= len(population):
                        break
                    mutated = boundary_mutation(space, child, cfg.mutation_rate, rng)
                    offspring.append(evaluate(mutated))
            if ledger.consumed == before:
                stalled_generations += 1
                if stalled_generations >= STALL_GENERATIONS:
                    if not can_vary:
                        # Variation-free search cannot progress; stop spinning.
                        return
                    fresh = run.fresh_uniform(rng)
                    if fresh is None:
                        return
                    offspring[rng.randrange(len(offspring))] = evaluate(fresh)
                    stalled_generations = 0
            else:
                stalled_generations = 0
            pool = population + offspring
            pool_points = [objective_point(ind) for ind in pool]
            protect = None
            if model != PMO:
                protect = min(range(len(pool)), key=lambda i: pool[i][1])
            chosen = environmental_selection(pool_points, len(population), protect)
            population = [pool[i] for i in chosen]

    return _finish(run, loop)
