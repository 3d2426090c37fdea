"""Search procedures over a budget of distinct measurements.

Four single-objective baselines (random search with a wide neighborhood,
stochastic hill climbing with restarts, simulated annealing, a generational
GA) plus NSGA-II, which drives the plain and meta bi-objective models. They
share two drivers: a local search that differs per optimizer only in its
radius, acceptance rule and restarts, and a generational loop that differs
only in how individuals are ranked and which ones survive. Each optimizer is
a private function of a ``_Run``, which owns the run's generator and its
trace, which is also its measurement cache; ``harness.execute_run`` names
them by model and is the one way to start a run. Equal seeds give
bit-identical traces.
"""

from __future__ import annotations

import contextlib
import math
import random
import statistics
from itertools import islice
from typing import Callable

from .measurement import BudgetExhausted, Oracle
from .models import (
    PMO,
    Direction,
    MmoInstance,
    NormalizationBounds,
    ObjectivePoint,
    check_directions,
    fast_nondominated_sort,
    meta_objectives,
    pmo_objectives,
)
from .space import Configuration, OptionSpace, randbelow
from .trace import Individual, RunTrace

# Consecutive proposals (or generations, for the population methods) without a
# new distinct measurement before falling back to uniform resampling of the
# unmeasured space. Keeps every optimizer making budget progress on small or
# nearly exhausted spaces.
STALL_PROPOSALS = 32
STALL_GENERATIONS = 3

# Fixed settings: the variation rates of the GA and NSGA-II, and SA's geometric
# cooling factor per distinct measurement.
MUTATION_RATE = 0.1
CROSSOVER_RATE = 0.9
SA_COOLING = 0.95


class _Run:
    """Per-run plumbing: generator, measurement, and ``stop``, the trace
    length at which the run ends. The trace is the run's one store of
    measurements: each row holds the individual (configuration, target,
    auxiliary) of a configuration measured once, when first proposed, and
    ``budget`` counts these distinct measurements. ``population_size`` is
    the population of the generational optimizers and SA's initial batch;
    ``directions`` says whether the target and the auxiliary are minimized
    or maximized."""

    def __init__(
        self,
        space: OptionSpace,
        budget: int,
        oracle: Oracle,
        population_size: int = 20,
        seed: int = 0,
        directions: tuple[Direction, Direction] = ("minimize", "minimize"),
    ):
        if population_size < 1:
            raise ValueError("population_size must be >= 1")
        check_directions(directions)
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.space = space
        self.oracle = oracle
        self.population_size = population_size
        self.rng = random.Random(seed)
        self.trace = RunTrace(space, directions)
        self._space_size = space.size()
        # Budget or space spent: no distinct measurement is left to make.
        self.stop = min(budget, self._space_size)

    def measure(self, config: Configuration) -> Individual:
        """Return (configuration, target, auxiliary), both values converted
        for minimization.

        A configuration's first proposal is measured and recorded in the
        trace; a later one is served from the trace's rows. A first proposal
        once the budget is spent raises BudgetExhausted."""
        measured = self.trace.rows.get(config)
        if measured is not None:
            return measured
        if len(self.trace.rows) >= self.stop:
            raise BudgetExhausted(f"distinct-measurement budget of {self.stop} is exhausted")
        return self.trace.record(config, self.oracle.measure(config))

    def random_start(self) -> Individual:
        return self.measure(self.space.random_config(self.rng))

    def fresh_uniform(self) -> Configuration:
        """A uniform draw over the not-yet-measured configurations; ValueError
        if none remains.

        After 64 rejected uniform draws, one draw picks the position of the
        result among the unmeasured configurations in lexicographic order.
        """
        rng, cache = self.rng, self.trace.rows
        if len(cache) >= self._space_size:
            raise ValueError("every configuration of the space is measured")
        for _ in range(64):
            config = self.space.random_config(rng)
            if config not in cache:
                return config
        left = self._space_size - len(cache)
        index = randbelow(rng.getrandbits, left, left.bit_length())
        for measured in sorted(map(self.space.index, cache)):
            if measured > index:
                break
            index += 1
        return self.space.config_at(index)


# ---------------------------------------------------------------------------
# Variation operators


def boundary_mutation(
    space: OptionSpace, config: Configuration, rate: float, rng: random.Random
) -> Configuration:
    """Independently reset each option to its lower or upper bound with probability ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    draw = rng.random
    values = None  # copied at the first mutation
    for i, (lower, upper) in enumerate(space.bounds):
        if draw() < rate:
            if values is None:
                values = list(config)
            values[i] = lower if draw() < 0.5 else upper
    return config if values is None else tuple(values)


def uniform_crossover(
    a: Configuration, b: Configuration, rate: float, rng: random.Random
) -> tuple[Configuration, Configuration]:
    """Swap each position between the children via a fair coin, with probability ``rate``."""
    if len(a) != len(b):
        raise ValueError("parents come from different spaces")
    draw = rng.random
    if draw() >= rate:
        return a, b
    left = list(a)
    right = list(b)
    for i in range(len(left)):
        if draw() < 0.5:
            left[i], right[i] = right[i], left[i]
    return tuple(left), tuple(right)


# ---------------------------------------------------------------------------
# NSGA-II kernels


def crowding_distance(points: list[ObjectivePoint]) -> list[float]:
    """Crowding distances within one front of objective pairs: boundary points
    get +inf, interior points accumulate (next - prev) / (max - min) per
    objective."""
    k = len(points)
    if k == 0:
        raise ValueError("empty front")
    distances = [0.0] * k
    for m in (0, 1):
        values = [p[m] for p in points]
        order = sorted(range(k), key=values.__getitem__)
        ordered = [values[i] for i in order]
        distances[order[0]] = math.inf
        distances[order[-1]] = math.inf
        span = ordered[-1] - ordered[0]
        if span == 0.0:
            continue
        for i, prev, nxt in zip(order[1:-1], ordered, ordered[2:]):
            distances[i] += (nxt - prev) / span
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
    fronts = fast_nondominated_sort(points, capacity)
    selected: list[int] = []
    for front in fronts:
        if len(selected) + len(front) <= capacity:
            selected.extend(front)
            continue
        dist = crowding_distance([points[i] for i in front])
        order = sorted(range(len(front)), key=dist.__getitem__, reverse=True)
        take = [front[j] for j in order[: capacity - len(selected)]]
        if protect is not None and protect in front and protect not in take and take:
            take[-1] = protect
        selected.extend(take)
        break
    return selected


# ---------------------------------------------------------------------------
# Local search


def _improves(value: float, current: float, spent: int) -> bool:
    return value < current


def _local_search(
    run: _Run,
    radius: int,
    accept: Callable[[float, float, int], bool],
    start: Callable[[], Individual] | None = None,
    restart_after: int | None = None,
) -> RunTrace:
    """Walk from the individual ``start`` measures (default: one uniform
    configuration): propose a neighbor within ``radius``, or a uniform draw
    over the unmeasured space after a stall, measure it, and move there when
    ``accept(its target, the current target, spent)`` holds, where ``spent``
    counts the distinct measurements made since the start before this one.
    ``restart_after`` rejections in a row restart the walk from a uniform
    configuration."""
    rng, cache, stop, measure = run.rng, run.trace.rows, run.stop, run.measure
    neighbor = run.space.neighbor_sampler(radius)
    with contextlib.suppress(BudgetExhausted):
        current = (start or run.random_start)()
        start_consumed = len(cache)
        stalled = rejected = 0
        while len(cache) < stop:
            if stalled >= STALL_PROPOSALS:
                candidate = run.fresh_uniform()
            else:
                candidate = neighbor(current[0], rng)
            before = len(cache)
            measured = measure(candidate)
            stalled = stalled + 1 if len(cache) == before else 0
            if accept(measured[1], current[1], before - start_consumed):
                current = measured
                rejected = 0
            else:
                rejected += 1
            if rejected == restart_after and len(cache) < stop:
                run.trace.restarts += 1
                current = run.random_start()
                rejected = 0
    return run.trace


def _rs(run: _Run) -> RunTrace:
    """Random search within half the option count of the incumbent, keeping the
    best target; falls back to uniform resampling once the neighborhood is spent."""
    radius = max(1, len(run.space.options) // 2)
    return _local_search(run, radius, _improves)


def _shc_restart(run: _Run) -> RunTrace:
    """Stochastic hill climbing on Hamming-1 neighbors, restarting from a fresh
    uniform configuration after four times the option count of non-improving
    evaluations in a row."""
    return _local_search(run, 1, _improves, restart_after=4 * len(run.space.options))


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


def _sa(run: _Run) -> RunTrace:
    """Simulated annealing with geometric cooling per distinct measurement.

    The walk starts from the best of an initial uniform batch of
    ``population_size`` samples, and the initial temperature is the standard
    deviation of the batch's targets.
    """
    t0 = 1.0  # start() sets it from the batch

    def start() -> Individual:
        nonlocal t0
        batch = _sample_distinct(run.space, run.rng, run.population_size)
        measured = [run.measure(c) for c in batch]
        targets = _targets(measured)
        # A batch without spread gives no scale: fall back to 1.
        t0 = (statistics.pstdev(targets) if len(targets) > 1 else 0.0) or 1.0
        return min(measured, key=lambda ind: ind[1])

    def metropolis(value: float, current: float, spent: int) -> bool:
        temperature = t0 * SA_COOLING**spent
        return run.rng.random() < metropolis_probability(value - current, temperature)

    return _local_search(run, 1, metropolis, start)


# ---------------------------------------------------------------------------
# Population-based optimizers


def _sample_distinct(
    space: OptionSpace, rng: random.Random, count: int
) -> list[Configuration]:
    """Uniform sample without replacement while the space size permits."""
    size = space.size()
    if size <= count:
        population = list(space.enumerate_all())
        for i in range(size - 1, 0, -1):  # rng.shuffle's swaps
            j = randbelow(rng.getrandbits, i + 1, (i + 1).bit_length())
            population[i], population[j] = population[j], population[i]
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


def _tournament(keys: list, rng: random.Random) -> int:
    """Binary tournament over the population: the lower key wins, ties fall to
    a fair coin."""
    getrandbits, size = rng.getrandbits, len(keys)
    bits = size.bit_length()
    i = randbelow(getrandbits, size, bits)
    j = randbelow(getrandbits, size, bits)
    if keys[i] < keys[j]:
        return i
    if keys[j] < keys[i]:
        return j
    return i if rng.random() < 0.5 else j


def _generational(
    run: _Run,
    rank: Callable[[list[Individual]], list],
    survivors: Callable[[list[Individual], list[Individual]], list[Individual]],
) -> RunTrace:
    """Evolve a population of measured individuals: binary tournaments on the
    ``rank`` keys of each generation, uniform crossover, boundary mutation,
    then the ``survivors`` of parents and offspring. After a few generations
    without a new distinct measurement one offspring is replaced by a uniform
    draw over the unmeasured space."""
    if run.population_size < 2:
        raise ValueError("population_size must be >= 2 for the GA")
    space, cache, rng, measure = run.space, run.trace.rows, run.rng, run.measure
    getrandbits = rng.getrandbits
    with contextlib.suppress(BudgetExhausted):
        population = [
            measure(c) for c in _sample_distinct(space, rng, run.population_size)
        ]
        size = len(population)
        size_bits = size.bit_length()
        stalled_generations = 0
        while len(cache) < run.stop:
            keys = rank(population)
            offspring: list[Individual] = []
            before = len(cache)
            while len(offspring) < size:
                p1 = population[_tournament(keys, rng)][0]
                p2 = population[_tournament(keys, rng)][0]
                for child in uniform_crossover(p1, p2, CROSSOVER_RATE, rng):
                    if len(offspring) < size:
                        mutated = boundary_mutation(space, child, MUTATION_RATE, rng)
                        offspring.append(measure(mutated))
            if len(cache) == before:
                stalled_generations += 1
                if stalled_generations >= STALL_GENERATIONS:
                    fresh = measure(run.fresh_uniform())
                    offspring[randbelow(getrandbits, size, size_bits)] = fresh
                    stalled_generations = 0
            else:
                stalled_generations = 0
            population = survivors(population, offspring)
    return run.trace


def _targets(population: list[Individual]) -> list[float]:
    return [individual[1] for individual in population]


def _elitist(
    population: list[Individual], offspring: list[Individual]
) -> list[Individual]:
    """The offspring replace the parents, but the best individual always survives."""
    best = min(population + offspring, key=lambda cv: cv[1])
    if best[1] < min(offspring, key=lambda cv: cv[1])[1]:
        worst = max(range(len(offspring)), key=lambda i: offspring[i][1])
        offspring[worst] = best
    return offspring


def _soga(run: _Run) -> RunTrace:
    """Generational GA on the scalar target: binary tournaments, uniform
    crossover, boundary mutation, elitist replacement."""
    return _generational(run, _targets, _elitist)


def _nsga2(run: _Run, model: MmoInstance | str) -> RunTrace:
    """NSGA-II over the plain model ``PMO`` or a meta model instance.

    Normalization bounds widen dynamically with every measurement, and all
    retained individuals' objective points follow the current bounds before
    each ranking or selection, which first widens the bounds over the rows
    measured since the last: a point is kept per configuration until a
    bound moves. The reported result of the run is the best measured
    target over the whole trace, not a survivor of selection.
    """
    plain = model == PMO
    rows = run.trace.rows
    bounds = NormalizationBounds()
    seen = 0  # rows the bounds cover
    points: dict[Configuration, ObjectivePoint] = {}  # under the current bounds

    def objective_point(individual: Individual) -> ObjectivePoint:
        config, ft, fa = individual
        ft_n = bounds.normalize(ft, 0)
        fa_n = bounds.normalize(fa, 1)
        if plain:
            point = pmo_objectives(ft_n, fa_n)
        else:
            point = meta_objectives(model, ft_n, fa_n)
        points[config] = point
        return point

    def objective_points(individuals: list[Individual]) -> list[ObjectivePoint]:
        nonlocal seen
        new = islice(reversed(rows.values()), len(rows) - seen)
        seen = len(rows)
        if any([bounds.observe(ind[1:]) for ind in new]):  # a list: observe all
            points.clear()
        # A point is a pair, never false: only a missing one is computed.
        return [points.get(ind[0]) or objective_point(ind) for ind in individuals]

    # The keys are a function of the population's objective points alone, so
    # a generation whose points equal the last ranked ones reuses its keys.
    ranked: list[ObjectivePoint] = []
    keys: list[tuple[int, float]] = []

    def rank(population: list[Individual]) -> list[tuple[int, float]]:
        """(front, -crowding distance) per individual."""
        nonlocal ranked, keys
        current = objective_points(population)
        if current == ranked:
            return keys
        ranked = current
        keys = [(0, 0.0)] * len(population)
        for level, front in enumerate(fast_nondominated_sort(current)):
            dist = crowding_distance([current[i] for i in front])
            for j, i in enumerate(front):
                keys[i] = (level, -dist[j])
        return keys

    def select(
        population: list[Individual], offspring: list[Individual]
    ) -> list[Individual]:
        pool = population + offspring
        protect = None
        if not plain:
            targets = [ind[1] for ind in pool]
            protect = targets.index(min(targets))
        chosen = environmental_selection(objective_points(pool), len(population), protect)
        return [pool[i] for i in chosen]

    return _generational(run, rank, select)
