"""Tests for the search procedures, variation operators, and NSGA-II kernels."""

from __future__ import annotations

import hashlib
import math
import random
import statistics

import pytest

from mmo_tune import optimizers
from mmo_tune.harness import derive_seed, emit_trace, execute_run, weight_token
from mmo_tune.measurement import (
    MeasurementRecord,
    SyntheticOracle,
    TabularOracle,
    UnmeasuredConfigError,
    load_table,
)
from mmo_tune.optimizers import (
    _Run,
    boundary_mutation,
    crowding_distance,
    environmental_selection,
    fast_nondominated_sort,
    metropolis_probability,
    uniform_crossover,
)
from mmo_tune.space import InvalidConfigurationError, OptionSpace, OptionSpec

from conftest import (
    dominance,
    make_binary_space,
    reference_boundary_mutation,
    reference_uniform_crossover,
    sort_by_domination_counts,
    write_table,
)


def synthetic(space, seed=7, ruggedness=0.4, density=0.1, correlation=0.3):
    return SyntheticOracle(
        space, seed=seed, density=density, ruggedness=ruggedness,
        correlation=correlation,
    )


# Short name -> (model, weight) of execute_run.
RUNNERS = {
    "rs": ("single:rs", None),
    "shc": ("single:shc-r", None),
    "sa": ("single:sa", None),
    "soga": ("single:soga", None),
    "pmo": ("pmo", None),
    "mmo": ("mmo:linear", 0.5),
}


def run_model(name, space, budget, oracle, population_size, seed):
    model, weight = RUNNERS[name]
    return execute_run(space, oracle, budget, population_size, model, weight, seed)


ALL_RUNNER_NAMES = tuple(RUNNERS)


class TestBoundaryMutation:
    def test_zero_rate_is_identity(self, binary8):
        rng = random.Random(0)
        config = binary8.random_config(rng)
        assert boundary_mutation(binary8, config, 0.0, rng) == config

    def test_full_rate_sets_bounds(self):
        space = OptionSpace(tuple(OptionSpec(f"i{k}", "integer", 2, 9) for k in range(6)))
        rng = random.Random(1)
        config = space.config([5, 5, 5, 5, 5, 5])
        for _ in range(50):
            mutated = boundary_mutation(space, config, 1.0, rng)
            assert all(v in (2, 9) for v in mutated)

    def test_gene_mutation_frequency_near_rate(self, binary8):
        rng = random.Random(2)
        trials = 10_000
        rate = 0.1
        # Count mutations on a mid-range option so every boundary pick is visible.
        space = OptionSpace((OptionSpec("x", "integer", 0, 10),))
        config = space.config([5])
        flipped = sum(
            boundary_mutation(space, config, rate, rng)[0] != 5
            for _ in range(trials)
        )
        sigma = math.sqrt(trials * rate * (1 - rate))
        assert abs(flipped - trials * rate) <= 3 * sigma


# Spaces for the draw-for-draw checks: binary options, integer options, and
# options with a single value mixed in with both.
VARIATION_SPACES = {
    "binary": make_binary_space(7),
    "integer": OptionSpace(
        (
            OptionSpec("a", "integer", 1, 8),
            OptionSpec("b", "integer", -3, 2),
            OptionSpec("c", "integer", 0, 9),
        )
    ),
    "single": OptionSpace(
        (
            OptionSpec("s0", "integer", 3, 3),
            OptionSpec("b0", "binary", 0, 1),
            OptionSpec("s1", "integer", -1, -1),
            OptionSpec("i0", "integer", 0, 4),
        )
    ),
}


@pytest.mark.parametrize("rate", (0.0, 0.1, 1.0))
@pytest.mark.parametrize("kind", sorted(VARIATION_SPACES))
class TestVariationDrawForDraw:
    """The operators return what the reference operators return and leave
    the generator where they leave it, so every later draw is the same."""

    def test_boundary_mutation(self, kind, rate):
        space = VARIATION_SPACES[kind]
        for seed in range(40):
            config = space.random_config(random.Random(seed + 1000))
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got = boundary_mutation(space, config, rate, rng)
                want = reference_boundary_mutation(space, config, rate, ref)
                assert got == want
                assert rng.getstate() == ref.getstate()
                config = got

    def test_uniform_crossover(self, kind, rate):
        space = VARIATION_SPACES[kind]
        for seed in range(40):
            setup = random.Random(seed + 2000)
            a, b = space.random_config(setup), space.random_config(setup)
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got = uniform_crossover(a, b, rate, rng)
                assert got == reference_uniform_crossover(a, b, rate, ref)
                assert rng.getstate() == ref.getstate()
                a, b = got


class TestUniformCrossover:
    def test_zero_rate_copies_parents(self, binary8):
        rng = random.Random(3)
        a, b = binary8.random_config(rng), binary8.random_config(rng)
        assert uniform_crossover(a, b, 0.0, rng) == (a, b)

    def test_positionwise_multiset_preserved(self, binary8):
        rng = random.Random(4)
        for _ in range(200):
            a, b = binary8.random_config(rng), binary8.random_config(rng)
            c1, c2 = uniform_crossover(a, b, 1.0, rng)
            for i in range(8):
                assert sorted((c1[i], c2[i])) == sorted(
                    (a[i], b[i])
                )

    def test_space_mismatch(self, binary8, binary3):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            uniform_crossover(
                binary8.random_config(rng), binary3.random_config(rng), 1.0, rng
            )


def peel_fronts(points):
    """Independent oracle: iterative removal of nondominated layers."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            p = points[i]
            dominated = False
            for j in remaining:
                if i == j:
                    continue
                q = points[j]
                if all(a <= b for a, b in zip(q, p)) and any(
                    a < b for a, b in zip(q, p)
                ):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


class TestFastNondominatedSort:
    def test_single_point(self):
        assert fast_nondominated_sort([(1.0, 1.0)]) == [[0]]

    def test_two_ordered_points(self):
        assert fast_nondominated_sort([(1.0, 1.0), (2.0, 2.0)]) == [[0], [1]]

    def test_matches_peeling_oracle(self):
        rng = random.Random(8)
        for _ in range(40):
            size = rng.randint(1, 50)
            points = [(rng.random(), rng.random()) for _ in range(size)]
            got = [sorted(f) for f in fast_nondominated_sort(points)]
            want = [sorted(f) for f in peel_fronts(points)]
            assert got == want

    def test_fronts_disjoint_and_exhaustive(self):
        rng = random.Random(9)
        points = [(rng.random(), rng.random()) for _ in range(80)]
        fronts = fast_nondominated_sort(points)
        flat = [i for front in fronts for i in front]
        assert sorted(flat) == list(range(80))
        for i in fronts[0]:
            assert all(
                dominance(points[j], points[i]) != 1 for j in range(80) if j != i
            )

    def test_two_objective_path_matches_counting_loop_order_exactly(self):
        # Crowding and truncation ties depend on the order inside each front,
        # so the sort must return the counting loop's lists element for
        # element, not merely the same sets.
        rng = random.Random(10)
        for _ in range(2500):
            size = rng.randint(1, 60)
            digits = rng.choice((1, 2))
            points = [
                (round(rng.random(), digits), round(rng.random(), digits))
                for _ in range(size)
            ]
            for _ in range(rng.randrange(4) if size > 1 else 0):
                points[rng.randrange(size)] = points[rng.randrange(size)]
            assert fast_nondominated_sort(points) == sort_by_domination_counts(points)

    def test_later_fronts_follow_last_dominator_then_index(self):
        # Front 1 member 3 is dominated only by index 0, members 2 and 4 also
        # by index 1, which comes later in front 0: 3 leads, then 2 and 4.
        points = [(0.0, 0.5), (0.5, 0.0), (0.6, 0.6), (0.1, 0.9), (0.6, 0.6)]
        assert fast_nondominated_sort(points) == [[0, 1], [3, 2, 4]]


class TestCrowdingDistance:
    def test_two_point_front_both_infinite(self):
        assert crowding_distance([(0.0, 1.0), (1.0, 0.0)]) == [math.inf, math.inf]

    def test_collinear_middle_point(self):
        distances = crowding_distance([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
        assert distances[0] == math.inf
        assert distances[2] == math.inf
        assert distances[1] == pytest.approx(2.0)

    def test_identical_points_interior_zero(self):
        distances = crowding_distance([(1.0, 1.0)] * 4)
        assert distances[0] == math.inf
        assert distances[3] == math.inf
        assert distances[1] == distances[2] == 0.0


class TestEnvironmentalSelection:
    def test_never_keeps_dominated_over_dominator(self):
        rng = random.Random(10)
        for _ in range(100):
            points = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 40))]
            capacity = rng.randint(1, len(points))
            selected = set(environmental_selection(points, capacity))
            assert len(selected) == capacity
            discarded = set(range(len(points))) - selected
            for d in discarded:
                for s in selected:
                    assert fast_nondominated_sort([points[d], points[s]]) != [[0], [1]]

    def test_protect_keeps_interior_best_target(self):
        # Front-0 meta points where the minimal-target member is interior on
        # both objectives, so plain crowding truncation would drop it.
        points = [(0.5, -0.5), (1.0, -0.8), (0.2, 0.2)]
        assert fast_nondominated_sort(points) == [[0, 1, 2]]
        unprotected = environmental_selection(points, 2)
        assert 0 not in unprotected
        protected = environmental_selection(points, 2, protect=0)
        assert 0 in protected
        assert len(protected) == 2


class TestMetropolis:
    def test_improvement_always_accepted(self):
        assert metropolis_probability(-1.0, 0.5) == 1.0

    def test_zero_delta_always_accepted(self):
        assert metropolis_probability(0.0, 0.5) == 1.0

    def test_vanishing_temperature_rejects_worse(self):
        assert metropolis_probability(0.5, 1e-300) == 0.0
        assert metropolis_probability(0.5, 0.0) == 0.0

    def test_acceptance_frequency_matches_closed_form(self):
        rng = random.Random(11)
        delta, temperature = 1.0, 2.0
        trials = 10_000
        p = metropolis_probability(delta, temperature)
        accepted = sum(rng.random() < p for _ in range(trials))
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(accepted - trials * p) <= 3 * sigma


class TestRunBehavior:
    @pytest.mark.parametrize("name", ALL_RUNNER_NAMES)
    def test_fixed_seed_reproduces_trace(self, name, binary8):
        oracle = synthetic(binary8)
        first = run_model(name, binary8, 40, oracle, 6, 13)
        second = run_model(name, binary8, 40, oracle, 6, 13)
        assert list(first.rows.items()) == list(second.rows.items())
        assert first.best_so_far == second.best_so_far

    @pytest.mark.parametrize("name", ALL_RUNNER_NAMES)
    def test_trace_respects_budget_and_monotonicity(self, name):
        space = make_binary_space(5)
        oracle = synthetic(space, seed=3)
        trace = run_model(name, space, 17, oracle, 4, 5)
        assert 1 <= len(trace.rows) == len(trace.best_so_far) <= 17
        best = trace.best_so_far
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    @pytest.mark.parametrize("name", ALL_RUNNER_NAMES)
    def test_budget_beyond_space_measures_everything(self, name):
        space = make_binary_space(6)
        oracle = synthetic(space, seed=4)
        trace = run_model(name, space, 100, oracle, 4, 6)
        assert len(trace.rows) == 64
        true_best = min(oracle.target(c) for c in space.enumerate_all())
        assert trace.summary().best_target == true_best

    def test_rs_budget_one(self, binary8):
        trace = run_model("rs", binary8, 1, synthetic(binary8), 20, 1)
        assert len(trace.rows) == 1

    def test_zero_budget_empty_trace(self, binary8):
        trace = run_model("rs", binary8, 0, synthetic(binary8), 20, 1)
        assert trace.rows == {}
        with pytest.raises(ValueError):
            trace.summary().best_target


class TestShcRestart:
    def test_unimodal_single_option_reaches_optimum(self):
        space = OptionSpace((OptionSpec("x", "integer", 0, 9),))
        rows = {(x,): (abs(x - 3) + 1.0, 0.0) for x in range(10)}
        oracle = TabularOracle(rows)
        trace = run_model("shc", space, 10, oracle, 20, 2)
        assert trace.summary().best_target == 1.0

    def test_two_basin_landscape_triggers_restart(self):
        space = OptionSpace(
            (OptionSpec("x", "integer", 0, 2), OptionSpec("y", "integer", 0, 2))
        )
        rows = {
            (0, 0): (1.0, 0.0), (0, 1): (4.0, 0.0), (0, 2): (5.0, 0.0),
            (1, 0): (4.0, 0.0), (1, 1): (6.0, 0.0), (1, 2): (4.0, 0.0),
            (2, 0): (5.0, 0.0), (2, 1): (4.0, 0.0), (2, 2): (0.0, 0.0),
        }
        oracle = TabularOracle(rows)
        # Two options: a restart after 8 rejections in a row.
        trace = run_model("shc", space, 9, oracle, 20, 1)
        assert trace.restarts >= 1
        assert trace.summary().best_target == 0.0


class TestSaSchedule:
    def test_temperature_cools_per_distinct_measurement(self, binary8, monkeypatch):
        # Each acceptance decision must use t0 * 0.95**spent, where t0 is the
        # spread of the initial batch and spent counts the distinct
        # measurements since the batch, before the candidate's own.
        inner = synthetic(binary8)
        measured: list[float] = []
        decisions: list[tuple[int, float]] = []

        class CountingOracle:
            def measure(self, config):
                record = inner.measure(config)
                measured.append(record.target_raw)
                return record

        def recording(delta, temperature):
            decisions.append((len(measured), temperature))
            return metropolis_probability(delta, temperature)

        monkeypatch.setattr(optimizers, "metropolis_probability", recording)
        run_model("sa", binary8, 60, CountingOracle(), 6, 4)
        t0 = statistics.pstdev(measured[:6])
        previous = 6
        for count, temperature in decisions:
            assert temperature == t0 * 0.95 ** (previous - 6)
            previous = count
        # Both kinds of proposal occur: new configurations and cache hits.
        assert len(decisions) > len(measured) - 6 > 0
        assert len(measured) == 60


class TestSoga:
    def test_best_so_far_never_worsens(self, binary8):
        trace = run_model("soga", binary8, 80, synthetic(binary8), 8, 9)
        best = trace.best_so_far
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


class TestNsga2:
    def test_mmo_finds_planted_with_full_budget(self):
        space = make_binary_space(8)
        oracle = synthetic(space, seed=12)
        trace = run_model("mmo", space, 256, oracle, 8, 21)
        planted = oracle.planted
        assert trace.summary().best_target == oracle.target(planted)

    def test_rejects_bad_model(self, binary8):
        with pytest.raises(ValueError, match=r"^unknown model 'nope'$"):
            execute_run(binary8, synthetic(binary8), 10, 20, "nope", None, 0)

    def test_population_size_floor(self, binary8):
        with pytest.raises(ValueError):
            run_model("pmo", binary8, 10, synthetic(binary8), 1, 0)


# Digests of runs of population 20 on the 64 configurations of a 6-bit space,
# with a budget of 60 that leaves the population repeating a few points for
# many generations: the meta-model run ranks an unchanged population in about
# 40 of its 48 generations, and its sorts see about 5 points per distinct one.
# Pinned before NSGA-II reused the keys of an unchanged population.
GOLDEN_COLLAPSED = {
    "pmo": "dc1b07f469fda38d067a396870594e35ccb02a4d5e5c7b7ee17c6a0a87cb7719",
    "mmo-linear-0.1": "89befedfc19949e4b8ec2eb91344c3c2f14289ca91a2b70707fdbd4855e2931f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COLLAPSED))
def test_collapsed_population_trace_digest(name, tmp_path):
    model, weight = ("pmo", None) if name == "pmo" else ("mmo:linear", 0.1)
    space = make_binary_space(6)
    oracle = SyntheticOracle(space, seed=6, ruggedness=0.5, correlation=0.2)
    seed = derive_seed(2024, "bits6-collapse", name)
    trace = execute_run(space, oracle, 60, 20, model, weight, seed)
    path = tmp_path / "trace.csv"
    emit_trace(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_COLLAPSED[name]


# Proposals (``_Run.measure`` calls, hits included) of one run per runner on
# the synth-a landscape of the golden traces, at its budget, population and
# seeds. A trace pins the distinct measurements; this pins the cache hits too,
# so a change that keeps the rows but drops or adds a proposal shows here.
PROPOSALS = {
    ("single:rs", None): 558,
    ("single:shc-r", None): 1288,
    ("single:sa", None): 10838,
    ("single:soga", None): 1919,
    ("pmo", None): 6772,
    ("mmo:linear", 0.1): 7737,
}


@pytest.mark.parametrize("model, weight", sorted(PROPOSALS, key=str))
def test_proposals_per_run(model, weight, monkeypatch):
    space = make_binary_space(12)
    oracle = SyntheticOracle(space, seed=101, ruggedness=0.35, correlation=0.3)
    calls = 0
    measure = _Run.measure

    def counted(run, config):
        nonlocal calls
        calls += 1
        return measure(run, config)

    monkeypatch.setattr(_Run, "measure", counted)
    seed = derive_seed(2024, "synth-a", model, weight_token(weight))
    trace = execute_run(space, oracle, 400, 20, model, weight, seed)
    assert len(trace.rows) == 400
    assert calls == PROPOSALS[model, weight]


class TestRunMeasure:
    def test_each_configuration_is_converted_recorded_and_observed_once(self, binary8):
        oracle = synthetic(binary8)
        observed = []
        run = _Run(binary8, 10, oracle, directions=("maximize", "minimize"))
        run.observe = observed.append
        a, b = (0,) * 8, (1,) * 8
        measured = [run.measure(c) for c in (a, b, a, b, a)]
        expected = {c: (c, -oracle.target(c), oracle.auxiliary(c)) for c in (a, b)}
        assert measured == [expected[c] for c in (a, b, a, b, a)]
        assert list(run.trace.rows.items()) == list(expected.items())
        first, second = expected[a][1], expected[b][1]
        assert list(run.trace.best_so_far) == [first, min(first, second)]
        assert observed == [expected[a], expected[b]]


class TestTrustedProposals:
    """A local-search proposal validates nothing; input from outside the
    space is checked where it enters and where it is measured."""

    @pytest.mark.parametrize("runner", ["sa", "shc"], ids=["run_sa", "run_shc_restart"])
    def test_table_run_validates_nothing_after_loading(self, runner, tmp_path, monkeypatch):
        space = OptionSpace(
            (
                OptionSpec("a", "integer", 1, 4),
                OptionSpec("b", "integer", 0, 2),
                OptionSpec("c", "binary", 0, 1),
            )
        )
        rows = {c: (float(sum(c) % 5), float(c[0])) for c in space.enumerate_all()}
        oracle = load_table(write_table(tmp_path / "t.csv", space, rows), space)
        validated = []
        validate = OptionSpace.validate
        monkeypatch.setattr(
            OptionSpace,
            "validate",
            lambda self, config: validated.append(config) or validate(self, config),
        )
        trace = run_model(runner, space, 20, oracle, 4, 3)
        assert len(trace.rows) == 20
        assert validated == []

    def test_neighbor_of_an_outside_incumbent_is_refused_when_measured(
        self, binary3, tmp_path
    ):
        rows = {c: (0.0, 0.0) for c in binary3.enumerate_all()}
        table = load_table(write_table(tmp_path / "t.csv", binary3, rows), binary3)
        sampler, rng = binary3.neighbor_sampler(1), random.Random(0)
        neighbors = [sampler((7, 0, 0), rng) for _ in range(20)]
        neighbor = next(n for n in neighbors if n[0] == 7)
        with pytest.raises(InvalidConfigurationError):
            synthetic(binary3).measure(neighbor)
        with pytest.raises(UnmeasuredConfigError):
            table.measure(neighbor)


class TestExecuteRun:
    def test_rejects_bad_direction(self, binary8):
        with pytest.raises(ValueError, match=r"^unknown direction 'up'$"):
            execute_run(
                binary8, synthetic(binary8), 10, 20, "single:rs", None, 0,
                ("up", "minimize"),
            )

    @pytest.mark.parametrize(
        "directions",
        [("minimize",), ("minimize", "minimize", "maximize")],
        ids=["one", "three"],
    )
    def test_rejects_directions_that_are_not_a_pair(self, directions, binary8):
        with pytest.raises(ValueError, match=rf"pair, got {len(directions)}$"):
            execute_run(
                binary8, synthetic(binary8), 10, 20, "single:rs", None, 0, directions
            )


class TestFreshUniform:
    def test_matches_enumeration_rule_without_enumerating(self, monkeypatch):
        # The rule it replaces: 64 rejection draws, then a uniform pick among
        # the unmeasured configurations in enumeration order.
        space = OptionSpace(
            (
                OptionSpec("a", "integer", 1, 3),
                OptionSpec("b", "integer", -2, 2),
                OptionSpec("c", "binary", 0, 1),
                OptionSpec("d", "integer", 0, 3),
            )
        )
        every = list(space.enumerate_all())
        monkeypatch.setattr(
            OptionSpace, "enumerate_all", lambda self: pytest.fail("enumerated")
        )

        def reference(measured, rng):
            for _ in range(64):
                config = space.random_config(rng)
                if config not in measured:
                    return config, False
            remaining = [c for c in every if c not in measured]
            return remaining[rng.randrange(len(remaining))], True

        picker = random.Random(5)
        exact_draws = 0
        for state in range(600):
            run = _Run(space, len(every), None, seed=state)
            filled = picker.randrange(len(every) - 8, len(every))
            for config in picker.sample(every, filled):
                run.trace.record(config, MeasurementRecord(0.0, 0.0))
            rng = random.Random()
            rng.setstate(run.rng.getstate())
            expected, enumerated = reference(run.trace.rows, rng)
            assert run.fresh_uniform() == expected
            assert run.rng.getstate() == rng.getstate()
            exact_draws += enumerated
        assert exact_draws >= 50

    def test_exhausted_space_raises(self, binary3):
        run = _Run(binary3, 8, None)
        for config in binary3.enumerate_all():
            run.trace.record(config, MeasurementRecord(0.0, 0.0))
        state = run.rng.getstate()
        with pytest.raises(ValueError, match="^every configuration of the space is measured$"):
            run.fresh_uniform()
        assert run.rng.getstate() == state
