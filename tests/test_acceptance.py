"""Acceptance suite: one test per release criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import time

from mmo_tune.harness import (
    ExperimentPlan,
    build_oracle,
    data_driven_weight_selection,
    derive_seed,
    emit_trace,
    execute_run,
    preliminary_weight_selection,
)
from mmo_tune.measurement import BudgetExhausted, MeasurementRecord, SyntheticOracle
from mmo_tune.models import MmoInstance, meta_objectives, pmo_objectives
from mmo_tune.optimizers import (
    OptimizerConfig,
    _Run,
    crowding_distance,
    fast_nondominated_sort,
)
from mmo_tune.stats import a12, a12_magnitude, normalized_gain, pick_best_counterpart, wilcoxon_signed_rank

from conftest import make_binary_space, sort_by_domination_counts, write_table

SHAPES = ("linear", "sqrt", "square")
WEIGHT_SET = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 10.0)

SINGLE_MODELS = ("single:rs", "single:shc-r", "single:sa", "single:soga")


def report(criterion: str, ok: bool) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_normalized_gain_fidelity():
    ok = (
        abs(normalized_gain([50.0], [100.0], 20.0) - 62.5) <= 1e-9
        and abs(normalized_gain([25.0], [50.0], 20.0) - 250.0 / 3.0) <= 1e-9
    )
    report("1 (normalized-gain worked examples)", ok)


def test_criterion_2_meta_model_invariants():
    rng = random.Random(2024)
    cases = 10_000
    failures = 0
    for shape in SHAPES:
        # (a) a minimal-target member is never dominated in meta space
        for _ in range(cases):
            instance = MmoInstance(shape, rng.choice(WEIGHT_SET))
            pairs = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 8))]
            meta = [meta_objectives(instance, ft, fa) for ft, fa in pairs]
            best = min(range(len(pairs)), key=lambda i: pairs[i][0])
            if best not in fast_nondominated_sort(meta)[0]:
                failures += 1
        # (b) worse target never dominates better target
        for _ in range(cases):
            instance = MmoInstance(shape, rng.choice(WEIGHT_SET))
            ft1, ft2 = sorted((rng.random(), rng.random()))
            if ft1 == ft2:
                continue
            m1 = meta_objectives(instance, ft1, rng.random())
            m2 = meta_objectives(instance, ft2, rng.random())
            if fast_nondominated_sort([m2, m1]) == [[0], [1]]:
                failures += 1
        # (c) fixed target, distinct balance terms: mutually nondominated
        for _ in range(cases):
            instance = MmoInstance(shape, rng.choice(WEIGHT_SET))
            ft = rng.random()
            fa1, fa2 = rng.random(), rng.random()
            if instance.phi(fa1) == instance.phi(fa2):
                continue
            if fast_nondominated_sort(
                [meta_objectives(instance, ft, fa1), meta_objectives(instance, ft, fa2)]
            ) != [[0, 1]]:
                failures += 1
        # (d) dominance, as the sort decides it, equals its closed form
        for _ in range(cases):
            instance = MmoInstance(shape, rng.choice(WEIGHT_SET))
            ft1, ft2 = sorted((rng.random(), rng.random()))
            fa1, fa2 = rng.random(), rng.random()
            m1 = meta_objectives(instance, ft1, fa1)
            m2 = meta_objectives(instance, ft2, fa2)
            expected = (
                abs(instance.phi(fa1) - instance.phi(fa2)) <= ft2 - ft1 and m1 != m2
            )
            if (fast_nondominated_sort([m1, m2]) == [[0], [1]]) != expected:
                failures += 1
    report("2 (meta-model invariants, 10k cases each)", failures == 0)


def _dominance_matrix(points):
    n = len(points)
    dominates_over = [[False] * n for _ in range(n)]
    for i, (p0, p1) in enumerate(points):
        row = dominates_over[i]
        for j, (q0, q1) in enumerate(points):
            # False for i == j: a point does not dominate itself.
            row[j] = p0 <= q0 and p1 <= q1 and (p0, p1) != (q0, q1)
    return dominates_over


def _front_numbers_by_dag(points):
    """Independent oracle: front(i) = 1 + max front among points dominating i."""
    n = len(points)
    matrix = _dominance_matrix(points)
    dominators = [[j for j in range(n) if matrix[j][i]] for i in range(n)]
    front = [-1] * n
    remaining = n
    while remaining:
        for i in range(n):
            if front[i] >= 0:
                continue
            if all(front[j] >= 0 for j in dominators[i]):
                front[i] = 1 + max((front[j] for j in dominators[i]), default=-1)
                remaining -= 1
    return front, matrix


def test_criterion_3_nsga2_kernel_oracles():
    rng = random.Random(33)
    ok = True
    for case in range(200):
        size = rng.randint(1, 500)
        points = [
            tuple(round(rng.random(), rng.choice((1, 3, 12))) for _ in range(2))
            for _ in range(size)
        ]
        if size > 4:
            points[1] = points[0]  # duplicates must be handled
        front_no, matrix = _front_numbers_by_dag(points)
        fronts = fast_nondominated_sort(points)
        if fronts != sort_by_domination_counts(points):
            ok = False  # front order, which crowding ties depend on
            break
        got_fronts = [sorted(f) for f in fronts]
        want_fronts = [
            sorted(i for i in range(size) if front_no[i] == level)
            for level in range(max(front_no) + 1)
        ]
        if got_fronts != want_fronts:
            ok = False
            break
        filter_front = [
            i for i in range(size) if not any(matrix[j][i] for j in range(size))
        ]
        if fronts[0] != filter_front:
            ok = False
            break
    # Hand-derived crowding fixtures.
    if crowding_distance([(0.0, 1.0), (1.0, 0.0)]) != [math.inf, math.inf]:
        ok = False
    collinear = crowding_distance([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
    if not (
        collinear[0] == math.inf
        and collinear[2] == math.inf
        and abs(collinear[1] - 2.0) < 1e-12
    ):
        ok = False
    identical = crowding_distance([(3.0, 3.0)] * 5)
    if identical != [math.inf, 0.0, 0.0, 0.0, math.inf]:
        ok = False
    report("3 (nondominated sort, front, crowding vs oracles)", ok)


def test_criterion_4_selection_scenario():
    scenario = {
        "A": (0.1, 0.2),
        "B": (0.15, 0.25),
        "C": (0.4, 0.9),
        "D": (0.95, 0.05),
    }
    names = list(scenario)
    instance = MmoInstance("linear", 0.5)
    meta = [meta_objectives(instance, ft, fa) for ft, fa in scenario.values()]
    plain = [pmo_objectives(ft, fa) for ft, fa in scenario.values()]
    meta_front = {names[i] for i in fast_nondominated_sort(meta)[0]}
    plain_front = {names[i] for i in fast_nondominated_sort(plain)[0]}
    ok = meta_front == {"A", "C"} and "D" in plain_front and "D" not in meta_front
    report("4 (four-configuration selection scenario)", ok)


def _enumeration_wilcoxon(a, b):
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 1.0
    ordered = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0.0] * len(diffs)
    pos = 0
    while pos < len(ordered):
        end = pos
        while end + 1 < len(ordered) and ordered[end + 1][0] == ordered[pos][0]:
            end += 1
        for k in range(pos, end + 1):
            ranks[ordered[k][1]] = (pos + end) / 2 + 1
        pos = end + 1
    observed = sum(r for r, d in zip(ranks, diffs) if d > 0)
    lower = higher = total = 0
    for signs in itertools.product((0, 1), repeat=len(diffs)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        total += 1
        lower += w <= observed
        higher += w >= observed
    return min(1.0, 2.0 * min(lower, higher) / total)


def test_criterion_5_statistics_oracles():
    rng = random.Random(55)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 12)
        def draw():
            if rng.random() < 0.4:
                return float(rng.randint(0, 3))  # force ties and zeros
            return rng.uniform(0, 4)
        a = [draw() for _ in range(n)]
        b = [draw() for _ in range(n)]
        if abs(wilcoxon_signed_rank(a, b) - _enumeration_wilcoxon(a, b)) > 1e-12:
            ok = False
            break
    for _ in range(200):
        a = [rng.uniform(0, 1) for _ in range(rng.randint(1, 10))]
        b = [rng.uniform(2, 3) for _ in range(rng.randint(1, 10))]
        if abs(a12(a, b)[0] + a12(b, a)[0] - 1.0) > 1e-12:
            ok = False
            break
    boundaries = (
        a12_magnitude(0.56) == "small"
        and a12_magnitude(0.64) == "medium"
        and a12_magnitude(0.71) == "large"
        and a12_magnitude(0.5599) == "negligible"
        and a12_magnitude(1 - 0.56) == "small"
        and a12_magnitude(1 - 0.64) == "medium"
        and a12_magnitude(1 - 0.71) == "large"
    )
    report("5 (wilcoxon enumeration oracle, effect-size laws)", ok and boundaries)


class _CountingOracle:
    def __init__(self):
        self.calls = 0

    def measure(self, config):
        self.calls += 1
        return MeasurementRecord(float(hash(config) % 97), 0.0)


def test_criterion_6_budget_and_caching_law(tmp_path):
    space = make_binary_space(6)
    rng = random.Random(66)
    ok = True
    for limit in (0, 1, 7, 40):
        oracle = _CountingOracle()
        run = _Run(space, limit, oracle, OptimizerConfig())
        seen = set()
        # Adversarial stream: heavy duplication, alternating hot keys.
        hot = [space.random_config(rng) for _ in range(3)]
        for step in range(500):
            config = hot[step % 3] if step % 2 else space.random_config(rng)
            try:
                run.measure(config)
            except BudgetExhausted:
                # Only a miss at the limit stops a run.
                if config in seen or len(seen) != limit:
                    ok = False
                continue
            seen.add(config)
            if len(run.trace.rows) != len(seen) or len(seen) > limit:
                ok = False
        if not oracle.calls == len(run.trace.rows) == len(seen) <= limit:
            ok = False
    try:
        _Run(space, -1, _CountingOracle(), OptimizerConfig())
        ok = False
    except ValueError:
        pass
    # Byte-identical traces for repeated seeded executions.
    plan_oracle = SyntheticOracle(space, seed=9, correlation=0.3)
    for model in ("single:rs", "mmo:linear"):
        paths = []
        for tag in ("x", "y"):
            trace = execute_run(
                space, plan_oracle, 30, 5, model,
                0.5 if model.startswith("mmo") else None, seed=123,
            )
            path = tmp_path / f"{model.replace(':', '_')}_{tag}.csv"
            emit_trace(trace, str(path))
            paths.append(path)
        if paths[0].read_bytes() != paths[1].read_bytes():
            ok = False
    report("6 (distinct-measurement budget law, trace determinism)", ok)


def test_criterion_7_desk_scale_headline_behavior():
    space = make_binary_space(12)
    started = time.time()
    mmo_wins = 0
    pmo_not_better = 0
    landscapes = (101, 102, 103, 104, 105)
    for landscape_seed in landscapes:
        plan = ExperimentPlan(
            space=space,
            oracle_spec={
                "kind": "synthetic",
                "seed": landscape_seed,
                "density": 0.05,
                "ruggedness": 0.35,
                "correlation": 0.3,
            },
            budget=400,
            population_size=20,
            repeats=30,
            models=SINGLE_MODELS + ("pmo", "mmo:linear"),
            weights=WEIGHT_SET,
            master_seed=1000 + landscape_seed,
        )
        oracle = build_oracle(plan)
        weight = preliminary_weight_selection(plan, oracle=oracle)["mmo:linear"]
        results: dict[str, list[float]] = {}
        for model in SINGLE_MODELS + ("pmo",):
            results[model] = [
                execute_run(
                    space, oracle, plan.budget, plan.population_size, model, None,
                    derive_seed(plan.master_seed, model, "-", run),
                ).summary().best_target
                for run in range(plan.repeats)
            ]
        results["mmo:linear"] = [
            execute_run(
                space, oracle, plan.budget, plan.population_size, "mmo:linear", weight,
                derive_seed(plan.master_seed, "mmo:linear", repr(weight), run),
            ).summary().best_target
            for run in range(plan.repeats)
        ]
        counterpart = pick_best_counterpart({m: results[m] for m in SINGLE_MODELS})
        counterpart_median = statistics.median(results[counterpart])
        mmo_median = statistics.median(results["mmo:linear"])
        pmo_median = statistics.median(results["pmo"])
        mmo_wins += mmo_median <= counterpart_median
        pmo_not_better += pmo_median >= mmo_median
    elapsed = time.time() - started
    ok = mmo_wins >= 4 and pmo_not_better >= 3 and elapsed < 600.0
    print(
        f"\n  landscapes won by meta model: {mmo_wins}/5; plain model not better: "
        f"{pmo_not_better}/5; {elapsed:.0f}s"
    )
    report("7 (desk-scale headline behavior)", ok)


def test_criterion_8_data_driven_weight_selection(tmp_path):
    space = make_binary_space(12)  # 4096-configuration table
    landscape = SyntheticOracle(
        space, seed=88, density=0.05, ruggedness=0.4, correlation=0.3
    )
    rows = {
        c: (landscape.target(c), landscape.auxiliary(c))
        for c in space.enumerate_all()
    }
    table_path = write_table(tmp_path / "table12.csv", space, rows)
    plan = ExperimentPlan(
        space=space,
        oracle_spec={"kind": "table", "path": table_path},
        budget=400,
        population_size=20,
        repeats=30,
        models=("mmo:linear",),
        weights=WEIGHT_SET,
        master_seed=7,
    )
    table = build_oracle(plan)
    live = preliminary_weight_selection(plan, oracle=table)
    started = time.time()
    chosen, elapsed = data_driven_weight_selection(table, plan)
    wall = time.time() - started
    ok = chosen == live and wall < 3.0 and elapsed < 3.0
    print(f"\n  chosen={chosen} live={live} elapsed={elapsed:.3f}s")
    report("8 (data-driven weight selection, < 3 s)", ok)


def test_criterion_9_global_optimum_sanity():
    space = make_binary_space(8)
    oracle = SyntheticOracle(
        space, seed=99, density=0.1, ruggedness=0.6, correlation=0.3
    )
    planted_value = oracle.target(oracle.planted)
    ok = True
    for model, weight in (
        ("single:rs", None),
        ("single:shc-r", None),
        ("single:sa", None),
        ("single:soga", None),
        ("pmo", None),
        ("mmo:linear", 0.5),
        ("mmo:sqrt", 0.5),
        ("mmo:square", 0.5),
    ):
        trace = execute_run(space, oracle, 256, 10, model, weight, seed=5)
        if trace.summary().best_target != planted_value or len(trace.rows) != 256:
            ok = False
    report("9 (global-optimum sanity with exhaustive budget)", ok)
