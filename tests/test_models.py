"""Tests for direction conversion, scaling, meta-objectives, and the
nondominated sort's dominance relation."""

from __future__ import annotations

import math
import random

import pytest

from mmo_tune.measurement import MeasurementRecord
from mmo_tune.models import (
    MmoInstance,
    NormalizationBounds,
    fast_nondominated_sort,
    meta_objectives,
    pmo_objectives,
    to_minimization,
)

from conftest import run_optimized

WEIGHTS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 10.0)
SHAPES = ("linear", "sqrt", "square")


class TestToMinimization:
    def test_latency_throughput_pair(self):
        record = MeasurementRecord(30.0, 3.33)
        assert to_minimization(record, ("minimize", "maximize")) == (30.0, -3.33)

    def test_both_minimize_is_identity(self):
        record = MeasurementRecord(4.0, 5.0)
        assert to_minimization(record, ("minimize", "minimize")) == (4.0, 5.0)

    def test_double_negation_is_identity(self):
        record = MeasurementRecord(4.0, 5.0)
        t, a = to_minimization(record, ("maximize", "maximize"))
        assert (-t, -a) == (4.0, 5.0)


class TestNormalizationBounds:
    def test_first_observation_pins_both_bounds(self):
        bounds = NormalizationBounds()
        bounds.observe((5.0, 7.0))
        assert bounds.mins == [5.0, 7.0]
        assert bounds.maxs == [5.0, 7.0]

    def test_widening(self):
        bounds = NormalizationBounds()
        bounds.observe((5.0, 7.0))
        bounds.observe((3.0, 9.0))
        assert bounds.mins == [3.0, 7.0]
        assert bounds.maxs == [5.0, 9.0]

    def test_contained_point_changes_nothing(self):
        bounds = NormalizationBounds()
        bounds.observe((5.0, 7.0))
        bounds.observe((3.0, 9.0))
        bounds.observe((4.0, 8.0))
        assert bounds.mins == [3.0, 7.0]
        assert bounds.maxs == [5.0, 9.0]

    def test_observe_reports_whether_a_bound_moved(self):
        bounds = NormalizationBounds()
        assert bounds.observe((5.0, 7.0)) is True
        assert bounds.observe((5.0, 7.0)) is False
        assert bounds.observe((4.0, 7.0)) is True  # one lower bound
        assert bounds.observe((4.5, 7.0)) is False  # inside
        assert bounds.observe((4.5, 8.0)) is True  # one upper bound
        assert bounds.observe((4.0, 8.0)) is False  # on both bounds
        assert bounds.observe((6.0, 6.0)) is True  # two bounds
        assert (bounds.mins, bounds.maxs) == ([4.0, 6.0], [6.0, 8.0])

    def test_scaling(self):
        bounds = NormalizationBounds()
        bounds.observe((0.0, 0.0))
        bounds.observe((10.0, 1.0))
        assert bounds.normalize(2.5, 0) == 0.25
        assert bounds.normalize(0.0, 0) == 0.0
        assert bounds.normalize(10.0, 0) == 1.0

    def test_degenerate_range_maps_to_half(self):
        bounds = NormalizationBounds()
        bounds.observe((4.0, 1.0))
        assert bounds.normalize(4.0, 0) == 0.5

    def test_out_of_bounds_is_contract_violation(self):
        bounds = NormalizationBounds()
        bounds.observe((0.0, 0.0))
        with pytest.raises(ValueError, match="outside bounds"):
            bounds.normalize(1.0, 0)

    def test_out_of_bounds_raises_under_optimize_flag(self):
        # `python -O` strips assert statements; the check must survive it.
        script = (
            "from mmo_tune.models import NormalizationBounds\n"
            "b = NormalizationBounds()\n"
            "b.observe((0.0, 0.0))\n"
            "b.normalize(1.0, 0)\n"
        )
        proc = run_optimized(script)
        assert proc.returncode == 1
        assert "ValueError: value 1.0 outside bounds" in proc.stderr

    def test_monotone_in_value(self):
        bounds = NormalizationBounds()
        bounds.observe((0.0, 0.0))
        bounds.observe((7.0, 1.0))
        rng = random.Random(1)
        values = sorted(rng.uniform(0, 7) for _ in range(200))
        normalized = [bounds.normalize(v, 0) for v in values]
        assert normalized == sorted(normalized)


class TestMetaObjectives:
    def test_linear_worked_example(self):
        point = meta_objectives(MmoInstance("linear", 0.5), 0.2, 0.8)
        assert point == pytest.approx((0.6, -0.2))

    def test_sqrt_worked_example(self):
        point = meta_objectives(MmoInstance("sqrt", 1.0), 0.5, 0.25)
        assert point == pytest.approx((1.0, 0.0))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_zero_auxiliary_collapses_to_target(self, shape):
        point = meta_objectives(MmoInstance(shape, 0.7), 0.3, 0.0)
        assert point == (0.3, 0.3)

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            MmoInstance("linear", 0.0)

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_weight_must_be_finite(self, weight):
        with pytest.raises(ValueError, match="weight must be finite and > 0"):
            MmoInstance("linear", weight)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            MmoInstance("cubic", 1.0)


class TestPmoObjectives:
    @pytest.mark.parametrize("pair", [(0.3, 0.7), (0.0, 1.0), (1.0, 0.0)])
    def test_identity(self, pair):
        assert pmo_objectives(*pair) == pair


def dominates(u, v):
    """Whether u dominates v, as the nondominated sort decides it."""
    return fast_nondominated_sort([u, v]) == [[0], [1]]


def incomparable(u, v):
    """Whether u and v are mutually nondominated, as the sort decides it."""
    return fast_nondominated_sort([u, v]) == [[0, 1]]


class TestDominance:
    def test_clear_domination(self):
        assert dominates((0.1, 0.2), (0.3, 0.4))
        assert fast_nondominated_sort([(0.3, 0.4), (0.1, 0.2)]) == [[1], [0]]

    def test_trade_off_is_nondominated(self):
        assert incomparable((0.1, 0.4), (0.3, 0.2))

    def test_equal_points_nondominated(self):
        assert incomparable((0.1, 0.2), (0.1, 0.2))

    def test_sort_rejects_points_that_are_not_pairs(self):
        with pytest.raises(ValueError, match="must be a pair"):
            fast_nondominated_sort([(0.1, 0.2, 0.3)])
        with pytest.raises(ValueError, match="must be a pair"):
            fast_nondominated_sort([(0.1, 0.2), (0.1,)])
        with pytest.raises(ValueError, match="must be a pair"):
            fast_nondominated_sort([(0.1, 0.2), (0.1, 0.2, 0.3)])

    def test_relation_properties_randomized(self):
        rng = random.Random(7)
        for _ in range(2000):
            u = (rng.random(), rng.random())
            v = (rng.random(), rng.random())
            w = (rng.random(), rng.random())
            assert incomparable(u, u)
            # u dominates v, v dominates u, or neither; the same in either order
            assert dominates(u, v) + dominates(v, u) + incomparable(u, v) == 1
            assert dominates(u, v) == (fast_nondominated_sort([v, u]) == [[1], [0]])
            assert incomparable(u, v) == incomparable(v, u)
            if dominates(u, v) and dominates(v, w):
                assert dominates(u, w)


def brute_force_front(points):
    front = []
    for i, p in enumerate(points):
        kept = True
        for j, q in enumerate(points):
            if i == j:
                continue
            if all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p)):
                kept = False
                break
        if kept:
            front.append(i)
    return front


# Normalized (target, auxiliary) values for the four-configuration selection
# scenario; under the meta model with w = 0.5 only A and C stay optimal while
# the plain model also keeps D despite its hopeless target value.
SCENARIO = {
    "A": (0.1, 0.2),
    "B": (0.15, 0.25),
    "C": (0.4, 0.9),
    "D": (0.95, 0.05),
}


class TestParetoFront:
    def test_single_point(self):
        assert fast_nondominated_sort([(1.0, 2.0)])[0] == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fast_nondominated_sort([])

    def test_meta_model_selection_scenario(self):
        instance = MmoInstance("linear", 0.5)
        names = list(SCENARIO)
        meta = [meta_objectives(instance, ft, fa) for ft, fa in SCENARIO.values()]
        assert meta[names.index("A")] == pytest.approx((0.2, 0.0))
        assert meta[names.index("B")] == pytest.approx((0.275, 0.025))
        assert meta[names.index("C")] == pytest.approx((0.85, -0.05))
        assert meta[names.index("D")] == pytest.approx((0.975, 0.925))
        front = {names[i] for i in fast_nondominated_sort(meta)[0]}
        assert front == {"A", "C"}

    def test_plain_model_keeps_extreme_auxiliary_point(self):
        names = list(SCENARIO)
        plain = [pmo_objectives(ft, fa) for ft, fa in SCENARIO.values()]
        front = {names[i] for i in fast_nondominated_sort(plain)[0]}
        assert "D" in front
        assert "A" in front

    def test_matches_brute_force_on_random_sets(self):
        rng = random.Random(12)
        for _ in range(60):
            size = rng.randint(1, 120)
            points = [(rng.random(), rng.random()) for _ in range(size)]
            if size > 3 and rng.random() < 0.5:
                points[0] = points[1]  # inject duplicates
            assert fast_nondominated_sort(points)[0] == brute_force_front(points)


def random_pairs(rng, count):
    for _ in range(count):
        yield rng.random(), rng.random()


class TestMetaModelInvariants:
    """Small, fast versions; the acceptance suite runs the full-size ones."""

    def test_minimal_target_member_stays_on_front(self):
        rng = random.Random(3)
        for _ in range(300):
            instance = MmoInstance(rng.choice(SHAPES), rng.choice(WEIGHTS))
            pairs = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 12))]
            meta = [meta_objectives(instance, ft, fa) for ft, fa in pairs]
            best = min(range(len(pairs)), key=lambda i: pairs[i][0])
            assert best in fast_nondominated_sort(meta)[0]

    def test_worse_target_never_dominates(self):
        rng = random.Random(4)
        for _ in range(1000):
            instance = MmoInstance(rng.choice(SHAPES), rng.choice(WEIGHTS))
            ft1, ft2 = sorted((rng.random(), rng.random()))
            if ft1 == ft2:
                continue
            m1 = meta_objectives(instance, ft1, rng.random())
            m2 = meta_objectives(instance, ft2, rng.random())
            assert not dominates(m2, m1)

    def test_fixed_target_distinct_auxiliary_incomparable(self):
        rng = random.Random(5)
        for _ in range(1000):
            instance = MmoInstance(rng.choice(SHAPES), rng.choice(WEIGHTS))
            ft = rng.random()
            fa1, fa2 = rng.random(), rng.random()
            if instance.phi(fa1) == instance.phi(fa2):
                continue
            m1 = meta_objectives(instance, ft, fa1)
            m2 = meta_objectives(instance, ft, fa2)
            assert incomparable(m1, m2)

    def test_dominance_matches_closed_form(self):
        rng = random.Random(6)
        for _ in range(2000):
            instance = MmoInstance(rng.choice(SHAPES), rng.choice(WEIGHTS))
            ft1, ft2 = sorted((rng.random(), rng.random()))
            fa1, fa2 = rng.random(), rng.random()
            m1 = meta_objectives(instance, ft1, fa1)
            m2 = meta_objectives(instance, ft2, fa2)
            expected = (
                abs(instance.phi(fa1) - instance.phi(fa2)) <= ft2 - ft1
                and m1 != m2
            )
            assert dominates(m1, m2) == expected
