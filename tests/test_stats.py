"""Tests for the metric and statistics stack, each paired with an independent oracle."""

from __future__ import annotations

import itertools
import math
import random
from array import array
from statistics import fmean

import pytest

from mmo_tune.harness import MMO_MODELS, SINGLE_MODELS, best_weight_groups
from mmo_tune.trace import RunSummary, weight_token
from mmo_tune.stats import (
    ALPHA,
    a12,
    a12_magnitude,
    compare_results,
    efficiency_ratio,
    f1_sf,
    mean_best_curve,
    normalized_gain,
    pick_best_counterpart,
    scott_knott,
    utopian,
    wilcoxon_signed_rank,
)


class TestUtopian:
    def test_distinct_values(self):
        assert utopian([10.0, 12.0, 15.0]) == 8.0

    def test_duplicates_of_best_are_skipped(self):
        assert utopian([5.0, 5.0, 6.0]) == 4.0

    def test_all_identical_is_undefined(self):
        with pytest.raises(ValueError):
            utopian([7.0])
        with pytest.raises(ValueError):
            utopian([7.0, 7.0])


class TestNormalizedGain:
    def test_worked_example_far_from_utopia(self):
        assert normalized_gain([50.0], [100.0], 20.0) == pytest.approx(62.5, abs=1e-9)

    def test_worked_example_near_utopia(self):
        assert normalized_gain([25.0], [50.0], 20.0) == pytest.approx(
            250.0 / 3.0, abs=1e-9
        )

    def test_equal_results_gain_zero(self):
        assert normalized_gain([3.0, 4.0], [4.0, 3.0], 1.0) == 0.0

    def test_shift_invariance(self):
        rng = random.Random(0)
        x = [rng.uniform(10, 20) for _ in range(10)]
        y = [rng.uniform(10, 20) for _ in range(10)]
        y_o = 5.0
        base = normalized_gain(x, y, y_o)
        for shift in (-3.0, 11.5):
            shifted = normalized_gain(
                [v + shift for v in x], [v + shift for v in y], y_o + shift
            )
            assert shifted == pytest.approx(base, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            normalized_gain([1.0], [1.0, 2.0], 0.0)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            normalized_gain([1.0], [2.0], 2.0)


def oracle_wilcoxon(a, b):
    """Literal enumeration of every sign assignment; independent of the module."""
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return 1.0
    magnitudes = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0.0] * len(diffs)
    pos = 0
    while pos < len(magnitudes):
        end = pos
        while end + 1 < len(magnitudes) and magnitudes[end + 1][0] == magnitudes[pos][0]:
            end += 1
        for k in range(pos, end + 1):
            ranks[magnitudes[k][1]] = (pos + end) / 2 + 1
        pos = end + 1
    observed = sum(r for r, d in zip(ranks, diffs) if d > 0)
    lower = higher = 0
    total = 0
    for signs in itertools.product((0, 1), repeat=len(diffs)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        total += 1
        if w <= observed:
            lower += 1
        if w >= observed:
            higher += 1
    return min(1.0, 2.0 * min(lower, higher) / total)


class TestWilcoxon:
    def test_identical_samples(self):
        assert wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_six_one_sided_differences(self):
        a = [float(i) for i in range(1, 7)]
        b = [v + 1.0 for v in a]
        assert wilcoxon_signed_rank(a, b) == pytest.approx(2.0 / 64.0, abs=1e-15)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(42)
        for _ in range(120):
            n = rng.randint(1, 12)
            a = [rng.choice((rng.uniform(0, 4), float(rng.randint(0, 3)))) for _ in range(n)]
            b = [rng.choice((rng.uniform(0, 4), float(rng.randint(0, 3)))) for _ in range(n)]
            assert wilcoxon_signed_rank(a, b) == pytest.approx(
                oracle_wilcoxon(a, b), abs=1e-12
            )

    def test_two_sided_symmetry(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(2, 15)
            a = [rng.uniform(0, 1) for _ in range(n)]
            b = [rng.uniform(0, 1) for _ in range(n)]
            assert wilcoxon_signed_rank(a, b) == pytest.approx(
                wilcoxon_signed_rank(b, a), abs=1e-12
            )

    def test_exact_and_approx_agree_near_cutover(self):
        rng = random.Random(44)
        a = [rng.uniform(0, 1) for _ in range(25)]
        b = [rng.uniform(0, 1) for _ in range(25)]
        exact = wilcoxon_signed_rank(a, b)
        from mmo_tune import stats as stats_module

        ranks = stats_module._midranks([abs(x - y) for x, y in zip(a, b)])
        w_plus = sum(r for r, (x, y) in zip(ranks, zip(a, b)) if x > y)
        approx = stats_module._approx_two_sided(ranks, w_plus)
        assert approx == pytest.approx(exact, abs=0.02)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])


class TestA12:
    def test_total_separation(self):
        value, magnitude = a12([4.0, 5.0, 6.0], [1.0, 2.0, 3.0])
        assert value == 1.0
        assert magnitude == "large"

    def test_minimization_encoding_through_compare(self):
        stat = compare_results([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert stat.a12 == 1.0
        assert stat.magnitude == "large"

    def test_all_ties(self):
        value, magnitude = a12([2.0], [2.0])
        assert value == 0.5
        assert magnitude == "negligible"

    def test_crafted_small_effect(self):
        b = [float(v) for v in range(1, 11)]
        a = [10.5] * 5 + [8.5, 0.0, 0.0, 0.0, 0.0]
        value, magnitude = a12(a, b)
        assert value == pytest.approx(0.58)
        assert magnitude == "small"

    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.50, "negligible"),
            (0.559, "negligible"),
            (0.56, "small"),
            (0.639, "small"),
            (0.64, "medium"),
            (0.709, "medium"),
            (0.71, "large"),
            (1.0, "large"),
            (0.44, "small"),
            (0.36, "medium"),
            (0.29, "large"),
        ],
    )
    def test_magnitude_thresholds(self, value, expected):
        assert a12_magnitude(value) == expected

    def test_complement_sums_to_one_without_ties(self):
        rng = random.Random(45)
        for _ in range(100):
            a = [rng.uniform(0, 1) for _ in range(rng.randint(1, 12))]
            b = [rng.uniform(2, 3) for _ in range(rng.randint(1, 12))]
            assert a12(a, b)[0] + a12(b, a)[0] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            a12([], [1.0])


# Degrees of freedom checked against scipy: every nu up to 200, then seeded
# random ones up to 10**4, where the series has thousands of terms.
F_TAIL_NUS = list(range(1, 201)) + sorted(
    random.Random(52).sample(range(201, 10_001), 30)
)


class TestF1Tail:
    def test_matches_scipy(self):
        from scipy.stats import f as fdist

        rng = random.Random(53)
        for nu in F_TAIL_NUS:
            critical = float(fdist.isf(ALPHA, 1, nu))
            xs = [10.0 ** e for e in range(-8, 9)]
            xs += [critical * rng.uniform(0.05, 20.0) for _ in range(12)]
            xs += [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(12)]
            expected = fdist.sf(xs, 1, nu)
            for x, want in zip(xs, expected):
                assert abs(f1_sf(x, nu) - float(want)) <= 1e-12, (x, nu)

    @pytest.mark.parametrize("relative", [1e-9, 1e-6, 1e-3])
    def test_decisions_around_critical_value(self, relative):
        from scipy.stats import f as fdist

        for nu in F_TAIL_NUS:
            critical = float(fdist.isf(ALPHA, 1, nu))
            for x in (critical * (1.0 - relative), critical * (1.0 + relative)):
                expected = float(fdist.sf(x, 1, nu)) < ALPHA
                assert (f1_sf(x, nu) < ALPHA) == expected, (x, nu)

    def test_zero_statistic_is_one(self):
        for nu in (1, 2, 3, 4, 57, 1000):
            assert f1_sf(0.0, nu) == 1.0

    def test_very_large_statistic_is_a_nonnegative_tail(self):
        for nu in (1, 2, 3, 4, 57, 1000, 1001):
            for x in (1e6, 1e12, 1e50, 1e300, math.inf):
                value = f1_sf(x, nu)
                assert 0.0 <= value < 1e-3, (x, nu, value)

    def test_nan_statistic_is_never_significant(self):
        for nu in (1, 2):
            assert not f1_sf(math.nan, nu) < ALPHA


def oracle_scott_knott(groups):
    """Independent recursive best-split search with a two-cluster F-test."""
    from scipy.stats import f as fdist

    def significant(left, right):
        total = left + right
        grand = fmean(total)
        between = len(left) * (fmean(left) - grand) ** 2 + len(right) * (
            fmean(right) - grand
        ) ** 2
        within = sum((v - fmean(left)) ** 2 for v in left) + sum(
            (v - fmean(right)) ** 2 for v in right
        )
        if between == 0.0 or len(total) <= 2:
            return False
        if within == 0.0:
            return True
        stat = between / (within / (len(total) - 2))
        return float(fdist.sf(stat, 1, len(total) - 2)) < 0.05

    def recurse(labels, rank, out):
        if len(labels) == 1:
            out[labels[0]] = rank
            return rank + 1
        splits = []
        flat = [v for label in labels for v in groups[label]]
        grand = fmean(flat)
        for i in range(1, len(labels)):
            left = [v for label in labels[:i] for v in groups[label]]
            right = [v for label in labels[i:] for v in groups[label]]
            between = len(left) * (fmean(left) - grand) ** 2 + len(right) * (
                fmean(right) - grand
            ) ** 2
            splits.append((between, i))
        # The first of equal maxima, as a strict > scan finds it.
        _, best = max(splits, key=lambda split: split[0])
        left_labels, right_labels = labels[:best], labels[best:]
        left = [v for label in left_labels for v in groups[label]]
        right = [v for label in right_labels for v in groups[label]]
        if significant(left, right):
            rank = recurse(left_labels, rank, out)
            return recurse(right_labels, rank, out)
        for label in labels:
            out[label] = rank
        return rank + 1

    ordered = sorted(groups, key=lambda label: (fmean(groups[label]), label))
    out = {}
    recurse(ordered, 1, out)
    return out


class TestScottKnott:
    def test_single_group(self):
        assert scott_knott({"only": [1.0, 2.0]}) == {"only": 1}

    def test_identical_groups_share_rank_one(self):
        groups = {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}
        assert scott_knott(groups) == {"a": 1, "b": 1}

    def test_clearly_separated_pair(self):
        rng = random.Random(46)
        groups = {
            "low": [0.1 + rng.gauss(0, 0.01) for _ in range(10)],
            "high": [10.0 + rng.gauss(0, 0.01) for _ in range(10)],
        }
        ranks = scott_knott(groups)
        assert ranks == {"low": 1, "high": 2}
        assert ranks == oracle_scott_knott(groups)

    def test_matches_oracle_on_random_groups(self):
        rng = random.Random(47)
        for _ in range(30):
            groups = {
                f"g{k}": [rng.gauss(rng.choice((0.0, 1.0, 8.0)), 0.5) for _ in range(8)]
                for k in range(rng.randint(1, 5))
            }
            assert scott_knott(groups) == oracle_scott_knott(groups)
        # Equally spaced shifts of one dyadic sample: the sums are exact, so
        # mirror-image splits tie exactly and the first one must win.
        for _ in range(100):
            base = [rng.randrange(8) / 8 for _ in range(rng.randint(2, 6))]
            step = rng.randrange(1, 8) / 8
            groups = {
                f"g{k}": [v + k * step for v in base] for k in range(rng.randint(3, 5))
            }
            assert scott_knott(groups) == oracle_scott_knott(groups)

    def test_mirror_image_tie_takes_the_first_split(self):
        a = [0.0, 0.5, 0.0, 0.5, 0.0]
        groups = {
            "a": a,
            "b": [v + 0.25 for v in a],
            "c": [v + 0.5 for v in a],
        }
        assert scott_knott(groups) == {"a": 1, "b": 2, "c": 2}
        assert oracle_scott_knott(groups) == {"a": 1, "b": 2, "c": 2}

    # Each value has group counts and sizes where the rounding of fmean once
    # split a set of equal values.
    @pytest.mark.parametrize("value", (0.1, 0.9, 1 / 3, 3.3, -7.7, 1234.567))
    def test_one_value_never_splits(self, value):
        for n in range(1, 31):
            for k in range(2, 8):
                groups = {f"g{i}": [value] * n for i in range(k)}
                assert set(scott_knott(groups).values()) == {1}, (n, k)

    def test_one_value_cluster_shares_a_rank(self):
        assert scott_knott({"a": [0.1], "b": [0.1], "c": [0.1]}) == {
            "a": 1, "b": 1, "c": 1
        }
        groups = {"a": [0.1] * 3, "b": [0.1] * 3, "c": [0.1] * 3, "d": [5.0] * 3}
        assert scott_knott(groups) == {"a": 1, "b": 1, "c": 1, "d": 2}

    def test_ranks_contiguous_and_mean_consistent(self):
        rng = random.Random(48)
        for _ in range(30):
            groups = {
                f"g{k}": [rng.gauss(rng.uniform(0, 5), 0.3) for _ in range(6)]
                for k in range(rng.randint(2, 6))
            }
            ranks = scott_knott(groups)
            assert min(ranks.values()) == 1
            assert set(ranks.values()) == set(range(1, max(ranks.values()) + 1))
            ordered = sorted(groups, key=lambda label: fmean(groups[label]))
            assert [ranks[label] for label in ordered] == sorted(
                ranks[label] for label in ordered
            )

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            scott_knott({"a": []})


class TestPickBestCounterpart:
    def test_single_optimizer(self):
        assert pick_best_counterpart({"only": [1.0, 2.0]}) == "only"

    def test_rank_tie_broken_by_mean(self):
        groups = {"worse": [5.0, 5.0, 5.1], "better": [4.0, 4.0, 4.1]}
        # Means 5.03 vs 4.03 are close enough that the split is not significant.
        ranks = scott_knott(groups)
        if len(set(ranks.values())) == 1:
            assert pick_best_counterpart(groups) == "better"

    def test_separated_trio_takes_rank_one(self):
        rng = random.Random(49)
        groups = {
            "mid": [5.0 + rng.gauss(0, 0.01) for _ in range(10)],
            "best": [1.0 + rng.gauss(0, 0.01) for _ in range(10)],
            "worst": [9.0 + rng.gauss(0, 0.01) for _ in range(10)],
        }
        assert scott_knott(groups)["best"] == 1
        assert pick_best_counterpart(groups) == "best"


def rank_first_counterpart(groups):
    """The counterpart pick read off a Scott-Knott ranking: best rank, then
    best mean, then label."""
    ranks = scott_knott(groups)
    return min(groups, key=lambda label: (ranks[label], fmean(groups[label]), label))


def rank_first_weights(report):
    """Per meta model, the weight of its best-ranked group, then best mean,
    then smallest weight."""
    meta = [group for group in report["groups"] if group["model"] in MMO_MODELS]
    return {
        model: min(
            (g["sk_rank"], g["mean"], g["weight"]) for g in meta if g["model"] == model
        )[2]
        for model in dict.fromkeys(g["model"] for g in meta)
    }


def mixed_model_report(rng):
    """The groups of a sweep-weights report: a few single-objective models and
    two meta models over weights whose repr order differs from their numeric
    order, ranked together as ``build_report`` ranks them. Values come from a
    small pool, so ties, equal means and one-value groups are common."""
    repeats = rng.randint(1, 6)
    pool = (0.1, 0.2, 0.7, 1.0, 1.3, 3.3)

    def results():
        shape = rng.random()
        if shape < 0.3:
            return [rng.choice(pool)] * repeats
        if shape < 0.7:
            return [rng.choice(pool) for _ in range(repeats)]
        return [rng.gauss(1.0, 0.5) for _ in range(repeats)]

    weights = sorted(rng.sample((0.1, 0.5, 2.0, 10.0, 20.0), rng.randint(2, 5)))
    keys = [(model, None) for model in rng.sample(SINGLE_MODELS, rng.randint(1, 4))]
    keys += [(model, w) for model in rng.sample(MMO_MODELS, 2) for w in weights]
    values = {}
    for key in keys:
        if values and rng.random() < 0.2:
            values[key] = list(values[rng.choice(list(values))])
        else:
            values[key] = results()
    labels = {
        key: key[0] if key[1] is None else f"{key[0]}@{weight_token(key[1])}"
        for key in keys
    }
    ranks = scott_knott({labels[key]: values[key] for key in keys})
    return {
        "groups": [
            {
                "model": model,
                "weight": weight,
                "mean": fmean(values[(model, weight)]),
                "sk_rank": ranks[labels[(model, weight)]],
            }
            for model, weight in keys
        ]
    }


class TestPicksMatchScottKnott:
    """Both picks equal the picks read off the Scott-Knott ranking."""

    def test_counterpart_pick(self):
        rng = random.Random(50)
        pool = (0.1, 0.2, 0.7, 1.0, 3.3)
        for _ in range(3000):
            repeats = rng.randint(1, 6)
            groups = {}
            for label in rng.sample(SINGLE_MODELS, rng.randint(1, 4)):
                shape = rng.random()
                if shape < 0.3:
                    groups[label] = [rng.choice(pool)] * repeats
                elif shape < 0.5 and groups:
                    groups[label] = list(groups[rng.choice(list(groups))])
                else:
                    groups[label] = [rng.choice(pool) for _ in range(repeats)]
            assert pick_best_counterpart(groups) == rank_first_counterpart(groups), groups

    def test_weight_pick_on_mixed_model_rankings(self):
        rng = random.Random(51)
        for _ in range(3000):
            report = mixed_model_report(rng)
            picks = {model: g["weight"] for model, g in best_weight_groups(report).items()}
            assert picks == rank_first_weights(report), report


def step_trace(best_values):
    """The summary of a run whose best-so-far curve follows ``best_values``."""
    return RunSummary.of(array("d", best_values))


def ratio(model, baseline):
    return efficiency_ratio(mean_best_curve(model), mean_best_curve(baseline))


class TestEfficiencyRatio:
    def test_identical_sets_are_hundred_percent(self):
        traces = [step_trace([10.0, 9.0, 8.0]), step_trace([10.0, 8.0, 8.0])]
        assert ratio(traces, traces) == 100.0

    def test_never_reaching_baseline_is_not_converged(self):
        baseline = [step_trace([5.0, 4.0, 3.0])]
        model = [step_trace([9.0, 8.0, 7.0])]
        assert ratio(model, baseline) is None

    def test_hand_built_step_functions(self):
        baseline = [step_trace([10.0] * 99 + [5.0])]
        model = [step_trace([10.0] * 23 + [5.0] * 27)]
        assert ratio(model, baseline) == pytest.approx(24.0)

    def test_empty_trace_set_rejected(self):
        with pytest.raises(ValueError):
            efficiency_ratio([], mean_best_curve([step_trace([1.0])]))
        with pytest.raises(ValueError):
            mean_best_curve([])

    def test_short_run_keeps_its_final_best(self):
        curve = mean_best_curve([step_trace([6.0, 2.0]), step_trace([4.0])])
        assert curve == [5.0, 3.0]


class TestRunSummary:
    def test_first_reach_of_the_final_best(self):
        run = step_trace([9.0, 4.0, 4.0, 4.0])
        assert (run.best_target, run.measurements_to_best) == (4.0, 2)

    def test_empty_run_has_no_best(self):
        with pytest.raises(ValueError, match="empty trace has no best target"):
            step_trace([])
