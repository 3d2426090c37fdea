"""Tests for configuration spaces: parsing, sizing, sampling, neighborhoods."""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import random
import re

import pytest

from mmo_tune.measurement import MeasurementRecord
from mmo_tune import optimizers
from mmo_tune.optimizers import _Run, _sample_distinct
from mmo_tune.space import (
    Configuration,
    InvalidConfigurationError,
    OptionSpace,
    OptionSpec,
    SpaceError,
    load_space,
    parse_space,
    randbelow,
    space_to_doc,
)

from conftest import (
    make_binary_space,
    reference_fresh_uniform,
    reference_neighbor,
    reference_offspring,
    reference_random_config,
)


def doc(options) -> str:
    return json.dumps({"options": options})


class TestParseSpace:
    def test_single_binary_option(self):
        space = parse_space(doc([{"name": "cache", "kind": "binary"}]))
        assert space.size() == 2
        assert space.names == ("cache",)

    def test_two_digit_options(self):
        space = parse_space(
            doc(
                [
                    {"name": "a", "kind": "integer", "lower": 0, "upper": 9},
                    {"name": "b", "kind": "integer", "lower": 0, "upper": 9},
                ]
            )
        )
        assert space.size() == 100

    def test_duplicate_name_reports_offender(self):
        with pytest.raises(SpaceError, match="'a'"):
            parse_space(
                doc(
                    [
                        {"name": "a", "kind": "binary"},
                        {"name": "a", "kind": "binary"},
                    ]
                )
            )

    def test_lower_above_upper_reports_offender(self):
        with pytest.raises(SpaceError, match="'bad'"):
            parse_space(doc([{"name": "bad", "kind": "integer", "lower": 5, "upper": 2}]))

    def test_empty_option_list(self):
        with pytest.raises(SpaceError):
            parse_space(doc([]))

    def test_binary_bounds_fixed(self):
        with pytest.raises(SpaceError, match="'x'"):
            parse_space(doc([{"name": "x", "kind": "binary", "lower": 0, "upper": 3}]))

    @pytest.mark.parametrize("kind", ["binary", "integer"])
    def test_boolean_bounds_rejected(self, kind):
        option = {"name": "flag", "kind": kind, "lower": False, "upper": True}
        with pytest.raises(SpaceError, match="'flag': bounds must be integers"):
            parse_space(doc([option]))

    def test_not_json(self):
        with pytest.raises(SpaceError):
            parse_space("nope")

    def test_file_that_is_not_json_is_named(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text("nope")
        message = f"{path}: space document is not valid JSON: Expecting value"
        with pytest.raises(SpaceError, match=f"^{re.escape(message)}"):
            load_space(str(path))

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_bytes(b'{"options": [{"name": "\xff"}]}')
        message = f"{path}: 'utf-8' codec can't decode byte 0xff in position 23: "
        with pytest.raises(SpaceError, match=f"^{re.escape(message)}"):
            load_space(str(path))

    def test_declaration_order_preserved(self):
        space = parse_space(
            doc(
                [
                    {"name": "z", "kind": "binary"},
                    {"name": "a", "kind": "integer", "lower": 1, "upper": 3},
                ]
            )
        )
        assert space.names == ("z", "a")


class TestSpaceSize:
    def test_one_binary(self):
        assert make_binary_space(1).size() == 2

    def test_product_rule(self):
        space = OptionSpace(
            (OptionSpec("a", "binary", 0, 1), OptionSpec("b", "integer", 1, 3))
        )
        assert space.size() == 6

    def test_thirteen_option_lstm_shape(self):
        # 2^7 * 5 * 11 = 7040 over 13 options (four of them degenerate).
        options = [OptionSpec(f"b{i}", "binary", 0, 1) for i in range(7)]
        options.append(OptionSpec("units", "integer", 1, 5))
        options.append(OptionSpec("lookback", "integer", 0, 10))
        options += [OptionSpec(f"fixed{i}", "integer", 3, 3) for i in range(4)]
        assert len(options) == 13
        assert OptionSpace(tuple(options)).size() == 7040


class TestConfigValidation:
    def test_wrong_length(self, binary3):
        with pytest.raises(InvalidConfigurationError):
            binary3.config([0, 1])

    def test_out_of_bounds(self, binary3):
        with pytest.raises(InvalidConfigurationError, match="'o1'"):
            binary3.config([0, 2, 0])

    def test_valid(self, binary3):
        assert binary3.config([1, 0, 1]) == (1, 0, 1)


class TestRandomConfig:
    def test_deterministic_per_seed(self, binary8):
        a = [binary8.random_config(random.Random(5)) for _ in range(20)]
        b = [binary8.random_config(random.Random(5)) for _ in range(20)]
        # A fresh generator with the same seed replays the same sequence.
        first = random.Random(5)
        second = random.Random(5)
        assert [binary8.random_config(first) for _ in range(20)] == [
            binary8.random_config(second) for _ in range(20)
        ]
        assert a[0] == b[0]

    def test_degenerate_range(self):
        space = OptionSpace((OptionSpec("five", "integer", 5, 5),))
        rng = random.Random(0)
        assert all(space.random_config(rng) == (5,) for _ in range(50))

    def test_uniform_within_three_sigma(self):
        space = OptionSpace(
            (OptionSpec("bit", "binary", 0, 1), OptionSpec("digit", "integer", 0, 9))
        )
        rng = random.Random(123)
        draws = 10_000
        bit_ones = 0
        digit_counts = [0] * 10
        for _ in range(draws):
            config = space.random_config(rng)
            bit_ones += config[0]
            digit_counts[config[1]] += 1
        assert abs(bit_ones - 5000) <= 3 * math.sqrt(draws * 0.25)
        sigma = math.sqrt(draws * 0.1 * 0.9)
        for count in digit_counts:
            assert abs(count - 1000) <= 3 * sigma

    def test_seeds_diverge_on_large_space(self):
        space = make_binary_space(24)  # 2^24 configurations
        rng_a, rng_b = random.Random(1), random.Random(2)
        seq_a = [space.random_config(rng_a) for _ in range(50)]
        seq_b = [space.random_config(rng_b) for _ in range(50)]
        assert seq_a != seq_b


def hamming(a: Configuration, b: Configuration) -> int:
    return sum(x != y for x, y in zip(a, b))


class TestNeighbors:
    def test_radius_one_exact_distance(self, binary3):
        rng = random.Random(9)
        config = binary3.config([0, 1, 0])
        neighbor = binary3.neighbor_sampler(1)
        for _ in range(200):
            assert hamming(config, neighbor(config, rng)) == 1

    def test_full_radius_never_returns_input(self, binary8):
        rng = random.Random(10)
        config = binary8.random_config(rng)
        neighbor = binary8.neighbor_sampler(8)
        for _ in range(300):
            drawn = neighbor(config, rng)
            assert drawn != config
            binary8.validate(drawn)

    def test_distance_distribution_covers_range(self):
        space = OptionSpace(
            (OptionSpec("a", "integer", 0, 4), OptionSpec("b", "integer", 0, 4))
        )
        rng = random.Random(3)
        config = space.config([2, 2])
        neighbor = space.neighbor_sampler(2)
        distances = {hamming(config, neighbor(config, rng)) for _ in range(400)}
        assert distances == {1, 2}

    def test_radius_clamped_with_warning(self, binary3):
        # A radius above the option count draws as the option count does,
        # draw for draw.
        config = binary3.config([0, 0, 0])
        wide, exact = binary3.neighbor_sampler(99), binary3.neighbor_sampler(3)
        rng, ref = random.Random(4), random.Random(4)
        neighbors = [wide(config, rng) for _ in range(50)]
        assert neighbors == [exact(config, ref) for _ in range(50)]
        assert rng.getstate() == ref.getstate()
        assert all(1 <= hamming(config, n) <= 3 for n in neighbors)

    def test_changed_value_excludes_current(self):
        space = OptionSpace((OptionSpec("a", "integer", 0, 9),))
        rng = random.Random(11)
        config = space.config([4])
        neighbor = space.neighbor_sampler(1)
        values = {neighbor(config, rng)[0] for _ in range(500)}
        assert 4 not in values
        assert values == set(range(10)) - {4}

    def test_size_one_space_returns_input(self):
        space = OptionSpace((OptionSpec("only", "integer", 2, 2),))
        rng = random.Random(0)
        config = space.config([2])
        neighbor = space.neighbor_sampler(1)
        assert [neighbor(config, rng) for _ in range(3)] == [config, config, config]
        assert rng.getstate() == random.Random(0).getstate()

    def test_bad_radius(self, binary3):
        # Refused when the sampler is built, before any draw.
        with pytest.raises(ValueError, match="radius must be >= 1, got 0"):
            binary3.neighbor_sampler(0)

    def test_single_value_options_never_change(self):
        space = OptionSpace(
            (
                OptionSpec("a", "integer", 0, 3),
                OptionSpec("fixed", "integer", 5, 5),
                OptionSpec("b", "binary", 0, 1),
                OptionSpec("pinned", "integer", 2, 2),
            )
        )
        config = space.config([1, 5, 0, 2])
        rng = random.Random(5)
        neighbor = space.neighbor_sampler(4)
        neighbors = [neighbor(config, rng) for _ in range(400)]
        assert all((n[1], n[3]) == (5, 2) for n in neighbors)
        # k is drawn up to the two mutable positions, not up to the radius.
        assert {hamming(config, n) for n in neighbors} == {1, 2}

    def test_cached_positions_leave_identity_unchanged(self):
        def build():
            return OptionSpace(
                (OptionSpec("a", "integer", 1, 8), OptionSpec("c", "integer", 3, 3))
            )

        used, fresh = build(), build()
        used.neighbor_sampler(1)((1, 3), random.Random(0))
        assert [f.name for f in dataclasses.fields(OptionSpace)] == ["options"]
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert space_to_doc(used) == space_to_doc(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used
        draws = []
        for space in (restored, used):
            neighbor, rng = space.neighbor_sampler(1), random.Random(0)
            draws.append([neighbor((1, 3), rng) for _ in range(5)])
        assert draws[0] == draws[1]


# Options of widths 1, 2, 3, 5, 8 and 9. Changing the binary option draws its
# new value from a range of one, which still draws.
DRAW_SPACE = OptionSpace(
    (
        OptionSpec("w1", "integer", 4, 4),
        OptionSpec("w2", "binary", 0, 1),
        OptionSpec("w3", "integer", -1, 1),
        OptionSpec("w5", "integer", 0, 4),
        OptionSpec("w8", "integer", 1, 8),
        OptionSpec("w9", "integer", 10, 18),
    )
)


class TestDrawsMatchRandom:
    """Each integer draw made from ``getrandbits`` returns what the
    ``random.Random`` method it replaces returns, and leaves the generator
    where that method leaves it, so every later draw is the same."""

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8, 9, 20, 33, 50, 2**40 + 3))
    def test_randbelow_is_randrange(self, n):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            got = [randbelow(rng.getrandbits, n, n.bit_length()) for _ in range(30)]
            assert got == [ref.randrange(n) for _ in range(30)]
            assert rng.getstate() == ref.getstate()

    def test_random_config_is_randint(self):
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert DRAW_SPACE.random_config(rng) == reference_random_config(
                    DRAW_SPACE, ref
                )
                assert rng.getstate() == ref.getstate()

    # Radii below, at and above the option count (six options, five mutable).
    @pytest.mark.parametrize("radius", (1, 2, 5, 6, 9))
    def test_neighbors(self, radius):
        neighbor = DRAW_SPACE.neighbor_sampler(radius)
        for seed in range(40):
            config = DRAW_SPACE.random_config(random.Random(seed + 1000))
            rng, ref = random.Random(seed), random.Random(seed)
            for count in (1, 3):
                got = [neighbor(config, rng) for _ in range(count)]
                want = [
                    reference_neighbor(DRAW_SPACE, config, radius, ref)
                    for _ in range(count)
                ]
                assert got == want
                assert rng.getstate() == ref.getstate()
                config = got[-1]

    # Over 21 mutable options the positions of two or more changes come from
    # sample itself, which swaps in a pool (30 options: k above 5; 220: k
    # from 22) or rejects repeats from a set (smaller k). Radius 1 makes one
    # change: one position draw, as in sample's set branch here and in its
    # pool swap on DRAW_SPACE's five (``test_neighbors``).
    @pytest.mark.parametrize("options", (30, 220))
    def test_neighbors_over_both_sample_branches(self, options):
        class OneChangeNeverSamples(random.Random):
            def sample(self, population, k, **kwargs):
                assert k > 1, "one change draws its position without sample"
                return super().sample(population, k, **kwargs)

        space = make_binary_space(options)
        for radius in (1, options):
            neighbor = space.neighbor_sampler(radius)
            for seed in range(10):
                config = space.random_config(random.Random(seed + 2000))
                rng, ref = OneChangeNeverSamples(seed), random.Random(seed)
                got = [neighbor(config, rng) for _ in range(40)]
                want = [
                    reference_neighbor(space, config, radius, ref) for _ in range(40)
                ]
                assert got == want
                assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("size", (2, 20, 33, 50))
    def test_tournament(self, size, monkeypatch):
        # With both variation rates at 0 each child is its tournament's
        # winner, here the one-option configuration that is its index.
        monkeypatch.setattr(optimizers, "CROSSOVER_RATE", 0.0)
        monkeypatch.setattr(optimizers, "MUTATION_RATE", 0.0)
        space = OptionSpace((OptionSpec("index", "integer", 0, size - 1),))
        parents = list(space.enumerate_all())
        for seed in range(20):
            setup = random.Random(seed + 3000)
            keys = [(setup.randrange(3), setup.randrange(2)) for _ in range(size)]
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got = optimizers._offspring(space, parents, keys, rng)
                assert got == reference_offspring(space, parents, keys, ref, 0.0, 0.0)
                assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("options", (1, 3, 5))
    def test_sample_distinct_shuffles_a_small_space(self, options):
        space = make_binary_space(options)
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            want = list(space.enumerate_all())
            ref.shuffle(want)
            want += [reference_random_config(space, ref) for _ in range(40 - len(want))]
            assert _sample_distinct(space, rng, 40) == want
            assert rng.getstate() == ref.getstate()

    def test_fresh_uniform(self):
        every = list(DRAW_SPACE.enumerate_all())
        fallbacks = 0
        for seed in range(30):
            setup = random.Random(seed + 4000)
            measured = set(setup.sample(every, len(every) - setup.randint(1, 3)))
            run = _Run(DRAW_SPACE, len(every), None, seed=seed)
            for config in measured:
                run.trace.record(config, MeasurementRecord(0.0, 0.0))
            ref = random.Random(seed)
            want, fell_back = reference_fresh_uniform(DRAW_SPACE, measured, ref)
            assert run.fresh_uniform() == want
            assert run.rng.getstate() == ref.getstate()
            fallbacks += fell_back
        assert fallbacks > 15


class TestLexicographicIndex:
    def test_index_and_config_at_follow_enumeration_order(self):
        space = OptionSpace(
            (
                OptionSpec("a", "integer", 1, 3),
                OptionSpec("b", "integer", -2, 2),
                OptionSpec("c", "binary", 0, 1),
            )
        )
        for position, config in enumerate(space.enumerate_all()):
            assert space.index(config) == position
            assert space.config_at(position) == config

    def test_config_at_outside_the_space(self, binary3):
        with pytest.raises(IndexError):
            binary3.config_at(8)
        with pytest.raises(IndexError):
            binary3.config_at(-1)

    def test_large_space_decodes_without_enumerating(self):
        space = OptionSpace(tuple(OptionSpec(f"o{i}", "integer", 0, 9) for i in range(12)))
        config = space.config_at(123456789012)
        assert config == (1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2)
        assert space.index(config) == 123456789012


class TestTupleBoundary:
    def test_methods_take_and_return_plain_tuples(self):
        space = OptionSpace(
            (OptionSpec("a", "integer", 0, 3), OptionSpec("b", "binary", 0, 1))
        )
        assert type(space.config(["2", 1])) is tuple
        assert space.config(["2", 1]) == (2, 1)
        rng = random.Random(0)
        assert type(space.random_config(rng)) is tuple
        neighbor = space.neighbor_sampler(2)
        assert all(type(neighbor((2, 1), rng)) is tuple for _ in range(20))
        assert list(space.enumerate_all())[:3] == [(0, 0), (0, 1), (1, 0)]
        assert space.index((3, 1)) == 7
        for i in range(space.size()):
            assert type(space.config_at(i)) is tuple
            assert space.index(space.config_at(i)) == i
