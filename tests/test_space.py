"""Tests for configuration spaces: parsing, sizing, sampling, neighborhoods."""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import random

import pytest

from mmo_tune.space import (
    Configuration,
    InvalidConfigurationError,
    OptionSpace,
    OptionSpec,
    SpaceError,
    parse_space,
    space_to_doc,
)

from conftest import make_binary_space


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
        for neighbor in binary3.neighbors(config, 1, rng, 200):
            assert hamming(config, neighbor) == 1

    def test_full_radius_never_returns_input(self, binary8):
        rng = random.Random(10)
        config = binary8.random_config(rng)
        for neighbor in binary8.neighbors(config, 8, rng, 300):
            assert neighbor != config
            binary8.validate(neighbor)

    def test_distance_distribution_covers_range(self):
        space = OptionSpace(
            (OptionSpec("a", "integer", 0, 4), OptionSpec("b", "integer", 0, 4))
        )
        rng = random.Random(3)
        config = space.config([2, 2])
        distances = {
            hamming(config, n) for n in space.neighbors(config, 2, rng, 400)
        }
        assert distances == {1, 2}

    def test_radius_clamped_with_warning(self, binary3, caplog):
        rng = random.Random(4)
        config = binary3.config([0, 0, 0])
        with caplog.at_level("WARNING"):
            neighbors = binary3.neighbors(config, 99, rng, 50)
        assert "clamped" in caplog.text
        assert all(1 <= hamming(config, n) <= 3 for n in neighbors)

    def test_changed_value_excludes_current(self):
        space = OptionSpace((OptionSpec("a", "integer", 0, 9),))
        rng = random.Random(11)
        config = space.config([4])
        values = {n[0] for n in space.neighbors(config, 1, rng, 500)}
        assert 4 not in values
        assert values == set(range(10)) - {4}

    def test_size_one_space_returns_input(self):
        space = OptionSpace((OptionSpec("only", "integer", 2, 2),))
        rng = random.Random(0)
        config = space.config([2])
        assert space.neighbors(config, 1, rng, 3) == [config, config, config]

    def test_bad_radius(self, binary3):
        with pytest.raises(ValueError):
            binary3.neighbors(binary3.config([0, 0, 0]), 0, random.Random(0), 1)

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
        neighbors = space.neighbors(config, 4, random.Random(5), 400)
        assert all((n[1], n[3]) == (5, 2) for n in neighbors)
        # k is drawn up to the two mutable positions, not up to the radius.
        assert {hamming(config, n) for n in neighbors} == {1, 2}

    def test_cached_positions_leave_identity_unchanged(self):
        def build():
            return OptionSpace(
                (OptionSpec("a", "integer", 1, 8), OptionSpec("c", "integer", 3, 3))
            )

        used, fresh = build(), build()
        used.neighbors((1, 3), 1, random.Random(0), 5)
        assert [f.name for f in dataclasses.fields(OptionSpace)] == ["options"]
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert space_to_doc(used) == space_to_doc(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used
        assert restored.neighbors((1, 3), 1, random.Random(0), 5) == used.neighbors(
            (1, 3), 1, random.Random(0), 5
        )


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
        assert all(type(n) is tuple for n in space.neighbors((2, 1), 2, rng, 20))
        assert list(space.enumerate_all())[:3] == [(0, 0), (0, 1), (1, 0)]
        assert space.index((3, 1)) == 7
        for i in range(space.size()):
            assert type(space.config_at(i)) is tuple
            assert space.index(space.config_at(i)) == i
