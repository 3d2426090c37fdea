"""Generated differential tests: each fast path against the reference it must
match, on inputs drawn by ``hypothesis``.

The search is derandomized and keeps no example database, so equal code
gives an equal result. It has no deadline, so that a loaded machine cannot
fail an example for its time. Without ``hypothesis`` the module is skipped.
"""

from __future__ import annotations

import csv
import random
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import mmo_tune.measurement  # noqa: E402
from mmo_tune.harness import execute_run  # noqa: E402
from mmo_tune.measurement import MeasurementRecord, SyntheticOracle, load_table  # noqa: E402
from mmo_tune.models import fast_nondominated_sort  # noqa: E402
from mmo_tune.optimizers import _offspring, _Run  # noqa: E402
from mmo_tune.space import OptionSpace, OptionSpec  # noqa: E402
from mmo_tune.trace import emit_trace, load_summary  # noqa: E402

from conftest import (  # noqa: E402
    reference_fresh_uniform,
    reference_neighbor,
    reference_offspring,
    reference_random_config,
    sort_by_domination_counts,
    write_table,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=200)

SPACE = OptionSpace((
    OptionSpec("a", "binary", 0, 1),
    OptionSpec("b", "integer", 0, 12),
    OptionSpec("c", "integer", -2, 3),
))

# What an edit inserts: the characters a CSV file's rules turn on, and the
# numbers a cell check must refuse.
TOKENS = (",", "\n", "\r", '"', *"0123456789", "-", "+", ".", "nan", "1e999")


def edits(length: int):
    """Up to three edits of a text of ``length`` characters, each one a
    (position, characters removed, text inserted); a position near the end
    of the file is drawn as often as one anywhere."""
    position = st.one_of(st.integers(0, 6).map(lambda back: max(0, length - back)),
                         st.integers(0, length))
    inserted = st.lists(st.sampled_from(TOKENS), max_size=3).map("".join)
    return st.lists(st.tuples(position, st.integers(0, 3), inserted),
                    min_size=1, max_size=3)


def edited(text: str, changes) -> str:
    for position, removed, inserted in changes:
        text = text[:position] + inserted + text[position + removed:]
    return text


def outcome(read, path: str):
    """What reading ``path`` gives: its value, or its error's type and text."""
    try:
        return read(path, SPACE)
    except (ValueError, csv.Error) as exc:
        return type(exc).__name__, str(exc)


def by_row_loop(read, path: str):
    """``outcome`` with the flat column check refusing every text, so that
    the file goes through the row loop."""
    with mock.patch.object(mmo_tune.measurement, "_csv_columns", lambda *args: None):
        return outcome(read, path)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A trace and a table as their writers write them, and a path to edit."""
    root = tmp_path_factory.mktemp("written")
    trace = execute_run(SPACE, SyntheticOracle(SPACE, seed=1), 6, 20, "single:rs", None, 3)
    emit_trace(trace, str(root / "trace.csv"))
    rows = {config: (target, auxiliary) for config, target, auxiliary in trace.rows.values()}
    write_table(root / "table.csv", SPACE, rows)
    return {name: (root / f"{name}.csv").read_text() for name in ("trace", "table")}, root


def table_rows(path, space):
    return list(load_table(path, space).rows.items())


@pytest.mark.parametrize("name, read", [("trace", load_summary), ("table", table_rows)])
def test_reader_reads_every_edit_as_the_row_loop(written, name, read):
    texts, root = written
    text = texts[name]
    path = str(root / f"edited-{name}.csv")

    @DETERMINISTIC
    @given(edits(len(text)))
    def check(changes):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(edited(text, changes))
        assert outcome(read, path) == by_row_loop(read, path)

    check()


# Objective values with ties: a few values, both zeros, and their negatives.
COORDINATES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5))


@DETERMINISTIC
@given(st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=40),
       st.integers(1, 41))
def test_nondominated_sort_matches_the_counting_loop(points, capacity):
    fronts = sort_by_domination_counts(points)
    assert fast_nondominated_sort(points) == fronts
    held, kept = 0, 0
    while kept < len(fronts) and held < capacity:
        held += len(fronts[kept])
        kept += 1
    assert fast_nondominated_sort(points, capacity) == fronts[:kept]


def spaces(most_options: int):
    """Spaces of up to ``most_options`` options, each of one to nine values.
    A single-value option draws for mutation and never changes; over 21
    options of more than one value, a neighbor of two or more changes takes
    its positions from ``random.sample``."""
    ranges = st.tuples(st.integers(-3, 3), st.integers(1, 9))
    return st.integers(1, most_options).flatmap(
        lambda n: st.lists(ranges, min_size=n, max_size=n)
    ).map(lambda ranges: OptionSpace(tuple(
        OptionSpec(f"o{i}", "integer", lower, lower + width - 1)
        for i, (lower, width) in enumerate(ranges)
    )))


SPACES = spaces(30)
SEEDS = st.integers(0, 2**32 - 1)


@DETERMINISTIC
@given(SPACES, st.lists(st.sampled_from((0.0, 1.0, 2.0)), min_size=2, max_size=9), SEEDS)
def test_offspring_matches_the_reference(space, keys, seed):
    # A population of len(keys), ranked on keys that often tie.
    setup = random.Random(seed)
    parents = [space.random_config(setup) for _ in keys]
    rng, ref = random.Random(seed), random.Random(seed)
    assert _offspring(space, parents, keys, rng) == reference_offspring(space, parents, keys, ref)
    assert rng.getstate() == ref.getstate()


@DETERMINISTIC
@given(SPACES, SEEDS)
def test_random_config_matches_randint(space, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert space.random_config(rng) == reference_random_config(space, ref)
    assert rng.getstate() == ref.getstate()


@DETERMINISTIC
@given(SPACES.filter(lambda space: space.size() > 1), st.integers(1, 26), SEEDS)
def test_neighbor_matches_the_reference(space, radius, seed):
    # A radius above the option count is clamped, with one logged warning.
    neighbor = space.neighbor_sampler(radius)
    config = space.random_config(random.Random(seed + 1))
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        want = reference_neighbor(space, config, radius, ref)
        config = neighbor(config, rng)
        assert config == want
    assert rng.getstate() == ref.getstate()


@DETERMINISTIC
@given(spaces(8).filter(lambda space: space.size() <= 256),
       st.one_of(st.integers(1, 3), st.integers(1, 256)), SEEDS)
def test_fresh_uniform_matches_the_reference(space, left, seed):
    # ``left`` unmeasured configurations: the fewer, the likelier the
    # fallback after 64 rejected draws.
    every = list(space.enumerate_all())
    measured = set(random.Random(seed + 1).sample(every, len(every) - min(left, len(every))))
    run = _Run(space, len(every), None, seed=seed)
    for config in measured:
        run.trace.record(config, MeasurementRecord(0.0, 0.0))
    ref = random.Random(seed)
    assert run.fresh_uniform() == reference_fresh_uniform(space, measured, ref)[0]
    assert run.rng.getstate() == ref.getstate()
