"""Generated differential tests: each fast path against the reference it must
match, and each plan or space document against its refusals, on inputs drawn
by ``hypothesis``.

The search is derandomized and keeps no example database, so equal code
gives an equal result. It has no deadline, so that a loaded machine cannot
fail an example for its time. Without ``hypothesis`` the module is skipped.
"""

from __future__ import annotations

import csv
import json
import math
import random
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import mmo_tune.measurement  # noqa: E402
from mmo_tune.harness import ExperimentPlan, build_oracle, execute_run, plan_from_doc  # noqa: E402
from mmo_tune.measurement import MeasurementRecord, SyntheticOracle, load_table  # noqa: E402
from mmo_tune.models import fast_nondominated_sort  # noqa: E402
from mmo_tune.optimizers import _offspring, _Run  # noqa: E402
from mmo_tune.space import (  # noqa: E402
    OptionSpace,
    OptionSpec,
    SpaceError,
    space_from_doc,
    space_to_doc,
)
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
    # A radius above the option count draws as the count of options that
    # can change does.
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


# What an edit puts in a field of a document: every JSON type, huge integers,
# both zeros, numbers spelled as strings, the names a plan uses, and lists
# and objects of these. Each edge value is one a check turns on; a sweep puts
# every one of them in every field of a plan.
EDGE_SCALARS = (
    None, True, False, 0, 1, -1, 2**63, 2**1024, -(10**400), 0.0, -0.0, 0.5, 1e-320,
    1e308, math.inf, -math.inf, math.nan, "", "0", "5", "0.05", "-0.0", "1e999", "nan",
    "true", "synthetic", "table", "command", "single:rs", "minimize", "binary", "integer",
)
JSON_SCALARS = st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(), st.floats(),
                         st.text(max_size=6))
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=4),
    st.recursive(JSON_SCALARS, lambda children: st.lists(children, max_size=3)
                 | st.dictionaries(st.text(max_size=6), children, max_size=3),
                 max_leaves=6),
)

# A written plan.json of each oracle kind.
PLANS = {
    kind: json.loads(ExperimentPlan(
        space=SPACE, oracle_spec=spec, budget=8, population_size=4, repeats=2,
        models=("single:rs", "mmo:linear"), weights=(0.1, 0.9), master_seed=3,
    ).canonical_json())
    for kind, spec in (
        ("synthetic", {"kind": "synthetic", "seed": 1, "density": 0.1, "ruggedness": 0.4,
                       "correlation": 0.3, "planted": [1, 5, 0]}),
        ("command", {"kind": "command", "command": "true", "samples": 1, "timeout": 5.0}),
        ("table", {"kind": "table", "path": "table.csv"}),
    )
}
# (kind, where, name) of each field of those plans: top-level (the same in
# each), or in the oracle spec, ``kind`` included.
PLAN_FIELDS = [("synthetic", "plan", name) for name in sorted(PLANS["synthetic"])] + [
    (kind, "oracle", name) for kind, written in sorted(PLANS.items())
    for name in sorted(written["oracle"])
]


def check_plan_edit(kind: str, where: str, name: str, value) -> None:
    """The plan of kind ``kind`` with one field holding ``value`` is refused
    with ValueError, or is a plan whose oracle builds (a table's is not read)."""
    doc = json.loads(json.dumps(PLANS[kind]))
    (doc if where == "plan" else doc["oracle"])[name] = value
    try:
        plan = plan_from_doc(doc)
    except ValueError:
        return
    if plan.oracle_spec["kind"] != "table":
        build_oracle(plan)


@DETERMINISTIC
@given(st.sampled_from(PLAN_FIELDS), JSON_VALUES)
def test_plan_document_edit_is_a_plan_or_a_value_error(field, value):
    check_plan_edit(*field, value)


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=".".join)
def test_plan_field_holding_each_edge_value_is_a_plan_or_a_value_error(field):
    for value in (*EDGE_SCALARS, *([v] for v in EDGE_SCALARS), {}):
        check_plan_edit(*field, value)


SPACE_DOC = space_to_doc(SPACE)


@DETERMINISTIC
@given(st.one_of(
    st.tuples(st.just(()), st.just("options")),
    st.tuples(st.just(("options",)), st.integers(0, 2)),
    st.tuples(st.tuples(st.just("options"), st.integers(0, 2)),
              st.sampled_from(("name", "kind", "lower", "upper"))),
), JSON_VALUES)
def test_space_document_edit_is_a_space_or_a_space_error(field, value):
    # One field of a written space document, at any depth, holds the value.
    path, name = field
    doc = json.loads(json.dumps(SPACE_DOC))
    parent = doc
    for step in path:
        parent = parent[step]
    parent[name] = value
    try:
        space = space_from_doc(doc)
    except SpaceError:
        return
    assert space_from_doc(space_to_doc(space)) == space
