"""Generated differential tests: each fast path against the reference it must
match, on inputs drawn by ``hypothesis``.

The search is derandomized and keeps no example database, so equal code
gives an equal result. It has no deadline, so that a loaded machine cannot
fail an example for its time. Without ``hypothesis`` the module is skipped.
"""

from __future__ import annotations

import csv
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import mmo_tune.measurement  # noqa: E402
from mmo_tune.harness import execute_run  # noqa: E402
from mmo_tune.measurement import SyntheticOracle, load_table  # noqa: E402
from mmo_tune.models import fast_nondominated_sort  # noqa: E402
from mmo_tune.space import OptionSpace, OptionSpec  # noqa: E402
from mmo_tune.trace import emit_trace, load_summary  # noqa: E402

from conftest import sort_by_domination_counts, write_table  # noqa: E402

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
