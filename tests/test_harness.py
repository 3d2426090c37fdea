"""Tests for plans, campaigns, weight selection, and trace persistence."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import pickle
import random
import re
import tracemalloc
from multiprocessing.reduction import ForkingPickler
from statistics import fmean

import pytest

from mmo_tune.cli import main
from mmo_tune.harness import (
    ALL_MODELS,
    DEFAULT_WEIGHTS,
    PRESETS,
    CampaignError,
    ExperimentPlan,
    build_oracle,
    build_report,
    data_driven_weight_selection,
    derive_seed,
    emit_trace,
    execute_run,
    plan_from_doc,
    preliminary_weight_selection,
    recompute_report,
    report_bytes,
    run_campaign,
    trace_filename,
    weight_token,
    write_campaign,
)
from mmo_tune.measurement import (
    MeasurementRecord,
    SyntheticOracle,
    UnmeasuredConfigError,
)
from mmo_tune.optimizers import RunTrace
from mmo_tune.space import OptionSpace, OptionSpec, SpaceError
from mmo_tune.stats import scott_knott
import mmo_tune.harness
import mmo_tune.trace
from mmo_tune.trace import RunSummary, load_summary

from conftest import make_binary_space, run_optimized, write_table


def synthetic_plan(space, models, repeats=3, budget=40, pop=4, seed=5, weights=(0.1, 0.9)):
    return ExperimentPlan(
        space=space,
        oracle_spec={
            "kind": "synthetic",
            "seed": 6,
            "density": 0.1,
            "ruggedness": 0.5,
            "correlation": 0.3,
        },
        budget=budget,
        population_size=pop,
        repeats=repeats,
        models=models,
        weights=weights,
        master_seed=seed,
    )


class TestPlan:
    def test_presets_match_reference_table(self):
        assert PRESETS["storm-wc"] == (50, 600)
        assert PRESETS["keras-lstm"] == (20, 400)
        assert PRESETS["x264"] == (50, 2500)

    def test_model_canonicalization(self, binary8):
        plan = synthetic_plan(binary8, ("SINGLE:RS", "MMO:Linear"))
        assert plan.models == ("single:rs", "mmo:linear")

    def test_unknown_model_rejected(self, binary8):
        with pytest.raises(ValueError):
            synthetic_plan(binary8, ("single:rs", "tabu"))

    def test_budget_must_cover_population(self, binary8):
        with pytest.raises(ValueError, match="population"):
            synthetic_plan(binary8, ("single:soga",), budget=3, pop=10)

    def test_local_search_only_plan_allows_small_budget(self, binary8):
        plan = synthetic_plan(binary8, ("single:rs",), budget=3, pop=10)
        assert plan.budget == 3

    def test_round_trip_through_doc(self, binary8):
        plan = synthetic_plan(binary8, ("single:rs", "mmo:sqrt"))
        clone = plan_from_doc(json.loads(plan.canonical_json()))
        assert clone == plan
        assert clone.plan_hash() == plan.plan_hash()

    def test_direction_flags_carried(self, binary8):
        plan = dataclasses.replace(
            synthetic_plan(binary8, ("single:rs",)), target_direction="maximize"
        )
        clone = plan_from_doc(json.loads(plan.canonical_json()))
        assert clone.target_direction == "maximize"

    def test_rejects_bad_direction(self, binary8):
        plan = synthetic_plan(binary8, ("single:rs",))
        with pytest.raises(ValueError, match="unknown direction 'up'"):
            dataclasses.replace(plan, auxiliary_direction="up")
        doc = dict(plan.to_doc(), target_direction="up")
        with pytest.raises(ValueError, match="unknown direction 'up'"):
            plan_from_doc(doc)

    def test_plan_space_checked_as_a_space_file(self):
        space = OptionSpace((OptionSpec("a", "integer", 0, 7),))
        doc = synthetic_plan(space, ("single:rs",)).to_doc()
        doc["space"]["options"][0]["upper"] = 7.5
        with pytest.raises(SpaceError, match="bounds must be integers"):
            plan_from_doc(doc)

    def test_run_seed_hashes_master_seed_and_run_key(self, binary8):
        plan = synthetic_plan(binary8, ("single:rs", "mmo:sqrt"))
        assert plan.run_seed("mmo:sqrt", 0.1, 2) == derive_seed(5, "mmo:sqrt", "0.1", 2)
        assert plan.run_seed("single:rs", None, 0) == derive_seed(5, "single:rs", "-", 0)

    def test_seed_derivation_stable_and_contextual(self):
        assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
        assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)


class TestTraceFiles:
    def test_round_trip(self, binary8, tmp_path):
        oracle = SyntheticOracle(binary8, seed=1, correlation=0.3)
        trace = execute_run(binary8, oracle, 25, 20, "single:rs", None, 3)
        path = tmp_path / "trace.csv"
        emit_trace(trace, str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [
            [str(step), *map(str, config), repr(oracle.target(config)),
             repr(oracle.auxiliary(config)), str(step), repr(best)]
            for step, ((config, _, _), best) in enumerate(
                zip(trace.rows.values(), trace.best_so_far), start=1
            )
        ]
        assert load_summary(str(path), binary8) == trace.summary()
        assert os.listdir(tmp_path) == ["trace.csv"]

    def test_record_rejects_what_the_reader_rejects(self, binary3, tmp_path):
        m = MeasurementRecord(1.0, 2.0)
        trace = RunTrace(binary3, ("maximize", "minimize"))
        assert trace.record((0, 0, 0), m) == ((0, 0, 0), -1.0, 2.0)
        with pytest.raises(ValueError, match=r"^configuration \(0, 0, 0\) repeats an earlier row$"):
            trace.record((0, 0, 0), MeasurementRecord(3.0, 2.0))
        assert trace.rows == {(0, 0, 0): ((0, 0, 0), -1.0, 2.0)}
        assert list(trace.best_so_far) == [-1.0]
        trace.record((0, 0, 1), MeasurementRecord(3.0, 2.0))
        assert list(trace.best_so_far) == [-1.0, -3.0]
        path = tmp_path / "trace.csv"
        emit_trace(trace, str(path))
        assert load_summary(str(path), binary3) == trace.summary()
        with pytest.raises(ValueError, match="repeats an earlier row"):
            trace.record((0, 0, 1), m)

    @pytest.mark.parametrize("directions", [
        (target, auxiliary)
        for target in ("minimize", "maximize")
        for auxiliary in ("minimize", "maximize")
    ], ids="-".join)
    def test_signed_zeros_round_trip(self, binary3, tmp_path, directions):
        raw = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0), (1.5, -2.25)]
        trace = RunTrace(binary3, directions)
        for config, pair in zip(binary3.enumerate_all(), raw):
            trace.record(config, MeasurementRecord(*pair))
        path = tmp_path / "trace.csv"
        emit_trace(trace, str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(row[4], row[5]) for row in rows] == [
            (repr(target), repr(auxiliary)) for target, auxiliary in raw
        ]
        assert load_summary(str(path), binary3) == trace.summary()

    def test_writer_failing_partway_leaves_the_earlier_file(self, binary8, tmp_path):
        oracle = SyntheticOracle(binary8, seed=1)
        trace = execute_run(binary8, oracle, 25, 20, "single:rs", None, 3)
        path = tmp_path / "trace.csv"
        emit_trace(trace, str(path))
        complete = path.read_bytes()
        rows = list(trace.rows.items())
        rows.insert(10, ((), None))  # the writer dies after 10 good rows
        trace.rows = dict(rows)
        with pytest.raises(TypeError):
            emit_trace(trace, str(path))
        assert path.read_bytes() == complete
        assert os.listdir(tmp_path) == ["trace.csv"]

    def test_symlink_is_written_through(self, binary8, tmp_path):
        oracle = SyntheticOracle(binary8, seed=1)
        trace = execute_run(binary8, oracle, 25, 20, "single:rs", None, 3)
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        emit_trace(trace, str(link))
        assert link.is_symlink()
        assert load_summary(str(target), binary8) == trace.summary()
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    def test_empty_trace_is_header_only(self, binary8, tmp_path):
        path = tmp_path / "empty.csv"
        emit_trace(RunTrace(binary8, ("minimize", "minimize")), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("step,o0,")

    def test_long_trace_line_count(self, tmp_path):
        space = make_binary_space(12)
        oracle = SyntheticOracle(space, seed=2)
        trace = execute_run(space, oracle, 1000, 20, "single:rs", None, 4)
        assert len(trace.rows) == 1000
        path = tmp_path / "long.csv"
        emit_trace(trace, str(path))
        assert len(path.read_text().splitlines()) == 1001

    @staticmethod
    def _edited_trace(space, tmp_path, edit, *lines):
        """A short RS trace with each of its ``lines`` (1 is the header) passed
        through ``edit``."""
        oracle = SyntheticOracle(space, seed=1)
        trace = execute_run(space, oracle, 5, 20, "single:rs", None, 3)
        path = tmp_path / "trace.csv"
        emit_trace(trace, str(path))
        text = path.read_text().splitlines()
        for line in lines:
            text[line - 1] = ",".join(edit(text[line - 1].split(",")))
        path.write_text("\n".join(text) + "\n")
        return str(path)

    @pytest.mark.parametrize(
        "line, edit, message",
        [
            (1, lambda cells: ["stp", *cells[1:]], "unexpected trace header"),
            (2, lambda cells: [cells[0], "2", *cells[2:]], r"value 2 outside \[0, 1\]"),
            (2, lambda cells: [cells[0], "0.5", *cells[2:]], "invalid literal for int"),
        ],
        ids=["bad-header", "out-of-range-value", "non-integer-value"],
    )
    def test_malformed_trace_fails_as_before(self, binary3, tmp_path, line, edit, message):
        path = self._edited_trace(binary3, tmp_path, edit, line)
        with pytest.raises(ValueError, match=message):
            load_summary(path, binary3)

    @pytest.mark.parametrize(
        "lines, edit, message",
        [
            ((2,), lambda cells: [*cells[:4], "nan", *cells[5:]], "non-finite"),
            ((2,), lambda cells: [*cells[:7], "-inf"], "non-finite"),
            ((2,), lambda cells: [*cells[:5], "inf", *cells[6:]], "non-finite"),
            ((2,), lambda cells: [*cells, "1"], "expected 8 cells, got 9"),
            ((2,), lambda cells: cells[:6], "expected 8 cells, got 6"),
            ((2,), lambda cells: [*cells[:6], "five", cells[7]], "invalid literal for int"),
            ((2,), lambda cells: [cells[0], "2", *cells[2:]], r"value 2 outside \[0, 1\]"),
            ((2,), lambda cells: ["2", *cells[1:]],
             "step 2 and consumed 1 must both be the row number 1"),
            ((2,), lambda cells: [*cells[:6], "0", cells[7]],
             "step 1 and consumed 0 must both be the row number 1"),
            ((2, 3), lambda cells: [cells[0], "1", "1", "1", *cells[4:]],
             re.escape("configuration (1, 1, 1) repeats an earlier row")),
        ],
        ids=[
            "nan-target", "minus-inf-best", "inf-auxiliary", "extra-cell",
            "short-row", "unparsed-consumed", "out-of-range-value",
            "step-not-row-number", "consumed-not-row-number", "repeated-configuration",
        ],
    )
    def test_malformed_row_names_path_and_line(self, binary3, tmp_path, lines, edit, message):
        path = self._edited_trace(binary3, tmp_path, edit, *lines)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:{lines[-1]}: .*{message}"):
            load_summary(path, binary3)

    @staticmethod
    def _outcome(read, path, space):
        """What reading ``path`` gives: its summary or its error message."""
        try:
            return read(path, space)
        except ValueError as exc:
            return str(exc)

    @staticmethod
    def _row_loop(path, space):
        """The reference reader: every data row through the row loop."""
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return RunSummary.of(mmo_tune.trace._row_column(path, rows, space))

    def test_reads_every_cell_edit_as_the_row_loop(self, tmp_path, monkeypatch):
        space = OptionSpace((
            OptionSpec("a", "binary", 0, 1),
            OptionSpec("b", "integer", 0, 12),
            OptionSpec("c", "integer", -2, 3),
        ))
        oracle = SyntheticOracle(space, seed=1)
        trace = execute_run(space, oracle, 6, 20, "single:rs", None, 3)
        path = tmp_path / "trace.csv"
        emit_trace(trace, str(path))
        original = path.read_text().splitlines()
        with monkeypatch.context() as m:  # the writer's own file takes no row loop
            m.setattr(mmo_tune.trace, "_row_column", None)
            assert load_summary(str(path), space) == trace.summary()
        outcomes = set()
        for line in (2, 4, len(original)):
            for column in range(len(space.names) + 5):
                for spelling in ("01", "+1", " 1", "1_0", "1.0", "-0", "", "nan", "1e999"):
                    text = list(original)
                    cells = text[line - 1].split(",")
                    cells[column] = spelling
                    text[line - 1] = ",".join(cells)
                    path.write_text("\n".join(text) + "\n")
                    expected = self._outcome(self._row_loop, str(path), space)
                    assert self._outcome(load_summary, str(path), space) == expected
                    outcomes.add(type(expected))
        assert outcomes == {RunSummary, str}

    def test_header_only_trace_has_no_best_target(self, binary8, tmp_path):
        path = tmp_path / "empty.csv"
        emit_trace(RunTrace(binary8, ("minimize", "minimize")), str(path))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty trace has no best target$"):
            load_summary(str(path), binary8)

    def test_repeat_spelled_two_ways_is_a_repeat(self, binary8, tmp_path):
        path = self._edited_trace(binary8, tmp_path, lambda cells: cells)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        first, second = lines[1].split(","), lines[2].split(",")
        second[1:9] = ["0" + first[1], *first[2:9]]  # row 1's configuration
        lines[2] = ",".join(second)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        config = tuple(map(int, first[1:9]))
        message = re.escape(f"{path}:3: configuration {config} repeats an earlier row")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_summary(path, binary8)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cells: [*cells[:4], "nan", *cells[5:]],
            lambda cells: [cells[0], "2", *cells[2:]],
            lambda cells: [cells[0], "0.5", *cells[2:]],
        ],
        ids=["nan-target", "out-of-range-value", "non-integer-value"],
    )
    def test_malformed_trace_fails_alike_under_optimize_flag(self, binary3, tmp_path, edit):
        # `python -O` strips assert statements; every check must survive it.
        path = self._edited_trace(binary3, tmp_path, edit, 2)
        with pytest.raises(ValueError) as raised:
            load_summary(path, binary3)
        proc = run_optimized(
            "from mmo_tune.space import OptionSpace, OptionSpec\n"
            "from mmo_tune.trace import load_summary\n"
            "space = OptionSpace(tuple(\n"
            "    OptionSpec(f'o{i}', 'binary', 0, 1) for i in range(3)))\n"
            f"load_summary({path!r}, space)\n"
        )
        assert proc.returncode == 1
        error = f"{type(raised.value).__name__}: {raised.value}"
        assert proc.stderr.splitlines()[-1] == error

    def test_filename_scheme(self):
        assert trace_filename("single:shc-r", None, 3) == "single_shc_r__run003.csv"
        assert trace_filename("mmo:linear", 0.5, 0) == "mmo_linear__w0.5__run000.csv"


class TestCampaign:
    def test_single_model_single_run(self, binary8, tmp_path):
        plan = synthetic_plan(binary8, ("single:rs",), repeats=1)
        report = write_campaign(plan, str(tmp_path / "out"))
        assert len(report["groups"]) == 1
        assert len(report["groups"][0]["runs"]) == 1
        files = os.listdir(tmp_path / "out" / "traces")
        assert files == ["single_rs__run000.csv"]

    def test_equal_master_seeds_give_identical_bytes(self, binary8, tmp_path):
        plan = synthetic_plan(binary8, ("single:rs", "mmo:linear"), repeats=2)
        write_campaign(plan, str(tmp_path / "a"))
        write_campaign(plan, str(tmp_path / "b"))
        for sub in ("report.json", "summary.csv", "plan.json"):
            assert (tmp_path / "a" / sub).read_bytes() == (
                tmp_path / "b" / sub
            ).read_bytes()
        for name in os.listdir(tmp_path / "a" / "traces"):
            assert (tmp_path / "a" / "traces" / name).read_bytes() == (
                tmp_path / "b" / "traces" / name
            ).read_bytes()

    def test_stats_recompute_reproduces_report(self, binary8, tmp_path):
        plan = synthetic_plan(
            binary8, ("single:rs", "single:soga", "pmo", "mmo:linear"), repeats=3
        )
        out = tmp_path / "out"
        write_campaign(plan, str(out))
        original = (out / "report.json").read_bytes()
        assert report_bytes(recompute_report(str(out))) == original

    def test_budget_fidelity_of_emitted_traces(self, binary8, tmp_path):
        plan = synthetic_plan(binary8, ("single:sa", "mmo:square"), repeats=2, budget=15)
        out = tmp_path / "out"
        write_campaign(plan, str(out))
        for name in os.listdir(out / "traces"):
            with open(out / "traces" / name, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            distinct = {tuple(row[option] for option in binary8.names) for row in rows}
            assert len(distinct) == len(rows) <= plan.budget
            assert [int(row["consumed"]) for row in rows] == list(range(1, len(rows) + 1))

    def test_counterpart_and_stats_populated(self, binary8, tmp_path):
        plan = synthetic_plan(
            binary8,
            ("single:rs", "single:shc-r", "pmo", "mmo:linear"),
            repeats=4,
            budget=30,
        )
        report = build_report(plan, run_campaign(plan))
        assert report["best_counterpart"] in ("single:rs", "single:shc-r")
        by_label = {g["label"]: g for g in report["groups"]}
        for label, group in by_label.items():
            if group["model"].startswith("single"):
                assert group["wilcoxon_p"] is None
            else:
                assert 0.0 <= group["wilcoxon_p"] <= 1.0
                assert 0.0 <= group["a12"] <= 1.0
                assert group["sk_rank"] >= 1

    def test_failing_oracle_names_run(self, binary3, tmp_path):
        missing = str(tmp_path / "nope.csv")
        plan = ExperimentPlan(
            space=binary3,
            oracle_spec={"kind": "table", "path": missing},
            budget=4,
            population_size=2,
            repeats=1,
            models=("single:rs",),
            master_seed=0,
        )
        with pytest.raises((CampaignError, FileNotFoundError)):
            run_campaign(plan)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_failing_run_is_named_serial_and_parallel(self, binary3, tmp_path, jobs):
        rows = {c: (float(sum(c)), 0.0) for c in binary3.enumerate_all()}
        for values in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            del rows[values]
        plan = ExperimentPlan(
            space=binary3,
            oracle_spec={"kind": "table", "path": write_table(tmp_path / "t.csv", binary3, rows)},
            budget=8,
            population_size=2,
            repeats=2,
            models=("single:rs",),
            master_seed=0,
        )
        with pytest.raises(CampaignError, match=r"^run failed: model=single:rs weight=- run=0: unmeasured"):
            run_campaign(plan, jobs=jobs)

    @pytest.mark.parametrize("jobs", (0, -2))
    def test_jobs_below_one_is_refused(self, binary8, tmp_path, jobs):
        plan = synthetic_plan(binary8, ("single:rs",), repeats=1)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_campaign(plan, jobs=jobs, out_dir=str(out))
        assert not out.exists()
        write_campaign(plan, str(out))
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            write_campaign(plan, str(out), jobs=jobs)
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_run_campaign_creates_its_trace_directory(self, binary8, tmp_path, jobs):
        plan = synthetic_plan(binary8, ("single:rs", "mmo:linear"), repeats=2)
        out = tmp_path / "fresh"
        runs = run_campaign(plan, jobs=jobs, out_dir=str(out))
        assert sorted(os.listdir(out / "traces")) == sorted(
            trace_filename(*key) for key in plan.run_keys()
        )
        for key, summary in runs.items():
            path = str(out / "traces" / trace_filename(*key))
            assert load_summary(path, binary8) == summary

    @pytest.mark.parametrize("over_finished", (False, True), ids=("fresh", "over-finished"))
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_failed_campaign_leaves_plan_and_complete_traces_only(
        self, tmp_path, capsys, jobs, over_finished
    ):
        space = make_binary_space(4)
        rows = {c: (float(sum(c)), float(c[0])) for c in space.enumerate_all()}

        def table_plan(name):
            return ExperimentPlan(
                space=space,
                oracle_spec={"kind": "table", "path": write_table(tmp_path / name, space, rows)},
                budget=4,
                population_size=2,
                repeats=4,
                models=("single:rs",),
            )

        out = tmp_path / "out"
        if over_finished:  # none of a finished campaign's files outlives a failed rerun
            write_campaign(table_plan("full.csv"), str(out))
            assert (out / "report.json").exists()
        del rows[(1, 1, 1, 1)]
        plan = table_plan("t.csv")
        oracle = build_oracle(plan)
        failing = []
        for key in plan.run_keys():
            try:
                execute_run(space, oracle, 4, 2, "single:rs", None, plan.run_seed(*key))
            except UnmeasuredConfigError:
                failing.append(key[2])
        assert failing == [1]  # only run 1 measures the missing row
        with pytest.raises(CampaignError, match=r"^run failed: model=single:rs weight=- run=1: unmeasured"):
            write_campaign(plan, str(out), jobs=jobs)
        assert sorted(os.listdir(out)) == ["plan.json", "traces"]
        names = sorted(os.listdir(out / "traces"))
        assert trace_filename("single:rs", None, 0) in names
        assert trace_filename("single:rs", None, 1) not in names
        for name in names:
            assert name.endswith(".csv")
            load_summary(str(out / "traces" / name), space)
        capsys.readouterr()
        assert main(["stats", "--dir", str(out)]) == 2
        missing = out / "traces" / trace_filename("single:rs", None, 1)
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )
        assert sorted(os.listdir(out)) == ["plan.json", "traces"]

    def test_parallel_campaign_stops_at_the_first_failed_run(self, tmp_path):
        space = make_binary_space(10)
        rows = {c: (float(sum(c)), float(c[0])) for c in space.enumerate_all()}
        table = str(tmp_path / "full.csv")
        plan = ExperimentPlan(
            space=space,
            oracle_spec={"kind": "table", "path": write_table(table, space, rows)},
            budget=200,
            population_size=2,
            repeats=8,
            models=("single:rs",),
        )
        seed = plan.run_seed("single:rs", None, 1)
        first = execute_run(space, build_oracle(plan), 1, 2, "single:rs", None, seed)
        del rows[next(iter(first.rows))]  # run 1 fails at its first measurement
        write_table(table, space, rows)
        oracle = build_oracle(plan)
        failing = []
        for key in plan.run_keys():
            try:
                execute_run(space, oracle, 200, 2, "single:rs", None, plan.run_seed(*key))
            except UnmeasuredConfigError:
                failing.append(key[2])
        assert failing == [1]
        out = tmp_path / "out"
        with pytest.raises(CampaignError, match=r"^run failed: model=single:rs weight=- run=1: unmeasured"):
            write_campaign(plan, str(out), jobs=2)
        names = set(os.listdir(out / "traces"))
        assert trace_filename("single:rs", None, 0) in names
        later = {trace_filename("single:rs", None, run) for run in range(2, 8)}
        assert not later <= names

    def test_dead_worker_names_its_runs(self, binary8, tmp_path, monkeypatch):
        campaign_run = mmo_tune.harness._campaign_run

        def dying(plan, oracle, out_dir, key):
            if key[2] == 1:
                os._exit(3)
            return campaign_run(plan, oracle, out_dir, key)

        # Linux forks the workers, so they inherit the patch.
        monkeypatch.setattr(mmo_tune.harness, "_campaign_run", dying)
        plan = synthetic_plan(binary8, ("single:rs",), repeats=4)
        with pytest.raises(
            CampaignError,
            match=r"^campaign worker failed running (.*, )?model=single:rs weight=- run=1(, .*)?: "
                  r"A process in the process pool was terminated abruptly",
        ):
            run_campaign(plan, jobs=2, out_dir=str(tmp_path / "out"))

    def test_peak_memory_grows_by_summaries_not_traces(self, tmp_path):
        # Each finished run leaves its trace on disk and only its summary (one
        # float per measurement) in memory, so each further run raises the
        # peak by far less than keeping its trace would.
        space = make_binary_space(12)

        def plan(repeats):
            return synthetic_plan(space, ("single:rs",), repeats=repeats, budget=300)

        def traced(call):
            tracemalloc.start()
            try:
                result = call()
                return result, tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        def peak(repeats):
            out = str(tmp_path / f"r{repeats}")
            return traced(lambda: write_campaign(plan(repeats), out))[1][1]

        oracle = build_oracle(plan(1))
        trace, (held, _) = traced(
            lambda: execute_run(space, oracle, 300, 4, "single:rs", None, 0)
        )
        assert len(trace.rows) == 300
        peak(1)  # first-call allocations stay out of either peak
        per_run = (peak(40) - peak(10)) / 30
        assert per_run < 0.25 * held

    def test_parallel_sends_the_oracle_once_per_worker(self, tmp_path, monkeypatch):
        space = make_binary_space(10)
        rows = {c: (float(sum(c)), float(c[0])) for c in space.enumerate_all()}
        plan = ExperimentPlan(
            space=space,
            oracle_spec={"kind": "table", "path": write_table(tmp_path / "t.csv", space, rows)},
            budget=10,
            population_size=2,
            repeats=40,
            models=("single:rs",),
        )
        oracle = build_oracle(plan)
        pickled = []
        dumps = ForkingPickler.dumps.__func__

        def counting_dumps(cls, obj, protocol=None):
            data = dumps(cls, obj, protocol)
            pickled.append(len(data))
            return data

        monkeypatch.setattr(ForkingPickler, "dumps", classmethod(counting_dumps))
        parallel = run_campaign(plan, jobs=2, oracle=oracle)
        monkeypatch.undo()
        assert len(parallel) == 40
        assert 0 < sum(pickled) < 2 * len(pickle.dumps(oracle))
        assert parallel == run_campaign(plan, jobs=1, oracle=oracle)

    def test_parallel_equals_sequential(self, binary8, tmp_path):
        plan = synthetic_plan(binary8, ("single:rs", "mmo:linear"), repeats=2)
        sequential = build_report(plan, run_campaign(plan, jobs=1))
        parallel = build_report(plan, run_campaign(plan, jobs=2))
        assert report_bytes(sequential) == report_bytes(parallel)


class TestStoredCampaignRebuild:
    """``recompute_report`` on a campaign written straight to disk: 3 groups of
    20 runs, 1,000 rows each (60,000 stored rows)."""

    ROWS = 1000

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        space = make_binary_space(10)
        plan = synthetic_plan(
            space, ("single:rs", "pmo", "mmo:linear"), repeats=20,
            budget=self.ROWS, weights=(0.5,),
        )
        out = tmp_path_factory.mktemp("stored")
        (out / "plan.json").write_text(plan.canonical_json() + "\n")
        os.mkdir(out / "traces")
        rng = random.Random(8)
        for key in plan.run_keys():
            best = math.inf
            with open(out / "traces" / trace_filename(*key), "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["step", *space.names, "target", "auxiliary",
                                 "consumed", "best_so_far"])
                for step in range(1, self.ROWS + 1):
                    target = round(rng.uniform(0.0, 100.0), 2)
                    best = min(best, target)
                    writer.writerow([step, *space.config_at(step - 1), repr(target),
                                     repr(rng.random()), step, repr(best)])
        return str(out), len(plan.run_keys()) * self.ROWS

    def test_memory_per_stored_row(self, stored):
        out, rows = stored
        tracemalloc.start()
        try:
            recompute_report(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows >= 50_000
        assert peak / rows < 32

    def test_builds_no_trace_entry(self, stored, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a report rebuild recorded a trace row")

        monkeypatch.setattr(mmo_tune.trace.RunTrace, "record", refuse)
        report = recompute_report(stored[0])
        assert [len(g["runs"]) for g in report["groups"]] == [20, 20, 20]


class TestBuildOracle:
    """An oracle spec is ``kind`` plus its constructor's arguments bar the space."""

    SPECS = {
        "table": {"kind": "table", "path": "t.csv"},
        "command": {"kind": "command", "command": "true", "samples": 1},
        "synthetic": {"kind": "synthetic", "seed": 1, "density": 0.1},
    }
    REQUIRED = {"table": "path", "command": "command", "synthetic": "seed"}

    @staticmethod
    def plan(space, spec):
        return ExperimentPlan(
            space=space, oracle_spec=spec, budget=4, population_size=2,
            repeats=1, models=("single:rs",),
        )

    @pytest.mark.parametrize("kind", sorted(SPECS))
    @pytest.mark.parametrize("field", ("densty", "space"))
    def test_unknown_field_is_named(self, binary3, kind, field):
        spec = {**self.SPECS[kind], field: 0.5}
        with pytest.raises(ValueError, match=f"^{kind} oracle spec: .*'{field}'"):
            build_oracle(self.plan(binary3, spec))

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_missing_field_is_named(self, binary3, kind):
        field = self.REQUIRED[kind]
        spec = {k: v for k, v in self.SPECS[kind].items() if k != field}
        with pytest.raises(ValueError, match=f"^{kind} oracle spec: .*'{field}'"):
            build_oracle(self.plan(binary3, spec))

    def test_fields_are_the_constructor_arguments(self, binary3):
        spec = {"kind": "synthetic", "seed": 4, "density": 0.1, "ruggedness": 0.4,
                "correlation": 0.3, "planted": [1, 0, 1]}
        oracle = build_oracle(self.plan(binary3, spec))
        expected = SyntheticOracle(
            binary3, seed=4, density=0.1, ruggedness=0.4, correlation=0.3,
            planted=(1, 0, 1),
        )
        for config in binary3.enumerate_all():
            assert oracle.measure(config) == expected.measure(config)
        command = build_oracle(self.plan(binary3, self.SPECS["command"]))
        assert (command.command, command.samples, command.timeout) == ("true", 1, 60.0)

    @pytest.mark.parametrize("spec", ("synthetic", ["kind", "synthetic"], None))
    def test_a_spec_that_is_not_an_object_is_named(self, binary3, spec):
        with pytest.raises(
            ValueError, match=re.escape(f"oracle spec must be a JSON object, got {spec!r}")
        ):
            build_oracle(self.plan(binary3, spec))

    def test_unknown_kind_is_named(self, binary3):
        with pytest.raises(ValueError, match="unknown oracle kind 'tabel'"):
            build_oracle(self.plan(binary3, {"kind": "tabel", "path": "t.csv"}))

    def test_campaign_with_a_bad_spec_writes_nothing(self, binary3, tmp_path):
        out = tmp_path / "out"
        spec = {**self.SPECS["synthetic"], "densty": 0.5}
        with pytest.raises(ValueError, match="'densty'"):
            write_campaign(self.plan(binary3, spec), str(out))
        assert not out.exists()


class TestExecuteRun:
    @pytest.mark.parametrize(
        "directions",
        [("minimize",), ("minimize", "minimize", "maximize")],
        ids=["one", "three"],
    )
    def test_rejects_directions_that_are_not_a_pair(self, binary8, directions):
        oracle = SyntheticOracle(binary8, seed=1)
        with pytest.raises(ValueError, match=rf"pair, got {len(directions)}$"):
            execute_run(binary8, oracle, 10, 4, "single:rs", None, 1, directions)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_very_large_space(self, model):
        # 110 binary and 110 ten-valued options: about 10^143 configurations.
        space = OptionSpace(
            tuple(
                OptionSpec(f"o{i}", "binary", 0, 1)
                if i % 2 == 0
                else OptionSpec(f"o{i}", "integer", 0, 9)
                for i in range(220)
            )
        )
        oracle = SyntheticOracle(space, seed=3)
        weight = 0.5 if model.startswith("mmo:") else None
        first = execute_run(space, oracle, 120, 10, model, weight, 11)
        second = execute_run(space, oracle, 120, 10, model, weight, 11)
        assert len(first.rows) == len(first.best_so_far) == 120
        assert list(first.rows.items()) == list(second.rows.items())
        assert first.best_so_far == second.best_so_far


class TestWeightSelection:
    def test_single_weight_plan_returns_it(self, binary8):
        plan = synthetic_plan(binary8, ("mmo:linear",), weights=(0.3,))
        assert preliminary_weight_selection(plan) == {"mmo:linear": 0.3}

    def test_selection_matches_per_weight_replay(self, binary8):
        plan = synthetic_plan(
            binary8, ("mmo:linear", "mmo:sqrt"), weights=DEFAULT_WEIGHTS, budget=60, pop=10
        )
        oracle = build_oracle(plan)
        chosen = preliminary_weight_selection(plan, oracle=oracle)
        budget = math.ceil(0.10 * plan.budget)
        population = max(2, math.floor(0.10 * plan.population_size))
        for model, picked in chosen.items():
            replay = {}
            for weight in sorted(plan.weights):
                seed = derive_seed(plan.master_seed, "prelim", model, weight_token(weight), 0)
                trace = execute_run(
                    plan.space, oracle, budget, population, model, weight, seed
                )
                replay[weight] = trace.summary().best_target
            best = min(replay.values())
            assert replay[picked] == best

    def test_no_mmo_models_rejected(self, binary8):
        plan = synthetic_plan(binary8, ("single:rs",))
        with pytest.raises(ValueError):
            preliminary_weight_selection(plan)


class TestDataDrivenSelection:
    @pytest.fixture
    def complete_table(self, tmp_path):
        space = make_binary_space(8)
        oracle = SyntheticOracle(
            space, seed=31, density=0.1, ruggedness=0.6, correlation=0.3
        )
        rows = {
            c: (oracle.target(c), oracle.auxiliary(c))
            for c in space.enumerate_all()
        }
        path = write_table(tmp_path / "full.csv", space, rows)
        return space, path

    def test_matches_live_preliminary_with_equal_seeds(self, complete_table):
        space, path = complete_table
        plan = ExperimentPlan(
            space=space,
            oracle_spec={"kind": "table", "path": path},
            budget=50,
            population_size=10,
            repeats=2,
            models=("mmo:linear",),
            weights=DEFAULT_WEIGHTS,
            master_seed=17,
        )
        table = build_oracle(plan)
        live = preliminary_weight_selection(plan, oracle=table)
        chosen, elapsed = data_driven_weight_selection(table, plan)
        assert chosen == live
        assert elapsed > 0.0

    def test_single_weight_returns_it_with_elapsed(self, complete_table):
        space, path = complete_table
        plan = ExperimentPlan(
            space=space,
            oracle_spec={"kind": "table", "path": path},
            budget=50,
            population_size=10,
            repeats=2,
            models=("mmo:sqrt",),
            weights=(0.7,),
            master_seed=3,
        )
        table = build_oracle(plan)
        chosen, elapsed = data_driven_weight_selection(table, plan)
        assert chosen == {"mmo:sqrt": 0.7}
        assert elapsed > 0.0

    def test_full_mode_agrees_with_exhaustive_replay(self, complete_table):
        space, path = complete_table
        plan = ExperimentPlan(
            space=space,
            oracle_spec={"kind": "table", "path": path},
            budget=30,
            population_size=6,
            repeats=3,
            models=("mmo:linear",),
            weights=(0.1, 0.9, 10.0),
            master_seed=23,
        )
        table = build_oracle(plan)
        chosen, _ = data_driven_weight_selection(table, plan, mode="full")
        # Independent replay of the full grid plus the rank-then-mean rule.
        groups = {}
        for weight in sorted(plan.weights):
            token = weight_token(weight)
            results = []
            for run_index in range(plan.repeats):
                seed = derive_seed(plan.master_seed, "mmo:linear", token, run_index)
                results.append(
                    execute_run(
                        space, table, plan.budget, plan.population_size,
                        "mmo:linear", weight, seed,
                    ).summary().best_target
                )
            groups[token] = results
        ranks = scott_knott(groups)
        expected_token = min(
            groups, key=lambda t: (ranks[t], fmean(groups[t]), float(t))
        )
        assert weight_token(chosen["mmo:linear"]) == expected_token

    def test_full_mode_runs_every_instance_in_one_campaign(
        self, complete_table, monkeypatch
    ):
        space, path = complete_table
        plan = ExperimentPlan(
            space=space,
            oracle_spec={"kind": "table", "path": path},
            budget=30,
            population_size=6,
            repeats=3,
            models=("single:rs", "mmo:linear", "mmo:square"),
            weights=(0.1, 0.9, 10.0),
            master_seed=23,
        )
        table = build_oracle(plan)
        # Each instance's campaign alone chooses what the shared one does.
        expected = {}
        for model in plan.mmo_models():
            alone = dataclasses.replace(plan, models=(model,))
            report = build_report(alone, run_campaign(alone, oracle=table))
            expected[model] = min(
                report["groups"], key=lambda g: (g["sk_rank"], g["mean"], g["weight"])
            )["weight"]
        serial, _ = data_driven_weight_selection(table, plan, mode="full")
        calls = []
        real_run_campaign = mmo_tune.harness.run_campaign

        def spy(sub_plan, jobs=1, **kwargs):
            calls.append((sub_plan.models, jobs))
            return real_run_campaign(sub_plan, jobs=jobs, **kwargs)

        monkeypatch.setattr(mmo_tune.harness, "run_campaign", spy)
        parallel, _ = data_driven_weight_selection(table, plan, mode="full", jobs=2)
        assert serial == parallel == expected
        assert calls == [(("mmo:linear", "mmo:square"), 2)]

    def test_full_mode_without_meta_models_rejected(self, complete_table):
        space, path = complete_table
        plan = ExperimentPlan(
            space=space,
            oracle_spec={"kind": "table", "path": path},
            budget=20,
            population_size=4,
            repeats=1,
            models=("single:rs",),
        )
        with pytest.raises(ValueError, match="no meta models"):
            data_driven_weight_selection(build_oracle(plan), plan, mode="full")

    def test_unknown_mode_rejected(self, complete_table):
        space, path = complete_table
        plan = ExperimentPlan(
            space=space,
            oracle_spec={"kind": "table", "path": path},
            budget=20,
            population_size=4,
            repeats=1,
            models=("mmo:linear",),
            weights=(0.5,),
            master_seed=0,
        )
        with pytest.raises(ValueError):
            data_driven_weight_selection(build_oracle(plan), plan, mode="zig")
