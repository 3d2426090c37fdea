"""Tests for the command-line surface and its exit-code contract."""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import mmo_tune
import mmo_tune.harness
from mmo_tune.cli import _build_parser, main
from mmo_tune.measurement import CommandOracle, SyntheticOracle
from mmo_tune.trace import trace_filename

from conftest import SRC_DIR, make_binary_space, run_optimized, write_table


@pytest.fixture
def space_file(tmp_path):
    doc = {
        "options": [
            {"name": f"o{i}", "kind": "binary", "lower": 0, "upper": 1}
            for i in range(6)
        ]
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def table_file(tmp_path):
    space = make_binary_space(6)
    rows = {
        c: (float(sum(c)) + 1.0, float(c[0]))
        for c in space.enumerate_all()
    }
    return write_table(tmp_path / "table.csv", space, rows)


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, space_file, capsys):
        assert run_cli("stats", "--bogus", "x") == 1
        assert "usage" in capsys.readouterr().err

    def test_runtime_failure_is_two(self, space_file, tmp_path, capsys):
        code = run_cli(
            "tune", "--space", space_file, "--table", str(tmp_path / "missing.csv"),
            "--model", "single:rs", "--budget", "5",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--space", "--table"])
    def test_input_that_is_not_utf8_is_named(self, space_file, table_file, tmp_path,
                                             capsys, flag):
        files = {"--space": space_file, "--table": table_file}
        bad = files[flag] = str(tmp_path / "bad")
        with open(bad, "wb") as fh:
            fh.write(b"\xff")
        code = run_cli(
            "tune", "--space", files["--space"], "--table", files["--table"],
            "--model", "single:rs", "--budget", "5", "--out", str(tmp_path / "t.csv"),
        )
        assert (code, capsys.readouterr().err) == (2, (
            f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"))

    @pytest.mark.parametrize("command", ["tune", "campaign"])
    def test_table_with_no_row_is_named(self, space_file, tmp_path, capsys, command):
        table = tmp_path / "empty.csv"
        table.write_text("o0,o1,o2,o3,o4,o5,target,auxiliary\n")
        out = tmp_path / "out"
        code = run_cli(command, "--space", space_file, "--table", str(table),
                       "--model" if command == "tune" else "--models", "single:rs",
                       "--budget", "5", "--out", str(out))
        assert (code, capsys.readouterr().err) == (
            2, f"error: {table}: table holds no configuration rows\n")
        assert sorted(os.listdir(tmp_path)) == ["empty.csv", "space.json"]

    @pytest.mark.parametrize(
        "oracle",
        [(), ("--synthetic", "--table", "t.csv"), ("--table", "t.csv", "--command", "x")],
        ids=["none", "synthetic-and-table", "table-and-command"],
    )
    def test_one_oracle_flag_is_required(self, space_file, tmp_path, capsys, oracle):
        out = tmp_path / "camp"
        code = run_cli("campaign", "--space", space_file, *oracle, "--budget", "8",
                       "--out", str(out))
        assert code == 1
        assert "usage" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--weights", "0.1,abc"), ("--planted", "1,x"), ("--weights", "0.5,,x")],
    )
    def test_list_flag_that_does_not_parse_is_usage_error(
        self, space_file, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "camp"
        code = run_cli("campaign", "--space", space_file, "--synthetic", "--budget", "8",
                       flag, value, "--out", str(out))
        assert code == 1
        assert f"argument {flag}: expected comma-separated" in capsys.readouterr().err
        assert not out.exists()

    def test_subcommand_error_prints_its_own_usage(self, space_file, tmp_path, capsys):
        code = run_cli("campaign", "--space", space_file, "--synthetic",
                       "--weights", "0.1,abc", "--budget", "2",
                       "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert "usage: mmo-tune campaign" in err
        assert "--weights WEIGHTS" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0


class TestTune:
    def test_writes_trace_and_reports_summary(self, space_file, table_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "tune", "--space", space_file, "--table", table_file,
            "--model", "mmo:linear", "--weight", "0.5",
            "--budget", "20", "--pop", "4", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "mmo:linear"
        assert payload["measurements"] == 20

    def test_mmo_without_weight_is_usage_error(self, space_file, table_file, tmp_path):
        code = run_cli(
            "tune", "--space", space_file, "--table", table_file,
            "--model", "mmo:sqrt", "--budget", "10", "--pop", "4",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1

    def test_failing_run_is_named(self, space_file, tmp_path, capsys):
        code = run_cli(
            "tune", "--space", space_file, "--command", "exit 3", "--samples", "1",
            "--model", "single:rs", "--budget", "10", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: run failed: model=single:rs weight=- run=0: command exited 3"
        )
        assert not (tmp_path / "t.csv").exists()

    def test_seed_env_override(self, space_file, table_file, tmp_path, monkeypatch):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("MMO_TUNE_SEED", "99")
        run_cli("tune", "--space", space_file, "--table", table_file,
                "--model", "single:rs", "--budget", "10", "--seed", "1",
                "--out", str(out_a))
        run_cli("tune", "--space", space_file, "--table", table_file,
                "--model", "single:rs", "--budget", "10", "--seed", "2",
                "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_env_that_is_no_integer_is_usage_error(
        self, space_file, table_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("MMO_TUNE_SEED", "abc")
        code = run_cli("tune", "--space", space_file, "--table", table_file,
                       "--model", "single:rs", "--budget", "10",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert capsys.readouterr().err == "error: MMO_TUNE_SEED must be an integer, got 'abc'\n"
        assert not (tmp_path / "t.csv").exists()


    def test_synthetic_maximize_target_is_tuned_negated(self, space_file, tmp_path, capsys):
        traces = {}
        for direction in ("minimize", "maximize"):
            out = tmp_path / f"{direction}.csv"
            code = run_cli(
                "tune", "--space", space_file, "--synthetic", "--landscape-seed", "3",
                "--model", "single:sa", "--budget", "30", "--pop", "4",
                "--target-direction", direction, "--out", str(out),
            )
            assert code == 0
            traces[direction] = out.read_bytes()
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 30
            if direction == "maximize":
                best = float("inf")
                for row in rows:
                    best = min(best, -float(row["target"]))
                    assert float(row["best_so_far"]) == best
        assert traces["maximize"] != traces["minimize"]

    def test_single_model_ignores_weight(self, space_file, table_file, tmp_path, capsys):
        common = (
            "--space", space_file, "--table", table_file,
            "--budget", "20", "--pop", "4", "--seed", "5",
        )
        traces, payloads = {}, {}
        for label, extra in (("plain", ()), ("weighted", ("--weight", "0.5"))):
            out = tmp_path / f"{label}.csv"
            code = run_cli("tune", *common, "--model", "single:sa", *extra,
                           "--out", str(out))
            assert code == 0
            traces[label] = out.read_bytes()
            payloads[label] = json.loads(capsys.readouterr().out)
        assert traces["weighted"] == traces["plain"]
        assert payloads["weighted"]["weight"] is None
        assert payloads["weighted"]["seed"] == payloads["plain"]["seed"]
        camp = tmp_path / "camp"
        code = run_cli("campaign", *common, "--repeats", "1",
                       "--models", "single:sa", "--out", str(camp))
        assert code == 0
        run0 = camp / "traces" / trace_filename("single:sa", None, 0)
        assert run0.read_bytes() == traces["plain"]


class TestNonFiniteWeight:
    def test_tune_rejects_it(self, space_file, table_file, tmp_path, capsys):
        code = run_cli(
            "tune", "--space", space_file, "--table", table_file,
            "--model", "mmo:sqrt", "--weight", "inf", "--budget", "10",
            "--pop", "4", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("weights", ["inf", "0.5,nan"])
    def test_campaign_rejects_it(self, weights, space_file, table_file, tmp_path, capsys):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--table", table_file,
            "--budget", "10", "--pop", "4", "--repeats", "1",
            "--models", "mmo:linear", "--weights", weights, "--out", str(out),
        )
        assert code == 2
        assert "weights must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


class TestCommandOracleSettings:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--timeout", "nan", "timeout must be a finite number > 0, got nan"),
            ("--samples", "0", "samples must be an integer >= 1, got 0"),
            ("--command", "", "command must be a nonblank string, got ''"),
        ],
        ids=["nan-timeout", "zero-samples", "empty-command"],
    )
    def test_campaign_refuses_them_before_running_or_writing(
        self, space_file, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused campaign started a process")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--command", "sleep 2",
            flag, value, "--budget", "8", "--pop", "4", "--repeats", "1",
            "--models", "single:rs", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestRepeatedModelsAndWeights:
    @pytest.mark.parametrize(
        "models, weights",
        [("single:rs,Single:RS,mmo:linear", "0.5"), ("single:rs,mmo:linear", "0.5,0.50")],
        ids=["repeated-model", "repeated-weight"],
    )
    def test_campaign_rejects_them(self, models, weights, space_file, table_file,
                                   tmp_path, capsys):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--table", table_file,
            "--budget", "10", "--pop", "4", "--repeats", "1",
            "--models", models, "--weights", weights, "--out", str(out),
        )
        assert code == 2
        assert "must not repeat" in capsys.readouterr().err
        assert not out.exists()


class TestCampaignCli:
    def test_campaign_then_stats_reproduces_report(self, space_file, table_file, tmp_path, capsys):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--table", table_file,
            "--budget", "20", "--pop", "4", "--repeats", "2",
            "--models", "single:rs,single:sa,mmo:linear",
            "--weights", "0.1,0.9", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        original = (out / "report.json").read_bytes()
        (out / "report.json").unlink()
        assert run_cli("stats", "--dir", str(out)) == 0
        assert (out / "report.json").read_bytes() == original

    def test_stats_loads_no_process_machinery(self, space_file, table_file, tmp_path, capsys):
        out = tmp_path / "camp"
        assert run_cli(
            "campaign", "--space", space_file, "--table", table_file,
            "--budget", "20", "--pop", "4", "--repeats", "2",
            "--models", "single:rs,mmo:linear", "--weights", "0.1", "--out", str(out),
        ) == 0
        proc = run_optimized(
            "import sys\n"
            "before = set(sys.modules)\n"
            "from mmo_tune.cli import main\n"
            f"code = main(['stats', '--dir', {str(out)!r}])\n"
            "loaded = {'subprocess', 'signal', 'logging'} & (set(sys.modules) - before)\n"
            "print(code, sorted(loaded))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_jobs_two_writes_the_same_directory_as_jobs_one(
        self, space_file, table_file, tmp_path, capsys
    ):
        def campaign(jobs):
            out = tmp_path / f"jobs{jobs}"
            code = run_cli(
                "campaign", "--space", space_file, "--table", table_file,
                "--budget", "20", "--pop", "4", "--repeats", "3",
                "--models", "single:rs,single:sa,pmo,mmo:linear",
                "--weights", "0.1,0.9", "--seed", "3", "--jobs", str(jobs),
                "--out", str(out),
            )
            assert code == 0
            return {
                str(path.relative_to(out)): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()
            }

        serial = campaign(1)
        assert sorted(serial) == sorted(
            ["plan.json", "report.json", "summary.csv"]
            + [f"traces/{trace_filename(m, w, r)}"
               for m, w in (("single:rs", None), ("single:sa", None), ("pmo", None),
                            ("mmo:linear", 0.1), ("mmo:linear", 0.9))
               for r in range(3)]
        )
        assert campaign(2) == serial

    @pytest.mark.parametrize("command", ("campaign", "sweep-weights"))
    @pytest.mark.parametrize("jobs", ("0", "-2"))
    def test_jobs_below_one_is_refused(self, space_file, tmp_path, capsys, command, jobs):
        out = tmp_path / "camp"
        code = run_cli(
            command, "--space", space_file, "--synthetic", "--budget", "8",
            "--pop", "4", "--repeats", "1", "--models", "mmo:linear",
            "--weights", "0.1", "--jobs", jobs, "--out", str(out),
        )
        assert code == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_sets_budget_and_population(self, space_file, tmp_path, capsys):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--synthetic",
            "--preset", "storm-wc", "--repeats", "1",
            "--models", "single:rs", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["budget"] == 600
        assert plan["population_size"] == 50

    def test_preset_with_budget_is_usage_error(self, space_file, tmp_path, capsys):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--synthetic",
            "--preset", "storm-wc", "--budget", "30", "--pop", "6", "--repeats", "1",
            "--models", "single:rs", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --preset and --budget exclude each other\n")
        assert not out.exists()

    def test_stats_names_the_malformed_trace_row(self, space_file, table_file, tmp_path, capsys):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--table", table_file,
            "--budget", "8", "--repeats", "1", "--models", "single:rs",
            "--out", str(out),
        )
        assert code == 0
        trace = out / "traces" / trace_filename("single:rs", None, 0)
        lines = trace.read_text().splitlines()
        cells = lines[2].split(",")
        cells[7] = "nan"  # the target, after the step and six option values
        lines[2] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        (out / "report.json").unlink()
        capsys.readouterr()
        assert run_cli("stats", "--dir", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {trace}:3: non-finite")
        assert not (out / "report.json").exists()


    def test_stats_names_a_header_only_trace(self, space_file, table_file, tmp_path, capsys):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--table", table_file,
            "--budget", "8", "--repeats", "2", "--models", "single:rs",
            "--out", str(out),
        )
        assert code == 0
        trace = out / "traces" / trace_filename("single:rs", None, 1)
        trace.write_text(trace.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert run_cli("stats", "--dir", str(out)) == 2
        assert capsys.readouterr().err == f"error: {trace}: empty trace has no best target\n"


class TestPlanFileChecked:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda plan: plan["space"]["options"][0].update(upper=7.5),
            lambda plan: plan.update(target_direction="up"),
            lambda plan: plan.update(population_size=4.5),
            lambda plan: plan.update(budget=12.0),
            lambda plan: plan.update(repeats=True),
            lambda plan: plan.update(master_seed="3"),
            lambda plan: plan.update(weights=[1e999]),
            lambda plan: plan["space"]["options"][1].update(lower=False, upper=True),
            lambda plan: plan.update(weights=[0.5, 0.5]),
            lambda plan: plan.update(models=["single:rs", "single:rs"]),
        ],
        ids=[
            "fractional-bound", "unknown-direction", "fractional-population",
            "float-budget", "bool-repeats", "string-seed", "infinite-weight",
            "bool-bounds", "repeated-weight", "repeated-model",
        ],
    )
    def test_stats_rejects_edited_plan(self, edit, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"options": [
            {"name": "a", "kind": "integer", "lower": 0, "upper": 7},
            {"name": "b", "kind": "binary"},
        ]}))
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", str(space), "--synthetic",
            "--budget", "12", "--pop", "4", "--repeats", "2",
            "--models", "single:rs,single:sa", "--out", str(out),
        )
        assert code == 0
        plan = json.loads((out / "plan.json").read_text())
        edit(plan)
        (out / "plan.json").write_text(json.dumps(plan))
        (out / "report.json").unlink()
        assert run_cli("stats", "--dir", str(out)) == 2
        assert not (out / "report.json").exists()

    @staticmethod
    def refuses_the_edited_oracle(out, edit, named, capsys):
        """``stats`` on ``out`` with its oracle spec edited exits 2 with the
        text that building the edited spec raises, which names ``named``."""
        plan = json.loads((out / "plan.json").read_text())
        edit(plan["oracle"])
        (out / "plan.json").write_text(json.dumps(plan))
        (out / "report.json").unlink()
        capsys.readouterr()
        assert run_cli("stats", "--dir", str(out)) == 2
        err = capsys.readouterr().err
        # The text a campaign on the same spec refuses it with.
        with pytest.raises(ValueError, match=named) as refused:
            mmo_tune.harness.build_oracle(mmo_tune.harness.plan_from_doc(plan))
        assert err == f"error: {refused.value}\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda oracle: oracle.update(densty=0.5), "'densty'"),
            (lambda oracle: oracle.pop("seed"), "'seed'"),
            (lambda oracle: oracle.update(density="0.05"),
             r"^density must be a number, got '0\.05'$"),
            (lambda oracle: oracle.update(kind=["synthetic"]),
             r"^unknown oracle kind \['synthetic'\]$"),
        ],
        ids=["unknown", "missing", "string-density", "list-kind"],
    )
    def test_stats_names_a_bad_oracle_field(self, space_file, tmp_path, capsys, edit, named):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--synthetic", "--budget", "8",
            "--repeats", "1", "--models", "single:rs", "--out", str(out),
        )
        assert code == 0
        self.refuses_the_edited_oracle(out, edit, named, capsys)

    @pytest.mark.parametrize(
        "flags, edit, named",
        [
            (lambda table: ("--command", """echo '{"target": 1, "auxiliary": 2}'""",
                            "--samples", "1"),
             lambda oracle: oracle.update(samples="5"),
             r"^samples must be an integer >= 1, got '5'$"),
            (lambda table: ("--table", table), lambda oracle: oracle.update(path=3),
             r"^table oracle spec: path must be a string, got 3$"),
        ],
        ids=["string-samples", "int-path"],
    )
    def test_stats_names_a_bad_command_or_table_field(
        self, space_file, table_file, tmp_path, capsys, flags, edit, named
    ):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, *flags(table_file), "--budget", "8",
            "--repeats", "1", "--models", "single:rs", "--out", str(out),
        )
        assert code == 0
        self.refuses_the_edited_oracle(out, edit, named, capsys)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda plan: [1, 2], "plan must be a JSON object, got list"),
            (
                lambda plan: {k: v for k, v in plan.items() if k != "budget"},
                "plan field 'budget' is missing",
            ),
            (lambda plan: dict(plan, budgt=10), "plan field 'budgt' is unknown"),
            (
                lambda plan: dict(plan, oracle="synthetic"),
                "oracle spec must be a JSON object, got 'synthetic'",
            ),
            (lambda plan: dict(plan, models=5), "models must be a list of model names, got 5"),
            (
                lambda plan: dict(plan, models="single:rs"),
                "models must be a list of model names, got 'single:rs'",
            ),
            (lambda plan: dict(plan, weights="ab"), "weights must be a list of numbers, got 'ab'"),
            (
                lambda plan: dict(plan, weights=[True]),
                "weights must be a list of numbers, got [True]",
            ),
            (
                lambda plan: dict(plan, weights=["0.5"]),
                "weights must be a list of numbers, got ['0.5']",
            ),
        ],
        ids=[
            "not-an-object", "missing-field", "unknown-field", "string-oracle",
            "int-models", "string-models", "string-weights", "bool-weight", "string-weight",
        ],
    )
    def test_stats_names_what_is_wrong_with_the_plan(
        self, space_file, tmp_path, capsys, edit, message
    ):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--synthetic", "--budget", "8",
            "--repeats", "1", "--models", "single:rs", "--out", str(out),
        )
        assert code == 0
        plan = edit(json.loads((out / "plan.json").read_text()))
        (out / "plan.json").write_text(json.dumps(plan))
        (out / "report.json").unlink()
        capsys.readouterr()
        assert run_cli("stats", "--dir", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "edit", [lambda text: text[: len(text) // 2], lambda text: b"\xff" + text],
        ids=["truncated", "not-utf-8"],
    )
    def test_stats_names_a_plan_that_is_not_json(self, space_file, tmp_path, capsys, edit):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--synthetic", "--budget", "8",
            "--repeats", "1", "--models", "single:rs", "--out", str(out),
        )
        assert code == 0
        plan = out / "plan.json"
        plan.write_bytes(edit(plan.read_bytes()))
        (out / "report.json").unlink()
        capsys.readouterr()
        assert run_cli("stats", "--dir", str(out)) == 2
        with pytest.raises(ValueError) as refused:
            json.loads(plan.read_bytes().decode())
        assert capsys.readouterr().err == f"error: {plan}: {refused.value}\n"
        assert not (out / "report.json").exists()

    def test_stats_rebuilds_a_table_campaign_without_its_table(
        self, space_file, table_file, tmp_path, capsys
    ):
        out = tmp_path / "camp"
        code = run_cli(
            "campaign", "--space", space_file, "--table", table_file,
            "--budget", "8", "--repeats", "2", "--models", "single:rs,single:sa",
            "--out", str(out),
        )
        assert code == 0
        original = (out / "report.json").read_bytes()
        os.unlink(table_file)
        (out / "report.json").unlink()
        assert run_cli("stats", "--dir", str(out)) == 0
        assert (out / "report.json").read_bytes() == original


class TestOtherSubcommands:
    def test_gen_landscape_then_tune(self, space_file, tmp_path, capsys):
        table = tmp_path / "land.csv"
        code = run_cli(
            "gen-landscape", "--space", space_file, "--landscape-seed", "4",
            "--density", "0.1", "--ruggedness", "0.4", "--correlation", "0.3",
            "--out", str(table),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 64
        assert len(table.read_text().splitlines()) == 65
        code = run_cli(
            "tune", "--space", space_file, "--table", str(table),
            "--model", "single:soga", "--budget", "30", "--pop", "4",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0

    def test_select_weight_preliminary(self, space_file, table_file, capsys):
        code = run_cli(
            "select-weight", "--space", space_file, "--table", table_file,
            "--budget", "30", "--pop", "4", "--models", "mmo:linear",
            "--weights", "0.1,0.9", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"]["mmo:linear"] in (0.1, 0.9)

    def test_select_weight_data_driven(self, space_file, table_file, capsys):
        code = run_cli(
            "select-weight", "--space", space_file, "--table", table_file,
            "--budget", "30", "--pop", "4", "--models", "mmo:linear",
            "--weights", "0.1,0.9", "--seed", "2",
            "--method", "data-driven",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["elapsed_seconds"] > 0.0

    def test_select_weight_names_the_failing_preliminary_run(self, space_file, capsys):
        code = run_cli(
            "select-weight", "--space", space_file, "--command", "exit 3",
            "--samples", "1", "--budget", "30", "--pop", "4",
            "--models", "mmo:linear", "--weights", "0.1,0.9",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: run failed: model=mmo:linear weight=0.1 run=0: command exited 3"
        )

    def test_select_weight_full_scale_needs_data_driven(self, space_file, table_file,
                                                        capsys):
        code = run_cli(
            "select-weight", "--space", space_file, "--table", table_file,
            "--budget", "30", "--pop", "4", "--models", "mmo:linear",
            "--weights", "0.1,0.9", "--scale", "full",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--scale full" in err and "--method data-driven" in err

    def test_select_weight_full_scale_passes_jobs(self, space_file, table_file, capsys,
                                                  monkeypatch):
        calls = []
        real_run_campaign = mmo_tune.harness.run_campaign

        def spy(plan, jobs=1, **kwargs):
            calls.append((plan.models, jobs))
            return real_run_campaign(plan, jobs=jobs, **kwargs)

        monkeypatch.setattr(mmo_tune.harness, "run_campaign", spy)
        code = run_cli(
            "select-weight", "--space", space_file, "--table", table_file,
            "--budget", "30", "--pop", "4", "--repeats", "2",
            "--models", "mmo:linear,mmo:sqrt", "--weights", "0.1,0.9",
            "--method", "data-driven", "--scale", "full", "--jobs", "2",
        )
        assert code == 0
        assert calls == [(("mmo:linear", "mmo:sqrt"), 2)]
        assert set(json.loads(capsys.readouterr().out)["weights"]) == {
            "mmo:linear", "mmo:sqrt"
        }

    def test_sweep_weights_emits_grid(self, space_file, table_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep-weights", "--space", space_file, "--table", table_file,
            "--budget", "20", "--pop", "4", "--repeats", "2",
            "--models", "single:rs,mmo:linear,mmo:sqrt",
            "--weights", "0.1,0.9", "--seed", "8", "--out", str(out),
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("model,weight,")
        assert len(lines) == 1 + 2 * 2  # two instances, two weights
        best_flags = [line.split(",")[-1] for line in lines[1:]]
        assert best_flags.count("1") == 2

    def test_sweep_csv_bytes(self, space_file, table_file, tmp_path, capsys):
        # mmo:linear ties at mean 1.0 on every weight, and the repr order of
        # its weights (10.0, 2.0, 20.0) is not their numeric order: the pin
        # fixes which row carries best_weight = 1.
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep-weights", "--space", space_file, "--table", table_file,
            "--budget", "20", "--pop", "4", "--repeats", "3",
            "--models", "single:rs,mmo:linear,mmo:sqrt",
            "--weights", "2,10,20", "--seed", "8", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == (
            "59cffb7b3fbbbe02d0dfc6de7c32cad8bb4723c92e5c719e119da6dadaa3bbaf"
        )

    @pytest.mark.parametrize("ruggedness", ["nan", "inf"])
    def test_non_finite_ruggedness_is_refused_before_any_file(
        self, space_file, tmp_path, capsys, ruggedness
    ):
        table, out = tmp_path / "land.csv", tmp_path / "camp"
        message = f"error: ruggedness must be finite and >= 0, got {ruggedness}\n"
        code = run_cli(
            "gen-landscape", "--space", space_file, "--ruggedness", ruggedness,
            "--out", str(table),
        )
        assert (code, capsys.readouterr().err) == (2, message)
        code = run_cli(
            "campaign", "--space", space_file, "--synthetic", "--ruggedness", ruggedness,
            "--budget", "8", "--repeats", "1", "--models", "single:rs", "--out", str(out),
        )
        assert (code, capsys.readouterr().err) == (2, message)
        assert os.listdir(tmp_path) == ["space.json"]

    def test_gen_landscape_table_bytes(self, space_file, tmp_path, capsys):
        digests = {}
        for name, extra in (
            ("defaults", ()),
            ("planted", ("--landscape-seed", "4", "--density", "0.1", "--ruggedness", "0.4",
                         "--correlation", "0.3", "--planted", "1,0,1,0,1,0")),
        ):
            table = tmp_path / f"{name}.csv"
            assert run_cli("gen-landscape", "--space", space_file, *extra, "--out", str(table)) == 0
            digests[name] = hashlib.sha256(table.read_bytes()).hexdigest()
        assert digests == {
            "defaults": "af96bc92684b9c3072a14ba48804c219586908c0f2f43459657998559cbff5f4",
            "planted": "bb14b5b505cc5f54d075c5c33937ad00891da40b32adf3182323970987888c6f",
        }


# Every subcommand's options in declaration order: (option, default, required).
LANDSCAPE_OPTIONS = [
    ("--landscape-seed", 0, False),
    ("--density", 0.05, False),
    ("--ruggedness", 0.3, False),
    ("--correlation", 0.0, False),
    ("--planted", None, False),
]


def _run_options(budget_required):
    return [
        ("--space", None, True),
        ("--table", None, False),
        ("--command", None, False),
        ("--samples", 5, False),
        ("--timeout", 60.0, False),
        *LANDSCAPE_OPTIONS,
        ("--synthetic", False, False),
        ("--budget", None, budget_required),
        ("--pop", 20, False),
        ("--seed", 0, False),
        ("--target-direction", "minimize", False),
        ("--auxiliary-direction", "minimize", False),
    ]


PLAN_OPTIONS = [
    *_run_options(False),
    ("--preset", None, False),
    ("--repeats", 30, False),
    ("--models", "single:rs,single:shc-r,single:sa,single:soga,pmo,mmo:linear,mmo:sqrt,mmo:square",
     False),
    ("--weights", "0.01,0.1,0.3,0.5,0.7,0.9,10.0", False),
    ("--jobs", 1, False),
]

OPTIONS = {
    "tune": [
        *_run_options(True),
        ("--model", None, True),
        ("--weight", None, False),
        ("--out", "trace.csv", False),
    ],
    "campaign": [*PLAN_OPTIONS, ("--out", None, True)],
    "sweep-weights": [*PLAN_OPTIONS, ("--out", None, True)],
    "select-weight": [
        *PLAN_OPTIONS,
        ("--method", "preliminary", False),
        ("--scale", "preliminary", False),
    ],
    "stats": [("--dir", None, True)],
    "gen-landscape": [("--space", None, True), *LANDSCAPE_OPTIONS, ("--out", None, True)],
}


def test_subcommand_options_and_defaults():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [
            (a.option_strings[0], a.default, a.required)
            for a in subparser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, subparser in sub.choices.items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize(
    "constructor, names",
    (
        (SyntheticOracle, ("density", "ruggedness", "correlation")),
        (CommandOracle, ("samples", "timeout")),
    ),
)
def test_flag_defaults_are_the_oracle_defaults(constructor, names):
    # An oracle's defaults live in its constructor and in the CLI flags only.
    parameters = inspect.signature(constructor).parameters
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    checked = 0
    for subparser in sub.choices.values():
        for name in names:
            if f"--{name}" in subparser._option_string_actions:
                assert subparser.get_default(name) == parameters[name].default
                checked += 1
    assert checked >= len(names)


def test_runtime_imports_neither_scipy_nor_numpy():
    # The runtime needs only the standard library; scipy is a test reference.
    script = (
        "import sys, mmo_tune.cli\n"
        "assert 'scipy' not in sys.modules and 'numpy' not in sys.modules\n"
    )
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(mmo_tune.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src_dir},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_serial_commands_do_not_import_multiprocessing():
    # Only a campaign with --jobs above 1 starts a process pool; loading it
    # on every call would add its import time to each command.
    script = (
        "import sys, mmo_tune.cli\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing'\n"
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_public_surface():
    # Any change to the package's exported names should be deliberate.
    assert sorted(mmo_tune.__all__) == [
        "ALL_MODELS", "BudgetExhausted", "CommandOracle",
        "Configuration", "DEFAULT_WEIGHTS", "ExperimentPlan", "MeasurementRecord",
        "MmoInstance", "NormalizationBounds", "OptionSpace",
        "OptionSpec", "PMO", "PRESETS", "RunTrace", "StatResult",
        "SyntheticOracle", "TabularOracle", "a12",
        "a12_magnitude", "build_oracle", "build_report",
        "compare_results", "crowding_distance",
        "data_driven_weight_selection", "derive_seed",
        "efficiency_ratio", "emit_trace", "execute_run", "fast_nondominated_sort",
        "load_space", "load_table",
        "meta_objectives", "normalized_gain",
        "parse_space", "pick_best_counterpart", "pmo_objectives",
        "preliminary_weight_selection", "recompute_report", "run_campaign",
        "scott_knott", "to_minimization",
        "utopian", "wilcoxon_signed_rank", "write_campaign",
    ]
