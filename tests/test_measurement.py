"""Tests for oracles and a run's distinct-measurement budget."""

from __future__ import annotations

import math
import os
import random
import re
import stat
import subprocess
import textwrap
import time

import pytest

from mmo_tune.measurement import (
    BudgetExhausted,
    CommandOracle,
    CommandOracleError,
    MeasurementRecord,
    SyntheticOracle,
    TableFormatError,
    UnmeasuredConfigError,
    load_table,
)
from mmo_tune.optimizers import _Run
from mmo_tune.space import OptionSpace, OptionSpec

from conftest import make_binary_space, write_table


class TestMeasurementRecord:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MeasurementRecord(math.nan, 1.0)
        with pytest.raises(ValueError):
            MeasurementRecord(1.0, math.inf)


class ConstOracle:
    def __init__(self):
        self.calls = 0

    def measure(self, config):
        self.calls += 1
        return MeasurementRecord(float(sum(config)), 0.0)


class TestBudgetLedger:
    """A run's budget ledger: each distinct configuration is measured once,
    and a miss at the budget stops the run."""

    def test_repeat_measurement_costs_once(self, binary3):
        oracle = ConstOracle()
        run = _Run(binary3, 10, oracle)
        config = binary3.config([1, 0, 1])
        first = run.measure(config)
        second = run.measure(config)
        assert first == second
        assert len(run.trace.rows) == 1
        assert oracle.calls == 1

    def test_zero_limit_exhausts_immediately(self, binary3):
        oracle = ConstOracle()
        run = _Run(binary3, 0, oracle)
        with pytest.raises(BudgetExhausted):
            run.measure(binary3.config([0, 0, 0]))
        assert oracle.calls == 0

    def test_distinct_configs_consume_each(self, binary3):
        run = _Run(binary3, 8, ConstOracle())
        configs = list(binary3.enumerate_all())[:5]
        for config in configs:
            run.measure(config)
        assert list(run.trace.rows) == configs

    def test_consumed_tracks_distinct_under_duplication(self, binary8):
        rng = random.Random(0)
        oracle = ConstOracle()
        run = _Run(binary8, 40, oracle)
        seen = set()
        for _ in range(600):
            config = binary8.random_config(rng)
            try:
                run.measure(config)
            except BudgetExhausted:
                assert config not in seen and len(seen) == 40
                continue
            seen.add(config)
            assert oracle.calls == len(run.trace.rows) == len(seen) <= 40
        assert len(seen) == 40

    def test_negative_limit_rejected(self, binary3):
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
            _Run(binary3, -1, ConstOracle())


class TestTabularOracle:
    def test_round_trip_lookup(self, tmp_path, binary3):
        rows = {(0, 0, 0): (1.25, 7.0), (1, 0, 1): (3.5, 2.0), (1, 1, 1): (9.0, 0.5)}
        path = write_table(tmp_path / "t.csv", binary3, rows)
        oracle = load_table(path, space=binary3)
        assert len(oracle.rows) == 3
        for values, (target, auxiliary) in rows.items():
            record = oracle.measure(binary3.config(values))
            assert record.target_raw == target
            assert record.auxiliary_raw == auxiliary

    def test_measures_a_plain_tuple(self, tmp_path, binary3):
        path = write_table(tmp_path / "t.csv", binary3, {(1, 0, 1): (3.5, 2.0)})
        assert load_table(path, space=binary3).measure((1, 0, 1)) == MeasurementRecord(3.5, 2.0)

    def test_out_of_range_value_names_path_and_line(self, tmp_path, binary3):
        path = tmp_path / "bad.csv"
        path.write_text("o0,o1,o2,target,auxiliary\n0,0,0,1.00,2.00\n0,1,9,1.00,2.00\n")
        message = f"{path}:3: option 'o2': value 9 outside [0, 1]"
        with pytest.raises(TableFormatError, match=re.escape(message)):
            load_table(str(path), space=binary3)

    def test_absent_configuration(self, tmp_path, binary3):
        path = write_table(tmp_path / "t.csv", binary3, {(0, 0, 0): (1.0, 2.0)})
        oracle = load_table(path, space=binary3)
        with pytest.raises(UnmeasuredConfigError, match="unmeasured"):
            oracle.measure(binary3.config([1, 1, 1]))

    def test_duplicate_row_fatal(self, tmp_path, binary3):
        path = tmp_path / "dup.csv"
        path.write_text(
            "o0,o1,o2,target,auxiliary\n0,0,0,1.00,2.00\n0,0,0,3.00,4.00\n"
        )
        with pytest.raises(TableFormatError, match="duplicate"):
            load_table(str(path), space=binary3)

    def test_wrong_column_order(self, tmp_path, binary3):
        path = tmp_path / "bad.csv"
        path.write_text("o0,o2,o1,target,auxiliary\n0,0,0,1.00,2.00\n")
        with pytest.raises(TableFormatError, match="space order"):
            load_table(str(path), space=binary3)

    def test_unknown_option_column(self, tmp_path, binary3):
        path = tmp_path / "bad.csv"
        path.write_text("o0,o1,oops,target,auxiliary\n0,0,0,1.00,2.00\n")
        with pytest.raises(TableFormatError, match="oops"):
            load_table(str(path), space=binary3)

    def test_non_numeric_cell(self, tmp_path, binary3):
        path = tmp_path / "bad.csv"
        path.write_text("o0,o1,o2,target,auxiliary\n0,0,0,fast,2.00\n")
        with pytest.raises(TableFormatError, match="non-numeric"):
            load_table(str(path), space=binary3)

    def test_missing_value_columns(self, tmp_path, binary3):
        path = tmp_path / "bad.csv"
        path.write_text("o0,o1,o2,target\n0,0,0,1.00\n")
        with pytest.raises(TableFormatError, match="target"):
            load_table(str(path), space=binary3)


@pytest.fixture
def tiny_space():
    return OptionSpace((OptionSpec("x", "integer", 0, 4),))


class TestCommandOracle:
    def test_constant_command(self, tiny_space):
        oracle = CommandOracle(
            'echo \'{"target": 3.0, "auxiliary": 1.0}\'', tiny_space, samples=1
        )
        record = oracle.measure(tiny_space.config([2]))
        assert (record.target_raw, record.auxiliary_raw) == (3.0, 1.0)

    def test_option_passed_as_env(self, tiny_space):
        oracle = CommandOracle(
            'echo "{\\"target\\": $OPT_x, \\"auxiliary\\": 0}"', tiny_space, samples=1
        )
        assert oracle.measure(tiny_space.config([3])).target_raw == 3.0

    def test_median_of_five_samples(self, tmp_path, tiny_space):
        counter = tmp_path / "count"
        counter.write_text("0")
        script = tmp_path / "step.sh"
        script.write_text(
            textwrap.dedent(
                f"""\
                #!/bin/sh
                n=$(cat {counter})
                n=$((n + 1))
                echo $n > {counter}
                case $n in
                  1) t=1 ;;
                  2) t=2 ;;
                  3) t=3 ;;
                  4) t=4 ;;
                  *) t=100 ;;
                esac
                echo "{{\\"target\\": $t, \\"auxiliary\\": 0}}"
                """
            )
        )
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        oracle = CommandOracle(str(script), tiny_space, samples=5)
        assert oracle.measure(tiny_space.config([0])).target_raw == 3.0

    def test_lower_median_for_even_samples(self, tmp_path, tiny_space):
        counter = tmp_path / "count"
        counter.write_text("0")
        script = tmp_path / "step.sh"
        script.write_text(
            f"#!/bin/sh\nn=$(cat {counter}); n=$((n+1)); echo $n > {counter}\n"
            'echo "{\\"target\\": $n, \\"auxiliary\\": 0}"\n'
        )
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        oracle = CommandOracle(str(script), tiny_space, samples=4)
        # Samples 1..4: the lower median is 2.
        assert oracle.measure(tiny_space.config([0])).target_raw == 2.0

    def test_nonzero_exit_carries_transcript(self, tiny_space):
        oracle = CommandOracle("echo broken >&2; exit 1", tiny_space, samples=1)
        with pytest.raises(CommandOracleError, match="exited 1") as err:
            oracle.measure(tiny_space.config([0]))
        assert "broken" in str(err.value)

    def test_unparseable_output(self, tiny_space):
        # Result values are JSON numbers only: not booleans, not strings.
        for line in (
            "not-json",
            '{"target": true, "auxiliary": false}',
            '{"target": "1.5", "auxiliary": 0}',
            '{"target": 1.5, "auxiliary": "0"}',
        ):
            oracle = CommandOracle(f"echo '{line}'", tiny_space, samples=1)
            with pytest.raises(CommandOracleError, match="unparseable"):
                oracle.measure(tiny_space.config([0]))

    def test_integer_too_large_for_a_float(self, tiny_space):
        line = '{"target": 1' + "0" * 400 + ', "auxiliary": 0}'
        oracle = CommandOracle(f"echo '{line}'", tiny_space, samples=1)
        with pytest.raises(CommandOracleError, match="unparseable") as err:
            oracle.measure(tiny_space.config([0]))
        assert repr(line) in str(err.value)
        assert str(err.value).endswith(f"from: {oracle.command}")

    def test_non_utf8_output_before_the_result_line(self, tiny_space):
        oracle = CommandOracle(
            "printf '\\377\\n' >&2; printf 'warm\\377\\n';"
            ' echo \'{"target": 1, "auxiliary": 2}\'',
            tiny_space,
            samples=1,
        )
        record = oracle.measure(tiny_space.config([0]))
        assert (record.target_raw, record.auxiliary_raw) == (1.0, 2.0)

    def test_non_utf8_result_line_is_unparseable(self, tiny_space):
        oracle = CommandOracle(
            "printf '{\"target\": 1, \"auxiliary\": 2}\\377\\n'", tiny_space, samples=1
        )
        with pytest.raises(CommandOracleError, match="^unparseable result line") as err:
            oracle.measure(tiny_space.config([0]))
        assert str(err.value).endswith(f"from: {oracle.command}")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_output_carries_transcript(self, tiny_space, value):
        oracle = CommandOracle(
            f'echo warming >&2; echo \'{{"target": {value}, "auxiliary": 1}}\'',
            tiny_space,
            samples=1,
        )
        with pytest.raises(CommandOracleError, match="non-finite") as err:
            oracle.measure(tiny_space.config([0]))
        message = str(err.value)
        assert oracle.command in message
        assert f'stdout: \'{{"target": {value}, "auxiliary": 1}}\\n\'' in message
        assert "stderr: 'warming\\n'" in message

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"timeout": math.nan}, "timeout must be a finite number > 0, got nan"),
            ({"timeout": math.inf}, "timeout must be a finite number > 0, got inf"),
            ({"timeout": 0}, "timeout must be a finite number > 0, got 0"),
            ({"timeout": -1.0}, "timeout must be a finite number > 0, got -1.0"),
            ({"timeout": True}, "timeout must be a finite number > 0, got True"),
            ({"timeout": "5"}, "timeout must be a finite number > 0, got '5'"),
            ({"samples": 0}, "samples must be an integer >= 1, got 0"),
            ({"samples": True}, "samples must be an integer >= 1, got True"),
            ({"samples": 2.0}, "samples must be an integer >= 1, got 2.0"),
            ({"command": ""}, "command must be a nonblank string, got ''"),
            ({"command": " \t"}, "command must be a nonblank string, got ' \\t'"),
            (
                {"space": OptionSpace((OptionSpec("a=b", "binary", 0, 1),))},
                "option name 'a=b' holds '=' or NUL: "
                "OPT_<name> must be an environment variable name",
            ),
            (
                {"space": OptionSpace((OptionSpec("a\0b", "binary", 0, 1),))},
                "option name 'a\\x00b' holds '=' or NUL: "
                "OPT_<name> must be an environment variable name",
            ),
        ],
        ids=[
            "nan-timeout", "inf-timeout", "zero-timeout", "negative-timeout",
            "bool-timeout", "string-timeout", "zero-samples", "bool-samples",
            "float-samples", "empty-command", "blank-command", "equals-in-name",
            "nul-in-name",
        ],
    )
    def test_settings_are_checked_when_built(self, tiny_space, monkeypatch, settings, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused oracle started a process")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        with pytest.raises(ValueError) as refused:
            CommandOracle(**{"command": "sleep 2", "space": tiny_space, **settings})
        assert str(refused.value) == message

    def test_timeout_kills_the_whole_process_group(self, tmp_path, tiny_space):
        pid_file = tmp_path / "child.pid"
        oracle = CommandOracle(
            f"sleep 5 & echo $! > {pid_file}; wait", tiny_space, samples=1, timeout=0.3
        )
        started = time.monotonic()
        with pytest.raises(CommandOracleError, match="timed out"):
            oracle.measure(tiny_space.config([0]))
        assert time.monotonic() - started < 4.0
        child = int(pid_file.read_text())
        deadline = time.monotonic() + 3.0
        while _process_running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _process_running(child)


def _process_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # no /proc, or the process just went away
        return True


class TestSyntheticOracle:
    def test_full_correlation_aux_equals_target(self, binary8):
        oracle = SyntheticOracle(binary8, seed=4, correlation=1.0, ruggedness=0.5)
        rng = random.Random(0)
        for _ in range(50):
            config = binary8.random_config(rng)
            assert oracle.auxiliary(config) == oracle.target(config)

    @pytest.mark.parametrize("correlation", (-1.0, 0.0, 0.3, 1.0))
    def test_measure_is_target_and_auxiliary(self, correlation):
        space = OptionSpace(
            (OptionSpec("a", "integer", 0, 3), *make_binary_space(4).options)
        )
        oracle = SyntheticOracle(space, seed=5, ruggedness=0.4, correlation=correlation)
        for config in space.enumerate_all():
            record = oracle.measure(config)
            assert (record.target_raw, record.auxiliary_raw) == (
                oracle.target(config),
                oracle.auxiliary(config),
            )

    def test_negative_correlation_is_monotone_decreasing(self, binary8):
        oracle = SyntheticOracle(binary8, seed=4, correlation=-1.0, ruggedness=0.5)
        rng = random.Random(0)
        for _ in range(50):
            config = binary8.random_config(rng)
            assert oracle.auxiliary(config) == -oracle.target(config)

    def test_planted_is_strict_global_minimum_exhaustively(self):
        space = make_binary_space(10)
        oracle = SyntheticOracle(
            space, seed=9, density=0.1, ruggedness=0.8, correlation=0.3
        )
        planted = oracle.planted
        planted_value = oracle.target(planted)
        for config in space.enumerate_all():
            if config != planted:
                assert oracle.target(config) > planted_value

    def test_zero_ruggedness_single_local_minimum(self):
        space = make_binary_space(8)
        oracle = SyntheticOracle(space, seed=21, density=0.2, ruggedness=0.0)
        values = {c: oracle.target(c) for c in space.enumerate_all()}
        local_minima = []
        for config, value in values.items():
            flips = [
                space.config(
                    [1 - v if i == j else v for j, v in enumerate(config)]
                )
                for i in range(8)
            ]
            if all(value < values[n] for n in flips):
                local_minima.append(config)
        assert local_minima == [oracle.planted]

    def test_measures_a_plain_tuple(self, binary3):
        oracle = SyntheticOracle(binary3, seed=1, ruggedness=0.3, planted=[1, 0, 1])
        assert oracle.planted == (1, 0, 1)
        assert oracle.measure((1, 0, 1)).target_raw == -2.0 * 0.3 - 0.5
        assert oracle.measure((0, 0, 1)).target_raw > oracle.measure((1, 0, 1)).target_raw

    def test_referentially_transparent(self, binary8):
        a = SyntheticOracle(binary8, seed=13, ruggedness=0.4)
        b = SyntheticOracle(binary8, seed=13, ruggedness=0.4)
        rng = random.Random(2)
        for _ in range(50):
            config = binary8.random_config(rng)
            assert a.measure(config) == b.measure(config)

    def test_value_stable_across_sessions(self, binary8):
        # Frozen from an earlier process; guards hash stability across restarts.
        oracle = SyntheticOracle(
            binary8, seed=42, density=0.05, ruggedness=0.25, correlation=0.3
        )
        config = binary8.config([0, 1, 0, 1, 0, 1, 0, 1])
        assert oracle.target(config) == pytest.approx(FROZEN_TARGET_SEED42, abs=0.0)

    def test_param_validation(self, binary8):
        with pytest.raises(ValueError):
            SyntheticOracle(binary8, seed=0, density=0.0)
        with pytest.raises(ValueError):
            SyntheticOracle(binary8, seed=0, ruggedness=-0.1)
        with pytest.raises(ValueError):
            SyntheticOracle(binary8, seed=0, correlation=2.0)

    @pytest.mark.parametrize("ruggedness", [math.nan, math.inf, -math.inf])
    def test_ruggedness_must_be_finite_and_non_negative(self, binary8, ruggedness):
        with pytest.raises(ValueError, match=r"^ruggedness must be finite and >= 0, got "):
            SyntheticOracle(binary8, seed=0, ruggedness=ruggedness)


FROZEN_TARGET_SEED42 = 0.7421990449434765
