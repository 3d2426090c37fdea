"""Golden report digests: the sha256 of ``report.json`` of small campaigns.

Each case writes a seeded synthetic campaign through the CLI, hashes its
``report.json`` and checks that ``stats --dir`` rebuilds the same bytes from
the stored plan and traces. The cases cover every model at minimize, a
maximized target, and a budget larger than the space, whose traces stop when
the space is spent. That last campaign is also rebuilt after its first run of
every group is cut short, so the mean best-so-far curves of the efficiency
ratio pad runs of unequal length.

The pins may change only together with a stated reason for the behaviour
change.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from mmo_tune.cli import main

CASES = {
    "every-model": (
        6, ["--budget", "24", "--pop", "4", "--repeats", "3", "--weights", "0.1,0.9"],
    ),
    "maximize": (
        6,
        [
            "--budget", "20", "--pop", "4", "--repeats", "3", "--weights", "0.3,10",
            "--models", "single:rs,single:sa,pmo,mmo:linear,mmo:sqrt",
            "--target-direction", "maximize",
        ],
    ),
    "budget-past-space": (
        4,
        [
            "--budget", "30", "--pop", "4", "--repeats", "3", "--weights", "0.5",
            "--models", "single:rs,single:shc-r,single:soga,pmo,mmo:square",
        ],
    ),
}

GOLDEN = {
    "every-model": "5a6965164d9b4c980d4418eeb875a912e7419f01c941615003b612d404275c0c",
    "maximize": "1b8e02ff4ab6bc9acdbdef083bc1350e6bd53247cdb789e814efdd3bd41c42eb",
    "budget-past-space": "d6af4d640bc5b08f239c32d4113a77edd7161f553db91871eab0bf9062f8c253",
}

# budget-past-space rebuilt after run 0 of every group keeps only its first
# CUT_ROWS measurements.
CUT_ROWS = 5
GOLDEN_CUT = "24d0078841c9b240476b43cf4b556688d10e4d07e4060a68162f4116a3bba5a3"


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _campaign(tmp_path, capsys, case: str):
    bits, flags = CASES[case]
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps(
            {"options": [{"name": f"o{i}", "kind": "binary"} for i in range(bits)]}
        )
    )
    out = tmp_path / "out"
    assert main([
        "campaign", "--space", str(space), "--synthetic", "--landscape-seed", "17",
        "--ruggedness", "0.5", "--correlation", "0.3", "--seed", "23", *flags,
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    return out


def _rebuilt(out, capsys) -> str:
    (out / "report.json").unlink()
    assert main(["stats", "--dir", str(out)]) == 0
    capsys.readouterr()
    return _sha(out / "report.json")


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(case, tmp_path, capsys):
    out = _campaign(tmp_path, capsys, case)
    assert _sha(out / "report.json") == GOLDEN[case]
    assert _rebuilt(out, capsys) == GOLDEN[case]


def test_rebuild_of_runs_cut_short(tmp_path, capsys):
    out = _campaign(tmp_path, capsys, "budget-past-space")
    traces = out / "traces"
    cut = sorted(name for name in os.listdir(traces) if name.endswith("__run000.csv"))
    assert len(cut) == 5
    for name in cut:
        lines = (traces / name).read_text().splitlines()
        assert len(lines) - 1 > CUT_ROWS
        (traces / name).write_text("\n".join(lines[: 1 + CUT_ROWS]) + "\n")
    assert _rebuilt(out, capsys) == GOLDEN_CUT
