"""The example scripts run end to end and print what they promise: a
noiseless worst fidelity of 1 to nine decimals, and no gate whose fidelity
fails to fall as durations grow."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, capsys, name: str) -> str:
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_noiseless_sweep_prints_worst_fidelity_one(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "noiseless_sweep.py")
    assert "worst fidelity 1.000000000" in out
    # a row per single-qubit gate and per qx4 coupling pair
    assert len(out.splitlines()) == 1 + 9 + 6 + 2


def test_duration_scaling_prints_monotone_rows(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "duration_scaling.py")
    assert "(not monotone)" not in out
    assert len(out.splitlines()) == 1 + 9 + 1


@pytest.mark.parametrize("name", ["noisy_sweep.py", "shot_noise.py"])
def test_script_runs(monkeypatch, capsys, name):
    assert _run(monkeypatch, capsys, name)
