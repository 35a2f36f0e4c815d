"""The experiment scripts run end to end on small arguments."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, argv, first_line",
    [
        (
            "identification_demo.py",
            ["--followers", "8", "--seed", "1"],
            "instance: n=10, true leaders (1-based) = [1, 2]",
        ),
        (
            "densification_trend.py",
            ["--sequences", "1", "--followers", "8", "--steps", "3"],
            "sequence,element,n,min_follower_degree,lambda_F,epsilon,limit_residual",
        ),
    ],
)
def test_script_runs(monkeypatch, capsys, script, argv, first_line):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    main = runpy.run_path(str(path))["main"]
    assert main() == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line
