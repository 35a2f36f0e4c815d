"""The experiment scripts and README's Python example run end to end."""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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
def test_script_runs(monkeypatch, capsys, decompositions, script, argv, first_line):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    main = runpy.run_path(str(path))["main"]
    assert main() == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line
    if script == "identification_demo.py":  # one instance, decomposed once
        assert decompositions == {"eigh": 1}


def test_readme_python_example_decomposes_once(capsys, decompositions):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert decompositions == {"eigh": 1}
    assert capsys.readouterr().out.splitlines()[0] == "[1, 2] True"
