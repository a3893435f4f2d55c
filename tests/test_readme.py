"""The README's examples run: its "Quick start" python block prints the worked
family's bounds and classification, and every `opframes ...` line of its
"Command line" block exits 0."""

import ast
import shlex
from pathlib import Path

import pytest

from opframes.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading, language):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"## {heading}", 1)[1]
    return section.split(f"```{language}", 1)[1].split("```", 1)[0]


def readme_commands():
    block = readme_block("Command line", "bash")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("opframes ")]


def test_quick_start_prints_the_worked_bounds(capsys):
    exec(compile(readme_block("Quick start", "python"), "README.md", "exec"), {})
    bounds, classification = capsys.readouterr().out.splitlines()[:2]
    assert ast.literal_eval(bounds) == pytest.approx((0.25, 1.0 / 3.0), rel=1e-12)
    assert classification == "frame"


def test_block_lists_every_command():
    commands = {argv[0] for argv in readme_commands()}
    assert commands == {"analyze", "reconstruct", "dual", "perturb", "independence", "verify-examples"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(argv)
    assert code == 0, capsys.readouterr().err
