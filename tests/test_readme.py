"""Every `opframes ...` line of the README's "Command line" block runs and exits 0."""

import shlex
from pathlib import Path

import pytest

from opframes.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("opframes ")]


def test_block_lists_every_command():
    commands = {argv[0] for argv in readme_commands()}
    assert commands == {"analyze", "reconstruct", "dual", "perturb", "independence", "verify-examples"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(argv)
    assert code == 0, capsys.readouterr().err
