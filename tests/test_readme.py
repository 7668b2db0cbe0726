"""Every command of the README's "Command line" block runs and exits 0."""

import shlex
from pathlib import Path

import pytest

from qmetro import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("qmetro "):
            commands.append(line)
    return commands


def test_readme_has_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)[1:]) == 0
    capsys.readouterr()
