"""The README's command examples run, in order, and each exits 0."""

import re
import shlex
from pathlib import Path

from lagsol.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PREFIX = "PYTHONPATH=src python -m lagsol.cli "


def readme_commands():
    """argv of each lagsol.cli line in the README's sh blocks, in order."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [shlex.split(line[len(PREFIX):])
            for block in blocks for line in block.splitlines() if line.startswith(PREFIX)]


def test_readme_examples_exit_0(tmp_path, monkeypatch, capsys):
    # verify reads the files the periodic example wrote, so one directory
    # holds every run, and the runs go in README order
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "expander", "shrinker", "periodic", "periodic-search", "translator",
        "invert-angles", "verify", "flow-family"]
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
