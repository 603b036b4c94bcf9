"""The README's Python examples are the package contract: each must run.
So is its command line block: each `algwaves` line must exit with the code
its trailing `# exit N` comment gives, or 0.  Every `--flag` it names outside
the Install block must be an option of some `algwaves` subcommand."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from algwaves.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("algwaves")]


def test_readme_has_examples():
    assert len(BLOCKS) >= 4
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


@pytest.mark.parametrize("line", COMMANDS, ids=[f"cli{i}" for i in range(len(COMMANDS))])
def test_readme_command_exit_code(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the shoot line writes orbit.csv
    want = re.search(r"#\s*exit (\d+)", line)
    assert main(shlex.split(line, comments=True)[1:]) == (int(want.group(1)) if want else 0)


def cli_options() -> set[str]:
    """Every option string of every subcommand of the command line."""
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {opt for p in subs.choices.values() for opt in p._option_string_actions}


def test_readme_flags_are_cli_options():
    # the Install block's flags are pip's
    text = re.sub(r"^## Install\n.*?^```sh\n.*?^```", "", TEXT, flags=re.M | re.S)
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    assert len(flags) >= 10
    assert flags <= cli_options(), sorted(flags - cli_options())
