"""README.md stays runnable: its Python blocks and its command lines."""

import shlex
import textwrap
from pathlib import Path

import pytest

from qwscatter.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(text):
    """(language, body) of every fenced block, its indentation removed."""
    blocks, language, body = [], None, []
    for line in text.splitlines():
        fence = line.strip()
        if fence.startswith("```"):
            if language is None:
                language, body = fence[3:], []
            else:
                blocks.append((language, textwrap.dedent("\n".join(body))))
                language = None
        elif language is not None:
            body.append(line)
    return blocks


BLOCKS = fenced_blocks(README.read_text(encoding="utf-8"))
PYTHON = [body for language, body in BLOCKS if language == "python"]
COMMANDS = [
    line.strip()
    for language, body in BLOCKS
    if language == "sh"
    for line in body.splitlines()
    if line.startswith("qwscatter ")
]


def test_readme_has_examples():
    assert PYTHON and COMMANDS


@pytest.mark.parametrize("code", PYTHON, ids=[f"block{k}" for k in range(len(PYTHON))])
def test_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_exits_zero(command, capsys):
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out
