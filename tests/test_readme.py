"""The `$ deduce ...` examples in README.md print what the README shows."""

import pathlib
import shlex

import pytest

from deduce.cli import main

ROOT = pathlib.Path(__file__).parent.parent


def readme_examples():
    """(command, expected stdout) for every `$ deduce` line in a fenced
    block of README.md; the expected output runs to the block's end."""
    examples = []
    lines = (ROOT / "README.md").read_text().splitlines()
    for n, line in enumerate(lines):
        if line.startswith("$ deduce "):
            end = lines.index("```", n)
            examples.append((line[2:], "".join(f"{out}\n" for out in lines[n + 1:end])))
    return examples


def test_the_readme_has_its_examples():
    assert len(readme_examples()) == 5


@pytest.mark.parametrize("command, expected", readme_examples())
def test_readme_example(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name grammars relative to the root
    code = main(shlex.split(command)[1:])
    assert (code, capsys.readouterr().out) == (0, expected)
