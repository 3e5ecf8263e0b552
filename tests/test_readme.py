"""The README's command-line examples print what the README shows.

Each ``$ softlev ...`` line in the "Command line" section runs in a fresh
temporary directory; its stdout must equal the lines that follow it in the
code block, where a ``...`` line stands for any run of lines.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", section, flags=re.S | re.M):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *expected = chunk.rstrip("\n").split("\n")
            examples.append(pytest.param(command, expected, id=command))
    return examples


def _matches(expected, actual):
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(_matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and _matches(expected[1:], actual[1:])


def test_the_readme_has_examples():
    assert len(_examples()) >= 6


@pytest.mark.parametrize("command, expected", _examples())
def test_readme_example_prints_what_the_readme_shows(tmp_path, command, expected):
    program, *args = shlex.split(command)
    assert program == "softlev"
    res = subprocess.run(
        [sys.executable, "-m", "softlev.cli", *args], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    actual = res.stdout.splitlines()
    assert _matches(expected, actual), "\n".join(["expected:", *expected, "printed:", *actual, res.stderr])
