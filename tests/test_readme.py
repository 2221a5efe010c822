"""The README's command-line examples print what the README shows."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def command_line_examples():
    """(argv, grep pattern or None, expected lines) for each ``$ fixspace``
    line of the first code block under the README's "Command line"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    examples = []
    for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, *expected = chunk.strip("\n").split("\n")
        command, _, pattern = command.partition(" | grep ")
        examples.append((command.split()[1:], pattern or None, expected))
    return examples


EXAMPLES = command_line_examples()


def test_readme_has_command_line_examples():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("argv, pattern, expected", EXAMPLES,
                         ids=[argv[0] for argv, _, _ in EXAMPLES])
def test_readme_command_line_example(argv, pattern, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "fixspace.cli", *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    lines = out.stdout.splitlines()
    if pattern is not None:
        lines = [line for line in lines if pattern in line]
    assert lines == expected
