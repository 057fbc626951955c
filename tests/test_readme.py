"""The README's Python examples run as doctests and its file-free command
line examples through `cli.main`, so the docs cannot drift."""

import doctest
from pathlib import Path

import pytest

from scatcomp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize(
    "argv, code, out",
    [
        ("embed peelwheel peel --count", 0, "7\n"),
        ("shuffle ban ana --size-only", 0, "11\n"),
        ("perfect-shuffle bnn aaa", 0, "banana\n"),
        ("self-shuffle abaabaaa abaa", 0, "true\n"),
        ("archfac abcabc", 0, "abc|abc\nrest=\nmodus=cc\niota=2\n"),
    ],
)
def test_readme_command_line_examples(capsys, argv, code, out):
    # the "Command line" examples that need no input file, with the output
    # their comments document
    assert main(argv.split()) == code
    assert capsys.readouterr().out == out
