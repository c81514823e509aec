"""The examples the project publishes: module doctests, README examples and sessions."""

import doctest
import importlib
import io
import pkgutil
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import altchar
from altchar.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(
    info.name for info in pkgutil.walk_packages(altchar.__path__, prefix="altchar.")
)


@pytest.mark.parametrize("name", ["altchar", *MODULES])
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_library_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def readme_sessions() -> list[tuple[str, str]]:
    """Each `$ altchar ...` line of README.md with the output lines below it.

    The output runs to the first blank line or the end of the code block.
    """
    sessions = []
    command = None
    for line in README.read_text().splitlines():
        if line.startswith("$ altchar "):
            command, output = line[len("$ "):], []
        elif command is not None and line.strip() and not line.startswith("```"):
            output.append(line + "\n")
        elif command is not None:
            sessions.append((command, "".join(output)))
            command = None
    return sessions


def test_readme_has_sessions():
    assert len(readme_sessions()) >= 5


@pytest.mark.parametrize(
    "command, expected", [pytest.param(c, e, id=c) for c, e in readme_sessions()]
)
def test_readme_session(command, expected):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(shlex.split(command)[1:])
    assert code == 0, err.getvalue()
    assert out.getvalue() == expected
