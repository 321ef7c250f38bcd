"""Keep the usage examples embedded in docstrings honest."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import hyperspin
from hyperspin.cli import main

MODULES = [
    importlib.import_module(f"hyperspin.{info.name}")
    for info in pkgutil.iter_modules(hyperspin.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_examples():
    failures, attempted = doctest.testfile("../README.md")
    assert attempted > 0 and failures == 0


def test_readme_shell_transcript(capsys):
    # doctest runs only the >>> examples; this pins the $ transcript, tabs included
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    command = "$ hyperspin reduce 5 11111/10111 --trace\n"
    transcript = readme.split(command, 1)[1].split("```", 1)[0]
    assert main(["reduce", "5", "11111/10111", "--trace"]) == 0
    assert capsys.readouterr().out == transcript
