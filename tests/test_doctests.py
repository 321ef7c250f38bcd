"""Keep the usage examples embedded in docstrings honest."""

import doctest
import importlib
import pkgutil
import shlex
from pathlib import Path

import pytest

import hyperspin
from hyperspin import cli
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


def test_readme_command_lines_parse():
    # parses each line of the "Command line" block and runs none of them
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(words[0] == "hyperspin" for words in lines)
    for words in lines:
        args = cli._build_parser().parse_args(words[1:])
        assert args.func is getattr(cli, "_cmd_" + words[1].replace("-", "_"))


def test_readme_shell_transcript(capsys):
    # doctest runs only the >>> examples; this pins the $ transcript, tabs included
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    command = "$ hyperspin reduce 5 11111/10111 --trace\n"
    transcript = readme.split(command, 1)[1].split("```", 1)[0]
    assert main(["reduce", "5", "11111/10111", "--trace"]) == 0
    assert capsys.readouterr().out == transcript
