"""Keep the usage examples embedded in docstrings honest."""

import doctest
import importlib
import pkgutil

import pytest

import hyperspin

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
