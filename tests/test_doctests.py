"""Keep the usage examples embedded in docstrings honest."""

import doctest

import pytest

from hyperspin import braid, gf2, normalform, orbits


@pytest.mark.parametrize("module", [gf2, braid, normalform, orbits])
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_examples():
    failures, attempted = doctest.testfile("../README.md")
    assert attempted > 0 and failures == 0
