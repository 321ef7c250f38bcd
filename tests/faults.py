"""Fault injection into the letter table.

The program applies s_i at genus g as braid._letters(g)[i](key).  A mutant
is written as one function (g, key, i) -> key over every letter; act is the
program's own letter in that form, for mutants that wrap it.  letter_table
turns a mutant into a stand-in for _letters, to be patched into the module
under test:

    monkeypatch.setattr(normalform, "_letters", letter_table(mutant))
"""

from hyperspin.braid import _letters


def act(g, key, i):
    """The program's letter s_i on packed keys at genus g."""
    return _letters(g)[i](key)


def letter_table(mutant):
    """A _letters whose entry i at genus g is key -> mutant(g, key, i)."""

    def letters(g):
        return (None, *(lambda key, i=i: mutant(g, key, i) for i in range(1, 2 * g + 2)))

    return letters
