"""The symmetric-group action on spin matrices by adjacent transpositions.

A genus-g hyperelliptic surface double-covers the sphere with 2g+2 branch
points; permuting the branch points acts on spin structures through the
2g+1 adjacent transpositions s_1, ..., s_{2g+1} (s_i swaps i and i+1).
Each generator acts as a twist about a basis curve:

    s_1            twist about beta_1
    s_{2g+1}       twist about beta_g
    s_{2i}         twist about alpha_i          (1 <= i <= g)
    s_{2j+1}       twist about beta_j+beta_{j+1} (1 <= j <= g-1)

On the 2 x g matrix the four cases read:

    s_1       flips c(alpha_1)                iff c(beta_1) = 0
    s_{2g+1}  flips c(alpha_g)                iff c(beta_g) = 0
    s_{2i}    flips c(beta_i)                 iff c(alpha_i) = 0
    s_{2j+1}  flips c(alpha_j), c(alpha_{j+1}) iff c(beta_j) + c(beta_{j+1}) = 0

Words act on the right and are applied left to right:
M o (w1 w2) = (M o w1) o w2.  This convention is pinned by golden traces in
the test suite; the reverse order does not reproduce them.

Words print as comma-separated generator indices, e.g. ``8,10``.

This module is the generator action and nothing else: the twist classes
as packed class keys a | b << g, the letter table _letters(g), whose
entry i acts as s_i on packed keys top | bottom << g (ints, or unsigned
arrays of keys), words of letters and the flip word.  It holds no
permutations of the points; that the action factors through S_{2g+2} is
checked through the Coxeter relations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .gf2 import SpinMatrix

Word = tuple[int, ...]


def generator_class(i: int, g: int) -> int:
    """The basis curve that generator s_i twists about (table above), packed a | b << g.

    >>> generator_class(3, 3)  # beta_1 + beta_2
    24
    """
    if not 1 <= i <= 2 * g + 1:
        raise ValueError(f"generator index {i} out of range 1..{2 * g + 1}")
    if i == 1:
        return 1 << g
    if i == 2 * g + 1:
        return 1 << (2 * g - 1)
    if i % 2 == 0:
        return 1 << (i // 2 - 1)
    return 3 << (g + (i - 1) // 2 - 1)


@lru_cache(maxsize=8)
def _letters(g: int) -> tuple:
    """The letters at genus g: entry i is s_i on packed keys top | bottom << g.

    Each entry takes ints or unsigned arrays of keys, and an array keeps its
    dtype.  Its shift amounts are bound as int defaults, so it decides no
    case per call.  Entry 0 is None.  The entries check no range; callers
    validate i before they index the table.
    """
    g = int(g)  # numpy shift amounts overflow on keys wider than 64 bits
    letters = [None, lambda key, g=g: key ^ (key >> g & 1 ^ 1)]
    for i in range(2, 2 * g + 1):
        if i % 2 == 0:
            t = i // 2 - 1
            letters.append(lambda key, t=t, u=g + t: key ^ (key >> t & 1 ^ 1) << u)
        else:
            t = g + (i - 1) // 2 - 1  # bottom bit of c(beta_j)
            letters.append(
                lambda key, t=t, u=t + 1, v=t - g: key ^ ((key >> t ^ key >> u) & 1 ^ 1) * 3 << v
            )
    letters.append(lambda key, t=2 * g - 1, u=g - 1: key ^ (key >> t & 1 ^ 1) << u)
    return tuple(letters)


def apply_generator(matrix: SpinMatrix, i: int) -> SpinMatrix:
    """Act on a spin matrix by the generator s_i (an involution).

    >>> str(apply_generator(SpinMatrix.from_text("11111/10111"), 9))
    '11100/10111'
    """
    if not 1 <= i <= 2 * matrix.g + 1:
        raise ValueError(f"generator index {i} out of range 1..{2 * matrix.g + 1}")
    return SpinMatrix.from_key(matrix.g, _letters(matrix.g)[i](matrix.key()))


def apply_word(matrix: SpinMatrix, word: Iterable[int]) -> SpinMatrix:
    """Apply the word's letters left to right on the packed key.

    Each letter is an entry of the letter table; no matrix is built until
    the last letter has acted.
    """
    g = matrix.g
    key = matrix.key()
    letters = _letters(g)
    limit = 2 * g + 1
    for i in word:
        if not 1 <= i <= limit:
            raise ValueError(f"generator index {i} out of range 1..{limit}")
        key = letters[i](key)
    return SpinMatrix.from_key(g, key)


def flip_word(g: int) -> Iterator[int]:
    """A word for the order-reversing involution p -> 2g+3-p of the 2g+2 points.

    It concatenates, for i = 1..g+1, the palindromic word realizing the
    transposition (i, 2g+3-i):

        s_i s_{i+1} ... s_{2g+1-i} s_{2g+2-i} s_{2g+1-i} ... s_{i+1} s_i

    (for i = g+1 this degenerates to the single letter s_{g+1}).  The
    (g+1)(2g+1) letters are yielded one palindrome at a time, so applying
    the word holds O(g) of it in memory.

    >>> tuple(flip_word(1))
    (1, 2, 3, 2, 1, 2)
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    return chain.from_iterable(
        (*range(i, 2 * g + 2 - i), 2 * g + 2 - i, *range(2 * g + 1 - i, i - 1, -1))
        for i in range(1, g + 2)
    )


def format_word(word: Sequence[int]) -> str:
    return ",".join(str(i) for i in word)
