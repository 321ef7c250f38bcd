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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import HomologyClass, SpinMatrix

Word = tuple[int, ...]


def generator_class(i: int, g: int) -> HomologyClass:
    """The basis curve that generator s_i twists about (table above).

    >>> generator_class(3, 3)
    HomologyClass(g=3, a=0, b=3)
    """
    if not 1 <= i <= 2 * g + 1:
        raise ValueError(f"generator index {i} out of range 1..{2 * g + 1}")
    if i == 1:
        return HomologyClass(g, 0, 1)
    if i == 2 * g + 1:
        return HomologyClass(g, 0, 1 << (g - 1))
    if i % 2 == 0:
        return HomologyClass(g, 1 << (i // 2 - 1), 0)
    return HomologyClass(g, 0, 3 << ((i - 1) // 2 - 1))


def _act_letter(g: int, top: int, bottom: int, i: int) -> tuple[int, int]:
    """Apply generator s_i to packed rows.  No range check; callers validate."""
    if i == 1:
        return top ^ (~bottom & 1), bottom
    if i == 2 * g + 1:
        t = g - 1
        return top ^ ((~bottom >> t) & 1) << t, bottom
    if i % 2 == 0:
        t = i // 2 - 1
        return top, bottom ^ ((~top >> t) & 1) << t
    t = (i - 1) // 2 - 1
    flip = (~((bottom >> t) ^ (bottom >> (t + 1)))) & 1
    return top ^ (flip << t) ^ (flip << (t + 1)), bottom


def apply_generator(matrix: SpinMatrix, i: int) -> SpinMatrix:
    """Act on a spin matrix by the generator s_i (an involution).

    >>> str(apply_generator(SpinMatrix.from_text("11111/10111"), 9))
    '11100/10111'
    """
    if not 1 <= i <= 2 * matrix.g + 1:
        raise ValueError(f"generator index {i} out of range 1..{2 * matrix.g + 1}")
    top, bottom = _act_letter(matrix.g, matrix.top, matrix.bottom, i)
    return SpinMatrix(matrix.g, top, bottom)


def apply_word(matrix: SpinMatrix, word: Iterable[int]) -> SpinMatrix:
    """Fold apply_generator over the word, left to right."""
    g = matrix.g
    top, bottom = matrix.top, matrix.bottom
    limit = 2 * g + 1
    for i in word:
        if not 1 <= i <= limit:
            raise ValueError(f"generator index {i} out of range 1..{limit}")
        top, bottom = _act_letter(g, top, bottom, i)
    return SpinMatrix(g, top, bottom)


def flip_word(g: int) -> Word:
    """A word for the order-reversing involution p -> 2g+3-p of the 2g+2 points.

    It concatenates, for i = 1..g+1, the palindromic word realizing the
    transposition (i, 2g+3-i):

        s_i s_{i+1} ... s_{2g+1-i} s_{2g+2-i} s_{2g+1-i} ... s_{i+1} s_i

    (for i = g+1 this degenerates to the single letter s_{g+1}).

    >>> flip_word(1)
    (1, 2, 3, 2, 1, 2)
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    letters: list[int] = []
    for i in range(1, g + 2):
        rising = list(range(i, 2 * g + 2 - i))
        letters += rising + [2 * g + 2 - i] + rising[::-1]
    return tuple(letters)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} stored as its image list (1-based).

    >>> p = Permutation((2, 1, 3, 4))
    >>> p(1), p(2)
    (2, 1)
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1 or sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def then(self, other: "Permutation") -> "Permutation":
        """Right-action composition: apply self first, then other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles (fixed points omitted), lowest entry first."""
        seen = [False] * (self.degree + 1)
        out = []
        for start in range(1, self.degree + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


def permutation_of_word(word: Iterable[int], g: int) -> Permutation:
    """Project a word to the permutation it induces on the 2g+2 points.

    Letters compose in the same left-to-right order used by apply_word.
    """
    n = 2 * g + 2
    images = list(range(1, n + 1))
    for i in word:
        if not 1 <= i <= 2 * g + 1:
            raise ValueError(f"generator index {i} out of range 1..{2 * g + 1}")
        # Appending s_i post-composes with (i, i+1): swap the two image values.
        for idx, v in enumerate(images):
            if v == i:
                images[idx] = i + 1
            elif v == i + 1:
                images[idx] = i
    return Permutation(tuple(images))


def word_for_permutation(p: Permutation) -> Word:
    """A word of adjacent transpositions realizing p (bubble-sort order).

    Deterministic; length at most n(n-1)/2.  Round-trip:
    permutation_of_word(word_for_permutation(p), g) == p.
    """
    n = p.degree
    if n % 2 or n < 4:
        raise ValueError(f"degree must be 2g+2 >= 4, got {n}")
    pos = [0] * (n + 1)
    for idx, v in enumerate(p.images):
        pos[v] = idx
    appended: list[int] = []
    changed = True
    while changed:
        changed = False
        for v in range(1, n):
            if pos[v] > pos[v + 1]:
                pos[v], pos[v + 1] = pos[v + 1], pos[v]
                appended.append(v)
                changed = True
    # appended sorts p to the identity, so p itself is the reverse word.
    return tuple(reversed(appended))


def format_word(word: Sequence[int]) -> str:
    return ",".join(str(i) for i in word)
