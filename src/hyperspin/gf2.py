"""Spin matrices: their text and packed-key forms, and the Arf invariant.

Conventions used throughout the package:

- A genus-g surface carries a symplectic basis alpha_1..alpha_g,
  beta_1..beta_g of its Z/2 first homology, with intersection numbers
  alpha_i . beta_j = delta_ij and all alpha/alpha, beta/beta pairings zero.
- A homology class is a pair of g-bit words (a, b): bit k-1 of `a` is the
  coefficient of alpha_k, bit k-1 of `b` the coefficient of beta_k.
  Addition is XOR.  The program packs a class as the key a | b << g, the
  layout of a matrix key (braid.generator_class).
- A spin structure is a quadratic refinement c of the intersection form,
  i.e. c(x+y) = c(x) + c(y) + x.y over Z/2.  It is determined by its values
  on the basis, stored as a 2 x g bit matrix: top row c(alpha_k), bottom
  row c(beta_k).  Column k occupies bit k-1 of each row word, so column 1
  is the leftmost character of the text form and the lowest bit of the
  packed form.
- Z/2 scalars are plain ints 0/1 (addition XOR, multiplication AND).

Text format for matrices: ``top/bottom`` as ASCII bit strings with column 1
leftmost, e.g. ``11111/10111`` for g = 5.
"""

from __future__ import annotations

from dataclasses import dataclass


def _bits_to_text(bits: int, g: int) -> str:
    return format(bits, f"0{g}b")[::-1]


def _text_to_bits(text: str) -> int:
    # Check first: int(..., 2) alone would also accept "1_0", " 10" and "+10".
    bad = text.strip("01")
    if bad:
        raise ValueError(f"matrix rows must consist of 0/1 characters, got {bad[0]!r}")
    return int(text[::-1], 2)


@dataclass(frozen=True, slots=True)
class SpinMatrix:
    """A spin structure as its 2 x g matrix of basis values.

    >>> m = SpinMatrix.from_text("11111/10111")
    >>> m.g, m.top >> 3 & 1, m.bottom >> 3 & 1   # column 4 is bit 3
    (5, 1, 1)
    >>> str(m)
    '11111/10111'
    """

    g: int
    top: int
    bottom: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError(f"genus must be >= 1, got {self.g}")
        mask = (1 << self.g) - 1
        if not 0 <= self.top <= mask or not 0 <= self.bottom <= mask:
            raise ValueError("row word out of range for genus")

    def __str__(self) -> str:
        return f"{_bits_to_text(self.top, self.g)}/{_bits_to_text(self.bottom, self.g)}"

    @classmethod
    def from_text(cls, text: str) -> "SpinMatrix":
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise ValueError(f"matrix text must be 'top/bottom', got {text!r}")
        top_text, bottom_text = parts
        if len(top_text) != len(bottom_text):
            raise ValueError("matrix rows must have equal length")
        if not top_text:
            raise ValueError("matrix rows must be non-empty")
        return cls(len(top_text), _text_to_bits(top_text), _text_to_bits(bottom_text))

    def key(self) -> int:
        """Pack into a 2g-bit integer: top word in the low bits."""
        return self.top | (self.bottom << self.g)

    @classmethod
    def from_key(cls, g: int, key: int) -> "SpinMatrix":
        mask = (1 << g) - 1
        return cls(g, key & mask, key >> g)


def arf(matrix: SpinMatrix) -> int:
    """Arf invariant: sum_k c(alpha_k) c(beta_k) over Z/2.

    A complete invariant for the full symplectic-group action; constant on
    every twist orbit.
    """
    return (matrix.top & matrix.bottom).bit_count() & 1
