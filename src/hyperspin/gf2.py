"""Bit-packed Z/2 homology classes, spin structures, and twist actions.

Conventions used throughout the package:

- A genus-g surface carries a symplectic basis alpha_1..alpha_g,
  beta_1..beta_g of its Z/2 first homology, with intersection numbers
  alpha_i . beta_j = delta_ij and all alpha/alpha, beta/beta pairings zero.
- A homology class is a pair of g-bit words (a, b): bit k-1 of `a` is the
  coefficient of alpha_k, bit k-1 of `b` the coefficient of beta_k.
  Addition is XOR.
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


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _bits_to_text(bits: int, g: int) -> str:
    return format(bits, f"0{g}b")[::-1]


def _text_to_bits(text: str) -> int:
    # Check first: int(..., 2) alone would also accept "1_0", " 10" and "+10".
    bad = text.strip("01")
    if bad:
        raise ValueError(f"matrix rows must consist of 0/1 characters, got {bad[0]!r}")
    return int(text[::-1], 2)


@dataclass(frozen=True)
class HomologyClass:
    """A Z/2 first-homology class of a genus-g surface.

    >>> x = HomologyClass(3, a=0b001, b=0b010)   # alpha_1 + beta_2
    >>> x + x == HomologyClass(3, 0, 0)
    True
    """

    g: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError(f"genus must be >= 1, got {self.g}")
        mask = (1 << self.g) - 1
        if not 0 <= self.a <= mask or not 0 <= self.b <= mask:
            raise ValueError("coefficient word out of range for genus")

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        if self.g != other.g:
            raise ValueError(f"genus mismatch: {self.g} != {other.g}")
        return HomologyClass(self.g, self.a ^ other.a, self.b ^ other.b)


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


def intersection(x: HomologyClass, y: HomologyClass) -> int:
    """Z/2 intersection number of two homology classes.

    Bilinear and alternating: x.x = 0 for every x.

    >>> alpha_1, beta_1 = HomologyClass(3, a=1, b=0), HomologyClass(3, a=0, b=1)
    >>> intersection(alpha_1, beta_1)
    1
    """
    if x.g != y.g:
        raise ValueError(f"genus mismatch: {x.g} != {y.g}")
    return _parity(x.a & y.b) ^ _parity(x.b & y.a)


def evaluate(matrix: SpinMatrix, x: HomologyClass) -> int:
    """Value of the spin structure on an arbitrary homology class.

    c(x) = sum_k a_k b_k + sum_k (a_k c(alpha_k) + b_k c(beta_k)) over Z/2,
    where x has coefficients (a, b).  Restricted to the basis this returns
    the matrix entries themselves.
    """
    if matrix.g != x.g:
        raise ValueError(f"genus mismatch: {matrix.g} != {x.g}")
    return _parity(x.a & x.b) ^ _parity(x.a & matrix.top) ^ _parity(x.b & matrix.bottom)


def arf(matrix: SpinMatrix) -> int:
    """Arf invariant: sum_k c(alpha_k) c(beta_k) over Z/2.

    A complete invariant for the full symplectic-group action; constant on
    every twist orbit.
    """
    return _parity(matrix.top & matrix.bottom)


def dehn_twist(matrix: SpinMatrix, gamma: HomologyClass) -> SpinMatrix:
    """Pull back the spin structure along the twist transvection about gamma.

    The transvection T(x) = x + (x.gamma) gamma turns c into
    x -> c(x) + (x.gamma)(c(gamma) + 1); evaluated on the basis this leaves
    the matrix unchanged when c(gamma) = 1 and otherwise adds gamma's
    beta-word to the top row and alpha-word to the bottom row.  Applying
    the same twist twice restores the matrix.
    """
    if matrix.g != gamma.g:
        raise ValueError(f"genus mismatch: {matrix.g} != {gamma.g}")
    if evaluate(matrix, gamma):
        return matrix
    return SpinMatrix(matrix.g, matrix.top ^ gamma.b, matrix.bottom ^ gamma.a)
