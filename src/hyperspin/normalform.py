"""Canonical forms and the traced reduction to an orbit representative.

Orbit representatives.  For m >= 1 the alternating block of width 2m-1
(all-ones top row, bottom row 1,0,1,...,0,1) padded right with zero columns
is the canonical representative of the class-m orbit; the all-zero matrix
represents class 0.  The class index runs 0..ceil(g/2).

Stabilizer forms.  The class-m stabilizer form is defined by its fixing
set: it is the one matrix fixed by every generator except s_{g+1+2m}, so
its stabilizer can be read off generator by generator.

Reduction.  The reducer's composite steps are built from five
single-generator moves, each of which has its effect only under its guard:

    flip-bottom(i)   s_{2i},    needs c(alpha_i) = 0;  flips c(beta_i)
    flip-top-first   s_1,       needs c(beta_1) = 0;   flips c(alpha_1)
    swap-tops(j)     s_{2j+1},  needs c(beta_j) = c(beta_{j+1});
                                exchanges unequal c(alpha_j), c(alpha_{j+1})
    cancel-tops(j)   s_{2j+1},  same guard; flips equal c(alpha_j), c(alpha_{j+1})
    flip-top-last    s_{2g+1},  needs c(beta_g) = 0;   flips c(alpha_g)

The driver below normalizes (0,1) columns away, then repeatedly cancels the
rightmost adjacent pair of equal nonzero columns — two (1,1) columns are
first made adjacent by filling the bottom row of the gap and sliding the
right column's top bit leftwards — kills leftover (1,0) columns at the
board edges, and finally packs the survivors (which alternate (1,1), (1,0),
..., (1,1)) into the leading columns.  Of k survivors, (k+1)//2 are (1,1)
columns; that is the class index m.  Each step states the exact matrix it
must produce, the end state is checked once against canonical_form(g, m)
(survivors that do not alternate pack to some other matrix), and the
driver aborts with ReductionInvariantError on any mismatch.

Trace serialization (one step per line): ``<moveName> <word> -> <matrix>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import Word, _act_letter, apply_word, format_word
from .gf2 import SpinMatrix

# Column patterns of a 2 x g matrix, named by which bits are set.
_FULL = 3  # (1,1)
_TOP = 1  # (1,0)
_BOT = 2  # (0,1)


class ReductionInvariantError(RuntimeError):
    """A reduction step did not have its intended effect."""


def _alternating_bottom(i: int) -> int:
    """Bottom row 1,0,1,...,0,1 of the width-(2i-1) block: bits 0, 2, ..., 2i-2."""
    return ((1 << 2 * i) - 1) // 3


def _max_class(g: int) -> int:
    return (g + 1) // 2


def canonical_form(g: int, m: int) -> SpinMatrix:
    """The class-m orbit representative: alternating block padded with zeros.

    >>> str(canonical_form(5, 2))
    '11100/10100'
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if not 0 <= m <= _max_class(g):
        raise ValueError(f"class index {m} out of range 0..{_max_class(g)} for genus {g}")
    return SpinMatrix(g, ((1 << 2 * m) - 1) >> 1, _alternating_bottom(m))


def stabilizer_form(g: int, m: int) -> SpinMatrix:
    """The class-m matrix fixed by every generator except s_{g+1+2m}.

    A generator fixes a matrix exactly when its move's guard fails: s_{2i}
    when c(alpha_i) = 1, s_1 when c(beta_1) = 1, s_{2g+1} when c(beta_g) = 1
    and s_{2k+1} when c(beta_k) != c(beta_{k+1}).  Dropping the guard of
    s_{g+1+2m} leaves one solution.  With j = (g+1)//2 + m:

    - odd g (s_{2j} moves): the top row is all ones except column j (no
      exception when j = g+1); the bottom row is 1,0,1,...,0,1;
    - even g (s_{2j+1} moves): the top row is all ones; the bottom row
      alternates 1,0,... through column j, and from column j+1 on is 1
      exactly in the even columns.

    The order-reversing involution additionally fixes the m = 0 form.

    >>> str(stabilizer_form(3, 0))
    '101/101'
    >>> str(stabilizer_form(4, 0))
    '1111/1001'
    >>> str(stabilizer_form(5, 0))
    '11011/10101'
    """
    if g < 3:
        raise ValueError(f"genus must be >= 3, got {g}")
    if not 0 <= m <= _max_class(g):
        raise ValueError(f"class index {m} out of range 0..{_max_class(g)} for genus {g}")
    full = (1 << g) - 1
    j = _max_class(g) + m
    if g % 2:
        return SpinMatrix(g, full & ~(1 << j - 1), _alternating_bottom(_max_class(g)))
    odd_columns = _alternating_bottom(g // 2)
    head = odd_columns & (1 << j) - 1
    tail = (full ^ odd_columns) >> j << j
    return SpinMatrix(g, full, head | tail)


def fixed_point_matrix(g: int) -> SpinMatrix | None:
    """The unique matrix fixed by every generator, or None for even genus.

    For odd g the odd columns are (1,1) and the even columns (1,0), i.e. the
    full-width alternating block; for even g no matrix is fixed by all
    generators (the edge and pair constraints on the bottom row conflict).
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if g % 2 == 0:
        return None
    return canonical_form(g, (g + 1) // 2)


# ---------------------------------------------------------------------------
# Traced reduction


@dataclass(frozen=True)
class ReductionStep:
    move: str
    word: Word
    after: SpinMatrix

    def to_text(self) -> str:
        return f"{self.move} {format_word(self.word)} -> {self.after}"


@dataclass(frozen=True)
class ReductionTrace:
    start: SpinMatrix
    steps: tuple[ReductionStep, ...]
    class_index: int

    @property
    def total_word(self) -> Word:
        return tuple(i for step in self.steps for i in step.word)

    @property
    def result(self) -> SpinMatrix:
        return self.steps[-1].after if self.steps else self.start

    def to_text(self) -> str:
        return "\n".join(step.to_text() for step in self.steps)


def _column_kinds(top: int, bottom: int) -> list[tuple[int, int]]:
    """Nonzero columns as (position, pattern), left to right."""
    out = []
    occupied = top | bottom
    while occupied:
        low = occupied & -occupied
        pattern = (_TOP if top & low else 0) | (_BOT if bottom & low else 0)
        out.append((low.bit_length(), pattern))
        occupied ^= low
    return out


def _window(lo: int, hi: int) -> int:
    """Bit mask of columns lo..hi; lo = hi + 1 gives the empty mask."""
    return ((1 << hi) - 1) ^ ((1 << (lo - 1)) - 1)


class _Driver:
    """Mutable reduction state; emits verified steps."""

    def __init__(self, matrix: SpinMatrix, record: bool):
        self.g = matrix.g
        self.top = matrix.top
        self.bottom = matrix.bottom
        self.steps: list[ReductionStep] = [] if record else None  # type: ignore[assignment]

    def emit(self, name: str, word: Word, want: tuple[int, int], what: str) -> None:
        """Apply word; the rows must then be exactly want."""
        g, top, bottom = self.g, self.top, self.bottom
        for i in word:
            top, bottom = _act_letter(g, top, bottom, i)
        self.top, self.bottom = top, bottom
        if (top, bottom) != want:
            raise ReductionInvariantError(
                f"reduction step did not {what} (state {SpinMatrix(g, top, bottom)})"
            )
        if self.steps is not None:
            self.steps.append(ReductionStep(name, word, SpinMatrix(g, top, bottom)))

    def placed(self, lo: int, hi: int, top: int, bottom: int) -> tuple[int, int]:
        """Current rows with columns lo..hi replaced by (top, bottom), bit 0 at column lo."""
        keep = ~_window(lo, hi)
        shift = lo - 1
        return (self.top & keep) | top << shift, (self.bottom & keep) | bottom << shift

    # -- verified composite moves ------------------------------------------

    def clear_bottom_columns(self, columns: list[int]) -> None:
        """Zero the bottom bit of (0,1) columns; tops are untouched."""
        named = 0
        for k in columns:
            named |= 1 << (k - 1)
        self.emit(
            "clear-bottom-columns",
            tuple(2 * k for k in columns),
            (self.top & ~named, self.bottom & ~named),
            "leave the top row unchanged",
        )

    def cancel_full_pair(self, s: int) -> None:
        """Turn adjacent (1,1) columns at s, s+1 into (0,1) columns."""
        self.emit(
            "cancel-full-pair",
            (2 * s + 1,),
            self.placed(s, s + 1, 0b00, 0b11),
            f"cancel the top entries of columns {s},{s + 1}",
        )

    def align_full_pair(self, s: int, i: int) -> None:
        """Slide the (1,1) column at i next to the one at s (gap all zero).

        Fills the bottom row of columns s+1..i-1, then moves the top bit of
        column i left to column s+1; afterwards columns s, s+1 are (1,1) and
        s+2..i are (0,1).
        """
        fill = [2 * k for k in range(s + 1, i)]
        slide = [2 * j + 1 for j in range(i - 1, s, -1)]
        self.emit(
            "align-full-pair",
            tuple(fill + slide),
            self.placed(s, i, 0b11, (1 << (i - s + 1)) - 1),
            f"bring the far column next to column {s}",
        )

    def cancel_top_pair(self, p: int, q: int) -> None:
        """Annihilate (1,0) columns at p < q across an all-zero gap."""
        self.emit(
            "cancel-top-pair",
            tuple(2 * j + 1 for j in range(q - 1, p - 1, -1)),
            self.placed(p, q, 0, 0),
            f"annihilate the columns {p},{q}",
        )

    def drop_top_left(self, p: int) -> None:
        """Slide a leading (1,0) column to column 1 and clear it there."""
        word = tuple(2 * j + 1 for j in range(p - 1, 0, -1)) + (1,)
        self.emit("drop-top-left", word, self.placed(1, p, 0, 0), "clear the leading column")

    def drop_top_right(self, p: int) -> None:
        """Slide a trailing (1,0) column to column g and clear it there."""
        g = self.g
        word = tuple(2 * j + 1 for j in range(p, g)) + (2 * g + 1,)
        self.emit("drop-top-right", word, self.placed(p, g, 0, 0), "clear the trailing column")

    def pack_full_column(self, s: int, t: int) -> None:
        """Move a (1,1) column left from s to t through zero columns."""
        fill = [2 * k for k in range(t, s)]
        slide = [2 * j + 1 for j in range(s - 1, t - 1, -1)]
        clear = [2 * k for k in range(t + 1, s + 1)]
        self.emit(
            "pack-full-column",
            tuple(fill + slide + clear),
            self.placed(t, s, 1, 1),
            f"land the column on {t}",
        )

    def pack_top_column(self, s: int, t: int) -> None:
        """Move a (1,0) column left from s to t through zero columns."""
        self.emit(
            "pack-top-column",
            tuple(2 * j + 1 for j in range(s - 1, t - 1, -1)),
            self.placed(t, s, 1, 0),
            f"land the column on {t}",
        )


def _rightmost_equal_pair(
    columns: list[tuple[int, int]],
) -> tuple[int, int, int] | None:
    """Rightmost adjacent equal pair among nonzero columns: (pos, pos', kind)."""
    for idx in range(len(columns) - 2, -1, -1):
        (p, kind), (q, kind2) = columns[idx], columns[idx + 1]
        if kind == kind2:
            return p, q, kind
    return None


def reduce_to_canonical(matrix: SpinMatrix, record: bool = True) -> ReductionTrace:
    """Drive a spin matrix onto its orbit representative, recording the steps.

    Replaying the returned word on the input yields canonical_form(g, m)
    where m is the reported class index: the end state is compared with
    that form once, after packing, and any other end state raises
    ReductionInvariantError.  Already-canonical inputs return an empty
    trace.

    >>> trace = reduce_to_canonical(SpinMatrix.from_text("11111/10111"))
    >>> trace.class_index, trace.total_word
    (2, (9, 8, 10))
    """
    g = matrix.g
    if g < 3:
        raise ValueError(f"reduction needs genus >= 3, got {g}")

    drv = _Driver(matrix, record)

    columns = _column_kinds(drv.top, drv.bottom)
    bottoms = [k for k, kind in columns if kind == _BOT]
    if bottoms:
        drv.clear_bottom_columns(bottoms)
        columns = _column_kinds(drv.top, drv.bottom)

    while True:
        count = len(columns)
        pair = _rightmost_equal_pair(columns)
        if pair is not None:
            s, i, kind = pair
            if kind == _FULL:
                if i > s + 1:
                    drv.align_full_pair(s, i)
                drv.cancel_full_pair(s)
                drv.clear_bottom_columns(list(range(s, i + 1)))
            else:
                drv.cancel_top_pair(s, i)
        elif columns and columns[0][1] == _TOP:
            drv.drop_top_left(columns[0][0])
        elif columns and columns[-1][1] == _TOP:
            drv.drop_top_right(columns[-1][0])
        else:
            break
        columns = _column_kinds(drv.top, drv.bottom)
        remaining = len(columns)
        if remaining >= count:
            raise ReductionInvariantError(
                f"no progress: {count} -> {remaining} nonzero columns"
            )

    for target, (pos, kind) in enumerate(columns, start=1):
        if pos == target:
            continue
        if kind == _FULL:
            drv.pack_full_column(pos, target)
        else:
            drv.pack_top_column(pos, target)

    m = (len(columns) + 1) // 2
    final = SpinMatrix(g, drv.top, drv.bottom)
    if final != canonical_form(g, m):
        raise ReductionInvariantError(f"landed on {final}, not the class-{m} form")
    steps = tuple(drv.steps) if record else ()
    if record and apply_word(matrix, tuple(i for s in steps for i in s.word)) != final:
        raise ReductionInvariantError("trace word does not replay to the final matrix")
    return ReductionTrace(matrix, steps, m)


def class_index(matrix: SpinMatrix) -> int:
    """The orbit class index of a matrix (reduction without trace records)."""
    return reduce_to_canonical(matrix, record=False).class_index
