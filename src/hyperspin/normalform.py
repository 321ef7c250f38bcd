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

The reducer normalizes (0,1) columns away, then repeatedly cancels the
rightmost adjacent pair of equal nonzero columns — two (1,1) columns are
first made adjacent by filling the bottom row of the gap and sliding the
right column's top bit leftwards — kills leftover (1,0) columns at the
board edges, and finally packs the survivors (which alternate (1,1), (1,0),
..., (1,1)) into the leading columns.  Of k survivors, (k+1)//2 are (1,1)
columns; that is the class index m.

Each composite move is one to three runs of letters.  An even run
range(2a, 2b, 2) flips the bottom bit of each column a..b-1 whose top bit
is 0.  Across columns with equal bottom bits, an odd run range(2q-1, 2p, -2)
carries column q's top bit left to column p (p = 0: off the board), and
range(2p+1, 2g+2, 2) carries column p's top bit right off the board.
Each move states its window's exact columns afterwards; the rest stay:

  move                  letter runs                     window  after
  clear-bottom-columns  2k for each (0,1) column k      those   (0,0)
                        range(2s, 2i+2, 2)              s..i    (0,0) ...
  align-full-pair       range(2s+2, 2i, 2),             s..i    (1,1) (1,1)
                        range(2i-1, 2s+2, -2)                   (0,1) ...
  cancel-full-pair      2s+1                            s..s+1  (0,1) (0,1)
  cancel-top-pair       range(2q-1, 2p, -2)             p..q    (0,0) ...
  drop-top-left         range(2p-1, 0, -2)              1..p    (0,0) ...
  drop-top-right        range(2p+1, 2g+2, 2)            p..g    (0,0) ...
  pack-full-column      range(2t, 2s, 2),               t..s    (1,1) (0,0) ...
                        range(2s-1, 2t, -2),
                        range(2t+2, 2s+2, 2)
  pack-top-column       range(2s-1, 2t, -2)             t..s    (1,0) (0,0) ...

A step that leaves any other matrix, a pass that does not lower the packed
key top | bottom << g, an end state other than canonical_form(g, m)
(survivors that do not alternate pack to some other matrix) and, when
recording, a trace word that does not replay to it all raise
SelfCheckError.

Passes.  _pass applies the one guarded pass that fits the current rows:
clear-bottom-columns while a (0,1) column is left, else one loop pass
(align, cancel and clear together), else one pack move; it returns None
when none applies, and _end_class then checks the end state.  Every pass
lowers the key: clear-bottom-columns clears bottom bits, a loop pass
zeroes its window and leaves the other columns alone, and a pack move
shifts one column's bits to a column further left.  reduce_to_canonical
(and class_index) repeat passes until none applies.  class_table makes
one pass per key, in increasing key order, and takes the class of the
lower key it lands on; so it steps every key but the canonical forms
exactly once, every step under its guards.

Trace serialization (one step per line): ``<moveName> <word> -> <matrix>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .braid import Word, _act_letter, apply_word, format_word
from .gf2 import SpinMatrix

# Column patterns of a 2 x g matrix, named by which bits are set.
_FULL = 3  # (1,1)
_TOP = 1  # (1,0)
_BOT = 2  # (0,1)


class SelfCheckError(RuntimeError):
    """An internal cross-check failed; the computed data contradicts itself."""


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
    """A reduction of start onto canonical_form(g, class_index).

    steps and total_word are empty unless the reduction was recorded;
    result is the canonical form either way.
    """

    start: SpinMatrix
    steps: tuple[ReductionStep, ...]
    class_index: int

    @property
    def total_word(self) -> Word:
        return tuple(i for step in self.steps for i in step.word)

    @property
    def result(self) -> SpinMatrix:
        return canonical_form(self.start.g, self.class_index)


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


def _rightmost_equal_pair(
    columns: list[tuple[int, int]],
) -> tuple[int, int, int] | None:
    """Rightmost adjacent equal pair among nonzero columns: (pos, pos', kind)."""
    for idx in range(len(columns) - 2, -1, -1):
        (p, kind), (q, kind2) = columns[idx], columns[idx + 1]
        if kind == kind2:
            return p, q, kind
    return None


def _pass(
    g: int, top: int, bottom: int, steps: list[ReductionStep] | None
) -> tuple[int, int] | None:
    """Apply the one guarded pass that fits the rows; return the rows after it.

    The pass is clear-bottom-columns if a (0,1) column is left, else one
    loop pass on the rightmost equal pair, else drop-top-left or
    drop-top-right, else the pack move of the first unpacked column.  None
    means no pass applies.  Steps are appended to steps unless it is None.
    """

    def placed(lo: int, hi: int, t: int, b: int) -> tuple[int, int]:
        """The rows with columns lo..hi rewritten as (t, b), bit 0 at column lo."""
        keep = ~((1 << hi) - (1 << lo - 1))
        return (top & keep) | t << lo - 1, (bottom & keep) | b << lo - 1

    def emit(name: str, word: Sequence[int], want: tuple[int, int]) -> None:
        """Apply word; the rows must then be exactly want."""
        nonlocal top, bottom
        for i in word:
            top, bottom = _act_letter(g, top, bottom, i)
        if (top, bottom) != want:
            raise SelfCheckError(
                f"{name} {format_word(word)} left {SpinMatrix(g, top, bottom)}, "
                f"not {SpinMatrix(g, *want)}"
            )
        if steps is not None:
            steps.append(ReductionStep(name, tuple(word), SpinMatrix(g, top, bottom)))

    lone = bottom & ~top
    if lone:
        bottoms = [2 * k for k, _ in _column_kinds(0, lone)]
        emit("clear-bottom-columns", bottoms, (top, top & bottom))
        return top, bottom
    columns = _column_kinds(top, bottom)
    if (pair := _rightmost_equal_pair(columns)) is not None:
        s, i, kind = pair
        if kind == _FULL:
            if i > s + 1:
                emit(
                    "align-full-pair",
                    (*range(2 * s + 2, 2 * i, 2), *range(2 * i - 1, 2 * s + 2, -2)),
                    placed(s, i, 0b11, (1 << i - s + 1) - 1),
                )
            emit("cancel-full-pair", (2 * s + 1,), placed(s, s + 1, 0b00, 0b11))
            emit("clear-bottom-columns", range(2 * s, 2 * i + 2, 2), placed(s, i, 0, 0))
        else:
            emit("cancel-top-pair", range(2 * i - 1, 2 * s, -2), placed(s, i, 0, 0))
    elif columns and columns[0][1] == _TOP:
        p = columns[0][0]
        emit("drop-top-left", range(2 * p - 1, 0, -2), placed(1, p, 0, 0))
    elif columns and columns[-1][1] == _TOP:
        p = columns[-1][0]
        emit("drop-top-right", range(2 * p + 1, 2 * g + 2, 2), placed(p, g, 0, 0))
    else:
        for t, (s, kind) in enumerate(columns, start=1):
            if s != t:
                break
        else:
            return None
        if kind == _FULL:
            emit(
                "pack-full-column",
                (*range(2 * t, 2 * s, 2), *range(2 * s - 1, 2 * t, -2),
                 *range(2 * t + 2, 2 * s + 2, 2)),
                placed(t, s, 1, 1),
            )
        else:
            emit("pack-top-column", range(2 * s - 1, 2 * t, -2), placed(t, s, 1, 0))
    return top, bottom


def _lower_key(g: int, key: int, rows: tuple[int, int]) -> int:
    """The packed key of the rows a pass from key reached; it must be lower."""
    lower = rows[0] | rows[1] << g
    if lower >= key:
        raise SelfCheckError(f"a pass from key {key} reached key {lower}, not a lower one")
    return lower


def _end_class(g: int, top: int, bottom: int) -> int:
    """The class index m of rows no pass applies to; they must be canonical_form(g, m)."""
    m = (top.bit_count() + 1) // 2
    final = SpinMatrix(g, top, bottom)
    if final != canonical_form(g, m):
        raise SelfCheckError(f"landed on {final}, not the class-{m} form")
    return m


def reduce_to_canonical(matrix: SpinMatrix, record: bool = True) -> ReductionTrace:
    """Drive a spin matrix onto its orbit representative, recording the steps.

    Replaying the returned word on the input yields canonical_form(g, m)
    where m is the reported class index: the end state is compared with
    that form once, after packing, and any other end state raises
    SelfCheckError, as does any other failed guard.  Already-canonical
    inputs return an empty trace.

    >>> trace = reduce_to_canonical(SpinMatrix.from_text("11111/10111"))
    >>> trace.class_index, trace.total_word
    (2, (9, 8, 10))
    """
    g = matrix.g
    if g < 3:
        raise ValueError(f"reduction needs genus >= 3, got {g}")
    steps: list[ReductionStep] | None = [] if record else None
    top, bottom, key = matrix.top, matrix.bottom, matrix.key()
    while (rows := _pass(g, top, bottom, steps)) is not None:
        key = _lower_key(g, key, rows)
        top, bottom = rows
    m = _end_class(g, top, bottom)
    if not record:
        return ReductionTrace(matrix, (), m)
    if apply_word(matrix, tuple(i for step in steps for i in step.word)) != canonical_form(g, m):
        raise SelfCheckError("trace word does not replay to the final matrix")
    return ReductionTrace(matrix, tuple(steps), m)


def class_table(g: int) -> bytearray:
    """The class index of every packed key 0..4^g-1, one byte each.

    Each key takes one pass, in increasing key order.  The pass lands on a
    lower key, already in the table, and _pass reads nothing but the rows,
    so the reduction from this key goes on as the one from that key and
    this key gets that key's class.  A key no pass applies to gets its
    class from the end-state check.  A pass that does not lower the key
    raises SelfCheckError.
    """
    if g < 3:
        raise ValueError(f"reduction needs genus >= 3, got {g}")
    table = bytearray(1 << 2 * g)
    mask = (1 << g) - 1
    for key in range(len(table)):
        top, bottom = key & mask, key >> g
        rows = _pass(g, top, bottom, None)
        if rows is None:
            table[key] = _end_class(g, top, bottom)
        else:
            table[key] = table[_lower_key(g, key, rows)]
    return table


def class_index(matrix: SpinMatrix) -> int:
    """The orbit class index of a matrix (reduction without trace records)."""
    return reduce_to_canonical(matrix, record=False).class_index
