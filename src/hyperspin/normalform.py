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

A step that leaves any other matrix, a pass that leaves a (0,1) column or
does not lower the packed key top | bottom << g, an end state other than
canonical_form(g, m) (survivors that do not alternate pack to some other
matrix) and, when recording, a trace word that does not replay to it all
raise SelfCheckError.

Passes.  _plan reads the one pass that fits the current rows as a list
of steps, each a word and the window it must leave, and _pass applies
them under their guards to the packed key top | bottom << g, which it
unpacks once, for _plan.  The pass is clear-bottom-columns while a (0,1)
column is left, else one loop pass (align, cancel and clear together),
else drop-top-left or drop-top-right, else one pack move; _plan returns
None when none applies, and _end_class then checks the end state.  Every
pass leaves no (0,1) column and lowers the key: clear-bottom-columns
clears bottom bits, a loop pass zeroes its window and leaves the other
columns alone, a drop clears one top bit, and a pack move shifts one
column's bits to a column further left.  _pass checks both where the pass
lands, and its callers rely on that.  reduce_to_canonical (and
class_index) repeat passes until none applies; when recording, _pass
appends each step to the trace's steps as (move, word, packed key after
it), and no matrix is built until lines() is called.  class_table (numpy loads
on its first call) steps every key but the canonical forms exactly once, every
step under its guards, and takes the class of the lower key it lands on.  The
4^g - 3^g keys with a (0,1) column take clear-bottom-columns together, one
letter of _plan's word at a time over an array of all the packed keys; its
exact post-state makes each land on a lower key, and _pass reports a failure.
The 3^g keys whose bottom row lies within the top row take one scalar _pass
each, in increasing key order, and land on lower keys of that kind.

Trace serialization (ReductionTrace.lines(), one step per line):
``<moveName> <word> -> <matrix>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .braid import Word, _act_letter, apply_word, format_word
from .gf2 import SpinMatrix


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
class ReductionTrace:
    """A reduction of start onto canonical_form(g, class_index).

    steps holds one (move, word, packed key after it) per recorded step and
    is empty unless the reduction was recorded; result is the canonical form
    either way.
    """

    start: SpinMatrix
    steps: tuple[tuple[str, Word, int], ...]
    class_index: int

    @property
    def total_word(self) -> Word:
        return tuple(chain.from_iterable(word for _, word, _ in self.steps))

    @property
    def result(self) -> SpinMatrix:
        return canonical_form(self.start.g, self.class_index)

    def lines(self) -> list[str]:
        """Each step as ``<move> <word> -> <matrix>``, its matrix built here."""
        g = self.start.g
        return [
            f"{move} {format_word(word)} -> {SpinMatrix.from_key(g, key)}"
            for move, word, key in self.steps
        ]


def _rightmost_equal_pair(top: int, bottom: int) -> tuple[int, int] | None:
    """Rightmost adjacent equal pair among the nonzero columns: (pos, pos').

    bottom must lie within top, so the nonzero columns are the set bits of
    top and each one's pattern is its bottom bit.
    """
    i = top.bit_length()
    while i and (below := top & (1 << i - 1) - 1):
        s = below.bit_length()
        if not (bottom >> s - 1 ^ bottom >> i - 1) & 1:
            return s, i
        i = s
    return None


def _plan(g: int, top: int, bottom: int) -> list[tuple] | None:
    """The one pass that fits the rows, as steps (name, word, lo, hi, t, b).

    A step applies word; columns lo..hi must then read (t, b), bit 0 at
    column lo, and every other column stays as it was.  The pass is
    clear-bottom-columns if a (0,1) column is left, else one loop pass on
    the rightmost equal pair, else drop-top-left or drop-top-right, else the
    pack move of the first unpacked column.  None means no pass applies.
    """
    lone = bottom & ~top
    if lone:
        word = []  # letter 2k for each (0,1) column k, in increasing k
        while lone:
            word.append(2 * (low := lone & -lone).bit_length())
            lone ^= low
        return [("clear-bottom-columns", word, 1, g, top, top & bottom)]
    # now bottom lies within top: the nonzero columns are top's set bits
    if (pair := _rightmost_equal_pair(top, bottom)) is not None:
        s, i = pair
        if not bottom >> i - 1 & 1:
            return [("cancel-top-pair", range(2 * i - 1, 2 * s, -2), s, i, 0, 0)]
        plan = []
        if i > s + 1:
            word = (*range(2 * s + 2, 2 * i, 2), *range(2 * i - 1, 2 * s + 2, -2))
            plan.append(("align-full-pair", word, s, i, 0b11, (1 << i - s + 1) - 1))
        plan.append(("cancel-full-pair", (2 * s + 1,), s, s + 1, 0b00, 0b11))
        plan.append(("clear-bottom-columns", range(2 * s, 2 * i + 2, 2), s, i, 0, 0))
        return plan
    if top & -top & ~bottom:
        p = (top & -top).bit_length()
        return [("drop-top-left", range(2 * p - 1, 0, -2), 1, p, 0, 0)]
    p = top.bit_length()
    if p and not bottom >> p - 1 & 1:
        return [("drop-top-right", range(2 * p + 1, 2 * g + 2, 2), p, g, 0, 0)]
    t = (top + 1 & ~top).bit_length()  # the first zero column
    if not top >> t:
        return None
    s = t + (top >> t & -(top >> t)).bit_length()  # the first nonzero column after it
    if bottom >> s - 1 & 1:
        word = (*range(2 * t, 2 * s, 2), *range(2 * s - 1, 2 * t, -2),
                *range(2 * t + 2, 2 * s + 2, 2))
        return [("pack-full-column", word, t, s, 1, 1)]
    return [("pack-top-column", range(2 * s - 1, 2 * t, -2), t, s, 1, 0)]


def _pass(g: int, key: int, steps: list[tuple[str, Word, int]] | None) -> int | None:
    """Apply the steps of _plan to the key under their guards; return the key.

    Each step must leave exactly the key it states, and the pass must land
    on a lower key with no (0,1) column, as the callers rely on.  None means
    no pass applies.  Unless steps is None, each step is appended to it as
    (name, word, key after the step), with no matrix built.
    """
    plan = _plan(g, key & (1 << g) - 1, key >> g)
    if plan is None:
        return None
    start = key
    for name, word, lo, hi, t, b in plan:
        window = (1 << hi) - (1 << lo - 1)
        want = key & ~(window | window << g) | (t | b << g) << lo - 1
        for i in word:
            key = _act_letter(g, key, i)
        if key != want:
            raise SelfCheckError(
                f"{name} {format_word(word)} left {SpinMatrix.from_key(g, key)}, "
                f"not {SpinMatrix.from_key(g, want)}"
            )
        if steps is not None:
            steps.append((name, tuple(word), key))
    if key >> g & ~key:
        left = SpinMatrix.from_key(g, key)
        raise SelfCheckError(f"a pass from key {start} left (0,1) columns: {left}")
    if key >= start:
        raise SelfCheckError(f"a pass from key {start} reached key {key}, not a lower one")
    return key


def _end_class(g: int, key: int) -> int:
    """The class index m of a key no pass applies to; it must be canonical_form(g, m)."""
    m = ((key & (1 << g) - 1).bit_count() + 1) // 2
    if key != canonical_form(g, m).key():
        raise SelfCheckError(f"landed on {SpinMatrix.from_key(g, key)}, not the class-{m} form")
    return m


def reduce_to_canonical(matrix: SpinMatrix, record: bool = True) -> ReductionTrace:
    """Drive a spin matrix onto its orbit representative, recording the steps.

    Replaying the returned word on the input yields canonical_form(g, m)
    where m is the reported class index: the end state is compared with
    that form once, after packing, and any other end state raises
    SelfCheckError, as does a failed guard of _pass, which also makes each
    pass lower the key.  Already-canonical inputs return an empty trace.

    >>> trace = reduce_to_canonical(SpinMatrix.from_text("11111/10111"))
    >>> trace.class_index, trace.total_word
    (2, (9, 8, 10))
    """
    g = matrix.g
    if g < 3:
        raise ValueError(f"reduction needs genus >= 3, got {g}")
    steps: list[tuple[str, Word, int]] | None = [] if record else None
    key = matrix.key()
    while (landed := _pass(g, key, steps)) is not None:
        key = landed
    trace = ReductionTrace(matrix, tuple(steps or ()), _end_class(g, key))
    if record and apply_word(matrix, trace.total_word) != trace.result:
        raise SelfCheckError("trace word does not replay to the final matrix")
    return trace


def _clear_bottom_keys(g: int):
    """The key clear-bottom-columns leaves from every key, and where it applies.

    Returns (landed, lone) arrays indexed by key: landed holds keys in the
    least unsigned dtype that holds 2g bits, and lone marks the keys with a
    (0,1) column.  Each letter of _plan's word for the all-(0,1) key acts,
    in place, on the keys whose column is (0,1) at that letter, so every key
    gets its own word and a key without a (0,1) column stays.  Every key
    top | bottom << g must then land on top | (top & bottom) << g, which
    lowers each key with a (0,1) column.  At the least key that does not,
    _pass raises its SelfCheckError, or else one says the array and scalar
    steps disagree.
    """
    import numpy as np

    mask = (1 << g) - 1
    keys = np.arange(1 << 2 * g, dtype=np.min_scalar_type((1 << 2 * g) - 1))
    landed = keys.copy()
    [(_, word, *_)] = _plan(g, 0, mask)
    for k, i in enumerate(word):
        np.copyto(landed, _act_letter(g, landed, i), where=(landed >> g & ~landed & 1 << k) != 0)
    wrong = landed != keys & (keys << g | mask)
    if wrong.any():
        key = int(wrong.argmax())
        _pass(g, key, None)
        raise SelfCheckError(f"the array and scalar clear-bottom steps disagree at key {key}")
    return landed, keys >> g & ~keys != 0


def class_table(g: int) -> bytearray:
    """The class index of every packed key 0..4^g-1, one byte each.

    Each key but the canonical forms takes exactly one pass.  The 4^g - 3^g
    keys with a (0,1) column take clear-bottom-columns together in
    _clear_bottom_keys, with _plan's word and _pass's failure message; its
    exact post-state lands them on lower keys whose bottom row lies within
    the top row.  Those 3^g keys take one scalar pass each, in increasing
    key order.  _pass checks that such a pass lands on a lower key of the
    same kind, already in the table, and it reads nothing but the packed
    key, so the reduction from this key goes on as the one from that key
    and this key gets that key's class.  A key no pass applies to gets its
    class from the end-state check.  The keys with a (0,1) column then read
    the class of the key they landed on, in one gather.
    """
    if g < 3:
        raise ValueError(f"reduction needs genus >= 3, got {g}")
    import numpy as np

    landed, lone = _clear_bottom_keys(g)
    table = bytearray(1 << 2 * g)
    for key in np.flatnonzero(~lone).tolist():
        after = _pass(g, key, None)
        table[key] = _end_class(g, key) if after is None else table[after]
    classes = np.frombuffer(table, dtype=np.uint8)
    classes[:] = classes[landed]
    return table


def class_index(matrix: SpinMatrix) -> int:
    """The orbit class index of a matrix (reduction without trace records)."""
    return reduce_to_canonical(matrix, record=False).class_index
