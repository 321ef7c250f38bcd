"""Exhaustive orbit enumeration over all 2^(2g) spin matrices.

States are packed keys (top word in the low g bits, bottom word above).
Each generator orbit is closed under the 2g+1 twists, up to the
enumeration ceiling g = 12 (2^24 states), in a bitset of all keys from one
frontier, the keys whose twists are still to apply: a frontier of fewer
than 2^(2g-11) keys is twisted as a key array, a larger one by a sweep of
the whole bitset, and each step's new keys are the next frontier.  The
transvection orbits are closed the same way, under the twists about the
2g+1 Humphries curves: these generate the mapping class group (Humphries
1979; Farb and Margalit, A Primer on Mapping Class Groups, Sec. 4.4),
which maps onto Sp(2g, Z/2) (Primer, Thm 6.4), so they have the orbits of
all transvections.  The closure's bitset has one layout (_bitset) and one
reader of its set keys (_set_keys); fixed_matrices enumerates no keys.

Threads: at the ceiling a sweep runs each family's twists that keep key
bit 2g-1 on the two halves of the bitset at once, one half on the calling
thread and one on a single worker thread, started by the first such sweep
(_sweep_halves) and again in a forked child.  numpy releases the GIL in its loops, so this halves a
sweep on two cores; a one-CPU host gets no gain.  Below 2^24 keys
everything runs on the calling thread.

Determinism: orbits are seeded in increasing key order and labelled by
their minimum packed key, so the partition, census and all derived tables
are bit-reproducible.  Each orbit's minimum key is its canonical form: the
m-th orbit found is seeded by canonical_form(g, m), which census checks for
every g >= 1.  Stabilizer orders are exact integers throughout;
(2g+2)! overflows 64 bits from g = 10 on, so no fixed-width arithmetic is
used for them.

Memory: a partition is a uint8 map of orbit ordinals, 16 MB at g = 12;
4-byte minimum-key labels are derived only when asked for.  The closure
adds a 2 MB bitset, a 2 MB snapshot of it taken before each sweep, and a
sweep's temporaries, about 4 MB at g = 12 with both halves' at once; a
level twists fewer than 2^(2g-11) keys, so its images and their words stay
below 1 and 2 MB.  The passes over all keys walk them in blocks of 2^20
keys, so `verify 9..12` peaks at about 60 MB (ru_maxrss of the process).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .braid import apply_generator, apply_word, flip_word, generator_class
from .gf2 import SpinMatrix, arf
from .normalform import SelfCheckError, canonical_form, stabilizer_form

MAX_ENUMERATION_GENUS = 12
MAX_SP_GENUS = 6
_KEY_BLOCK = 1 << 20  # keys per block in the passes over all keys
_HALVED_KEYS = 1 << 24  # a closure over this many keys sweeps its bitset in halves
_LOW_HALVES = [np.uint64(sum(1 << b for b in range(64) if not b >> j & 1)) for j in range(6)]


def _check_enumeration_genus(g: int, top: int = MAX_ENUMERATION_GENUS) -> None:
    if not 1 <= g <= top:
        raise ValueError(f"enumeration supports 1 <= g <= {top} (2^(2g) states); got g = {g}")


def twist_keys(g: int, gamma_key: int | np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized twist transvection about the class packed in gamma_key.

    c(gamma) is parity(key & gamma_key) + parity(a_gamma & b_gamma); where
    it is 0 the twist adds gamma's beta-word to the top row and its
    alpha-word to the bottom row (the scalar reference, dehn_twist in
    tests/oracles.py, states it on (a, b) words).  gamma_key may be a
    uint32 array of classes, which broadcasts against keys: keys[:, None]
    gives one column of images per class.
    """
    gamma = np.asarray(gamma_key, dtype=np.uint32)
    ga, gb = gamma & np.uint32((1 << g) - 1), gamma >> np.uint32(g)
    flip = np.bitwise_count(keys & gamma) & 1
    flip ^= (np.bitwise_count(ga & gb) & 1) ^ 1
    return keys ^ flip * (gb | ga << np.uint32(g))


def _generator_keys(g: int) -> list[int]:
    """The classes of the generators s_1..s_{2g+1}, packed as keys."""
    return [generator_class(i, g) for i in range(1, 2 * g + 2)]


def _humphries_keys(g: int) -> list[int]:
    """The 2g+1 Humphries curves, packed: the chain s_1..s_{2g}, then beta_2.

    beta_2 meets s_4 = alpha_2 and no other chain curve; at g = 1 the
    chain s_1, s_2 alone generates.
    """
    chain = _generator_keys(g)[: 2 * g]
    return chain + [1 << (g + 1)] if g >= 2 else chain


def apply_generator_keys(g: int, i: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized generator action: the twist about generator_class(i, g).
    No program caller; it stays only because perfbench/tracing.LAYERS wraps it."""
    return twist_keys(g, generator_class(i, g), keys)


def arf_keys(g: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized Arf invariant of keys below 2^(2g)."""
    # keys >> g holds only bits below g, so no mask is needed
    pairs = keys >> np.uint32(g)
    pairs &= keys
    return np.bitwise_count(pairs) & 1


def first_disagreement(partition: OrbitPartition, values) -> int | None:
    """The least key whose value differs from the value at its orbit's seed.

    values maps a uint32 key block to one uint8 value per key, and the
    seeds' values come from it too.  An orbit's seed is a member of it, so
    None means the value is constant on every orbit.
    """
    ordinals = partition.ordinals
    # Ordinal k maps to the value at seed k - 1, and an unseen key's 0 to 255.
    seeds = values(np.array(partition.orbit_ids, dtype=np.uint32)).astype("u1", casting="safe")
    table = (b"\xff" + seeds.tobytes()).ljust(256, b"\xff")
    for start in range(0, ordinals.size, _KEY_BLOCK):
        block = ordinals[start : start + _KEY_BLOCK]
        keys = np.arange(start, start + block.size, dtype=np.uint32)
        # One expression, so no block-sized array outlives its block.
        bad = np.flatnonzero(values(keys) != np.frombuffer(block.tobytes().translate(table), "u1"))
        if bad.size:
            return start + int(bad[0])
    return None


def _bitset(g: int) -> np.ndarray:
    """Zeroed little-endian words, key k at bit k & 63 of word k >> 6, shaped for _twist_plan.
    The one bitset layout: every write, test and read of a key addresses it."""
    return np.zeros((2,) * max(2 * g - 6, 0) + (1,), dtype="<u8")


def _set_keys(words: np.ndarray) -> np.ndarray:
    """The keys set in a _bitset's words, ascending, as uint32."""
    at = np.flatnonzero(words)  # the words that hold keys
    pos = np.flatnonzero(np.unpackbits(words[at].view(np.uint8), bitorder="little"))
    return (at[pos >> 6] << 6 | pos & 63).astype(np.uint32)


def _twist_plan(g: int, gamma_key: int, width: int | None = None, offset: int = 0):
    """The twist about a class with a & b = 0 as (moves, swaps) on a part of a _bitset.

    The part holds the keys below bit width (2g, the whole bitset, by
    default) with every key bit above it fixed, and offset is the parity of
    the condition bits (gamma_key) among those fixed bits.  A part has an
    axis of length 2 per key bit from bit 6 up (width-1 first) and a last
    axis of length 1, so fixing every other axis leaves a view.  For a & b =
    0 (other classes raise ValueError, as do twists that flip a fixed bit):
    the twist moves the keys whose condition bits have even parity and flips
    the disjoint bits b | a << g, as bits[dst] |= swapped(bits[src] & keep)
    for each move.  A condition bit below width fixes its axis, one move per
    value, or is in the word mask keep; a flipped bit reverses its axis in
    src, or is a delta swap.
    """
    if gamma_key >> g & gamma_key:
        raise ValueError(f"twist plan needs a & b = 0; got class key {gamma_key}")
    width = 2 * g if width is None else width
    delta = gamma_key >> g | (gamma_key & ((1 << g) - 1)) << g
    if delta >> width:
        raise ValueError(f"the twist about class key {gamma_key} flips a key bit outside the part")
    axis = {b: width - 1 - b for b in range(6, width)}
    cond = [b for b in axis if gamma_key >> b & 1]
    moves = []
    for values in itertools.product((0, 1), repeat=len(cond)):
        # the positions in a word where all condition bits have even parity
        odd = (sum(values) + offset) & 1
        keep = sum(1 << b for b in range(64) if (b & gamma_key).bit_count() & 1 == odd)
        dst = [slice(None)] * (len(axis) + 1)
        src = [slice(None, None, -1) if delta >> b & 1 else slice(None) for b in reversed(axis)]
        for b, value in zip(cond, values):
            dst[axis[b]] = src[axis[b]] = slice(value, value + 1)
        if keep:
            moves.append((tuple(dst), (*src, slice(None)), np.uint64(keep)))
    swaps = [(np.uint64(1 << j), _LOW_HALVES[j]) for j in range(6) if delta >> j & 1]
    return moves, swaps


def _sweep(bits: np.ndarray, plans) -> None:
    """bits |= tau(bits & F) in place for each _twist_plan in turn."""
    for moves, swaps in plans:
        for dst, src, keep in moves:
            moved = bits[src] & keep
            for shift, mask in swaps:  # delta swap, in place
                high = moved >> shift
                high &= mask
                moved &= mask
                moved <<= shift
                moved |= high
            view = bits[dst]
            view |= moved


def _halved_plans(g: int, family) -> tuple[list, tuple[list, list]]:
    """A family's plans for _sweep_halves: (whole, (low, high)).

    whole twists the classes that flip key bit 2g-1 (alpha_g in the class)
    on the whole _bitset; low and high twist the others on its halves, the
    keys with bit 2g-1 at 0 and at 1, which such a twist maps to themselves.
    In the high half a class with bit 2g-1 as a condition bit has offset 1.
    """
    top = 2 * g - 1
    whole = [_twist_plan(g, k) for k in family if k >> g - 1 & 1]
    halves = tuple(
        [_twist_plan(g, k, top, half & k >> top) for k in family if not k >> g - 1 & 1]
        for half in (0, 1)
    )
    return whole, halves


@functools.cache
def _worker():
    """The one thread that sweeps the high halves, started on first use."""
    from concurrent.futures import ThreadPoolExecutor  # only a g = 12 closure needs it

    return ThreadPoolExecutor(1, thread_name_prefix="hyperspin-sweep")


# A forked child has no worker thread, so it must start its own.
os.register_at_fork(after_in_child=_worker.cache_clear)


def _sweep_halves(bits: np.ndarray, families) -> None:
    """_sweep of each family's plans, from _halved_plans, in turn.

    The twists of a family commute, so their order does not change the
    bitset: first the whole-bitset ones, then the low half's on this thread
    while _worker sweeps the high half.  numpy drops the GIL in its loops,
    so the halves run on two cores; both end before the next family starts,
    and an error in either is raised here.
    """
    for whole, (low, high) in families:
        _sweep(bits, whole)
        high_half = _worker().submit(_sweep, bits[1], high)
        try:
            _sweep(bits[0], low)
        finally:
            high_half.result()


def _closure_partition(g: int, classes) -> tuple[np.ndarray, dict[int, int]]:
    """Orbit ordinals and sizes of the partition under twists about classes.

    ordinals[key] = k puts key in the k-th orbit found and 0 marks it
    unseen; sizes maps each orbit's seed to its size, so its k-th key is the
    seed of ordinal k.  Each orbit is seeded with the least key the map
    still marks unseen, its minimum key, and closed in a _bitset S from a
    frontier: the keys of S whose twists have not been applied yet.  Every
    key of S outside the frontier has all its twists in S, so when no key
    is left to twist S is closed, and, grown from the seed by twists, it is
    the seed's orbit.  Two kinds of step shrink the frontier to nothing:

    Level, while the frontier holds fewer than n >> 11 keys: one twist_keys
    call twists it about every class, and the images not yet in S, once
    each, go into S and are the next frontier.  At g <= 5, n >> 11 = 0, so
    no level runs.

    Sweep, once the frontier is larger: S |= tau(S & F), F the keys a twist
    tau moves, for the even-position classes, then the odd-position ones.
    Each set commutes (even letters read the top row and change the bottom
    one, odd letters the reverse; beta_2 joins the odd letters), so one pass
    of a set closes S under that set's whole group.  Any order gives the
    same partition, since steps run until one adds nothing; this one is
    fast, as 2g+1 twists apply every product of the two groups.  Each tau
    acts on a superset of the S the sweep started from, so every key of
    that S now has all its twists in S, and the frontier is the keys the
    sweep added, read off a snapshot of S by _set_keys; fewer than n >> 11
    of them go back to levels.  At n = 2^24 a sweep is _sweep_halves, which
    leaves the same S on two threads.

    Every orbit's ordinal is then OR-ed into the map in key blocks.
    """
    families = (classes[1::2], classes[0::2])  # evens s_2, s_4, .., then odds s_1, s_3, ..
    gammas = np.array(classes, dtype=np.uint32)
    n = 1 << (2 * g)
    if n < _HALVED_KEYS:
        sweep, plans = _sweep, [_twist_plan(g, k) for family in families for k in family]
    else:
        sweep, plans = _sweep_halves, [_halved_plans(g, family) for family in families]
    small = n >> 11  # a frontier below this many keys is twisted as a level
    ordinals = np.zeros(n, dtype=np.uint8)
    bits = _bitset(g)
    words = bits.reshape(-1)
    before = np.empty_like(words)  # S before a sweep
    sizes: dict[int, int] = {}
    seed = 0
    while True:
        seed += int(np.argmin(ordinals[seed:]))
        if ordinals[seed]:
            ordinals.setflags(write=False)  # a returned partition is immutable
            return ordinals, sizes
        ordinal = len(sizes) + 1
        if ordinal > 255:  # the largest uint8 ordinal
            raise SelfCheckError("more than 255 orbits")
        words[:] = 0
        words[seed >> 6] = 1 << (seed & 63)
        frontier = np.array([seed], dtype=np.uint32)
        size = added = 1
        while added:
            if added < small:
                fresh = twist_keys(g, gammas, frontier[:, None]).ravel()
                seen = words[fresh >> 6]  # shifted in place and freed before the sort
                seen >>= fresh & 63
                fresh = fresh[seen & 1 == 0]  # frees the images
                del seen
                fresh.sort()
                first = np.ones(fresh.size, dtype=bool)  # drop repeats
                np.not_equal(fresh[1:], fresh[:-1], out=first[1:])
                frontier = fresh[first]
                bit = np.uint64(1) << (frontier & np.uint32(63))
                np.bitwise_or.at(words, frontier >> np.uint32(6), bit)
                added = frontier.size
            else:
                np.copyto(before, words)
                sweep(bits, plans)
                before ^= words  # the keys the sweep added
                added = int(np.bitwise_count(before).sum())
                if added < small:
                    frontier = _set_keys(before)
            size += added
        for start in range(0, n, _KEY_BLOCK):
            block = words[start >> 6 : (start + _KEY_BLOCK) >> 6]
            if block.any():
                members = np.unpackbits(
                    block.view(np.uint8), count=min(n, _KEY_BLOCK), bitorder="little"
                )
                members *= np.uint8(ordinal)  # its keys are unseen, so they hold 0
                ordinals[start : start + _KEY_BLOCK] |= members
                del members  # so that one block's is alive at a time
        sizes[seed] = size


@dataclass(frozen=True, eq=False)
class OrbitPartition:
    """Partition of all packed keys into orbits.

    Both are closures: enumerate_orbits under the 2g+1 generators,
    sp_transvection_orbits under the 2g+1 Humphries twists, whose orbits
    are those of every transvection.  The orbit sizes are the closure's own
    counts, shared by sizes() and orbit_ids.  Equality is identity.
    """

    g: int
    ordinals: np.ndarray  # uint8; ordinals[key] = k: key is in orbit orbit_ids[k-1]
    _sizes: dict[int, int] = field(repr=False)  # orbit id -> size, ids ascending

    @property
    def orbit_ids(self) -> tuple[int, ...]:
        return tuple(self._sizes)

    @property
    def labels(self) -> np.ndarray:
        """labels[key] = minimum key of its orbit (uint32, built on each call)."""
        return np.array((0,) + self.orbit_ids, dtype=np.uint32)[self.ordinals]

    def sizes(self) -> dict[int, int]:
        return dict(self._sizes)

    def orbit_of(self, matrix: SpinMatrix) -> int:
        if matrix.g != self.g:
            raise ValueError(f"genus mismatch: {matrix.g} != {self.g}")
        return self.orbit_ids[int(self.ordinals[matrix.key()]) - 1]


def enumerate_orbits(g: int) -> OrbitPartition:
    """Partition all 2^(2g) spin matrices into generator orbits by closure.

    >>> enumerate_orbits(3).sizes()
    {0: 35, 9: 28, 47: 1}
    """
    _check_enumeration_genus(g)
    partition = OrbitPartition(g, *_closure_partition(g, _generator_keys(g)))
    if sum(partition.sizes().values()) != 1 << (2 * g):
        raise SelfCheckError("orbit sizes do not sum to the state count")
    return partition


def predicted_orbit_size(g: int, m: int) -> int:
    """Orbit size from the counting argument: C(2g+2, g+1-2m), halved at m=0."""
    if m == 0:
        return math.comb(2 * g + 2, g + 1) // 2
    return math.comb(2 * g + 2, g + 1 - 2 * m)


def predicted_stabilizer_order(g: int, m: int) -> int:
    """Point-stabilizer order: (g+1+2m)! (g+1-2m)!, doubled at m=0."""
    if m == 0:
        return 2 * math.factorial(g + 1) ** 2
    return math.factorial(g + 1 + 2 * m) * math.factorial(g + 1 - 2 * m)


@dataclass(frozen=True)
class OrbitRecord:
    class_index: int | None  # None below genus 3, where reduction is undefined
    size: int
    stabilizer_order: int
    arf: int


def census(partition: OrbitPartition) -> tuple[OrbitRecord, ...]:
    """Join the orbit partition with class indices, Arf values and exact orders.

    Each orbit's minimum key is its canonical form: the seed of the m-th
    orbit found must be canonical_form(g, m).key(), so orbit m is class m.
    For every g >= 1 each orbit's size must divide (2g+2)! and equal the
    binomial prediction, and its seed's Arf must be m mod 2; any mismatch
    raises SelfCheckError since it would contradict the classification the
    package exists to verify.  Records are in seed order, which is class
    order; class_index is None below genus 3, where reduction is undefined.
    """
    g = partition.g
    forms = tuple(canonical_form(g, m).key() for m in range((g + 1) // 2 + 1))
    if partition.orbit_ids != forms:
        raise SelfCheckError(
            f"orbit seeds {partition.orbit_ids} are not the canonical forms {forms}"
        )
    group_order = math.factorial(2 * g + 2)
    records = []
    for m, (orbit_id, size) in enumerate(partition.sizes().items()):
        if group_order % size:
            raise SelfCheckError(f"orbit size {size} does not divide the group order")
        if size != predicted_orbit_size(g, m):
            raise SelfCheckError(
                f"orbit {m} has size {size}, predicted {predicted_orbit_size(g, m)}"
            )
        rep_arf = arf(SpinMatrix.from_key(g, orbit_id))
        if rep_arf != m % 2:
            raise SelfCheckError(f"orbit {m} has Arf {rep_arf}")
        index = m if g >= 3 else None
        records.append(OrbitRecord(index, size, group_order // size, rep_arf))
    return tuple(records)


@dataclass(frozen=True)
class IsotropyReport:
    g: int
    m: int
    fixing_generators: frozenset[int]
    moving_generator: int | None  # expected non-fixing generator, if in range
    tau_fixes: bool
    predicted_order: int
    observed_order: int | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_isotropy(
    g: int, m: int, partition: OrbitPartition | None = None
) -> IsotropyReport:
    """Check the stabilizer of the class-m stabilizer form, column by column.

    Verifies that every generator except s_{g+1+2m} fixes the form, that
    s_{g+1+2m} moves it (when in range), that the order-reversing involution
    fixes the m = 0 form, and that the predicted stabilizer order matches
    the exact order obtained from the orbit size when a partition is
    available.
    """
    form = stabilizer_form(g, m)
    fixing = frozenset(
        i for i in range(1, 2 * g + 2) if apply_generator(form, i) == form
    )
    special = g + 1 + 2 * m
    moving = special if special <= 2 * g + 1 else None
    tau_fixes = apply_word(form, flip_word(g)) == form

    failures = []
    expected_fixing = frozenset(range(1, 2 * g + 2)) - {special}
    if fixing != expected_fixing:
        unexpected = sorted(expected_fixing ^ fixing)
        failures.append(f"fixing set differs at generators {unexpected}")
    if m == 0 and not tau_fixes:
        failures.append("order-reversing involution does not fix the m=0 form")

    predicted = predicted_stabilizer_order(g, m)
    observed = None
    if partition is not None:
        size = partition.sizes()[partition.orbit_of(form)]
        observed = math.factorial(2 * g + 2) // size
        if observed != predicted:
            failures.append(f"stabilizer order {observed} != predicted {predicted}")

    return IsotropyReport(
        g, m, fixing, moving, tau_fixes, predicted, observed, tuple(failures)
    )


def sp_transvection_orbits(g: int) -> OrbitPartition:
    """Partition under the transvections, closed over the Humphries twists.

    The twists about the 2g+1 Humphries curves (_humphries_keys) generate
    the mapping class group (Humphries 1979; Primer Sec. 4.4), which maps
    onto Sp(2g, Z/2) (Primer, Thm 6.4), so their orbits are those of the
    twists about every nonzero class.  Exactly two orbits must appear, with
    constant Arf and sizes 2^(g-1) (2^g + 1) and 2^(g-1) (2^g - 1);
    anything else raises SelfCheckError.
    """
    _check_enumeration_genus(g, MAX_SP_GENUS)
    partition = OrbitPartition(g, *_closure_partition(g, _humphries_keys(g)))
    sizes = partition.sizes()
    if len(sizes) != 2:
        raise SelfCheckError(f"expected 2 transvection orbits, found {len(sizes)}")
    if first_disagreement(partition, lambda keys: arf_keys(g, keys)) is not None:
        raise SelfCheckError("a transvection orbit has non-constant Arf")
    by_arf = {
        arf(SpinMatrix.from_key(g, orbit_id)): size for orbit_id, size in sizes.items()
    }
    half = 1 << (g - 1)
    if by_arf != {0: half * ((1 << g) + 1), 1: half * ((1 << g) - 1)}:
        raise SelfCheckError(f"transvection orbit sizes {by_arf} are wrong")
    return partition


def fixed_matrices(g: int) -> tuple[SpinMatrix, ...]:
    """All matrices fixed by every generator, by one elimination over GF(2).

    s_i fixes key k exactly when c(gamma_i) = 1 (twist_keys), that is when
    parity(k & gamma_i) = 1 + parity(a_i & b_i): one row gamma_i << 1 | its
    right side.  The 2g+1 rows must have rank 2g; one reduced to 0 = 1 leaves
    no fixed matrix (at even g), else back-substitution reads off the one.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    pivots: dict[int, int] = {}  # leading key bit -> its row; the right side is bit -1
    for gamma_key in _generator_keys(g):
        row = gamma_key << 1 | ((gamma_key >> g & gamma_key).bit_count() & 1 ^ 1)
        while row and (lead := row.bit_length() - 2) in pivots:
            row ^= pivots[lead]
        if row:
            pivots[lead] = row
    if (rank := len(pivots) - (-1 in pivots)) != 2 * g:
        raise SelfCheckError(f"the generator classes have rank {rank}, not {2 * g}")
    key = 0
    for bit in range(2 * g):  # a pivot row's other key bits lie below its own
        key |= (((pivots[bit] >> 1 & key).bit_count() ^ pivots[bit]) & 1) << bit
    return () if -1 in pivots else (SpinMatrix.from_key(g, key),)
