"""Exhaustive orbit enumeration over all 2^(2g) spin matrices.

States are packed keys (top word in the low g bits, bottom word above) and
the generator actions are evaluated as vectorized bit operations on numpy
arrays, so a full breadth-first partition of the state space stays cheap up
to the enumeration ceiling g = 12 (2^24 states, ~4e8 edge traversals).

Determinism: orbits are seeded in increasing key order and labelled by
their minimum packed key, so the partition, census and all derived tables
are bit-reproducible.  Each orbit's minimum key is its canonical form: the
m-th orbit found is seeded by canonical_form(g, m), which census checks for
every g >= 1.  Stabilizer orders are exact integers throughout;
(2g+2)! overflows 64 bits from g = 10 on, so no fixed-width arithmetic is
used for them.

Memory: a partition is one byte per key, 16 MB at g = 12: the BFS's seen
map holds each key's orbit ordinal and its orbit sizes are counted as it
goes; 4-byte minimum-key labels are derived only when asked for.  Every
other pass over all keys (fixed matrices and the orbit-invariance passes
of first_disagreement) walks them in blocks of 2^20 keys, so
`verify 9..12` peaks at about 60 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .braid import apply_generator, apply_word, flip_word, generator_class
from .gf2 import SpinMatrix, arf
from .normalform import canonical_form, stabilizer_form

MAX_ENUMERATION_GENUS = 12
MAX_SP_GENUS = 6
_KEY_BLOCK = 1 << 20  # keys per block in the passes over all keys


class SelfCheckError(RuntimeError):
    """An internal cross-check failed; the computed data contradicts itself."""


def _check_enumeration_genus(g: int) -> None:
    if not 1 <= g <= MAX_ENUMERATION_GENUS:
        raise ValueError(
            f"enumeration supports 1 <= g <= {MAX_ENUMERATION_GENUS} "
            f"(2^(2g) states); got g = {g}"
        )


def _twist_packed(g: int, gamma_key: int, keys: np.ndarray) -> np.ndarray:
    """Twist about the class packed in gamma_key, applied to packed keys.

    c(gamma) is parity(key & gamma_key) + parity(a_gamma & b_gamma); where
    it is 0 the twist adds gamma's beta-word to the top row and its
    alpha-word to the bottom row (see gf2.dehn_twist).
    """
    ga, gb = gamma_key & ((1 << g) - 1), gamma_key >> g
    flip = np.bitwise_count(keys & np.uint32(gamma_key)) & 1
    flip ^= ((ga & gb).bit_count() & 1) ^ 1
    return keys ^ flip * np.uint32(gb | ga << g)


def apply_generator_keys(g: int, i: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized generator action: the twist about generator_class(i, g)."""
    gamma = generator_class(i, g)
    return _twist_packed(g, gamma.a | gamma.b << g, keys)


def twist_keys(g: int, gamma_key: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized twist transvection about the class packed in gamma_key."""
    return _twist_packed(g, gamma_key, keys)


def arf_keys(g: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized Arf invariant of keys below 2^(2g)."""
    # keys >> g holds only bits below g, so no mask is needed
    pairs = keys >> np.uint32(g)
    pairs &= keys
    return np.bitwise_count(pairs) & 1


def _key_blocks(n: int):
    """All keys 0..n-1 as uint32 arrays of at most _KEY_BLOCK keys each."""
    for start in range(0, n, _KEY_BLOCK):
        yield np.arange(start, min(start + _KEY_BLOCK, n), dtype=np.uint32)


def first_disagreement(partition: OrbitPartition, values) -> int | None:
    """The least key whose value differs from the value at its orbit's seed.

    values maps a uint32 key block to one value per key, and the seeds'
    values come from it too.  An orbit's seed is a member of it, so None
    means the value is constant on every orbit.
    """
    ordinals = partition.ordinals
    seed_values = values(np.array(partition.orbit_ids, dtype=np.uint32))
    for keys in _key_blocks(ordinals.size):
        start = int(keys[0])
        # Ordinal k is seed k - 1 (an unseen key's 0 wraps to 255, past the
        # table).  One expression, so no block-sized array outlives its block.
        bad = np.flatnonzero(
            values(keys) != seed_values[ordinals[start : start + keys.size] - 1]
        )
        if bad.size:
            return start + int(bad[0])
    return None


def _bfs_partition(g: int, classes) -> tuple[np.ndarray, dict[int, int]]:
    """Orbit ordinals and sizes of the partition under twists about classes.

    The BFS runs on twist classes: each frontier is pushed through
    twist_keys(g, gamma_key, frontier) for every packed class gamma_key.
    ordinals[key] = k puts key in the k-th orbit found and 0 marks it
    unseen, so one uint8 map is both the partition and the seen test of the
    per-edge gather.  Seeds are found by scanning it for its next 0, so in
    increasing key order, and each is the minimum key of its orbit.  No
    batch needs a dedupe: a twist is an involution, hence injective, so its
    images of a duplicate-free frontier hold no repeats, and marking each
    batch before the next twist runs keeps out keys that two twists both
    reach.  sizes maps each seed to its orbit's size, so its k-th key is the
    seed of ordinal k.
    """
    ordinals = np.zeros(1 << (2 * g), dtype=np.uint8)
    sizes: dict[int, int] = {}
    seed = 0
    while True:
        seed += int(np.argmin(ordinals[seed:]))
        if ordinals[seed]:
            return ordinals, sizes
        ordinal = len(sizes) + 1
        if ordinal > 255:  # the largest uint8 ordinal
            raise SelfCheckError("more than 255 orbits")
        ordinals[seed] = ordinal
        size = 1
        frontier = np.array([seed], dtype=np.uint32)
        while frontier.size:
            fresh = []
            for gamma_key in classes:
                images = twist_keys(g, gamma_key, frontier)
                new = images[np.take(ordinals, images) == 0]
                if new.size:
                    ordinals[new] = ordinal
                    size += new.size
                    fresh.append(new)
            frontier = np.concatenate(fresh) if fresh else np.empty(0, dtype=np.uint32)
        sizes[seed] = size


@dataclass(frozen=True, eq=False)
class OrbitPartition:
    """BFS partition of all packed keys into orbits.

    enumerate_orbits builds it under the 2g+1 generators,
    sp_transvection_orbits under the twists about every nonzero class.
    The orbit sizes are the BFS's own counts, shared by sizes(), orbit_ids
    and orbit_count.  Equality is identity.
    """

    g: int
    ordinals: np.ndarray  # uint8; ordinals[key] = k: key is in orbit orbit_ids[k-1]
    _sizes: dict[int, int] = field(repr=False)  # orbit id -> size, ids ascending

    @property
    def orbit_ids(self) -> tuple[int, ...]:
        return tuple(self._sizes)

    @property
    def orbit_count(self) -> int:
        return len(self._sizes)

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
    """Partition all 2^(2g) spin matrices into generator orbits.

    >>> enumerate_orbits(3).sizes()
    {0: 35, 9: 28, 47: 1}
    """
    _check_enumeration_genus(g)
    gammas = (generator_class(i, g) for i in range(1, 2 * g + 2))
    classes = [gamma.a | gamma.b << g for gamma in gammas]
    partition = OrbitPartition(g, *_bfs_partition(g, classes))
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
    orbit_id: int


def census(g: int, partition: OrbitPartition | None = None) -> tuple[OrbitRecord, ...]:
    """Join the orbit partition with class indices, Arf values and exact orders.

    Each orbit's minimum key is its canonical form: the seed of the m-th
    orbit found must be canonical_form(g, m).key(), so orbit m is class m.
    For every g >= 1 each orbit's size must divide (2g+2)! and equal the
    binomial prediction, and its seed's Arf must be m mod 2; any mismatch
    raises SelfCheckError since it would contradict the classification the
    package exists to verify.  Records are in seed order, which is class
    order; class_index is None below genus 3, where reduction is undefined.
    """
    if partition is None:
        partition = enumerate_orbits(g)
    elif partition.g != g:
        raise ValueError(f"partition is for genus {partition.g}, not {g}")
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
        records.append(OrbitRecord(index, size, group_order // size, rep_arf, orbit_id))
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
    if g < 3:
        raise ValueError(f"isotropy verification needs genus >= 3, got {g}")
    form = stabilizer_form(g, m)
    fixing = frozenset(
        i for i in range(1, 2 * g + 2) if apply_generator(form, i) == form
    )
    special = g + 1 + 2 * m
    moving = special if special <= 2 * g + 1 else None
    tau_fixes = apply_word(form, flip_word(g)) == form

    failures = []
    expected_fixing = frozenset(range(1, 2 * g + 2)) - (
        {moving} if moving is not None else frozenset()
    )
    if fixing != expected_fixing:
        unexpected = sorted(expected_fixing ^ fixing)
        failures.append(f"fixing set differs at generators {unexpected}")
    if m == 0 and not tau_fixes:
        failures.append("order-reversing involution does not fix the m=0 form")

    predicted = predicted_stabilizer_order(g, m)
    observed = None
    if partition is not None:
        if partition.g != g:
            raise ValueError(f"partition is for genus {partition.g}, not {g}")
        size = partition.sizes()[partition.orbit_of(form)]
        observed = math.factorial(2 * g + 2) // size
        if observed != predicted:
            failures.append(f"stabilizer order {observed} != predicted {predicted}")

    return IsotropyReport(
        g, m, fixing, moving, tau_fixes, predicted, observed, tuple(failures)
    )


def sp_transvection_orbits(g: int) -> OrbitPartition:
    """Partition under twists about every nonzero class (the full group).

    Exactly two orbits must appear, with constant Arf and sizes
    2^(g-1) (2^g + 1) and 2^(g-1) (2^g - 1); anything else raises
    SelfCheckError.
    """
    if not 1 <= g <= MAX_SP_GENUS:
        raise ValueError(
            f"transvection enumeration supports 1 <= g <= {MAX_SP_GENUS}; got {g}"
        )
    partition = OrbitPartition(g, *_bfs_partition(g, range(1, 1 << (2 * g))))
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
    """All matrices fixed by every generator (exhaustive, vectorized).

    Keys are scanned block by block; in each block every key is tested
    against the first generator and only its survivors go on to the next.
    """
    _check_enumeration_genus(g)
    fixed = []
    for keys in _key_blocks(1 << (2 * g)):
        for i in range(1, 2 * g + 2):
            keys = keys[apply_generator_keys(g, i, keys) == keys]
        fixed.extend(keys.tolist())
    return tuple(SpinMatrix.from_key(g, k) for k in fixed)
