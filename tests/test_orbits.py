"""Exhaustive enumeration: partitions, censuses, stabilizers, cross-checks."""

import dataclasses
import hashlib
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from hyperspin import (
    SpinMatrix,
    arf,
    canonical_form,
    census,
    class_index,
    enumerate_orbits,
    fixed_matrices,
    fixed_point_matrix,
    orbits,
    predicted_orbit_size,
    predicted_stabilizer_order,
    sp_transvection_orbits,
    stabilizer_form,
    verify_isotropy,
)
from hyperspin.orbits import (
    MAX_SP_GENUS,
    OrbitPartition,
    SelfCheckError,
    _bitset,
    _closure_partition,
    _generator_keys,
    _halved_plans,
    _humphries_keys,
    _sweep,
    _sweep_halves,
    _twist_plan,
    apply_generator_keys,
    arf_keys,
    first_disagreement,
    twist_keys,
)
from hyperspin.braid import _letters, apply_generator
from oracles import HomologyClass, bfs_partition, dehn_twist, evaluate, intersection


@pytest.fixture(scope="module")
def partitions():
    return {g: enumerate_orbits(g) for g in range(1, 7)}


@pytest.fixture(scope="module")
def partition_11():
    # 2^22 keys: the smallest genus whose key passes span several blocks
    return enumerate_orbits(11)


# ---------------------------------------------------------------------------
# vectorized kernels agree with the scalar definitions


def test_vectorized_generator_action_matches_scalar():
    for g in (1, 2, 3):
        keys = np.arange(1 << (2 * g), dtype=np.uint32)
        for i in range(1, 2 * g + 2):
            images = apply_generator_keys(g, i, keys)
            for key in range(1 << (2 * g)):
                expected = apply_generator(SpinMatrix.from_key(g, key), i).key()
                assert int(images[key]) == expected
    g = 12  # keys reach bit 23, so the high uint32 bits are exercised
    keys = np.random.default_rng(12).integers(0, 1 << (2 * g), 2000, dtype=np.uint32)
    for i in range(1, 2 * g + 2):
        images = apply_generator_keys(g, i, keys)
        assert images.dtype == np.uint32
        for key, image in zip(keys.tolist(), images.tolist()):
            assert image == apply_generator(SpinMatrix.from_key(g, key), i).key()


def test_vectorized_twist_matches_scalar():
    for g in (2, 3):
        keys = np.arange(1 << (2 * g), dtype=np.uint32)
        for gamma_key in range(1 << (2 * g)):
            gamma = HomologyClass.from_key(g, gamma_key)
            images = twist_keys(g, gamma_key, keys)
            assert images.dtype == np.uint32
            for key in range(1 << (2 * g)):
                expected = dehn_twist(SpinMatrix.from_key(g, key), gamma).key()
                assert int(images[key]) == expected


def test_twist_keys_over_an_array_of_classes():
    # column j of the broadcast call is the scalar call about classes[j]
    cases = [
        (g, list(range(1 << (2 * g))), np.arange(1 << (2 * g), dtype=np.uint32))
        for g in (2, 3)
    ]
    g = 12  # keys reach bit 23, so the high uint32 bits are exercised
    keys = np.random.default_rng(12).integers(0, 1 << (2 * g), 2000, dtype=np.uint32)
    cases.append((g, _generator_keys(g) + _humphries_keys(g), keys))
    for g, classes, keys in cases:
        images = twist_keys(g, np.array(classes, dtype=np.uint32), keys[:, None])
        assert images.dtype == np.uint32
        assert images.shape == (keys.size, len(classes))
        for j, gamma_key in enumerate(classes):
            assert np.array_equal(images[:, j], twist_keys(g, gamma_key, keys)), (g, j)


def test_vectorized_arf_matches_scalar():
    g = 3
    keys = np.arange(1 << (2 * g), dtype=np.uint32)
    values = arf_keys(g, keys)
    for key in range(1 << (2 * g)):
        assert int(values[key]) == arf(SpinMatrix.from_key(g, key))


def test_packed_refinement_is_the_scalar_evaluate():
    # verify's relations row evaluates the refinement of matrix m on class x
    # as arf_keys(g, x) ^ parity(x & m); every (m, x) at g <= 3, then
    # 10^4 seeded draws over g = 4..12
    cases = []
    for g in (1, 2, 3):
        n = 1 << (2 * g)
        m, x = np.divmod(np.arange(n * n, dtype=np.uint32), np.uint32(n))
        cases.append((g, m, x))
    rng = np.random.default_rng(4)
    for g in range(4, 13):
        m, x = rng.integers(0, 1 << (2 * g), (2, 1112), dtype=np.uint32)
        cases.append((g, m, x))
    assert sum(m.size for g, m, x in cases if g >= 4) >= 10**4
    for g, m, x in cases:
        packed = arf_keys(g, x) ^ np.bitwise_count(x & m) & 1
        for mk, xk, value in zip(m.tolist(), x.tolist(), packed.tolist()):
            expected = evaluate(SpinMatrix.from_key(g, mk), HomologyClass.from_key(g, xk))
            assert value == expected, (g, mk, xk)


# ---------------------------------------------------------------------------
# partitions


def test_orbit_sizes_small_genus(partitions):
    assert sorted(partitions[1].sizes().values(), reverse=True) == [3, 1]
    assert sorted(partitions[2].sizes().values(), reverse=True) == [10, 6]
    assert sorted(partitions[3].sizes().values(), reverse=True) == [35, 28, 1]
    assert sorted(partitions[4].sizes().values(), reverse=True) == [126, 120, 10]
    assert sorted(partitions[5].sizes().values(), reverse=True) == [495, 462, 66, 1]


def test_orbit_ids_are_minimum_keys(partitions, partition_11):
    part = partitions[3]
    labels = part.labels
    for orbit_id in part.orbit_ids:
        members = np.flatnonzero(labels == orbit_id)
        assert int(members.min()) == orbit_id
    # the m-th orbit found is seeded by the class-m canonical form
    for part in [*partitions.values(), partition_11]:
        g = part.g
        forms = tuple(canonical_form(g, m).key() for m in range((g + 1) // 2 + 1))
        assert part.orbit_ids == forms, g


def test_orbit_labels_are_action_invariant(partitions):
    part = partitions[3]
    keys = np.arange(64, dtype=np.uint32)
    for i in range(1, 8):
        assert np.array_equal(part.labels[apply_generator_keys(3, i, keys)], part.labels)


def test_partition_is_deterministic():
    a = enumerate_orbits(4)
    b = enumerate_orbits(4)
    assert np.array_equal(a.labels, b.labels)


# SHA-256 of labels.tobytes() (uint32).  Each label is its orbit's minimum
# key, so the digests hold however the BFS orders its frontiers.
GENERATOR_LABEL_DIGESTS = {
    1: "67ceb487f055eac566c44be1ef8170350ebbc1881fdbfba6c7a75a221229349b",
    2: "1ef94764fe67d488925de0aba101073f75ea011c75ed51b0c6e9597dbe3cda6a",
    3: "6d6a8a6c1e4b7ee110b4bf3827596b779ad4ceb89eab0d1561573c1b6b21518c",
    4: "2c6c18403692d88c76f7684f3ab91f25a731751ff3c2e8ed55b45ba7fbbcae37",
    5: "fb7a09f0b3ac8d1706d0a949604c5f9fedbfefca3787a16899e9515b37d0b2cb",
    6: "6c5834b5c79f928801e364c51238a14351b0ddd907038e936321f0bb5f3cc22f",
    7: "9630a4104046eb3ecd669e0e781dc67d1714dcfbcd53f5d9a52036bffc5a0372",
    8: "a7dfc89b4d09345403931257f722a43755c6e27e433ecc481e34e96e604f7cc6",
    9: "4d0e0ac43f6b6699387f6866494eadc4af2093e9eba0e4581550f6abce2e4ceb",
    10: "7701da129e261b71928e9f8294266045f3f2ddc18991241fbc1dd16b52b7d934",
    11: "9c11564766ac34b8e8db2203f08b86fe73ad8312e7e185f86bb60b665980662d",
}
TRANSVECTION_LABEL_DIGESTS = {
    1: "67ceb487f055eac566c44be1ef8170350ebbc1881fdbfba6c7a75a221229349b",
    2: "1ef94764fe67d488925de0aba101073f75ea011c75ed51b0c6e9597dbe3cda6a",
    3: "4a893a6e9c6ae5efe82e6faa9ade169e40767fd30bea34287fdb675b0afd543c",
    4: "ec08bf7a3ff540c1ecfd5ff11072ea10a655a0d06309e6ac827dacbb25c0b660",
    5: "6fbbdd3b8fb782af7798ea6d7f1c4cd35aa74c0a351527ab6eaf3fd3125fddd1",
    6: "c78708db8216b36630084193ee942322f24d42d609fc887375cead0ae7686d86",
}


def _digest(labels: np.ndarray) -> str:
    assert labels.dtype == np.uint32
    return hashlib.sha256(labels.tobytes()).hexdigest()


def test_generator_labels_are_pinned(partition_11):
    for g, digest in GENERATOR_LABEL_DIGESTS.items():
        part = partition_11 if g == 11 else enumerate_orbits(g)
        assert _digest(part.labels) == digest, g


def test_generator_partition_at_the_ceiling_is_pinned():
    # g = 12 by its 16 MB of ordinals, not its 64 MB of labels
    part = enumerate_orbits(12)
    assert hashlib.sha256(part.ordinals).hexdigest() == (
        "73c9c6f9c8b362dab35f5dc4e0970b93ccf29e3d872752ce5b69739b8f72cc13"
    )
    assert part.sizes() == {
        0: 5200300,
        4097: 7726160,
        20487: 3124550,
        86047: 657800,
        348287: 65780,
        1397247: 2600,
        5593087: 26,
    }


def test_transvection_labels_are_pinned():
    for g, digest in TRANSVECTION_LABEL_DIGESTS.items():
        assert _digest(sp_transvection_orbits(g).labels) == digest, g


def test_sizes_returns_a_copy(partitions):
    part = partitions[4]
    sizes = part.sizes()
    sizes.clear()
    sizes[-1] = 7
    assert part.sizes() == {0: 126, 17: 120, 87: 10}
    assert part.orbit_ids == (0, 17, 87)
    assert len(part.sizes()) == 3


@pytest.mark.parametrize("partition_of", [enumerate_orbits, sp_transvection_orbits])
def test_ordinals_are_read_only(partition_of):
    part = partition_of(3)
    with pytest.raises(ValueError):
        part.ordinals[0] = 2
    assert part.orbit_of(SpinMatrix(3, 0, 0)) == 0


def test_partition_equality_is_identity(partitions):
    part = partitions[3]
    assert part == part
    assert part != enumerate_orbits(3)
    assert hash(part) == hash(part)
    assert part in {part}


def test_bfs_refuses_a_256th_orbit():
    # no twist classes make every key its own orbit
    with pytest.raises(SelfCheckError, match="255"):
        bfs_partition(5, ())


def test_closure_matches_the_bfs():
    # the BFS is the closure's independent oracle: same ordinals, same sizes
    for g in range(1, 11):
        classes = _generator_keys(g)
        closure_ordinals, closure_sizes = _closure_partition(g, classes)
        bfs_ordinals, bfs_sizes = bfs_partition(g, classes)
        assert np.array_equal(closure_ordinals, bfs_ordinals), g
        assert list(closure_sizes.items()) == list(bfs_sizes.items()), g


def test_humphries_closure_matches_the_transvection_bfs():
    # 2g+1 Humphries twists against the twists about all 4^g - 1 classes
    for g in range(1, MAX_SP_GENUS + 1):
        sp = sp_transvection_orbits(g)
        bfs_ordinals, bfs_sizes = bfs_partition(g, range(1, 1 << (2 * g)))
        assert np.array_equal(sp.ordinals, bfs_ordinals), g
        assert list(sp.sizes().items()) == list(bfs_sizes.items()), g


def test_humphries_curves_are_a_chain_with_beta_2_on_s_4():
    for g in range(1, 13):
        keys = _humphries_keys(g)
        # the closure's twist plans need a & b = 0
        for key in keys + _generator_keys(g):
            assert key >> g & key == 0, (g, key)
        assert keys[: 2 * g] == _generator_keys(g)[: 2 * g]
        assert len(keys) == (2 * g + 1 if g >= 2 else 2)
        if g < 2:
            continue
        curves = [HomologyClass.from_key(g, key) for key in keys]
        edges = {
            (i, j)
            for j in range(len(curves))
            for i in range(j)
            if intersection(curves[i], curves[j])
        }
        # s_1 - ... - s_2g, and beta_2 (index 2g) on s_4 (index 3) alone
        assert edges == {(i, i + 1) for i in range(2 * g - 1)} | {(3, 2 * g)}, g


def test_twist_plan_refuses_a_class_with_a_and_b_overlapping():
    # alpha_1 + beta_1 at g = 3: a bitset plan would run a different twist
    gamma_key = 1 | 1 << 3
    with pytest.raises(ValueError, match="a & b = 0"):
        _twist_plan(3, gamma_key)
    with pytest.raises(ValueError, match="a & b = 0"):
        _closure_partition(3, [gamma_key])


def test_each_sweep_family_is_commuting_involutions():
    # a sweep twists the even-position classes, then the odd-position ones;
    # one pass of a set closes a bitset under its group only if it commutes
    for g in range(1, 7):
        keys = np.arange(1 << (2 * g), dtype=np.uint32)
        images = {}
        for classes in (_generator_keys(g), _humphries_keys(g)):
            for family in (classes[1::2], classes[0::2]):
                for gamma in family:
                    images[gamma] = twist_keys(g, gamma, keys)
                    assert np.array_equal(twist_keys(g, gamma, images[gamma]), keys), (g, gamma)
                for i, a in enumerate(family):
                    for b in family[:i]:
                        ab = twist_keys(g, a, images[b])
                        assert np.array_equal(ab, twist_keys(g, b, images[a])), (g, a, b)
        # s_1 and s_2 do not commute, so a wrong split would show
        s_1, s_2 = _generator_keys(g)[:2]
        assert not np.array_equal(
            twist_keys(g, s_1, images[s_2]), twist_keys(g, s_2, images[s_1])
        ), g


def test_the_sweep_order_is_only_a_speed_up():
    # rotated by one, s_2 comes first and s_1 last, so one set of the sweep
    # holds both and does not commute; the closure still runs until a step
    # adds nothing and finds the BFS's partition
    for g in range(1, 7):
        keys = _generator_keys(g)
        closure_ordinals, closure_sizes = _closure_partition(g, keys[1:] + keys[:1])
        bfs_ordinals, bfs_sizes = bfs_partition(g, keys)
        assert np.array_equal(closure_ordinals, bfs_ordinals), g
        assert list(closure_sizes.items()) == list(bfs_sizes.items()), g


def test_sweep_costs_are_pinned(monkeypatch):
    # a sweep is one pass of each family, 2g+1 twists; the totals move with
    # the sweep order and with the hand-back to levels
    counts = []
    sweep = orbits._sweep

    def recording_sweep(bits, plans):
        counts.append(len(plans))
        sweep(bits, plans)

    monkeypatch.setattr(orbits, "_sweep", recording_sweep)
    enumerate_orbits(10)
    assert set(counts) == {21}
    assert sum(counts) == 504
    counts.clear()
    sp_transvection_orbits(6)
    assert sum(counts) == 169


def test_orbits_below_the_frontier_limit_skip_the_sweeps(monkeypatch):
    # a frontier of fewer than n >> 11 keys is twisted as a level, so the
    # 190- and 1-key orbits at g = 9 and the 22-key orbit at g = 10 close
    # without a sweep: no bitset a sweep runs on holds their seeds
    held = []
    sweep = orbits._sweep

    def recording_sweep(bits, plans):
        words = bits.reshape(-1)
        held.extend(seed for seed in seeds if int(words[seed >> 6]) >> (seed & 63) & 1)
        sweep(bits, plans)

    monkeypatch.setattr(orbits, "_sweep", recording_sweep)
    for g, seeds in ((9, {43647: 190, 175103: 1}), (10, {349695: 22})):
        sizes = enumerate_orbits(g).sizes()
        assert {seed: sizes[seed] for seed in seeds} == seeds, g
    assert held == []


def test_sweeps_hand_small_frontiers_back_to_levels(monkeypatch):
    # at g = 10 a level's frontier grows past n >> 11 keys and goes to a
    # sweep, and a sweep that adds fewer keys hands them to a level of the
    # same orbit: that level's frontier lies in the bitset the sweep left
    calls = []
    sweep, twist = orbits._sweep, orbits.twist_keys

    def recording_sweep(bits, plans):
        sweep(bits, plans)
        calls.append(("sweep", bits.reshape(-1).copy()))

    def recording_twist(g, gamma_key, keys):
        calls.append(("level", keys.ravel().tolist()))
        return twist(g, gamma_key, keys)

    monkeypatch.setattr(orbits, "_sweep", recording_sweep)
    monkeypatch.setattr(orbits, "twist_keys", recording_twist)
    enumerate_orbits(10)
    steps = list(zip(calls, calls[1:]))
    assert any(a == "level" and b == "sweep" for (a, _), (b, _) in steps)
    assert any(
        a == "sweep" and b == "level" and all(int(words[k >> 6]) >> (k & 63) & 1 for k in keys)
        for (a, words), (b, keys) in steps
    )


def _random_bitset(g, rng, ands):
    """A _bitset with each key set with probability 2^-ands, or 3 keys if ands is None."""
    bits = _bitset(g)
    words = bits.reshape(-1)
    if ands is None:
        for key in rng.integers(0, 1 << 2 * g, 3).tolist():
            words[key >> 6] |= np.uint64(1 << (key & 63))
        return bits
    words[:] = ~np.uint64(0)
    for _ in range(ands):
        words &= rng.integers(0, 1 << 64, words.size, dtype=np.uint64)
    return bits


@pytest.mark.parametrize("g", [4, 5, 6, 7, 8, 9, 12])
def test_a_halved_sweep_leaves_the_bitset_a_sweep_leaves(g):
    # the whole-bitset twists (s_2g) and the halves' offsets (s_2g-1,
    # s_2g+1) all show: a wrong offset or a twist on the wrong half leaves
    # another bitset; each family alone, then both as the closure runs them
    rng = np.random.default_rng(g)
    for classes in (_generator_keys(g), _humphries_keys(g)):
        families = [classes[1::2], classes[0::2]]
        for family_set in ([families[0]], [families[1]], families):
            plans = [_twist_plan(g, k) for family in family_set for k in family]
            halved = [_halved_plans(g, family) for family in family_set]
            for ands in (None, 4, 1):  # 3 keys, then 1/16 and 1/2 of all
                expected = _random_bitset(g, rng, ands)
                got = expected.copy()
                _sweep(expected, plans)
                _sweep_halves(got, halved)
                assert np.array_equal(got, expected), (g, family_set, ands)
                if ands is None:  # the sweep added keys and did not fill the bitset
                    assert 3 < np.bitwise_count(got).sum() < 1 << 2 * g, (g, family_set)


def test_the_twist_plan_is_the_full_width_part_plan():
    for g in range(1, 10):
        for gamma_key in set(_generator_keys(g) + _humphries_keys(g)):
            assert _twist_plan(g, gamma_key) == _twist_plan(g, gamma_key, 2 * g, 0), g


def test_a_part_plan_refuses_a_twist_that_leaves_the_part():
    # s_2g = alpha_g flips key bit 2g-1, so it moves keys between the halves
    g = 6
    s_2g = _generator_keys(g)[2 * g - 1]
    assert _halved_plans(g, [s_2g])[0] == [_twist_plan(g, s_2g)]
    with pytest.raises(ValueError, match="flips a key bit"):
        _twist_plan(g, s_2g, 2 * g - 1, 0)


def test_an_error_in_the_worker_half_reaches_the_caller(monkeypatch):
    main = threading.get_ident()

    def failing_sweep(bits, plans):
        if threading.get_ident() != main:
            raise RuntimeError("the high half failed")
        _sweep(bits, plans)

    monkeypatch.setattr(orbits, "_sweep", failing_sweep)
    with pytest.raises(RuntimeError, match="the high half failed"):
        enumerate_orbits(12)


def test_the_ceiling_closure_starts_at_most_one_thread():
    before = threading.active_count()
    for _ in range(2):
        enumerate_orbits(12)
    assert threading.active_count() <= before + 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker():
    # the parent's worker thread does not survive a fork: a child that kept
    # its executor would queue the high half and wait on it forever
    assert orbits._worker().submit(int, 7).result() == 7  # the thread is running
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = orbits._worker().submit(int, 7).result(timeout=10) != 7
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0


def test_small_genera_skip_the_frontier_phase(monkeypatch):
    # n >> 11 = 0 at g <= 5, so no frontier is small enough for a level and
    # no twist_keys call is made: these genera sweep from the seed alone
    def refuse(*args):
        raise AssertionError("twist_keys called at g = 5")

    monkeypatch.setattr(orbits, "twist_keys", refuse)
    assert _digest(enumerate_orbits(5).labels) == GENERATOR_LABEL_DIGESTS[5]
    assert _digest(sp_transvection_orbits(5).labels) == TRANSVECTION_LABEL_DIGESTS[5]


def _faulty_closure(monkeypatch, fault):
    def closure(g, classes):
        ordinals, sizes = _closure_partition(g, classes)
        return fault(ordinals.copy(), sizes)

    monkeypatch.setattr(orbits, "_closure_partition", closure)


def test_enumeration_checks_the_sizes_sum_to_the_state_count(monkeypatch):
    _faulty_closure(monkeypatch, lambda ordinals, sizes: (ordinals, {**sizes, 0: sizes[0] - 1}))
    with pytest.raises(SelfCheckError, match="^orbit sizes do not sum to the state count$"):
        enumerate_orbits(3)


def test_closure_refuses_a_256th_orbit():
    with pytest.raises(SelfCheckError, match="255"):
        _closure_partition(5, ())


def _recount(labels: np.ndarray) -> dict[int, int]:
    ids, counts = np.unique(labels, return_counts=True)
    return dict(zip(ids.tolist(), counts.tolist()))


def test_sizes_match_an_independent_recount():
    parts = [enumerate_orbits(g) for g in range(1, 11)]
    parts += [sp_transvection_orbits(g) for g in range(1, MAX_SP_GENUS + 1)]
    for part in parts:
        assert list(part.sizes().items()) == list(_recount(part.labels).items())


def test_enumeration_rejects_oversized_genus():
    with pytest.raises(ValueError):
        enumerate_orbits(13)
    with pytest.raises(ValueError):
        enumerate_orbits(0)


# ---------------------------------------------------------------------------
# census


def test_census_genus_three(partitions):
    records = census(partitions[3])
    table = [(r.class_index, r.size, r.stabilizer_order, r.arf) for r in records]
    assert table == [(0, 35, 1152, 0), (1, 28, 1440, 1), (2, 1, 40320, 0)]
    assert records[0].stabilizer_order == 2 * math.factorial(4) ** 2


def test_census_genus_five(partitions):
    records = census(partitions[5])
    assert [r.size for r in records] == [462, 495, 66, 1]
    assert sum(r.size for r in records) == 1 << 10
    assert [r.arf for r in records] == [0, 1, 0, 1]


def test_census_sizes_match_binomials_through_g8():
    for g in range(3, 9):
        records = census(enumerate_orbits(g))
        for record in records:
            assert record.size == predicted_orbit_size(g, record.class_index)
            assert record.stabilizer_order * record.size == math.factorial(2 * g + 2)


def test_census_below_classified_range_has_no_class_indices(partitions):
    records = census(partitions[2])
    assert [r.class_index for r in records] == [None, None]
    assert sorted(r.size for r in records) == [6, 10]


def test_census_rejects_seeds_or_sizes_off_the_canonical_forms(partitions):
    p = partitions[3]
    # the same orbits found in the wrong order: the seeds are not class order
    reordered = OrbitPartition(3, p.ordinals, dict(reversed(p.sizes().items())))
    with pytest.raises(SelfCheckError, match="canonical forms"):
        census(reordered)
    # right seeds, but sizes that divide 6! = 720 and miss the binomials
    p = partitions[2]
    with pytest.raises(SelfCheckError, match="predicted 10"):
        census(OrbitPartition(2, p.ordinals, {0: 8, 5: 8}))


def test_census_checks_each_size_divides_the_group_order(partitions):
    p = partitions[2]
    with pytest.raises(SelfCheckError, match="^orbit size 7 does not divide the group order$"):
        census(OrbitPartition(2, p.ordinals, {0: 7, 5: 9}))


def test_census_checks_each_seed_has_its_class_arf(monkeypatch, partitions):
    monkeypatch.setattr(orbits, "arf", lambda matrix: 1 - arf(matrix))
    with pytest.raises(SelfCheckError, match="^orbit 0 has Arf 1$"):
        census(partitions[3])


def test_predicted_stabilizer_orders():
    assert predicted_stabilizer_order(3, 0) == 1152
    assert predicted_stabilizer_order(3, 1) == 1440
    assert predicted_stabilizer_order(3, 2) == math.factorial(8)
    assert predicted_stabilizer_order(4, 2) == math.factorial(9)


# ---------------------------------------------------------------------------
# isotropy


def test_isotropy_report_genus_three(partitions):
    report = verify_isotropy(3, 0, partitions[3])
    assert report.passed
    assert sorted(report.fixing_generators) == [1, 2, 3, 5, 6, 7]
    assert report.moving_generator == 4
    assert report.tau_fixes
    assert report.observed_order == report.predicted_order == 1152


def test_isotropy_report_genus_four_top_class(partitions):
    report = verify_isotropy(4, 2, partitions[4])
    assert report.passed
    assert report.moving_generator == 9
    assert report.observed_order == math.factorial(9)


def test_isotropy_top_class_of_odd_genus_is_everything(partitions):
    report = verify_isotropy(5, 3, partitions[5])
    assert report.passed
    assert report.moving_generator is None
    assert len(report.fixing_generators) == 11
    assert stabilizer_form(5, 3) == fixed_point_matrix(5)
    assert report.observed_order == math.factorial(12)


def test_isotropy_sweep_all_classes(partitions):
    for g in range(3, 7):
        for m in range((g + 1) // 2 + 1):
            assert verify_isotropy(g, m, partitions[g]).passed


def test_isotropy_without_partition_skips_order_check():
    report = verify_isotropy(3, 1)
    assert report.passed
    assert report.observed_order is None


def test_isotropy_reports_a_form_fixed_by_its_moving_generator_once(monkeypatch):
    # the all-fixed matrix in place of the m=0 form: s_4 fixes it too
    monkeypatch.setattr(orbits, "stabilizer_form", lambda g, m: fixed_point_matrix(3))
    report = verify_isotropy(3, 0)
    assert report.moving_generator == 4
    assert report.failures == ("fixing set differs at generators [4]",)


# ---------------------------------------------------------------------------
# transvection cross-check


def test_sp_orbits_sizes():
    for g in range(1, MAX_SP_GENUS + 1):
        sizes = sorted(sp_transvection_orbits(g).sizes().values(), reverse=True)
        half = 1 << (g - 1)
        assert sizes == [half * ((1 << g) + 1), half * ((1 << g) - 1)]


def test_sp_partition_coincides_with_generator_partition_at_g2(partitions):
    sp = sp_transvection_orbits(2)
    assert np.array_equal(sp.labels, partitions[2].labels)


def test_generator_orbits_refine_sp_orbits(partitions):
    sp = sp_transvection_orbits(3)
    part = partitions[3]
    for orbit_id in part.orbit_ids:
        assert np.unique(sp.labels[part.labels == orbit_id]).size == 1
    # the Arf-0 transvection orbit is the union of the class-0 and class-2 orbits
    sizes = {}
    for orbit_id, size in sp.sizes().items():
        rep = SpinMatrix.from_key(3, orbit_id)
        sizes[arf(rep)] = size
    assert sizes == {0: 36, 1: 28}


def test_sp_checks_the_orbit_count(monkeypatch):
    # without beta_2 the chain's twists leave the 64 keys in 4 orbits
    monkeypatch.setattr(orbits, "_humphries_keys", lambda g: _generator_keys(g)[: 2 * g])
    with pytest.raises(SelfCheckError, match="^expected 2 transvection orbits, found 4$"):
        sp_transvection_orbits(3)


def test_sp_checks_each_orbit_has_constant_arf(monkeypatch):
    def swap_key_0(ordinals, sizes):
        other = list(sizes)[1]  # the first key of the other orbit
        ordinals[[0, other]] = ordinals[[other, 0]]
        return ordinals, sizes

    _faulty_closure(monkeypatch, swap_key_0)
    with pytest.raises(SelfCheckError, match="^a transvection orbit has non-constant Arf$"):
        sp_transvection_orbits(3)


def test_sp_checks_the_orbit_sizes(monkeypatch):
    def swap_sizes(ordinals, sizes):
        return ordinals, dict(zip(sizes, reversed(sizes.values())))

    _faulty_closure(monkeypatch, swap_sizes)
    with pytest.raises(SelfCheckError) as raised:
        sp_transvection_orbits(3)
    assert str(raised.value) == "transvection orbit sizes {0: 28, 1: 36} are wrong"


def test_sp_rejects_oversized_genus():
    # the enumeration's guard, with the transvection bound
    with pytest.raises(ValueError) as raised:
        sp_transvection_orbits(7)
    assert str(raised.value) == "enumeration supports 1 <= g <= 6 (2^(2g) states); got g = 7"


# ---------------------------------------------------------------------------
# fixed matrices


def test_fixed_matrices_odd_and_even():
    assert [str(m) for m in fixed_matrices(3)] == ["111/101"]
    assert fixed_matrices(4) == ()
    assert [str(m) for m in fixed_matrices(5)] == ["11111/10101"]
    assert fixed_matrices(6) == ()
    assert [str(m) for m in fixed_matrices(7)] == ["1111111/1010101"]
    assert fixed_matrices(8) == ()
    assert [str(m) for m in fixed_matrices(9)] == ["111111111/101010101"]
    assert fixed_matrices(10) == ()
    assert fixed_matrices(1) == (fixed_point_matrix(1),)


def test_fixed_matrices_match_an_exhaustive_twist_scan():
    for g in range(1, 11):
        keys = np.arange(1 << (2 * g), dtype=np.uint32)
        fixed = np.ones(keys.size, dtype=bool)
        for gamma_key in _generator_keys(g):
            fixed &= twist_keys(g, gamma_key, keys) == keys
        expected = tuple(SpinMatrix.from_key(g, int(k)) for k in np.flatnonzero(fixed))
        assert fixed_matrices(g) == expected, g


def test_fixed_matrices_match_the_closed_form_past_the_cap():
    for g in (11, 12, 13, 14, 50, 200, 1000):
        expected = fixed_point_matrix(g)
        fixed = fixed_matrices(g)
        assert fixed == ((expected,) if expected else ()), g
        for matrix in fixed:  # every letter fixes it, not only the twist condition
            key = matrix.key()
            assert all(letter(key) == key for letter in _letters(g)[1:]), g


def test_fixed_matrices_refuse_genus_zero():
    with pytest.raises(ValueError, match="genus must be >= 1, got 0"):
        fixed_matrices(0)


def test_arf_check_reads_the_last_block(partition_11):
    g, ordinals = 11, partition_11.ordinals
    assert first_disagreement(partition_11, lambda keys: arf_keys(g, keys)) is None
    last = ordinals.size - 1
    seed_arf = [arf(SpinMatrix.from_key(g, seed)) for seed in partition_11.orbit_ids]
    broken = ordinals.copy()
    # move the last key into an orbit whose seed has the other Arf value
    broken[last] = 1 + seed_arf.index(1 - seed_arf[ordinals[last] - 1])
    broken_partition = dataclasses.replace(partition_11, ordinals=broken)
    assert first_disagreement(broken_partition, lambda keys: arf_keys(g, keys)) == last
    # values must be one byte per key: a wider dtype is refused, not truncated
    with pytest.raises(TypeError):
        first_disagreement(partition_11, lambda keys: keys)


def test_class_agreement_with_partition(partitions):
    for g in (3, 4):
        part = partitions[g]
        rep_class = {
            oid: class_index(SpinMatrix.from_key(g, oid)) for oid in part.orbit_ids
        }
        for key in range(1 << (2 * g)):
            matrix = SpinMatrix.from_key(g, key)
            assert class_index(matrix) == rep_class[int(part.labels[key])]


# ---------------------------------------------------------------------------
# memory: the partition is the largest allocation of the enumeration path


def _traced_peak_mb(func, *args) -> float:
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_key_passes_stream_in_blocks(partition_11):
    # All 2^22 keys at g = 11 would be 16 MB as uint32.
    assert _traced_peak_mb(fixed_matrices, 11) < 16
    # the solve holds 2g+1 rows of ints and no array of keys
    assert _traced_peak_mb(fixed_matrices, 12) < 0.1
    assert _traced_peak_mb(first_disagreement, partition_11, lambda k: arf_keys(11, k)) < 16


def test_enumeration_peak_is_the_ordinal_map(partition_11):
    # the 1-byte ordinal map is 4 MB at g = 11; 4-byte labels would be 16 MB
    assert partition_11.ordinals.dtype == np.uint8
    assert _traced_peak_mb(enumerate_orbits, 11) < 8
