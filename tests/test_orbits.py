"""Exhaustive enumeration: partitions, censuses, stabilizers, cross-checks."""

import dataclasses
import hashlib
import math
import tracemalloc

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
    OrbitPartition,
    SelfCheckError,
    _bfs_partition,
    apply_generator_keys,
    arf_keys,
    first_disagreement,
    twist_keys,
)
from hyperspin.braid import apply_generator
from hyperspin.gf2 import HomologyClass, dehn_twist


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
        mask = (1 << g) - 1
        for gamma_key in range(1 << (2 * g)):
            gamma = HomologyClass(g, gamma_key & mask, gamma_key >> g)
            images = twist_keys(g, gamma_key, keys)
            assert images.dtype == np.uint32
            for key in range(1 << (2 * g)):
                expected = dehn_twist(SpinMatrix.from_key(g, key), gamma).key()
                assert int(images[key]) == expected


def test_vectorized_arf_matches_scalar():
    g = 3
    keys = np.arange(1 << (2 * g), dtype=np.uint32)
    values = arf_keys(g, keys)
    for key in range(1 << (2 * g)):
        assert int(values[key]) == arf(SpinMatrix.from_key(g, key))


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
}
TRANSVECTION_LABEL_DIGESTS = {
    1: "67ceb487f055eac566c44be1ef8170350ebbc1881fdbfba6c7a75a221229349b",
    2: "1ef94764fe67d488925de0aba101073f75ea011c75ed51b0c6e9597dbe3cda6a",
    3: "4a893a6e9c6ae5efe82e6faa9ade169e40767fd30bea34287fdb675b0afd543c",
    4: "ec08bf7a3ff540c1ecfd5ff11072ea10a655a0d06309e6ac827dacbb25c0b660",
    5: "6fbbdd3b8fb782af7798ea6d7f1c4cd35aa74c0a351527ab6eaf3fd3125fddd1",
}


def _digest(labels: np.ndarray) -> str:
    assert labels.dtype == np.uint32
    return hashlib.sha256(labels.tobytes()).hexdigest()


def test_generator_labels_are_pinned():
    for g, digest in GENERATOR_LABEL_DIGESTS.items():
        assert _digest(enumerate_orbits(g).labels) == digest, g


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
    assert part.orbit_count == 3


def test_partition_equality_is_identity(partitions):
    part = partitions[3]
    assert part == part
    assert part != enumerate_orbits(3)
    assert hash(part) == hash(part)
    assert part in {part}


def test_bfs_refuses_a_256th_orbit():
    # no twist classes make every key its own orbit
    with pytest.raises(SelfCheckError, match="255"):
        _bfs_partition(5, ())


def _recount(labels: np.ndarray) -> dict[int, int]:
    ids, counts = np.unique(labels, return_counts=True)
    return dict(zip(ids.tolist(), counts.tolist()))


def test_sizes_match_an_independent_recount():
    parts = [enumerate_orbits(g) for g in range(1, 11)]
    parts += [sp_transvection_orbits(g) for g in range(1, 6)]
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
    records = census(3, partitions[3])
    table = [(r.class_index, r.size, r.stabilizer_order, r.arf) for r in records]
    assert table == [(0, 35, 1152, 0), (1, 28, 1440, 1), (2, 1, 40320, 0)]
    assert records[0].stabilizer_order == 2 * math.factorial(4) ** 2


def test_census_genus_five(partitions):
    records = census(5, partitions[5])
    assert [r.size for r in records] == [462, 495, 66, 1]
    assert sum(r.size for r in records) == 1 << 10
    assert [r.arf for r in records] == [0, 1, 0, 1]


def test_census_sizes_match_binomials_through_g8():
    for g in range(3, 9):
        records = census(g)
        for record in records:
            assert record.size == predicted_orbit_size(g, record.class_index)
            assert record.stabilizer_order * record.size == math.factorial(2 * g + 2)


def test_census_below_classified_range_has_no_class_indices(partitions):
    records = census(2, partitions[2])
    assert [r.class_index for r in records] == [None, None]
    assert sorted(r.size for r in records) == [6, 10]


def test_census_rejects_seeds_or_sizes_off_the_canonical_forms(partitions):
    p = partitions[3]
    # the same orbits found in the wrong order: the seeds are not class order
    reordered = OrbitPartition(3, p.ordinals, dict(reversed(p.sizes().items())))
    with pytest.raises(SelfCheckError, match="canonical forms"):
        census(3, reordered)
    # right seeds, but sizes that divide 6! = 720 and miss the binomials
    p = partitions[2]
    with pytest.raises(SelfCheckError, match="predicted 10"):
        census(2, OrbitPartition(2, p.ordinals, {0: 8, 5: 8}))


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
    for g in range(1, 5):
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


def test_sp_rejects_oversized_genus():
    with pytest.raises(ValueError):
        sp_transvection_orbits(7)


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


def test_fixed_matrices_span_several_blocks():
    assert fixed_matrices(11) == (fixed_point_matrix(11),)
    assert fixed_matrices(12) == ()


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
    assert _traced_peak_mb(first_disagreement, partition_11, lambda k: arf_keys(11, k)) < 16


def test_enumeration_peak_is_the_ordinal_map(partition_11):
    # the 1-byte ordinal map is 4 MB at g = 11; 4-byte labels would be 16 MB
    assert partition_11.ordinals.dtype == np.uint8
    assert _traced_peak_mb(enumerate_orbits, 11) < 8
