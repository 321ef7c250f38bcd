"""Generator actions, words, and the flip involution; words are projected to
the points by the test helper ``points``."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspin import (
    SpinMatrix,
    apply_generator,
    apply_word,
    arf,
    flip_word,
    format_word,
    generator_class,
)
from hyperspin.braid import _act_letter
from hyperspin.orbits import _generator_keys, twist_keys
from oracles import HomologyClass, dehn_twist, weierstrass_subset
from points import bubble_word, cycles, images_of_word


def every_matrix(g):
    for key in range(1 << (2 * g)):
        yield SpinMatrix.from_key(g, key)


# ---------------------------------------------------------------------------
# generator dictionary


def test_generator_labels_follow_the_twist_dictionary():
    g = 4
    assert generator_class(3, g) == 0b0011 << g

    def unpacked(i):
        return HomologyClass.from_key(g, generator_class(i, g))

    assert unpacked(1) == HomologyClass(g, 0, 0b0001)  # beta_1
    assert unpacked(9) == HomologyClass(g, 0, 0b1000)  # beta_4
    assert unpacked(2) == HomologyClass(g, 0b0001, 0)  # alpha_1
    assert unpacked(4) == HomologyClass(g, 0b0010, 0)  # alpha_2
    assert unpacked(6) == HomologyClass(g, 0b0100, 0)  # alpha_3
    assert unpacked(8) == HomologyClass(g, 0b1000, 0)  # alpha_4
    assert unpacked(3) == HomologyClass(g, 0, 0b0011)  # beta_1 + beta_2
    assert unpacked(5) == HomologyClass(g, 0, 0b0110)  # beta_2 + beta_3
    assert unpacked(7) == HomologyClass(g, 0, 0b1100)  # beta_3 + beta_4


def test_generator_index_range_is_enforced():
    m = SpinMatrix(3, 0, 0)
    with pytest.raises(ValueError):
        apply_generator(m, 0)
    with pytest.raises(ValueError):
        apply_generator(m, 8)
    with pytest.raises(ValueError):
        apply_word(m, (1, 2, 9))
    with pytest.raises(ValueError):
        generator_class(8, 3)


# ---------------------------------------------------------------------------
# the four action cases


def test_reference_action_on_genus_five_matrix():
    m = SpinMatrix.from_text("11111/10111")
    assert str(apply_generator(m, 9)) == "11100/10111"


def test_edge_generator_on_zero_matrix():
    assert str(apply_generator(SpinMatrix(3, 0, 0), 1)) == "100/000"
    assert str(apply_generator(SpinMatrix(3, 0, 0), 7)) == "001/000"


def test_all_generators_fix_the_alternating_matrix():
    m = SpinMatrix.from_text("111/101")
    for i in range(1, 8):
        assert apply_generator(m, i) == m


def test_even_generator_flips_bottom_iff_top_is_zero():
    m = SpinMatrix.from_text("010/000")
    assert str(apply_generator(m, 2)) == "010/100"
    assert str(apply_generator(m, 4)) == "010/000"


def test_guarded_moves_have_their_advertised_effect():
    # the five single-generator moves the reducer's steps are built from
    assert str(apply_generator(SpinMatrix(3, 0, 0), 1)) == "100/000"  # flip-top-first
    assert str(apply_generator(SpinMatrix.from_text("010/110"), 3)) == "100/110"  # swap
    assert str(apply_generator(SpinMatrix.from_text("110/000"), 3)) == "000/000"  # cancel
    m = SpinMatrix.from_text("011/010")
    assert str(apply_generator(m, 2)) == "011/110"  # flip-bottom(1)
    assert str(apply_generator(m, 7)) == "010/010"  # flip-top-last


def test_generators_fix_the_matrix_when_a_move_guard_fails():
    m = SpinMatrix.from_text("110/101")
    assert apply_generator(m, 2) == m  # flip-bottom(1): c(alpha_1) = 1
    assert apply_generator(m, 1) == m  # flip-top-first: c(beta_1) = 1
    assert apply_generator(m, 7) == m  # flip-top-last: c(beta_3) = 1
    assert apply_generator(m, 3) == m  # swap/cancel-tops(1): c(beta_1) != c(beta_2)
    # with the bottom guard met, equal tops cancel and unequal tops swap
    assert str(apply_generator(SpinMatrix.from_text("110/110"), 3)) == "000/110"
    assert str(apply_generator(SpinMatrix.from_text("010/110"), 3)) == "100/110"


def test_single_letter_word_is_the_generator():
    m = SpinMatrix.from_text("010/110")
    for i in range(1, 8):
        assert apply_word(m, (i,)) == apply_generator(m, i)


def test_action_agrees_with_twist_about_generator_class():
    for g in (1, 2, 3, 4):
        for m in every_matrix(g):
            for i in range(1, 2 * g + 2):
                gamma = HomologyClass.from_key(g, generator_class(i, g))
                assert apply_generator(m, i) == dehn_twist(m, gamma)


def test_act_letter_runs_on_key_arrays():
    # every key for g <= 8, seeded keys at the largest verify genera
    rng = random.Random(14)
    cases = [(g, np.arange(1 << (2 * g), dtype=np.uint32)) for g in range(1, 9)]
    cases += [
        (g, np.array([rng.randrange(1 << (2 * g)) for _ in range(2000)], dtype=np.uint32))
        for g in (12, 14)
    ]
    for g, keys in cases:
        for i, gamma_key in enumerate(_generator_keys(g), 1):
            images = twist_keys(g, gamma_key, keys)
            # every unsigned dtype that holds the keys: the output keeps it,
            # so the class table's key arrays are never upcast
            for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
                if np.iinfo(dtype).bits >= 2 * g:
                    acted = _act_letter(g, keys.astype(dtype), i)
                    assert acted.dtype == dtype, (g, i, dtype)
                    assert np.array_equal(acted, images), (g, i, dtype)
            # object arrays run the scalar kernel on each key's Python int
            assert _act_letter(g, keys.astype(object), i).tolist() == images.tolist(), (g, i)


def test_letters_swap_their_points_in_the_branch_subset():
    # s_i acts on the branch subset T as the transposition (i, i+1); T is
    # kept without point 1, so it is complemented when point 1 enters
    for g in range(1, 7):
        full, mask = (1 << (2 * g + 2)) - 1, (1 << g) - 1
        for key in range(1 << (2 * g)):
            top, bottom = key & mask, key >> g
            subset = weierstrass_subset(g, top, bottom)
            for i in range(1, 2 * g + 2):
                # swapping two points flips both bits exactly when they differ
                differ = (subset >> (i - 1) ^ subset >> i) & 1
                swapped = subset ^ differ * 3 << (i - 1)
                if swapped & 1:
                    swapped ^= full
                image = _act_letter(g, key, i)
                assert weierstrass_subset(g, image & mask, image >> g) == swapped, (g, key, i)


# ---------------------------------------------------------------------------
# words


def test_reference_words_reproduce_printed_matrices():
    m = apply_generator(SpinMatrix.from_text("11111/10111"), 9)
    assert str(apply_word(m, (8, 10))) == "11100/10100"

    m2 = SpinMatrix.from_text("111111/101101")
    assert str(apply_word(m2, (7, 6, 8))) == "110011/100001"


def test_empty_word_is_identity():
    for m in every_matrix(2):
        assert apply_word(m, ()) == m


def test_word_application_is_left_to_right():
    m = SpinMatrix.from_text("111111/101101")
    folded = apply_generator(apply_generator(apply_generator(m, 7), 6), 8)
    assert apply_word(m, (7, 6, 8)) == folded


def test_generators_are_involutions_exhaustive_g_le_4():
    for g in (1, 2, 3, 4):
        for m in every_matrix(g):
            for i in range(1, 2 * g + 2):
                assert apply_word(m, (i, i)) == m


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_generators_are_involutions_randomized(data):
    g = data.draw(st.integers(1, 12))
    m = SpinMatrix(
        g,
        data.draw(st.integers(0, (1 << g) - 1)),
        data.draw(st.integers(0, (1 << g) - 1)),
    )
    i = data.draw(st.integers(1, 2 * g + 1))
    assert apply_word(m, (i, i)) == m


def test_distant_generators_commute_exhaustive_g_le_3():
    for g in (2, 3):
        for m in every_matrix(g):
            for i in range(1, 2 * g + 2):
                for j in range(i + 2, 2 * g + 2):
                    assert apply_word(m, (i, j)) == apply_word(m, (j, i))


def test_braid_relation_exhaustive_g_le_3():
    for g in (1, 2, 3):
        for m in every_matrix(g):
            for i in range(1, 2 * g + 1):
                assert apply_word(m, (i, i + 1, i)) == apply_word(m, (i + 1, i, i + 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_arf_is_constant_along_words(data):
    g = data.draw(st.integers(1, 10))
    m = SpinMatrix(
        g,
        data.draw(st.integers(0, (1 << g) - 1)),
        data.draw(st.integers(0, (1 << g) - 1)),
    )
    word = data.draw(st.lists(st.integers(1, 2 * g + 1), max_size=30))
    assert arf(apply_word(m, word)) == arf(m)


# ---------------------------------------------------------------------------
# the flip involution


def test_flip_word_for_genus_one():
    assert tuple(flip_word(1)) == (1, 2, 3, 2, 1, 2)
    assert images_of_word(tuple(flip_word(1)), 1) == (4, 3, 2, 1)


def test_flip_permutation_reverses_the_points():
    for g in range(1, 9):
        n = 2 * g + 2
        images = images_of_word(tuple(flip_word(g)), g)
        assert images == tuple(n + 1 - p for p in range(1, n + 1))
        assert images_of_word(tuple(flip_word(g)) * 2, g) == tuple(range(1, n + 1))


def test_flip_of_genus_three_is_the_full_reversal():
    assert cycles(images_of_word(tuple(flip_word(3)), 3)) == [
        (1, 8),
        (2, 7),
        (3, 6),
        (4, 5),
    ]


def test_flip_word_is_streamed():
    # (g+1)(2g+1) = 321201 letters at g = 400; a tuple of them is about 9.6 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in flip_word(400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 401 * 801
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# words projected to the points


def test_single_letter_permutation():
    assert images_of_word((1,), 1) == (2, 1, 3, 4)


def test_braid_words_give_the_same_permutation():
    assert images_of_word((1, 2, 1), 1) == images_of_word((2, 1, 2), 1)
    assert cycles(images_of_word((1, 2, 1), 1)) == [(1, 3)]


def test_empty_word_is_identity_permutation():
    assert images_of_word((), 2) == (1, 2, 3, 4, 5, 6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_word_for_permutation_round_trip(data):
    g = data.draw(st.integers(1, 8))
    n = 2 * g + 2
    images = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    word = bubble_word(images)
    assert len(word) <= n * (n - 1) // 2
    assert images_of_word(word, g) == images


def cycle_word(images):
    """A second decomposition: adjacent palindromes over the cycles,
    cycle (c1 c2 ... ck) written as (c1 c2)(c1 c3)...(c1 ck)."""
    word = []
    for cycle in cycles(images):
        for b in cycle[1:]:
            lo, hi = min(cycle[0], b), max(cycle[0], b)
            rising = list(range(lo, hi - 1))
            word += rising + [hi - 1] + rising[::-1]
    return tuple(word)


def test_action_factors_through_the_permutation():
    """Two independent decompositions of a permutation act identically."""
    rng = random.Random(7)
    for _ in range(100):
        g = rng.randrange(2, 7)
        images = list(range(1, 2 * g + 3))
        rng.shuffle(images)
        images = tuple(images)
        word1, word2 = bubble_word(images), cycle_word(images)
        assert images_of_word(word1, g) == images_of_word(word2, g) == images
        m = SpinMatrix.from_key(g, rng.randrange(1 << (2 * g)))
        assert apply_word(m, word1) == apply_word(m, word2)


# ---------------------------------------------------------------------------
# word text format


def test_word_text_round_trip():
    assert format_word((7, 6, 8)) == "7,6,8"
    assert format_word((9,)) == "9"
    assert format_word(()) == ""
