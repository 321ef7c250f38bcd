"""Homology classes, spin matrices, and the twist action."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspin import SpinMatrix, arf, generator_class
from oracles import HomologyClass, dehn_twist, evaluate, intersection


def every_matrix(g):
    for key in range(1 << (2 * g)):
        yield SpinMatrix.from_key(g, key)


def every_class(g):
    for key in range(1 << (2 * g)):
        yield HomologyClass.from_key(g, key)


def alpha(k, g):
    return HomologyClass(g, 1 << (k - 1), 0)


def beta(k, g):
    return HomologyClass(g, 0, 1 << (k - 1))


def random_class(g, rng):
    return HomologyClass.from_key(g, rng.randrange(1 << (2 * g)))


matrices = st.integers(1, 12).flatmap(
    lambda g: st.tuples(
        st.just(g),
        st.integers(0, (1 << g) - 1),
        st.integers(0, (1 << g) - 1),
    )
).map(lambda t: SpinMatrix(*t))


def classes_for(g):
    word = st.integers(0, (1 << g) - 1)
    return st.tuples(st.just(g), word, word).map(lambda t: HomologyClass(*t))


# ---------------------------------------------------------------------------
# intersection


def test_intersection_of_dual_basis_classes():
    g = 3
    assert intersection(alpha(1, g), beta(1, g)) == 1
    assert intersection(alpha(1, g), alpha(2, g)) == 0
    assert intersection(beta(2, g), beta(3, g)) == 0
    assert intersection(alpha(2, g), beta(3, g)) == 0


def test_intersection_is_alternating():
    x = alpha(1, 2) + beta(2, 2)
    assert intersection(x, x) == 0
    for y in every_class(3):
        assert intersection(y, y) == 0


def test_intersection_is_bilinear_and_symmetric_g2():
    for x, y, z in itertools.product(every_class(2), repeat=3):
        assert intersection(x + y, z) == intersection(x, z) ^ intersection(y, z)
        assert intersection(x, y) == intersection(y, x)


def test_intersection_rejects_genus_mismatch():
    with pytest.raises(ValueError):
        intersection(HomologyClass(2, 0, 0), HomologyClass(3, 0, 0))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_example_and_refinement_crosscheck():
    m = SpinMatrix.from_text("111/101")
    x = alpha(1, 3) + beta(1, 3)
    assert evaluate(m, x) == 1
    # same value through the quadratic refinement of the two basis values
    a1, b1 = alpha(1, 3), beta(1, 3)
    assert evaluate(m, x) == evaluate(m, a1) ^ evaluate(m, b1) ^ intersection(a1, b1)


def test_evaluate_zero_class_is_zero():
    for m in every_matrix(2):
        assert evaluate(m, HomologyClass(2, 0, 0)) == 0


def test_evaluate_on_zero_matrix_sees_the_product_term():
    m = SpinMatrix(2, 0, 0)
    x = alpha(1, 2) + beta(1, 2)
    assert evaluate(m, x) == 1


def test_evaluate_restricted_to_basis_reproduces_matrix():
    for m in every_matrix(3):
        for k in range(1, 4):
            assert evaluate(m, alpha(k, 3)) == (m.top >> (k - 1)) & 1
            assert evaluate(m, beta(k, 3)) == (m.bottom >> (k - 1)) & 1


def test_quadratic_refinement_exhaustive_g_le_3():
    for g in (1, 2, 3):
        for m in every_matrix(g):
            for x in every_class(g):
                for y in every_class(g):
                    assert evaluate(m, x + y) == (
                        evaluate(m, x) ^ evaluate(m, y) ^ intersection(x, y)
                    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quadratic_refinement_randomized(data):
    g = data.draw(st.integers(1, 12))
    m = data.draw(
        st.tuples(st.integers(0, (1 << g) - 1), st.integers(0, (1 << g) - 1))
    )
    matrix = SpinMatrix(g, *m)
    x = data.draw(classes_for(g))
    y = data.draw(classes_for(g))
    assert evaluate(matrix, x + y) == (
        evaluate(matrix, x) ^ evaluate(matrix, y) ^ intersection(x, y)
    )


def test_evaluate_rejects_genus_mismatch():
    with pytest.raises(ValueError):
        evaluate(SpinMatrix(2, 0, 0), HomologyClass(3, 0, 0))


# ---------------------------------------------------------------------------
# arf


def test_arf_examples():
    assert arf(SpinMatrix.from_text("111/101")) == 0
    assert arf(SpinMatrix(4, 0, 0)) == 0
    assert arf(SpinMatrix.from_text("100/100")) == 1


def test_arf_is_twist_invariant_exhaustive_g_le_4():
    for g in (1, 2, 3, 4):
        for m in every_matrix(g):
            for gamma in every_class(g):
                assert arf(dehn_twist(m, gamma)) == arf(m)


# ---------------------------------------------------------------------------
# dehn_twist


def test_twist_about_alpha_flips_bottom_entry():
    m = SpinMatrix.from_text("010/111")
    twisted = dehn_twist(m, alpha(1, 3))  # c(alpha_1) = 0
    assert str(twisted) == "010/011"
    fixed = dehn_twist(m, alpha(2, 3))  # c(alpha_2) = 1
    assert fixed == m


def test_twist_about_zero_class_is_identity():
    for m in every_matrix(2):
        assert dehn_twist(m, HomologyClass(2, 0, 0)) == m


def test_twist_about_beta_pair_flips_both_tops():
    m = SpinMatrix.from_text("001/110")  # c(beta_1) + c(beta_2) = 0
    twisted = dehn_twist(m, HomologyClass(3, 0, 0b011))  # beta_1 + beta_2
    assert str(twisted) == "111/110"


def test_twist_is_an_involution_exhaustive_g_le_4():
    for g in (1, 2, 3, 4):
        for m in every_matrix(g):
            for gamma in every_class(g):
                assert dehn_twist(dehn_twist(m, gamma), gamma) == m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_twist_matches_basiswise_formula(data):
    """The packed twist equals c(x) + (x.gamma)(c(gamma)+1) on every basis class."""
    g = data.draw(st.integers(1, 10))
    matrix = SpinMatrix(
        g,
        data.draw(st.integers(0, (1 << g) - 1)),
        data.draw(st.integers(0, (1 << g) - 1)),
    )
    gamma = data.draw(classes_for(g))
    twisted = dehn_twist(matrix, gamma)
    flip = evaluate(matrix, gamma) ^ 1
    for k in range(1, g + 1):
        ak, bk = alpha(k, g), beta(k, g)
        top, bottom = (twisted.top >> (k - 1)) & 1, (twisted.bottom >> (k - 1)) & 1
        assert top == evaluate(matrix, ak) ^ (intersection(ak, gamma) & flip)
        assert bottom == evaluate(matrix, bk) ^ (intersection(bk, gamma) & flip)


def test_twist_rejects_genus_mismatch():
    with pytest.raises(ValueError):
        dehn_twist(SpinMatrix(2, 0, 0), HomologyClass(3, 0, 0))


# ---------------------------------------------------------------------------
# classes of the basis curves


def test_class_of_basis_labels():
    g = 3
    assert generator_class(4, g) == 0b010
    assert generator_class(3, g) == 0b011 << g
    assert generator_class(7, g) == 0b100 << g
    assert HomologyClass.from_key(g, generator_class(4, g)) == alpha(2, g)
    assert HomologyClass.from_key(g, generator_class(3, g)) == beta(1, g) + beta(2, g)
    assert HomologyClass.from_key(g, generator_class(7, g)) == beta(3, g)


def test_class_of_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        HomologyClass(3, 0b1000, 0)  # alpha_4
    with pytest.raises(ValueError):
        HomologyClass(3, 0, 0b1100)  # beta_3 + beta_4
    with pytest.raises(ValueError):
        generator_class(0, 3)
    with pytest.raises(ValueError):
        generator_class(8, 3)  # would twist about alpha_4


# ---------------------------------------------------------------------------
# text format


@pytest.mark.parametrize("text", ["11111/10111", "0/1", "10/01", "111111/101101"])
def test_matrix_text_round_trip(text):
    assert str(SpinMatrix.from_text(text)) == text


@pytest.mark.parametrize(
    "text",
    ["111/10", "111", "11a/101", "/", "", "1/0/1", "11 1/101"]
    # rows that int(row, 2) alone would accept
    + ["1_0/101", "+10/101", "1 0/101"],
)
def test_matrix_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        SpinMatrix.from_text(text)


def test_matrix_text_parses_like_a_bit_by_bit_reference():
    rng = random.Random(3)
    for _ in range(200):
        g = rng.randint(1, 300)
        rows = ["".join(rng.choice("01") for _ in range(g)) for _ in range(2)]
        expected = [sum(1 << k for k, ch in enumerate(row) if ch == "1") for row in rows]
        m = SpinMatrix.from_text("/".join(rows))
        assert (m.g, m.top, m.bottom) == (g, *expected)


def test_matrix_key_round_trip():
    for m in every_matrix(3):
        assert SpinMatrix.from_key(3, m.key()) == m


def test_matrix_has_no_instance_dict():
    # slots keep a traced reduction small: every recorded step holds a
    # matrix built from a packed key, with two fresh row ints of its own
    assert not hasattr(SpinMatrix(3, 0, 0), "__dict__")


@pytest.mark.parametrize("key", [64, -1, 1000])
def test_matrix_from_key_rejects_keys_out_of_range(key):
    with pytest.raises(ValueError, match="out of range"):
        SpinMatrix.from_key(3, key)


def test_column_indexing_is_one_based_leftmost():
    # column 1 is the leftmost character and the lowest bit of its row
    m = SpinMatrix.from_text("100/001")
    assert (m.top, m.bottom) == (0b001, 0b100)
    assert str(SpinMatrix(3, 0b001, 0b100)) == "100/001"
