"""Canonical forms and the traced reduction."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspin import normalform
from hyperspin import (
    SelfCheckError,
    SpinMatrix,
    apply_generator,
    apply_word,
    arf,
    canonical_form,
    class_index,
    fixed_point_matrix,
    reduce_to_canonical,
    stabilizer_form,
)
from hyperspin.orbits import apply_generator_keys


def every_matrix(g):
    for key in range(1 << (2 * g)):
        yield SpinMatrix.from_key(g, key)


# ---------------------------------------------------------------------------
# blocks and representatives


def test_alternating_block_shapes():
    # the width-(2i-1) alternating block is the class-i form at genus 2i-1
    assert str(canonical_form(1, 1)) == "1/1"
    assert str(canonical_form(3, 2)) == "111/101"
    assert str(canonical_form(5, 3)) == "11111/10101"
    block = canonical_form(7, 4)
    assert block.g == 7
    full = [k for k in range(1, 8) if (block.top & block.bottom) >> (k - 1) & 1]
    tops = [k for k in range(1, 8) if (block.top & ~block.bottom) >> (k - 1) & 1]
    assert full == [1, 3, 5, 7] and tops == [2, 4, 6]


def test_canonical_form_examples():
    assert str(canonical_form(3, 2)) == "111/101"
    assert str(canonical_form(5, 0)) == "00000/00000"
    assert str(canonical_form(6, 1)) == "100000/100000"
    assert str(canonical_form(5, 2)) == "11100/10100"


def test_canonical_form_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonical_form(5, 4)
    with pytest.raises(ValueError):
        canonical_form(4, 3)
    with pytest.raises(ValueError):
        canonical_form(3, -1)


def test_alternating_block_bottom_matches_the_bit_sum():
    for i in range(1, 201):
        block = canonical_form(2 * i - 1, i)
        assert block.bottom == sum(1 << k for k in range(0, 2 * i - 1, 2))
        assert block.top == (1 << (2 * i - 1)) - 1


def test_arf_of_representatives_is_class_parity():
    for g in range(3, 11):
        for m in range((g + 1) // 2 + 1):
            assert arf(canonical_form(g, m)) == m % 2


# ---------------------------------------------------------------------------
# stabilizer-adapted forms, defined by their fixing sets


def test_stabilizer_forms_for_each_residue():
    # g = 3: top misses column 2 + m
    assert str(stabilizer_form(3, 0)) == "101/101"
    assert str(stabilizer_form(3, 1)) == "110/101"
    assert str(stabilizer_form(3, 2)) == "111/101"
    # g = 4: bottom alternates through column 2 + m, then is 1 in even columns
    assert str(stabilizer_form(4, 0)) == "1111/1001"
    assert str(stabilizer_form(4, 1)) == "1111/1011"
    assert str(stabilizer_form(4, 2)) == "1111/1010"
    # g = 5: top misses column 3 + m (none for m = 3)
    assert str(stabilizer_form(5, 0)) == "11011/10101"
    assert str(stabilizer_form(5, 1)) == "11101/10101"
    assert str(stabilizer_form(5, 2)) == "11110/10101"
    assert str(stabilizer_form(5, 3)) == "11111/10101"
    # g = 6: bottom alternates through column 3 + m, then is 1 in even columns
    assert str(stabilizer_form(6, 0)) == "111111/101101"
    assert str(stabilizer_form(6, 1)) == "111111/101001"
    assert str(stabilizer_form(6, 2)) == "111111/101011"
    assert str(stabilizer_form(6, 3)) == "111111/101010"
    # g = 7 spot checks
    assert str(stabilizer_form(7, 0)) == "1110111/1010101"
    assert str(stabilizer_form(7, 4)) == "1111111/1010101"


def test_stabilizer_form_is_the_unique_matrix_with_its_fixing_set():
    # Oracle independent of the formula: scan every key with the vectorized
    # generator action and collect the keys whose fixing set is all
    # generators but s_{g+1+2m} (all generators when that index is 2g+2).
    for g in range(3, 9):
        keys = np.arange(1 << (2 * g), dtype=np.uint32)
        fixes = {i: apply_generator_keys(g, i, keys) == keys for i in range(1, 2 * g + 2)}
        for m in range((g + 1) // 2 + 1):
            special = g + 1 + 2 * m
            mask = ~fixes[special] if special in fixes else np.ones(keys.size, dtype=bool)
            for i, fixed in fixes.items():
                if i != special:
                    mask &= fixed
            assert np.flatnonzero(mask).tolist() == [stabilizer_form(g, m).key()], (g, m)


# SHA-256 (UTF-8) of every stabilizer form's text for g = 3..200, one form
# per line in order of g, then m.
STABILIZER_FORMS_DIGEST = "9379f8b8d4ff12bb4dd50c394576e9532b9ecde5c614ec36efb10401a99aeea7"


def test_stabilizer_forms_are_pinned():
    text = "\n".join(
        str(stabilizer_form(g, m)) for g in range(3, 201) for m in range((g + 1) // 2 + 1)
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == STABILIZER_FORMS_DIGEST


def test_stabilizer_form_rejects_bad_input():
    with pytest.raises(ValueError):
        stabilizer_form(2, 0)
    with pytest.raises(ValueError):
        stabilizer_form(5, 4)


def test_top_class_forms_coincide_with_representatives():
    for g in range(3, 11):
        if g % 2:
            top = (g + 1) // 2
            assert stabilizer_form(g, top) == canonical_form(g, top)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_matrices():
    assert str(fixed_point_matrix(3)) == "111/101"
    assert fixed_point_matrix(4) is None
    assert str(fixed_point_matrix(5)) == "11111/10101"
    assert fixed_point_matrix(8) is None


def test_fixed_point_is_fixed_by_every_generator():
    for g in (3, 5, 7, 9):
        m = fixed_point_matrix(g)
        for i in range(1, 2 * g + 2):
            assert apply_generator(m, i) == m


# ---------------------------------------------------------------------------
# reduction: reference traces


def test_reduction_of_first_reference_matrix():
    trace = reduce_to_canonical(SpinMatrix.from_text("11111/10111"))
    assert trace.class_index == 2
    assert trace.total_word == (9, 8, 10)
    assert [str(s.after) for s in trace.steps] == ["11100/10111", "11100/10100"]
    assert str(trace.result) == "11100/10100"
    assert trace.result == canonical_form(5, 2)


def test_reduction_of_second_reference_matrix():
    trace = reduce_to_canonical(SpinMatrix.from_text("111111/101101"))
    assert trace.class_index == 0
    assert trace.total_word == (
        7, 6, 8,
        9, 7, 5,
        4, 6, 8, 10, 11, 9, 7, 5,
        3, 2, 4, 6, 8, 10, 12,
    )
    boundaries = [str(s.after) for s in trace.steps]
    for printed in ("110011/100001", "100001/100001", "110000/111111", "000000/000000"):
        assert printed in boundaries
    assert str(trace.result) == "000000/000000"


def test_unrecorded_trace_names_the_canonical_result():
    start = SpinMatrix.from_text("11111/10111")
    trace = reduce_to_canonical(start, record=False)
    assert trace.steps == () and trace.total_word == ()
    assert str(trace.result) == "11100/10100"
    assert trace.result == reduce_to_canonical(start).result


def test_reduction_trace_serialization():
    trace = reduce_to_canonical(SpinMatrix.from_text("11111/10111"))
    assert [step.to_text() for step in trace.steps] == [
        "cancel-full-pair 9 -> 11100/10111",
        "clear-bottom-columns 8,10 -> 11100/10100",
    ]


def test_reduction_of_canonical_input_is_empty():
    for g in (3, 5, 8):
        for m in range((g + 1) // 2 + 1):
            trace = reduce_to_canonical(canonical_form(g, m))
            assert trace.steps == ()
            assert trace.class_index == m


def test_reduction_rejects_small_genus():
    with pytest.raises(ValueError):
        reduce_to_canonical(SpinMatrix(2, 0, 0))


def test_reduction_guards_fire_when_a_letter_does_nothing(monkeypatch):
    monkeypatch.setattr(normalform, "_act_letter", lambda g, top, bottom, i: (top, bottom))
    message = "cancel-full-pair 9 left 11111/10111, not 11100/10111"
    with pytest.raises(SelfCheckError, match=f"^{message}$"):
        reduce_to_canonical(SpinMatrix.from_text("11111/10111"))


@pytest.mark.parametrize("text, m", [("11000/11000", 1), ("11011/10001", 2)])
def test_reduction_end_state_is_checked_against_the_canonical_form(monkeypatch, text, m):
    # with no pair ever cancelled, survivors that do not alternate reach the
    # packing; each pack step does what it states, so only the end-state
    # comparison with canonical_form can reject them
    monkeypatch.setattr(normalform, "_rightmost_equal_pair", lambda columns: None)
    with pytest.raises(SelfCheckError, match=f"not the class-{m} form"):
        reduce_to_canonical(SpinMatrix.from_text(text))


@pytest.mark.parametrize(
    "text, move, outside",
    [
        ("00000/10000", "clear-bottom-columns", 5),
        ("11000/11000", "cancel-full-pair", 5),
        ("10100/10100", "align-full-pair", 5),
        ("11000/00000", "cancel-top-pair", 5),
        ("01000/00000", "drop-top-left", 5),
        ("11000/10000", "drop-top-right", 1),
        ("01000/01000", "pack-full-column", 5),
        ("10110/10010", "pack-top-column", 5),
    ],
)
@pytest.mark.parametrize("row", ["top", "bottom"])
def test_reduction_guards_fire_on_a_flip_outside_the_window(
    monkeypatch, text, move, outside, row
):
    matrix = SpinMatrix.from_text(text)
    assert reduce_to_canonical(matrix).steps[0].move == move
    act = normalform._act_letter
    flips = [1 << (outside - 1)]

    def act_and_flip_once(g, top, bottom, i):
        top, bottom = act(g, top, bottom, i)
        flip = flips.pop() if flips else 0
        return (top ^ flip, bottom) if row == "top" else (top, bottom ^ flip)

    monkeypatch.setattr(normalform, "_act_letter", act_and_flip_once)
    with pytest.raises(SelfCheckError, match=f"^{move} "):
        reduce_to_canonical(matrix)


# SHA-256 of every trace below, one "<matrix> <class>" line per input and then
# its step lines.  Any change to a move, word or intermediate matrix moves it.
TRACE_DIGEST = "1e35e855710d28cd4855d3ff0c9c7635020db0165bb9e41c18cce72a905fb1a3"


def test_reduction_traces_are_pinned():
    inputs = [m for g in range(3, 7) for m in every_matrix(g)]
    rng = random.Random(2111)
    for g in (12, 40, 64):
        for _ in range(200):
            top = rng.getrandbits(g)
            inputs.append(SpinMatrix(g, top, rng.getrandbits(g)))
    assert len(inputs) == 6040
    digest = hashlib.sha256()
    for m in inputs:
        trace = reduce_to_canonical(m)
        digest.update(f"{m} {trace.class_index}\n".encode())
        for step in trace.steps:
            digest.update((step.to_text() + "\n").encode())
    assert digest.hexdigest() == TRACE_DIGEST


# ---------------------------------------------------------------------------
# reduction: soundness


def test_reduction_replay_is_sound_exhaustive_g3_g4():
    for g in (3, 4):
        for m in every_matrix(g):
            trace = reduce_to_canonical(m)
            assert apply_word(m, trace.total_word) == canonical_form(g, trace.class_index)
            assert 0 <= trace.class_index <= (g + 1) // 2


def test_reduction_steps_replay_prefixwise():
    m = SpinMatrix.from_text("111111/101101")
    trace = reduce_to_canonical(m)
    state = m
    for step in trace.steps:
        state = apply_word(state, step.word)
        assert state == step.after


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_reduction_replay_is_sound_randomized(data):
    g = data.draw(st.integers(3, 10))
    m = SpinMatrix(
        g,
        data.draw(st.integers(0, (1 << g) - 1)),
        data.draw(st.integers(0, (1 << g) - 1)),
    )
    trace = reduce_to_canonical(m)
    assert apply_word(m, trace.total_word) == canonical_form(g, trace.class_index)


def test_class_index_matches_traced_reduction():
    for m in every_matrix(3):
        assert class_index(m) == reduce_to_canonical(m).class_index


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_class_index_is_invariant_under_random_words(data):
    """Acting by any word never changes the reported class, up to g = 12."""
    g = data.draw(st.integers(3, 12))
    m = SpinMatrix(
        g,
        data.draw(st.integers(0, (1 << g) - 1)),
        data.draw(st.integers(0, (1 << g) - 1)),
    )
    word = data.draw(st.lists(st.integers(1, 2 * g + 1), max_size=40))
    assert class_index(apply_word(m, word)) == class_index(m)


# ---------------------------------------------------------------------------
# the class table


@pytest.mark.parametrize("g", range(3, 8))
def test_class_table_equals_class_index_at_every_key(g):
    table = normalform.class_table(g)
    assert len(table) == 1 << (2 * g)
    assert list(table) == [class_index(m) for m in every_matrix(g)]


def test_class_table_steps_each_key_at_most_once(monkeypatch):
    # exactly once, in fact, for every key but the canonical forms
    g = 6
    expected = bytes(class_index(m) for m in every_matrix(g))
    one_pass = normalform._pass
    stepped = []

    def counted(g, top, bottom, steps):
        rows = one_pass(g, top, bottom, steps)
        if rows is not None:
            stepped.append(top | bottom << g)
        return rows

    monkeypatch.setattr(normalform, "_pass", counted)
    assert normalform.class_table(g) == expected
    canonical = {canonical_form(g, m).key() for m in range((g + 1) // 2 + 1)}
    assert sorted(stepped) == [key for key in range(1 << (2 * g)) if key not in canonical]


@pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
def test_every_pass_lowers_the_packed_key(g):
    mask = (1 << g) - 1
    unstepped = set()
    for key in range(1 << (2 * g)):
        top, bottom, before = key & mask, key >> g, key
        while (rows := normalform._pass(g, top, bottom, None)) is not None:
            top, bottom = rows
            after = top | bottom << g
            assert after < before, f"g={g}: a pass from key {before} reached {after}"
            before = after
        if before == key:
            unstepped.add(key)
    assert unstepped == {canonical_form(g, m).key() for m in range((g + 1) // 2 + 1)}


def _rising_pass(monkeypatch):
    """Make the first pass that applies land on the all-ones rows, the top key.

    Only the first, so that a caller without the descent guard ends.
    """
    one_pass = normalform._pass
    rose = []

    def rising(g, top, bottom, steps):
        rows = one_pass(g, top, bottom, steps)
        if rows is None or rose:
            return rows
        rose.append(rows)
        return (1 << g) - 1, (1 << g) - 1

    monkeypatch.setattr(normalform, "_pass", rising)


def test_class_table_raises_on_a_pass_that_does_not_lower_the_key(monkeypatch):
    _rising_pass(monkeypatch)
    with pytest.raises(SelfCheckError, match="not a lower one"):
        normalform.class_table(4)


def test_reduce_raises_on_a_pass_that_does_not_lower_the_key(monkeypatch):
    _rising_pass(monkeypatch)
    with pytest.raises(SelfCheckError, match="not a lower one"):
        reduce_to_canonical(SpinMatrix.from_text("11111/10111"))


def test_class_table_raises_on_a_faulty_action(monkeypatch):
    # every letter but s_1 acts as the identity, so some guarded pass must fail
    act = normalform._act_letter
    monkeypatch.setattr(
        normalform, "_act_letter",
        lambda g, top, bottom, i: act(g, top, bottom, i) if i == 1 else (top, bottom),
    )
    with pytest.raises(SelfCheckError):
        normalform.class_table(5)


def test_class_table_rejects_small_genus():
    with pytest.raises(ValueError):
        normalform.class_table(2)


def test_stabilizer_forms_reduce_to_their_class():
    for g in range(3, 11):
        for m in range((g + 1) // 2 + 1):
            assert reduce_to_canonical(stabilizer_form(g, m)).class_index == m
