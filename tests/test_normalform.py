"""Canonical forms and the traced reduction."""

import functools
import hashlib
import random
import tracemalloc

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
    format_word,
    reduce_to_canonical,
    stabilizer_form,
)
from hyperspin.orbits import apply_generator_keys
from faults import act, letter_table
from oracles import weierstrass_class, weierstrass_subset


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
    assert [key for _, _, key in trace.steps] == [
        SpinMatrix.from_text(text).key() for text in ("11100/10111", "11100/10100")
    ]
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
    boundaries = [key for _, _, key in trace.steps]
    for printed in ("110011/100001", "100001/100001", "110000/111111", "000000/000000"):
        assert SpinMatrix.from_text(printed).key() in boundaries
    assert str(trace.result) == "000000/000000"


def test_unrecorded_trace_names_the_canonical_result():
    start = SpinMatrix.from_text("11111/10111")
    trace = reduce_to_canonical(start, record=False)
    assert trace.steps == () and trace.total_word == ()
    assert str(trace.result) == "11100/10100"
    assert trace.result == reduce_to_canonical(start).result


def test_reduction_trace_serialization():
    trace = reduce_to_canonical(SpinMatrix.from_text("11111/10111"))
    assert trace.lines() == [
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
    monkeypatch.setattr(normalform, "_letters", letter_table(lambda g, key, i: key))
    message = "cancel-full-pair 9 left 11111/10111, not 11100/10111"
    with pytest.raises(SelfCheckError, match=f"^{message}$"):
        reduce_to_canonical(SpinMatrix.from_text("11111/10111"))


@pytest.mark.parametrize("text, m", [("11000/11000", 1), ("11011/10001", 2)])
def test_reduction_end_state_is_checked_against_the_canonical_form(monkeypatch, text, m):
    # with no pair ever cancelled, survivors that do not alternate reach the
    # packing; each pack step does what it states, so only the end-state
    # comparison with canonical_form can reject them
    monkeypatch.setattr(normalform, "_rightmost_equal_pair", lambda top, bottom: None)
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
    assert reduce_to_canonical(matrix).steps[0][0] == move
    flips = [1 << (outside - 1)]

    def act_and_flip_once(g, key, i):
        flip = flips.pop() if flips else 0
        return act(g, key, i) ^ (flip if row == "top" else flip << g)

    monkeypatch.setattr(normalform, "_letters", letter_table(act_and_flip_once))
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
        for line in trace.lines():
            digest.update((line + "\n").encode())
    assert digest.hexdigest() == TRACE_DIGEST


def test_a_long_reduction_past_64_columns_is_pinned():
    # the trace digest above stops at g = 64, 128-bit keys; here 101 pack
    # moves of up to 297 letters each run on 400-bit keys
    matrix = SpinMatrix.from_text("0" * 99 + "1" * 101 + "/" + "0" * 99 + "10" * 50 + "1")
    trace = reduce_to_canonical(matrix)
    assert (trace.class_index, len(trace.steps), len(trace.total_word)) == (51, 101, 20097)
    assert hashlib.sha256(format_word(trace.total_word).encode()).hexdigest() == (
        "aa0e27121915c02e89bbb858dae1eee9476318199c8da6be5203e3a6c1eddd67"
    )


def _seeded_matrices(g, count):
    rng = random.Random(0)
    return [SpinMatrix(g, rng.getrandbits(g), rng.getrandbits(g)) for _ in range(count)]


def test_recording_builds_no_matrix_per_step(monkeypatch):
    # a recorded step is (move, word, packed key): reading steps builds no
    # matrix, and lines() builds one per step on every call
    built = []
    post_init = SpinMatrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    matrices = _seeded_matrices(64, 20)
    lengths = [len(reduce_to_canonical(m).steps) for m in matrices]
    short = matrices[lengths.index(min(lengths))]
    long = matrices[lengths.index(max(lengths))]
    assert min(lengths) < max(lengths)
    monkeypatch.setattr(SpinMatrix, "__post_init__", counted)
    costs, reads = [], []
    for matrix in (short, long):
        built.clear()
        trace = reduce_to_canonical(matrix)
        costs.append(len(built))
        built.clear()
        steps = trace.steps
        reads.append((len(built), 0))
        trace.lines()
        reads.append((len(built), len(steps)))
    assert costs[0] == costs[1] < 8
    assert all(count == expected for count, expected in reads)
    assert hash(trace) == hash(reduce_to_canonical(long))
    assert trace == reduce_to_canonical(long)


def test_held_recorded_reductions_stay_small():
    # 200 recorded g = 64 reductions, about 30 steps each; a matrix and a
    # step object per step would peak above 2 MB
    matrices = _seeded_matrices(64, 200)
    tracemalloc.start()
    try:
        held = [reduce_to_canonical(m) for m in matrices]
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 1.8


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
    for _, word, key in trace.steps:
        state = apply_word(state, word)
        assert state.key() == key


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


@pytest.mark.parametrize("g", range(3, 9))
def test_class_table_agrees_with_the_branch_subset_classifier(g):
    # Johnson's classification, computed with no code of the program
    mask = (1 << g) - 1
    expected = [weierstrass_class(g, key & mask, key >> g) for key in range(1 << (2 * g))]
    assert list(normalform.class_table(g)) == expected


def test_canonical_forms_have_branch_subsets_of_their_class_size():
    for g in range(1, 13):
        for m in range((g + 1) // 2 + 1):
            form = canonical_form(g, m)
            size = weierstrass_subset(g, form.top, form.bottom).bit_count()
            assert size in (g + 1 - 2 * m, g + 1 + 2 * m), (g, m)


@pytest.mark.parametrize(
    "g, digest",
    [
        (8, "c075a2afbfe986141cb71b8c7c33057ebce61ec05d7c1a03a46c11d9f462ed88"),
        (9, "c6b1cc4c927a71adf75e96e15155eb48d610c225f192edf123336f63ab4f8bf1"),
    ],
)
def test_class_table_bytes_are_pinned(g, digest):
    # the class of every key, however its passes are batched
    table = normalform.class_table(g)
    assert type(table) is bytearray and len(table) == 1 << (2 * g)
    assert hashlib.sha256(table).hexdigest() == digest


def test_class_table_steps_each_key_at_most_once(monkeypatch):
    # exactly once, in fact, for every key but the canonical forms: keys
    # with a (0,1) column in the array step, the others in scalar passes
    g = 6
    expected = bytes(class_index(m) for m in every_matrix(g))
    one_pass, array_step = normalform._pass, normalform._clear_bottom_keys
    stepped, moved = [], []

    def counted(g, key, steps):
        landed = one_pass(g, key, steps)
        if landed is not None:
            stepped.append(key)
        return landed

    def recorded(g):
        landed, lone = array_step(g)
        moved.extend(np.flatnonzero(landed != np.arange(landed.size)).tolist())
        return landed, lone

    monkeypatch.setattr(normalform, "_pass", counted)
    monkeypatch.setattr(normalform, "_clear_bottom_keys", recorded)
    assert normalform.class_table(g) == expected
    mask = (1 << g) - 1
    within = [key for key in range(1 << (2 * g)) if not key >> g & ~key & mask]
    canonical = {canonical_form(g, m).key() for m in range((g + 1) // 2 + 1)}
    assert stepped == [key for key in within if key not in canonical]
    assert moved == [key for key in range(1 << (2 * g)) if key >> g & ~key & mask]
    assert not set(stepped) & set(moved)


@pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
def test_every_pass_lowers_the_packed_key(g):
    unstepped = set()
    for key in range(1 << (2 * g)):
        before = key
        while (after := normalform._pass(g, before, None)) is not None:
            assert after < before, f"g={g}: a pass from key {before} reached {after}"
            before = after
        if before == key:
            unstepped.add(key)
    assert unstepped == {canonical_form(g, m).key() for m in range((g + 1) // 2 + 1)}


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_clear_bottom_pass_flips_each_lone_bottom_column_in_ascending_order(g):
    # read the (0,1) columns off the text form, column 1 first
    for matrix in every_matrix(g):
        top_row, bottom_row = str(matrix).split("/")
        lone = [k for k, column in enumerate(zip(top_row, bottom_row), 1) if column == ("0", "1")]
        if not lone:
            continue
        # the first pass from a key with a (0,1) column is clear-bottom-columns
        trace = reduce_to_canonical(matrix)
        cleared = SpinMatrix(g, matrix.top, matrix.top & matrix.bottom)
        assert trace.steps[0] == (
            "clear-bottom-columns", tuple(2 * k for k in lone), cleared.key()
        ), str(matrix)


def _faulty_plan(letter, target):
    """_plan, but where column 1 is (0,0) and a pass applies, one step of
    s_letter that takes column 1 to target: the step's exact post-state
    holds, so only _pass's landing checks can catch it."""
    plan = normalform._plan

    def faulty(g, top, bottom):
        steps = plan(g, top, bottom)
        if steps is None or (top | bottom) & 1:
            return steps
        return [("fault", (letter,), 1, 1, *target)]

    return faulty


@pytest.mark.parametrize(
    "letter, target, run, message",
    [
        # (0,0) -> (1,0) raises the key by one
        (1, (1, 0), lambda: normalform.class_table(4),
         "a pass from key 2 reached key 3, not a lower one"),
        (1, (1, 0), lambda: reduce_to_canonical(SpinMatrix.from_text("0111/0101")),
         "a pass from key 174 reached key 175, not a lower one"),
        # (0,0) -> (0,1) raises the key too, but the (0,1) column is named
        # first: the class table's gather needs keys without one
        (2, (0, 1), lambda: normalform.class_table(4),
         "a pass from key 2 left .0,1. columns: 0100/1000"),
        (2, (0, 1), lambda: reduce_to_canonical(SpinMatrix.from_text("0111/0101")),
         "a pass from key 174 left .0,1. columns: 0111/1101"),
    ],
    ids=["rising-class-table", "rising-reduce", "lone-bottom-class-table", "lone-bottom-reduce"],
)
def test_pass_checks_where_each_planned_pass_lands(monkeypatch, letter, target, run, message):
    # a pass whose steps hold can break the landing only through its plan
    monkeypatch.setattr(normalform, "_plan", _faulty_plan(letter, target))
    with pytest.raises(SelfCheckError, match=f"^{message}$"):
        run()


def test_reduce_raises_when_the_trace_word_does_not_replay(monkeypatch):
    # a replay that does nothing leaves the input, not the canonical form
    monkeypatch.setattr(normalform, "apply_word", lambda matrix, word: matrix)
    matrix = SpinMatrix.from_text("11111/10111")
    with pytest.raises(SelfCheckError, match="^trace word does not replay"):
        reduce_to_canonical(matrix)
    assert reduce_to_canonical(matrix, record=False).class_index == 2


def test_class_table_raises_on_a_faulty_action(monkeypatch):
    # every letter but s_1 acts as the identity, so some guarded pass must fail
    monkeypatch.setattr(
        normalform, "_letters",
        letter_table(lambda g, key, i: act(g, key, i) if i == 1 else key),
    )
    with pytest.raises(SelfCheckError):
        normalform.class_table(5)


def _identity_s4(act, g, key, i):
    return key if i == 4 else act(g, key, i)


def _raising_s4(act, g, key, i):
    # where s_4 clears bottom bit 2 it sets top bit 2 instead: (0,1) -> (1,1)
    landed = act(g, key, i)
    cleared = key & ~landed & 2 << g if i == 4 else 0
    return landed | cleared | cleared >> g


@pytest.mark.parametrize(
    "fault, g, left",
    [
        pytest.param(fault, g, left, id=f"{g}-{left}")
        for fault, g, left in [
            (_identity_s4, 3, "000/010, not 000/000"),
            (_identity_s4, 5, "00000/01000, not 00000/00000"),
            (_raising_s4, 3, "010/010, not 000/000"),
            (_raising_s4, 5, "01000/01000, not 00000/00000"),
        ]
    ],
)
def test_class_table_names_the_least_key_a_faulty_clear_bottom_letter_leaves(
    monkeypatch, fault, g, left
):
    # the least key with column 2 at (0,1) keeps it, or goes to (1,1), a
    # higher key: the exact post-state catches both, with the scalar message
    monkeypatch.setattr(normalform, "_letters", letter_table(functools.partial(fault, act)))
    with pytest.raises(SelfCheckError, match=f"^clear-bottom-columns 4 left {left}$"):
        normalform.class_table(g)


def test_class_table_raises_when_the_array_and_scalar_steps_disagree(monkeypatch):
    # s_4 is the identity on key arrays only, so the scalar pass of the least
    # failing key succeeds and the array step must raise on its own
    def array_fault(g, key, i):
        return key if i == 4 and isinstance(key, np.ndarray) else act(g, key, i)

    monkeypatch.setattr(normalform, "_letters", letter_table(array_fault))
    with pytest.raises(
        SelfCheckError, match="^the array and scalar clear-bottom steps disagree at key 16$"
    ):
        normalform.class_table(3)


def _column_kinds(top, bottom):
    """Nonzero columns as (position, pattern), left to right: pattern bit 1
    is the top bit, bit 2 the bottom bit."""
    out = []
    occupied = top | bottom
    while occupied:
        low = occupied & -occupied
        pattern = (1 if top & low else 0) | (2 if bottom & low else 0)
        out.append((low.bit_length(), pattern))
        occupied ^= low
    return out


def _column_list_equal_pair(top, bottom):
    """Reference scan: the rightmost adjacent equal pair of the column list."""
    columns = _column_kinds(top, bottom)
    for idx in range(len(columns) - 2, -1, -1):
        (p, kind), (q, kind2) = columns[idx], columns[idx + 1]
        if kind == kind2:
            return p, q
    return None


@pytest.mark.parametrize("g", range(1, 9))
def test_rightmost_equal_pair_agrees_with_the_column_list_scan(g):
    checked = 0
    for top in range(1 << g):
        bottom = top
        while True:  # every bottom within top, top itself first
            expected = _column_list_equal_pair(top, bottom)
            assert normalform._rightmost_equal_pair(top, bottom) == expected, (top, bottom)
            checked += 1
            if not bottom:
                break
            bottom = bottom - 1 & top
    assert checked == 3**g


def test_docstring_move_table_lists_the_moves_the_passes_make():
    # the move table in the module docstring: a move name starts each row,
    # continuation lines are indented past it
    doc = normalform.__doc__
    table = doc[doc.index("the rest stay:\n\n") :].split("\n\n")[1]
    names = [line.split()[0] for line in table.splitlines()[1:] if not line.startswith("   ")]
    made = set()
    for g in range(3, 7):
        mask = (1 << g) - 1
        for key in range(1 << (2 * g)):
            made.update(step[0] for step in normalform._plan(g, key & mask, key >> g) or ())
    assert len(names) == len(set(names))
    assert set(names) == made


def test_class_table_rejects_small_genus():
    with pytest.raises(ValueError):
        normalform.class_table(2)


def test_stabilizer_forms_reduce_to_their_class():
    for g in range(3, 11):
        for m in range((g + 1) // 2 + 1):
            assert reduce_to_canonical(stabilizer_form(g, m)).class_index == m
