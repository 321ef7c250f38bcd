"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything asserted here is bit-exact; the two
timing criteria assert their stated wall-clock budgets.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hyperspin import (
    HomologyClass,
    SpinMatrix,
    apply_generator,
    apply_word,
    arf,
    canonical_form,
    census,
    class_index,
    enumerate_orbits,
    evaluate,
    fixed_matrices,
    fixed_point_matrix,
    intersection,
    predicted_orbit_size,
    predicted_stabilizer_order,
    reduce_to_canonical,
    sp_transvection_orbits,
    stabilizer_form,
    verify_isotropy,
)
from hyperspin.cli import main as cli_main
from points import bubble_word, cycles, images_of_word

_partitions: dict[int, object] = {}


def partition(g):
    if g not in _partitions:
        _partitions[g] = enumerate_orbits(g)
    return _partitions[g]


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def random_matrix(g, rng):
    return SpinMatrix.from_key(g, rng.randrange(1 << (2 * g)))


# ---------------------------------------------------------------------------


def test_criterion_1_golden_traces(capsys):
    with criterion(1, "golden traces"):
        started = time.perf_counter()

        trace1 = reduce_to_canonical(SpinMatrix.from_text("11111/10111"))
        assert trace1.class_index == 2
        assert trace1.total_word == (9, 8, 10)
        assert [str(s.after) for s in trace1.steps] == ["11100/10111", "11100/10100"]
        assert trace1.result == canonical_form(5, 2)

        trace2 = reduce_to_canonical(SpinMatrix.from_text("111111/101101"))
        assert trace2.class_index == 0
        assert trace2.total_word == (
            7, 6, 8, 9, 7, 5, 4, 6, 8, 10, 11, 9, 7, 5, 3, 2, 4, 6, 8, 10, 12,
        )
        boundaries = [str(s.after) for s in trace2.steps]
        printed = ["110011/100001", "100001/100001", "110000/111111", "000000/000000"]
        positions = [boundaries.index(text) for text in printed]
        assert positions == sorted(positions)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.25, f"reference reductions took {elapsed:.3f}s"

        # the command-line front end prints the same data
        assert cli_main(["classify", "5", "11111/10111"]) == 0
        out = capsys.readouterr().out
        assert "class\t2" in out
        assert cli_main(["classify", "6", "111111/101101"]) == 0
        assert "class\t0" in capsys.readouterr().out
        assert cli_main(["reduce", "5", "11111/10111", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "11100/10111" in out and "word\t9,8,10" in out
        assert cli_main(["reduce", "6", "111111/101101", "--trace"]) == 0
        out = capsys.readouterr().out
        for text in printed:
            assert text in out


def test_criterion_2_orbit_counts():
    with criterion(2, "orbit counts for g=3..10"):
        started = time.perf_counter()
        for g in range(3, 11):
            expected = (g + 1) // 2 + 1
            assert partition(g).orbit_count == expected, f"g={g}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"


def test_criterion_3_orbit_sizes():
    with criterion(3, "orbit sizes match binomials for g=3..10"):
        for g in range(3, 11):
            records = census(g, partition(g))
            total = 0
            for record in records:
                assert record.size == predicted_orbit_size(g, record.class_index)
                total += record.size
            assert total == 1 << (2 * g)


def test_criterion_4_fixed_points():
    with criterion(4, "fixed points"):
        for g in (3, 5, 7, 9):
            fixed = fixed_point_matrix(g)
            assert fixed is not None
            for i in range(1, 2 * g + 2):
                assert apply_generator(fixed, i) == fixed
            if g <= 7:
                assert fixed_matrices(g) == (fixed,)  # exhaustively unique
        for g in (4, 6, 8):
            assert fixed_point_matrix(g) is None
            assert fixed_matrices(g) == ()  # exhaustively none


def test_criterion_5_isotropy():
    with criterion(5, "isotropy generators and exact orders for g=3..8"):
        for g in range(3, 9):
            part = partition(g)
            sizes = part.sizes()
            for m in range((g + 1) // 2 + 1):
                report = verify_isotropy(g, m, part)
                assert report.passed, (g, m, report.failures)
                special = g + 1 + 2 * m
                expected_fixing = set(range(1, 2 * g + 2)) - {special}
                assert set(report.fixing_generators) == expected_fixing
                if m == 0:
                    assert report.tau_fixes
                orbit_size = sizes[part.orbit_of(stabilizer_form(g, m))]
                order = math.factorial(2 * g + 2) // orbit_size
                assert order == predicted_stabilizer_order(g, m)
                if m >= 1:
                    assert order == math.factorial(g + 1 + 2 * m) * math.factorial(
                        g + 1 - 2 * m
                    )
                else:
                    assert order == 2 * math.factorial(g + 1) ** 2


def test_criterion_6_normal_form_membership():
    with criterion(6, "stabilizer forms reduce to their class for g=3..10"):
        for g in range(3, 11):
            for m in range((g + 1) // 2 + 1):
                assert reduce_to_canonical(stabilizer_form(g, m)).class_index == m


def test_criterion_7_oracle_equivalence():
    with criterion(7, "reduction agrees with enumeration, exhaustive g=3..8"):
        started = time.perf_counter()
        for g in range(3, 9):
            part = partition(g)
            labels = part.labels
            rep_class = {
                oid: class_index(SpinMatrix.from_key(g, oid)) for oid in part.orbit_ids
            }
            assert sorted(rep_class.values()) == list(range((g + 1) // 2 + 1))
            for key in range(1 << (2 * g)):
                assert (
                    class_index(SpinMatrix.from_key(g, key))
                    == rep_class[int(labels[key])]
                ), f"g={g} key={key}"
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"exhaustive agreement took {elapsed:.1f}s"


def test_criterion_8_algebra_properties():
    with criterion(8, "group relations and quadratic refinement"):
        # exhaustive for g <= 3
        for g in (1, 2, 3):
            n = 1 << (2 * g)
            top = 2 * g + 1
            for key in range(n):
                m = SpinMatrix.from_key(g, key)
                for i in range(1, top + 1):
                    once = apply_generator(m, i)
                    assert apply_generator(once, i) == m
                    assert arf(once) == arf(m)
                for i, j in itertools.combinations(range(1, top + 1), 2):
                    if j - i >= 2:
                        assert apply_word(m, (i, j)) == apply_word(m, (j, i))
                for i in range(1, top):
                    assert apply_word(m, (i, i + 1, i)) == apply_word(m, (i + 1, i, i + 1))
            mask = (1 << g) - 1
            for mk in range(n):
                matrix = SpinMatrix.from_key(g, mk)
                for xk in range(n):
                    x = HomologyClass(g, xk & mask, xk >> g)
                    for yk in range(n):
                        y = HomologyClass(g, yk & mask, yk >> g)
                        assert evaluate(matrix, x + y) == (
                            evaluate(matrix, x) ^ evaluate(matrix, y) ^ intersection(x, y)
                        )

        # randomized, >= 10^4 property cases across g <= 12
        rng = random.Random(20260808)
        cases = 0
        while cases < 10500:
            g = rng.randrange(4, 13)
            n = 1 << (2 * g)
            mask = (1 << g) - 1
            m = random_matrix(g, rng)
            i = rng.randrange(1, 2 * g + 2)
            assert apply_word(m, (i, i)) == m
            assert arf(apply_generator(m, i)) == arf(m)
            cases += 2
            j = rng.randrange(1, 2 * g + 2)
            if abs(i - j) >= 2:
                assert apply_word(m, (i, j)) == apply_word(m, (j, i))
                cases += 1
            b = rng.randrange(1, 2 * g + 1)
            assert apply_word(m, (b, b + 1, b)) == apply_word(m, (b + 1, b, b + 1))
            cases += 1
            xk, yk = rng.randrange(n), rng.randrange(n)
            x = HomologyClass(g, xk & mask, xk >> g)
            y = HomologyClass(g, yk & mask, yk >> g)
            assert evaluate(m, x + y) == (
                evaluate(m, x) ^ evaluate(m, y) ^ intersection(x, y)
            )
            cases += 1
            if cases % 256 < 6:
                # word-independence: two decompositions act identically
                points = list(range(1, 2 * g + 3))
                rng.shuffle(points)
                points = tuple(points)
                word1 = bubble_word(points)
                word2 = []
                for cycle in cycles(points):
                    for b2 in cycle[1:]:
                        lo, hi = min(cycle[0], b2), max(cycle[0], b2)
                        rising = list(range(lo, hi - 1))
                        word2 += rising + [hi - 1] + rising[::-1]
                assert images_of_word(word1, g) == images_of_word(word2, g) == points
                assert apply_word(m, word1) == apply_word(m, tuple(word2))
                cases += 1
        assert cases >= 10**4


def test_criterion_9_transvection_crosscheck():
    with criterion(9, "full transvection action splits by Arf"):
        for g in range(1, 6):
            sp = sp_transvection_orbits(g)  # self-checks orbit count and Arf
            half = 1 << (g - 1)
            assert sorted(sp.sizes().values(), reverse=True) == [
                half * ((1 << g) + 1),
                half * ((1 << g) - 1),
            ]
        assert np.array_equal(sp_transvection_orbits(2).labels, partition(2).labels)
