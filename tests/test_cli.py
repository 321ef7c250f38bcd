"""Command-line interface: outputs, flags, exit codes."""

import argparse
import builtins
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hyperspin import (
    SpinMatrix,
    canonical_form,
    cli,
    normalform,
    orbits,
    predicted_stabilizer_order,
    sp_transvection_orbits,
)
from hyperspin.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SKIP_STRICT,
    EXIT_USAGE,
    MAX_SYMBOLIC_GENUS,
    main,
)
from hyperspin.orbits import OrbitPartition, SelfCheckError
from faults import act, letter_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_first_reference_matrix(capsys):
    code, out, _ = run(capsys, "classify", "5", "11111/10111")
    assert code == EXIT_OK
    assert "class\t2" in out
    assert "canonical\t11100/10100" in out
    assert "arf\t0" in out


def test_classify_second_reference_matrix(capsys):
    code, out, _ = run(capsys, "classify", "6", "111111/101101")
    assert code == EXIT_OK
    assert "class\t0" in out


def test_classify_zero_matrix(capsys):
    code, out, _ = run(capsys, "classify", "3", "000/000")
    assert code == EXIT_OK
    assert "class\t0" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "5", "11111/10111", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class"] == 2
    assert payload["canonical"] == "11100/10100"


def test_classify_rejects_parse_failures(capsys):
    assert run(capsys, "classify", "5", "junk")[0] == EXIT_USAGE
    assert run(capsys, "classify", "5", "111/101")[0] == EXIT_USAGE  # genus mismatch
    assert run(capsys, "classify", "x", "111/101")[0] == EXIT_USAGE
    for row in ("1_0", "+10", "1 0"):  # rows that int(row, 2) alone would accept
        assert run(capsys, "classify", "3", f"{row}/101")[0] == EXIT_USAGE


def test_classify_rejects_small_genus(capsys):
    for argv in (("classify", "2", "11/10"), ("reduce", "2", "11/10"), ("isotropy", "2", "0")):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "genus" in err


# ---------------------------------------------------------------------------
# reduce


def test_reduce_trace_prints_reference_intermediates(capsys):
    code, out, _ = run(capsys, "reduce", "5", "11111/10111", "--trace")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "cancel-full-pair 9 -> 11100/10111" in lines
    assert "clear-bottom-columns 8,10 -> 11100/10100" in lines
    assert "word\t9,8,10" in lines


def test_reduce_trace_second_reference(capsys):
    code, out, _ = run(capsys, "reduce", "6", "111111/101101", "--trace")
    assert code == EXIT_OK
    for printed in ("110011/100001", "100001/100001", "110000/111111", "000000/000000"):
        assert printed in out
    assert "word\t7,6,8,9,7,5,4,6,8,10,11,9,7,5,3,2,4,6,8,10,12" in out


def test_reduce_canonical_input_has_empty_trace(capsys):
    code, out, _ = run(capsys, "reduce", "3", "111/101", "--trace")
    assert code == EXIT_OK
    assert out.splitlines() == ["class\t2", "word\t", "final\t111/101"]


def test_reduce_json_structure(capsys):
    code, out, _ = run(capsys, "reduce", "5", "11111/10111", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["word"] == [9, 8, 10]
    assert payload["steps"][0]["move"] == "cancel-full-pair"


@pytest.mark.parametrize(
    "g, matrix, stats",
    [
        ("5", "11111/10111", "2 steps, 3 letters; cancel-full-pair 1, clear-bottom-columns 1"),
        ("3", "111/101", "0 steps, 0 letters"),
        (
            "6",
            "111111/101101",
            "6 steps, 21 letters; cancel-full-pair 2, clear-bottom-columns 2, "
            "cancel-top-pair 1, align-full-pair 1",
        ),
    ],
)
@pytest.mark.parametrize("mode", [(), ("--trace",), ("--json",)])
def test_reduce_stats_writes_one_stderr_line_and_leaves_stdout(capsys, g, matrix, stats, mode):
    code, out, err = run(capsys, "reduce", g, matrix, "--stats", *mode)
    assert (code, err) == (EXIT_OK, f"# stats: {stats}\n")
    assert run(capsys, "reduce", g, matrix, *mode) == (EXIT_OK, out, "")


# ---------------------------------------------------------------------------
# orbits / isotropy / fixed-point


def test_orbits_table_genus_three(capsys):
    code, out, _ = run(capsys, "orbits", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "g\tm\tsize\tstabilizer_order\tarf\tbinomial_predicted\tmatch"
    assert "3\t0\t35\t1152\t0\t35\tyes" in lines
    assert "3\t1\t28\t1440\t1\t28\tyes" in lines
    assert "3\t2\t1\t40320\t0\t1\tyes" in lines


def test_orbits_table_below_the_classified_range(capsys):
    # no class index below genus 3: m, the prediction and the match are blank
    code, out, _ = run(capsys, "orbits", "2")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "g\tm\tsize\tstabilizer_order\tarf\tbinomial_predicted\tmatch",
        "2\t-\t10\t72\t0\t\t-",
        "2\t-\t6\t120\t1\t\t-",
    ]
    code, out, _ = run(capsys, "orbits", "1", "--json")
    assert code == EXIT_OK
    assert out == (
        '[{"arf": 0, "binomial_predicted": "", "g": 1, "m": "-", "match": "-", '
        '"size": 3, "stabilizer_order": 8}, {"arf": 1, "binomial_predicted": "", '
        '"g": 1, "m": "-", "match": "-", "size": 1, "stabilizer_order": 24}]\n'
    )


def test_orbits_rejects_oversized_genus(capsys):
    assert run(capsys, "orbits", "13")[0] == EXIT_USAGE


def test_isotropy_report(capsys):
    code, out, _ = run(capsys, "isotropy", "3", "0")
    assert code == EXIT_OK
    assert "fixing_generators\t1,2,3,5,6,7" in out
    assert "tau_fixes\tTrue" in out
    assert "predicted_order\t1152" in out
    assert "observed_order\t1152" in out
    # a dict prints None as it is; only table cells print it as '-'
    code, out, _ = run(capsys, "isotropy", "3", "2")
    assert code == EXIT_OK
    assert "moving_generator\tNone" in out.splitlines()


def test_isotropy_prints_exact_orders_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "isotropy", "870", "0")
    json_code, json_out, json_err = run(capsys, "isotropy", "870", "0", "--json")
    assert sys.get_int_max_str_digits() == limit  # main restores the limit
    assert (code, err) == (json_code, json_err) == (EXIT_OK, "")
    sys.set_int_max_str_digits(0)
    try:
        expected = str(predicted_stabilizer_order(870, 0))
        assert len(expected) > limit
        assert f"predicted_order\t{expected}\n" in out
        assert json.loads(json_out)["predicted_order"] == int(expected)
    finally:
        sys.set_int_max_str_digits(limit)


def test_isotropy_rejects_bad_class(capsys):
    assert run(capsys, "isotropy", "3", "5")[0] == EXIT_USAGE


def test_fixed_point_output(capsys):
    assert run(capsys, "fixed-point", "4") == (EXIT_OK, "none\n", "")
    assert run(capsys, "fixed-point", "5")[1] == "11111/10101\n"


def test_symbolic_commands_refuse_a_genus_above_the_ceiling(capsys):
    # isotropy 870 0, which prints past the digit limit, is below it; the
    # matrix has genus MAX_SYMBOLIC_GENUS + 1, and the genus is refused first
    row = "1" * (MAX_SYMBOLIC_GENUS + 1)
    for g in (MAX_SYMBOLIC_GENUS + 1, 10**20, 10**20 + 1):
        for argv in (
            ("isotropy", str(g), "0"),
            ("fixed-point", str(g)),
            ("classify", str(g), f"{row}/{row}"),
            ("reduce", str(g), f"{row}/{row}"),
        ):
            started = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - started < 1
            assert (code, out) == (EXIT_USAGE, "")
            message = f"genus must be <= {MAX_SYMBOLIC_GENUS} for this command, got {g}"
            assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_small_range_passes(capsys):
    code, out, _ = run(capsys, "verify", "3..4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "g\tcheck\tstatus\tdetail"
    assert any(line.startswith("3\torbit-count\tPASS") for line in lines)
    assert any(line.startswith("4\tisotropy\tPASS") for line in lines)
    assert any("golden-traces\tPASS" in line for line in lines)
    assert "FAIL" not in out


def test_verify_genus_two_reports_derived_facts(capsys):
    code, out, _ = run(capsys, "verify", "2")
    assert code == EXIT_OK
    assert "derived" in out
    assert any("sp-crosscheck\tPASS\t10 6" in line for line in out.splitlines())


def test_verify_skips_above_ceiling(capsys):
    code, out, _ = run(capsys, "verify", "5", "--max-g", "4")
    assert code == EXIT_OK
    assert "orbit-count\tSKIP" in out
    assert "normal-forms\tPASS" in out  # symbolic checks still run
    assert "5\tfixed-point\tPASS\t11111/10101" in out.splitlines()
    assert "5\tisotropy\tPASS\tfixing sets only" in out.splitlines()
    assert "5\tsp-crosscheck\tSKIP\tenumeration capped at 4" in out.splitlines()
    # a --max-g above the hard ceiling of 12 acts as 12, and the notice says so
    code, out, _ = run(capsys, "verify", "13", "--max-g", "20")
    assert code == EXIT_OK
    assert "13\torbit-count\tSKIP\tenumeration capped at 12" in out.splitlines()
    assert "capped at 20" not in out


def test_verify_strict_turns_skips_into_failures(capsys):
    code, _, _ = run(capsys, "verify", "5", "--max-g", "4", "--strict")
    assert code == EXIT_SKIP_STRICT


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "3", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["failed"] is False
    checks = {row["check"] for row in payload["rows"]}
    assert {"orbit-count", "orbit-sizes", "isotropy", "golden-traces"} <= checks


def test_verify_class_agreement_names_the_least_bad_key(capsys, monkeypatch):
    # keys 20 and 50 are not orbit seeds at g = 3 (those are 0, 9 and 47)
    def table_off_by_one(g):
        table = normalform.class_table(g)
        table[20] += 1
        table[50] += 1
        return table

    monkeypatch.setattr(cli, "class_table", table_off_by_one)
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_CHECK_FAILED
    assert "3\tclass-agreement\tFAIL\tdisagrees at key 20" in out.splitlines()


def test_verify_sp_crosscheck_fails_on_an_uncontained_orbit(capsys, monkeypatch):
    sp = sp_transvection_orbits(3)
    ordinals = sp.ordinals.copy()
    ordinals[-1] = 3 - ordinals[-1]  # move the last key, not a seed, to the other sp-orbit
    moved = dataclasses.replace(sp, ordinals=ordinals)
    monkeypatch.setattr(cli, "sp_transvection_orbits", lambda g: moved)
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_CHECK_FAILED
    assert "3\tsp-crosscheck\tFAIL\torbit not contained" in out.splitlines()


def test_verify_sp_crosscheck_fails_when_genus_two_partitions_differ(capsys, monkeypatch):
    # one sp-orbit holding every key contains both generator orbits, but is not one of them
    coarse = OrbitPartition(2, np.ones(16, dtype=np.uint8), {0: 16})
    monkeypatch.setattr(cli, "sp_transvection_orbits", lambda g: coarse)
    code, out, _ = run(capsys, "verify", "2")
    assert code == EXIT_CHECK_FAILED
    assert "2\tsp-crosscheck\tFAIL\tpartitions differ" in out.splitlines()


# verify's stdout rows for the default range 3..8 and for 9..12
VERIFY_DIGEST = "a0576f254a89f336c9124cade8abcfb67dbb33e912353f4138e83cd521507550"
VERIFY_9_12_DIGEST = "e42b42d901003da0bc41314821b7ba8a3189ea22ede8eb0a96956fe40800f66a"


def _rows_digest(out):
    """The sha256 of verify's stdout without its elapsed line."""
    lines = [line for line in out.splitlines() if not line.startswith("# elapsed")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        # every genus gate: g < 3, the sp-crosscheck ceiling, the enumeration cap
        (
            ["verify", "1..14", "--max-g", "4"],
            "344c3f704d582a309c6f441be0e5d6e134670a76eb4610d277e1e2a8c5dfe79b",
        ),
        # the exhaustive-reduction cap of class-agreement
        (["verify", "9"], "48b7b0044c2e71ec219b5dcaffd4571347c9caec637e9df9ddfe50ed5f546c43"),
        # the default range 3..8, every class-agreement row included
        (["verify"], VERIFY_DIGEST),
        # an even genus inside the enumeration cap and above the reduction cap
        (["verify", "10"], "a4c398f34024fde9deebcac66a03a2b47f19b0345b974ad14a02ffea31d1d94b"),
        # the default cap's notice, and fixed-point rows past it at odd and even g
        (
            ["verify", "13..14"],
            "728b5506bf7ffb1ce43731e7fdfdb14c8965f0e305e8f6f0f7a2261c64fd8efc",
        ),
    ],
)
def test_verify_rows_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert _rows_digest(out) == digest


@pytest.mark.parametrize(
    "name, digest",
    [("verify-default", VERIFY_DIGEST), ("verify-enum", VERIFY_9_12_DIGEST)],
)
def test_benchmark_reference_outputs_are_the_pinned_rows(name, digest):
    # the benchmark checks each verify pass against these files
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / f"{name}.txt"
    assert _rows_digest(ref.read_text()) == digest


def test_verify_json_rows_match_the_text_rows(capsys):
    # the --json rows, written out as the TSV table, hash to the pinned text digest
    code, out, _ = run(capsys, "verify", "1..14", "--max-g", "4", "--json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    header = ["g", "check", "status", "detail"]  # the JSON keys are sorted
    lines = ["\t".join(header)] + [
        "\t".join("-" if row[key] is None else str(row[key]) for key in header)
        for row in rows
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "344c3f704d582a309c6f441be0e5d6e134670a76eb4610d277e1e2a8c5dfe79b"


def test_verify_self_check_failure_is_a_fail_row(capsys, monkeypatch):
    monkeypatch.setattr(cli, "census", _raise(SelfCheckError))
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_CHECK_FAILED
    lines = out.splitlines()
    failed = "3\torbit-sizes\tFAIL\tinjected failure"
    assert failed in lines
    later = [line.split("\t")[1] for line in lines[lines.index(failed) + 1 : -1]]
    assert later == [
        "arf-census", "class-agreement", "fixed-point", "normal-forms",
        "isotropy", "relations", "sp-crosscheck", "golden-traces",
    ]


def test_verify_reports_a_failed_enumeration_in_the_rows_that_read_it(capsys, monkeypatch):
    # the closure's own guards (the size sum, the 255-orbit limit) raise there
    monkeypatch.setattr(cli, "enumerate_orbits", _raise(SelfCheckError))
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_CHECK_FAILED
    rows = [line.split("\t") for line in out.splitlines()[1:-1]]
    assert [row[1] for row in rows] == [
        "orbit-count", "orbit-sizes", "arf-census", "class-agreement", "fixed-point",
        "normal-forms", "isotropy", "relations", "sp-crosscheck", "golden-traces",
    ]
    reads_partition = {
        "orbit-count", "orbit-sizes", "arf-census", "class-agreement", "isotropy",
        "sp-crosscheck",
    }
    for _, check, status, detail in rows:
        if check in reads_partition:
            assert (status, detail) == ("FAIL", "injected failure")
        else:
            assert status == "PASS"


def test_verify_scans_for_fixed_points_when_the_enumeration_fails(capsys, monkeypatch):
    # the scan reads no partition, so it runs at every genus within the cap
    monkeypatch.setattr(cli, "enumerate_orbits", _raise(SelfCheckError))
    code, out, _ = run(capsys, "verify", "3..4")
    assert code == EXIT_CHECK_FAILED
    rows = out.splitlines()
    assert "3\tfixed-point\tPASS\t111/101" in rows
    assert "4\tfixed-point\tPASS\tnone" in rows
    assert "3\tisotropy\tFAIL\tinjected failure" in rows


def test_verify_reports_reducer_guard_failures_as_rows(capsys, monkeypatch):
    # with no pair ever cancelled, the reducer's end-state guard fires on
    # every input that needs a cancellation; only the rows that reduce fail
    monkeypatch.setattr(normalform, "_rightmost_equal_pair", lambda top, bottom: None)
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_CHECK_FAILED
    rows = [line.split("\t") for line in out.splitlines()[1:-1]]
    assert [row[1] for row in rows] == [
        "orbit-count", "orbit-sizes", "arf-census", "class-agreement", "fixed-point",
        "normal-forms", "isotropy", "relations", "sp-crosscheck", "golden-traces",
    ]
    failed = {"class-agreement", "normal-forms", "golden-traces"}
    for _, check, status, detail in rows:
        if check in failed:
            assert status == "FAIL"
            assert detail.startswith("landed on ") and "not the class-" in detail
        else:
            assert status == "PASS"


def _row_of(out, g, check):
    """The one stdout line of verify's row for check at genus g."""
    prefix = f"{'-' if g is None else g}\t{check}\t"
    (line,) = [line for line in out.splitlines() if line.startswith(prefix)]
    return line


def _swap12(g, key):
    """Swap columns 1 and 2 of packed keys, ints or unsigned arrays."""
    moved = (key ^ key >> 1) & (1 | 1 << g)
    return key ^ moved * 3


# (name in cli, patch, the relations row's detail at g = 3, at g = 4); the
# row folds the letters of cli._letters over packed-key arrays and evaluates
# the refinement through cli.arf_keys.  A letter mutant (g, key, i) -> key
# is patched in as a letter table
_RELATION_BREAKS = [
    (
        "_letters",
        letter_table(lambda g, key, i: key >> g << g | (key + 1) % (1 << g)),
        "generator 1 not an involution",
        "generator 1 not an involution",
    ),
    (
        "_letters",
        letter_table(lambda g, key, i: key ^ 1),
        "generator 1 changes Arf",
        "generator 1 changes Arf",
    ),
    # s_3 acting as s_2: still an involution that keeps the Arf
    (
        "_letters",
        letter_table(lambda g, key, i: act(g, key, 2 if i == 3 else i)),
        "1,3 do not commute",
        "3,1 do not commute",
    ),
    # s_1 acting as the identity commutes with every letter
    (
        "_letters",
        letter_table(lambda g, key, i: key if i == 1 else act(g, key, i)),
        "braid relation fails at 1",
        "braid relation fails at 1",
    ),
    # an Arf of zeros passes the Arf-invariance check; only the refinement
    # samples, arf(v) ^ parity(v & m) against the pairing, catch it
    (
        "arf_keys",
        lambda g, keys: np.zeros(keys.shape, dtype=np.uint8),
        "quadratic refinement violated",
        "quadratic refinement violated",
    ),
    # every letter conjugated by the swap of columns 1 and 2: involutions that
    # keep the Arf and satisfy every relation, but s_1 twists about beta_2
    (
        "_letters",
        letter_table(lambda g, key, i: _swap12(g, act(g, _swap12(g, key), i))),
        "generator 1 is not the twist about its class",
        "generator 1 is not the twist about its class",
    ),
    # every letter the identity but s_5 on key 137, which g = 3 lacks and g = 4
    # first draws after its 64th key: the involution check reads all 256 keys,
    # not only the 64 the relations use
    (
        "_letters",
        letter_table(lambda g, key, i: key ^ (i == 5) * (key == 137)),
        None,
        "generator 5 not an involution",
    ),
]


@pytest.mark.parametrize(
    "name, patch, detail, g",
    [
        (name, patch, detail, g)
        for name, patch, *details in _RELATION_BREAKS
        for g, detail in zip((3, 4), details)
        if detail is not None
    ],
)
def test_verify_relations_names_the_first_broken_relation(
    capsys, monkeypatch, name, patch, detail, g
):
    monkeypatch.setattr(cli, name, patch)
    code, out, _ = run(capsys, "verify", str(g))
    assert code == EXIT_CHECK_FAILED
    assert _row_of(out, g, "relations") == f"{g}\trelations\tFAIL\t{detail}"


def test_verify_golden_traces_names_the_first_mismatch(capsys, monkeypatch):
    # a reduction that starts from the wrong matrix has the wrong word
    monkeypatch.setattr(
        cli,
        "reduce_to_canonical",
        lambda m: normalform.reduce_to_canonical(canonical_form(m.g, 0)),
    )
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_CHECK_FAILED
    assert _row_of(out, None, "golden-traces") == (
        "-\tgolden-traces\tFAIL\tword differs for 11111/10111"
    )
    # a replay that never moves misses the first intermediate matrix
    monkeypatch.undo()
    monkeypatch.setattr(cli, "apply_word", lambda m, word: m)
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_CHECK_FAILED
    assert _row_of(out, None, "golden-traces") == (
        "-\tgolden-traces\tFAIL\tintermediate 11100/10111 missing"
    )


def test_verify_fixed_point_fails_on_a_wrong_matrix(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fixed_point_matrix", lambda g: canonical_form(g, 0))
    # the solve finds 111/101, not the zero matrix, within the cap and past it
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_CHECK_FAILED
    assert _row_of(out, 3, "fixed-point") == "3\tfixed-point\tFAIL\t000/000"
    zero = "0" * 13
    code, out, _ = run(capsys, "verify", "13")
    assert code == EXIT_CHECK_FAILED
    assert _row_of(out, 13, "fixed-point") == f"13\tfixed-point\tFAIL\t{zero}/{zero}"


def test_verify_fixed_point_fails_when_the_classes_lose_rank(capsys, monkeypatch):
    # s_2's class alpha_1 replaced by s_1's, beta_1: the 2g+1 equations have rank 2g - 1
    keys = orbits._generator_keys
    monkeypatch.setattr(orbits, "_generator_keys", lambda g: keys(g)[:1] * 2 + keys(g)[2:])
    for g in (3, 13):
        code, out, _ = run(capsys, "verify", str(g))
        assert code == EXIT_CHECK_FAILED
        assert _row_of(out, g, "fixed-point") == (
            f"{g}\tfixed-point\tFAIL\tthe generator classes have rank {2 * g - 1}, not {2 * g}"
        )


def test_fixed_point_command_checks_the_solve(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fixed_point_matrix", lambda g: canonical_form(g, 0))
    for g in (5, 13):
        code, out, err = run(capsys, "fixed-point", str(g))
        assert (code, out) == (EXIT_CHECK_FAILED, "")
        zero = "0" * g
        assert err == (
            "error: internal check failed: the fixed-point solve disagrees with "
            f"the closed form {zero}/{zero}\n"
        )


def test_docstring_row_table_lists_the_rows_verify_prints(capsys):
    # the verify table in the module docstring: one line per row group,
    # a check name (or several, comma-separated) in its first column
    doc = cli.__doc__
    table = doc[doc.index("golden-traces row:\n\n") :].split("\n\n")[1]
    names = [
        name
        for line in table.splitlines()
        if not line.startswith(" ")
        for name in line.split("  ")[0].split(", ")
    ]
    code, out, _ = run(capsys, "verify", "3")
    assert code == EXIT_OK
    printed = [line.split("\t")[1] for line in out.splitlines()[1:-2]]
    assert out.splitlines()[-2].split("\t")[1] == "golden-traces"
    assert names == printed


def test_verify_rejects_malformed_range(capsys):
    assert run(capsys, "verify", "8..3")[0] == EXIT_USAGE
    assert run(capsys, "verify", "abc")[0] == EXIT_USAGE
    # argparse leaves both as an empty list; the error names the argument
    assert run(capsys, "verify", "3", "--max-g=--") == (
        EXIT_USAGE, "", "error: argument --max-g is missing its value\n",
    )
    assert run(capsys, "isotropy", "3", "--", "--") == (
        EXIT_USAGE, "", "error: argument m is missing its value\n",
    )


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_parser_pins_each_subcommand_usage_and_help():
    # the usage line fixes the order of positionals and flags, and shows that
    # only --max-g takes a value; whole help texts differ between Pythons
    (sub,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    usages = {
        name: " ".join(parser.format_usage().split()) for name, parser in sub.choices.items()
    }
    assert usages == {
        "classify": "usage: hyperspin classify [-h] [--json] g matrix",
        "reduce": "usage: hyperspin reduce [-h] [--trace] [--stats] [--json] g matrix",
        "orbits": "usage: hyperspin orbits [-h] [--json] g",
        "isotropy": "usage: hyperspin isotropy [-h] [--json] g m",
        "fixed-point": "usage: hyperspin fixed-point [-h] [--json] g",
        "verify": "usage: hyperspin verify [-h] [--max-g MAX_G] [--strict] [--json] [range]",
    }
    assert [(action.dest, action.help) for action in sub._choices_actions] == [
        ("classify", "orbit class of a spin matrix"),
        ("reduce", "reduction word and trace"),
        ("orbits", "orbit census table"),
        ("isotropy", "stabilizer report"),
        ("fixed-point", "matrix fixed by every generator"),
        ("verify", "run the verification suite"),
    ]


# Genera are drawn from 1..8 or above every ceiling, never in between, so
# that every run is cheap; int() reads "1_0" as 10, which is cheap too.
_TOKENS = st.one_of(
    st.integers(1, 8).map(str),
    st.integers(MAX_SYMBOLIC_GENUS + 1, 10**6).map(str),
    st.integers(10**20, 10**30).map(str),
    st.sampled_from(["-1", "1_0", "3..", "x", "", "--"]),
    st.text("01/", max_size=8),
)
_FLAGS = st.lists(
    st.one_of(
        st.sampled_from(["--json", "--strict", "--trace", "--stats"]),
        _TOKENS.map(lambda token: f"--max-g={token}"),
    ),
    max_size=3,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(["classify", "reduce", "orbits", "isotropy", "fixed-point", "verify"]),
    st.lists(_TOKENS, max_size=3),
    _FLAGS,
)
@example("isotropy", ["1_0", "--", "--"], [])
@example("classify", ["1_0", "--", "--"], [])
def test_any_argv_exits_with_a_documented_code(command, tokens, flags):
    # a bare verify runs the default range 3..8, seconds a run; other tests run it
    assume(command != "verify" or tokens)
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *tokens, *flags])
    assert time.perf_counter() - started < 20
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_SKIP_STRICT)
    assert "Traceback" not in err.getvalue()



@pytest.mark.parametrize("flag", ["--trace", "--json"])
def test_stdout_closed_early_exits_one_without_a_traceback(flag):
    # the output runs far past a pipe's buffer, so the writes after the close fail
    row = "1" * 400
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "hyperspin.cli", "reduce", "400", f"{row}/{row}", flag],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == EXIT_CHECK_FAILED
    assert "Traceback" not in err and "Exception ignored" not in err


# ---------------------------------------------------------------------------
# internal failures


def _raise(error):
    def fail(*args, **kwargs):
        raise error("injected failure")

    return fail


@pytest.mark.parametrize(
    "target, error, argv",
    [
        ("reduce_to_canonical", "SelfCheckError", ("classify", "5", "11111/10111")),
        ("reduce_to_canonical", "SelfCheckError", ("reduce", "5", "11111/10111")),
        ("census", "SelfCheckError", ("orbits", "3")),
        ("census", "ValueError", ("orbits", "3")),
    ],
)
def test_internal_check_failure_exits_one(capsys, monkeypatch, target, error, argv):
    error_type = getattr(cli, error, None) or getattr(builtins, error)
    monkeypatch.setattr(cli, target, _raise(error_type))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: internal check failed: ")
    assert err.count("\n") == 1
